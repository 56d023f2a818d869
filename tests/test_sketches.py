"""Tests for hashing primitives, FM sketches and the counter matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import (
    CounterMatrix,
    FMSketch,
    PHI,
    bin_index,
    fm_estimate,
    identifier_hash,
    rank_of_bits,
    rho,
)
from repro.sketches.counter_matrix import INFINITY
from repro.sketches.fm_sketch import expected_relative_error
from repro.sketches.hashing import sketch_coordinates


class TestHashing:
    def test_identifier_hash_is_deterministic(self):
        assert identifier_hash(("host", 3)) == identifier_hash(("host", 3))

    def test_identifier_hash_salt_changes_value(self):
        assert identifier_hash("x") != identifier_hash("x", salt="other")

    def test_identifier_hash_distinguishes_types(self):
        assert identifier_hash(1) != identifier_hash("1")

    def test_rho_range_and_determinism(self):
        for identifier in range(200):
            value = rho(identifier, bits=16)
            assert 0 <= value <= 16
            assert value == rho(identifier, bits=16)

    def test_rho_distribution_is_roughly_geometric(self):
        values = [rho(("id", i), bits=32) for i in range(4000)]
        share_zero = sum(1 for v in values if v == 0) / len(values)
        share_one = sum(1 for v in values if v == 1) / len(values)
        assert 0.45 < share_zero < 0.55
        assert 0.20 < share_one < 0.30

    def test_rho_validates_bits(self):
        with pytest.raises(ValueError):
            rho("x", bits=0)

    def test_bin_index_range_and_uniformity(self):
        bins = [bin_index(("id", i), 4) for i in range(4000)]
        assert set(bins) == {0, 1, 2, 3}
        counts = np.bincount(bins)
        assert counts.min() > 0.8 * counts.max()

    def test_bin_index_validates_bins(self):
        with pytest.raises(ValueError):
            bin_index("x", 0)

    def test_sketch_coordinates_within_matrix(self):
        for i in range(100):
            bin_idx, bit_idx = sketch_coordinates(("h", i), bins=8, bits=16)
            assert 0 <= bin_idx < 8
            assert 0 <= bit_idx < 16


class TestRankAndEstimate:
    def test_rank_of_bits(self):
        assert rank_of_bits([True, True, False, True]) == 2
        assert rank_of_bits([False, True]) == 0
        assert rank_of_bits([True, True, True]) == 3
        assert rank_of_bits([]) == 0

    def test_fm_estimate_matches_formula(self):
        assert fm_estimate([3.0, 3.0], 2) == pytest.approx(2 / PHI * 8.0)
        assert fm_estimate([3.0, 3.0], 2, paper_formula=True) == pytest.approx(2 * PHI * 8.0)

    def test_fm_estimate_validates_inputs(self):
        with pytest.raises(ValueError):
            fm_estimate([1.0], 2)
        with pytest.raises(ValueError):
            fm_estimate([], 0)

    def test_expected_relative_error_64_bins(self):
        # The paper quotes 9.7% for 64 buckets.
        assert expected_relative_error(64) == pytest.approx(0.0975, abs=0.001)


class TestFMSketch:
    def test_insert_is_idempotent(self):
        sketch = FMSketch(bins=8, bits=16)
        sketch.insert("object")
        matrix_after_one = sketch.matrix.copy()
        sketch.insert("object")
        assert np.array_equal(sketch.matrix, matrix_after_one)

    def test_estimate_grows_with_distinct_insertions(self):
        sketch = FMSketch(bins=16, bits=24)
        sketch.insert_many(range(10))
        small = sketch.estimate()
        sketch.insert_many(range(10, 2000))
        assert sketch.estimate() > small

    def test_estimate_accuracy_with_many_bins(self):
        sketch = FMSketch(bins=64, bits=24)
        sketch.insert_many(("item", i) for i in range(5000))
        estimate = sketch.estimate()
        assert 0.6 * 5000 < estimate < 1.6 * 5000

    def test_union_is_duplicate_insensitive(self):
        a = FMSketch(bins=8, bits=16)
        b = FMSketch(bins=8, bits=16)
        a.insert_many(range(100))
        b.insert_many(range(50, 150))
        union = a.union(b)
        direct = FMSketch(bins=8, bits=16)
        direct.insert_many(range(150))
        assert union == direct

    def test_union_update_in_place(self):
        a = FMSketch(bins=4, bits=8)
        b = FMSketch(bins=4, bits=8)
        a.insert(1)
        b.insert(2)
        a.union_update(b)
        expected = FMSketch(bins=4, bits=8)
        expected.insert_many([1, 2])
        assert a == expected

    def test_union_requires_compatible_shapes(self):
        with pytest.raises(ValueError):
            FMSketch(bins=4, bits=8).union(FMSketch(bins=8, bits=8))
        with pytest.raises(ValueError):
            FMSketch(bins=4, bits=8).union(FMSketch(bins=4, bits=8, salt="other"))

    def test_insert_value_registers_value_identifiers(self):
        sketch = FMSketch(bins=32, bits=24)
        sketch.insert_value("host", 500)
        assert 150 < sketch.estimate() < 1500

    def test_insert_value_rejects_negative(self):
        with pytest.raises(ValueError):
            FMSketch().insert_value("host", -1)

    def test_copy_is_independent(self):
        sketch = FMSketch(bins=4, bits=8)
        sketch.insert(1)
        clone = sketch.copy()
        clone.insert(2)
        assert sketch != clone

    def test_size_bytes(self):
        assert FMSketch(bins=8, bits=16).size_bytes() == 16

    def test_ranks_all_true_row(self):
        sketch = FMSketch(bins=1, bits=4)
        sketch.matrix[0, :] = True
        assert sketch.ranks() == [4]


class TestCounterMatrix:
    def test_construction_validates_shape(self):
        with pytest.raises(ValueError):
            CounterMatrix(0, 4)

    def test_owned_positions_pinned_to_zero(self):
        matrix = CounterMatrix(4, 8, owned=[(1, 2)])
        assert matrix.counters[1, 2] == 0
        matrix.increment()
        assert matrix.counters[1, 2] == 0
        assert matrix.counters[0, 0] == INFINITY

    def test_own_validates_position(self):
        matrix = CounterMatrix(4, 8)
        with pytest.raises(ValueError):
            matrix.own((5, 0))

    def test_increment_ages_unowned(self):
        matrix = CounterMatrix(2, 4, owned=[(0, 0)])
        matrix.counters[1, 1] = 3
        matrix.increment()
        assert matrix.counters[1, 1] == 4

    def test_merge_min_takes_elementwise_minimum(self):
        a = CounterMatrix(2, 4, owned=[(0, 0)])
        b = CounterMatrix(2, 4, owned=[(1, 1)])
        a.counters[0, 1] = 10
        b.counters[0, 1] = 3
        a.merge_min(b)
        assert a.counters[0, 1] == 3
        assert a.counters[0, 0] == 0  # owned stays pinned
        assert a.counters[1, 1] == 0  # learned about b's fresh position

    def test_merge_min_preserves_own_positions(self):
        a = CounterMatrix(2, 4, owned=[(0, 0)])
        b = CounterMatrix(2, 4)
        b.counters[0, 0] = 7
        a.counters[0, 0] = 5  # should never happen, but owned must re-pin
        a.merge_min(b)
        assert a.counters[0, 0] == 0

    def test_merge_min_array_shape_check(self):
        a = CounterMatrix(2, 4)
        with pytest.raises(ValueError):
            a.merge_min_array(np.zeros((3, 4), dtype=np.int64))

    def test_merge_requires_compatible_shapes(self):
        with pytest.raises(ValueError):
            CounterMatrix(2, 4).merge_min(CounterMatrix(2, 5))

    def test_for_value_registers_identifiers(self):
        matrix = CounterMatrix.for_value("host", 50, bins=16, bits=16)
        assert 1 <= len(matrix.owned) <= 50
        assert CounterMatrix.for_value("host", 0, bins=4, bits=4).owned == set()
        with pytest.raises(ValueError):
            CounterMatrix.for_value("host", -1, bins=4, bits=4)

    def test_bit_image_and_estimate(self):
        matrix = CounterMatrix.for_value("host", 200, bins=16, bits=20)
        estimate = matrix.estimate(lambda k: 7 + k / 4)
        assert 40 < estimate < 800

    def test_estimate_identifiers_per_host_scaling(self):
        matrix = CounterMatrix.for_identifiers([("h", i) for i in range(100)], 16, 20)
        raw = matrix.estimate(lambda k: 10.0)
        scaled = matrix.estimate(lambda k: 10.0, identifiers_per_host=10)
        assert scaled == pytest.approx(raw / 10)

    def test_estimate_validates_identifiers_per_host(self):
        with pytest.raises(ValueError):
            CounterMatrix(2, 4).estimate(lambda k: 1.0, identifiers_per_host=0)

    def test_disown_all_allows_decay(self):
        matrix = CounterMatrix(2, 4, owned=[(0, 0)])
        matrix.disown_all()
        matrix.increment()
        assert matrix.counters[0, 0] == 1

    def test_copy_is_independent(self):
        matrix = CounterMatrix(2, 4, owned=[(0, 0)])
        matrix.counters[1, 1] = 5
        clone = matrix.copy()
        clone.increment()
        assert clone.counters[1, 1] == 6
        assert matrix.counters[1, 1] == 5
        assert matrix != clone
        assert matrix.owned == clone.owned

    def test_max_finite_counter(self):
        matrix = CounterMatrix(2, 4)
        assert matrix.max_finite_counter() is None
        matrix.own((0, 0))
        matrix.increment()
        assert matrix.max_finite_counter() == 0

    def test_size_bytes(self):
        assert CounterMatrix(4, 8).size_bytes() == 64
        assert CounterMatrix(4, 8).size_bytes(counter_bytes=1) == 32

    @settings(max_examples=200, deadline=None)
    @given(
        bins=st.integers(1, 6),
        bits=st.integers(1, 9),
        intercept=st.integers(0, 6),
        data=st.data(),
    )
    def test_ranks_are_the_first_unset_bit_per_bin(self, bins, bits, intercept, data):
        matrix = CounterMatrix(bins, bits)
        ages = st.sampled_from([0, 1, 3, 5, 7, 9, 12, INFINITY])
        matrix.counters[:] = data.draw(
            st.lists(st.lists(ages, min_size=bits, max_size=bits), min_size=bins, max_size=bins)
        )
        matrix.counters[0] = 0  # an all-fresh bin ranks ``bits``
        if bins > 1:
            matrix.counters[1] = INFINITY  # an all-expired bin ranks 0

        def cutoff(k):
            return intercept + k / 2

        ranks = matrix.ranks(cutoff)
        assert ranks == [rank_of_bits(row) for row in matrix.bit_image(cutoff)]
        assert all(type(rank) is int for rank in ranks)
        assert ranks[0] == bits and (bins == 1 or ranks[1] == 0)
