"""Property-based tests (hypothesis) for the core data structures and invariants."""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import cdf_at
from repro.api.spec import NAMED_CUTOFFS
from repro.baselines.count_sketch import SketchCount, SketchCountState
from repro.baselines.push_sum import PushSum
from repro.core.cutoff import default_cutoff, linear_cutoff
from repro.core.push_sum_revert import PushSumRevert
from repro.events import TIME_EPS
from repro.metrics.accuracy import error_statistics
from repro.mobility.traces import ContactRecord, ContactTrace
from repro.obs.probe import NULL_PROBE
from repro.simulator.kernels import KERNELS
from repro.simulator.push_sum_kernel import VectorizedPushSumRevert
import repro.simulator.sketch_kernels as sketch_kernels
from repro.simulator.sketch_kernels import (
    _chunked_ranks,
    _merge_rows,
    _scatter_rows,
    VectorizedCountSketchReset,
    VectorizedSketchCount,
)
from repro.simulator.sparse import (
    CSRTopology,
    GridRingTopology,
    TraceCSRTopology,
)
from repro.sketches.counter_matrix import CounterMatrix, INFINITY
from repro.sketches.fm_sketch import PHI, FMSketch, rank_of_bits
from repro.sketches.hashing import bin_index, rho
from repro.topology.graphs import ring_lattice_edges

# A modest profile keeps the suite fast while still exploring a useful space.
COMMON_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=40,
)


class TestMassConservationProperties:
    @COMMON_SETTINGS
    @given(values=values_strategy, reversion=st.floats(min_value=0.0, max_value=1.0))
    def test_revert_step_conserves_population_mass(self, values, reversion):
        """Applying the revert step to every host leaves total mass unchanged
        as long as the current totals sum to the initial totals (Section III)."""
        protocol = PushSumRevert(reversion)
        rng = np.random.default_rng(0)
        states = [protocol.create_state(i, v, rng) for i, v in enumerate(values)]
        # Redistribute mass arbitrarily while conserving the totals.
        permutation = np.random.default_rng(1).permutation(len(values))
        originals = [(s.weight, s.total) for s in states]
        for state, source in zip(states, permutation):
            state.weight, state.total = originals[source]
        total_before = sum(s.total for s in states)
        weight_before = sum(s.weight for s in states)
        for state in states:
            protocol.finalize_round(state, 1, rng)
        assert sum(s.total for s in states) == pytest.approx(total_before, rel=1e-9, abs=1e-9)
        assert sum(s.weight for s in states) == pytest.approx(weight_before, rel=1e-9, abs=1e-9)

    @COMMON_SETTINGS
    @given(values=values_strategy)
    def test_pairwise_exchange_conserves_mass(self, values):
        protocol = PushSum()
        rng = np.random.default_rng(0)
        states = [protocol.create_state(i, v, rng) for i, v in enumerate(values)]
        total_before = sum(s.total for s in states)
        order = np.random.default_rng(2).permutation(len(states))
        for a, b in zip(order[::2], order[1::2]):
            protocol.exchange(states[a], states[b], rng)
        assert sum(s.total for s in states) == pytest.approx(total_before, rel=1e-9)

    @COMMON_SETTINGS
    @given(
        values=values_strategy,
        reversion=st.floats(min_value=0.0, max_value=0.9),
        rounds=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_vectorized_kernel_conserves_mass_without_failures(
        self, values, reversion, rounds, seed
    ):
        kernel = VectorizedPushSumRevert(values, reversion, mode="pushpull", seed=seed)
        total_before = kernel.total.sum()
        kernel.step_many(rounds)
        assert kernel.total.sum() == pytest.approx(total_before, rel=1e-9)

    @COMMON_SETTINGS
    @given(values=values_strategy, seed=st.integers(min_value=0, max_value=1000))
    def test_estimates_bounded_by_value_range(self, values, seed):
        """Push/pull mass averaging keeps every estimate inside the convex hull
        of the initial values (no reversion, no failures)."""
        kernel = VectorizedPushSumRevert(values, 0.0, mode="pushpull", seed=seed)
        kernel.step_many(5)
        estimates = kernel.estimates()
        assert estimates.min() >= min(values) - 1e-9
        assert estimates.max() <= max(values) + 1e-9


def _fm_sketch(identifiers):
    sketch = FMSketch(bins=8, bits=20)
    for identifier in identifiers:
        sketch.insert(identifier)
    return sketch


def _union(first, *others):
    """``first``'s sketch after Sketch-Count integrates the sketches of ``others``."""
    state = SketchCountState(sketch=_fm_sketch(first), own_identifiers=0)
    SketchCount(bins=8, bits=20).integrate(state, [_fm_sketch(o).matrix for o in others], None)
    return state.sketch


class TestSketchProperties:
    identifiers = st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=200)

    @COMMON_SETTINGS
    @given(a=identifiers, b=identifiers)
    def test_union_commutative(self, a, b):
        assert _union(a, b) == _union(b, a) == _fm_sketch(a + b)

    @COMMON_SETTINGS
    @given(a=identifiers)
    def test_union_idempotent(self, a):
        assert _union(a, a) == _fm_sketch(a)

    @COMMON_SETTINGS
    @given(a=identifiers, b=identifiers, c=identifiers)
    def test_union_associative(self, a, b, c):
        assert _union(a, b, c) == _union(c, b, a) == _union(a + b, c) == _union(a, b + c)

    @COMMON_SETTINGS
    @given(a=identifiers, b=identifiers)
    def test_union_estimate_at_least_each_side(self, a, b):
        union = _union(a, b)
        assert union.estimate() >= _fm_sketch(a).estimate() - 1e-9
        assert union.estimate() >= _fm_sketch(b).estimate() - 1e-9

    @COMMON_SETTINGS
    @given(identifier=st.one_of(st.integers(), st.text(max_size=20)), bits=st.integers(2, 64))
    def test_rho_and_bin_are_stable_and_bounded(self, identifier, bits):
        assert 0 <= rho(identifier, bits) <= bits
        assert rho(identifier, bits) == rho(identifier, bits)
        assert 0 <= bin_index(identifier, 7) < 7

    @COMMON_SETTINGS
    @given(bits=st.lists(st.booleans(), max_size=30))
    def test_rank_of_bits_counts_leading_ones(self, bits):
        rank = rank_of_bits(bits)
        assert all(bits[:rank])
        assert rank == len(bits) or not bits[rank]


class TestCounterMatrixProperties:
    owned_strategy = st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 7)), min_size=0, max_size=6
    )

    @COMMON_SETTINGS
    @given(owned_a=owned_strategy, owned_b=owned_strategy, rounds=st.integers(0, 5))
    def test_merge_min_is_commutative_on_counters(self, owned_a, owned_b, rounds):
        def build(owned):
            matrix = CounterMatrix(4, 8, owned)
            for _ in range(rounds):
                matrix.increment()
            return matrix

        a1, b1 = build(owned_a), build(owned_b)
        a2, b2 = build(owned_a), build(owned_b)
        a1.merge_min_array(b1.counters)
        b2.merge_min_array(a2.counters)
        # Outside the owned positions (which each side pins to zero for
        # itself), the merged counters agree.
        mask = np.ones((4, 8), dtype=bool)
        for position in set(owned_a) | set(owned_b):
            mask[position] = False
        assert np.array_equal(a1.counters[mask], b2.counters[mask])

    @COMMON_SETTINGS
    @given(owned=owned_strategy, rounds=st.integers(0, 10))
    def test_counters_never_negative_and_owned_stay_zero(self, owned, rounds):
        matrix = CounterMatrix(4, 8, owned)
        for _ in range(rounds):
            matrix.increment()
        assert (matrix.counters >= 0).all()
        for position in owned:
            assert matrix.counters[position] == 0

    @COMMON_SETTINGS
    @given(owned=owned_strategy, rounds=st.integers(1, 10))
    def test_finite_counters_bounded_by_elapsed_rounds(self, owned, rounds):
        matrix = CounterMatrix(4, 8, owned)
        for _ in range(rounds):
            matrix.increment()
        finite = matrix.counters[matrix.counters < INFINITY]
        if finite.size:
            assert finite.max() <= rounds

    @COMMON_SETTINGS
    @given(owned=owned_strategy)
    def test_merge_with_self_is_identity(self, owned):
        matrix = CounterMatrix(4, 8, owned)
        matrix.increment()
        before = matrix.counters.copy()
        matrix.merge_min_array(matrix.payload())
        assert np.array_equal(matrix.counters, before)

    @COMMON_SETTINGS
    @given(
        owned=owned_strategy,
        others=st.lists(
            st.tuples(
                st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7)), max_size=4),
                st.integers(0, 5),
            ),
            min_size=2,
            max_size=4,
        ),
        order_seed=st.integers(0, 1000),
    )
    def test_merges_are_order_insensitive(self, owned, others, order_seed):
        """Min-merging a set of peer matrices gives the same counters in any order."""

        def build_peer(peer_owned, rounds):
            peer = CounterMatrix(4, 8, peer_owned)
            for _ in range(rounds):
                peer.increment()
            return peer

        peers = [build_peer(peer_owned, rounds) for peer_owned, rounds in others]
        forward, shuffled = CounterMatrix(4, 8, owned), CounterMatrix(4, 8, owned)
        forward.increment()
        shuffled.increment()
        for peer in peers:
            forward.merge_min_array(peer.counters)
        permutation = np.random.default_rng(order_seed).permutation(len(peers))
        for index in permutation:
            shuffled.merge_min_array(peers[int(index)].counters)
        assert forward == shuffled


class TestTraceProperties:
    contact_strategy = st.lists(
        st.tuples(
            st.integers(0, 5),
            st.integers(0, 5),
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
        ),
        min_size=0,
        max_size=30,
    )

    @staticmethod
    def _build_trace(raw):
        records = [
            ContactRecord(a, b, start, start + duration)
            for a, b, start, duration in raw
            if a != b
        ]
        return ContactTrace(6, records)

    @COMMON_SETTINGS
    @given(raw=contact_strategy, time=st.floats(min_value=0.0, max_value=1500.0))
    def test_adjacency_is_symmetric(self, raw, time):
        trace = self._build_trace(raw)
        adjacency = trace.adjacency_at(time)
        for node, neighbors in adjacency.items():
            for neighbor in neighbors:
                assert node in adjacency[neighbor]

    @COMMON_SETTINGS
    @given(raw=contact_strategy, time=st.floats(min_value=0.0, max_value=1500.0))
    def test_window_union_contains_instantaneous_adjacency(self, raw, time):
        trace = self._build_trace(raw)
        instant = trace.adjacency_at(time)
        window = trace.adjacency_between(max(0.0, time - 100.0), time + 1e-6)
        for node, neighbors in instant.items():
            assert neighbors <= window[node]

    @COMMON_SETTINGS
    @given(raw=contact_strategy)
    def test_normalised_records_are_disjoint_per_pair(self, raw):
        trace = self._build_trace(raw)
        by_pair = {}
        for record in trace.records:
            by_pair.setdefault((record.a, record.b), []).append(record)
        for records in by_pair.values():
            records.sort(key=lambda r: r.start)
            for first, second in zip(records, records[1:]):
                assert first.end < second.start or first.end <= second.start

    @COMMON_SETTINGS
    @given(raw=contact_strategy)
    def test_groups_partition_all_devices(self, raw):
        trace = self._build_trace(raw)
        groups = trace.groups_at(trace.duration, window=trace.duration + 1.0)
        seen = sorted(device for group in groups for device in group)
        assert seen == sorted(set(seen))
        assert set(seen) == set(range(6))


class TestCDFProperties:
    samples = st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=100
    )

    @COMMON_SETTINGS
    @given(values=samples)
    def test_cdf_monotone_and_ends_at_one(self, values):
        probabilities = cdf_at(values, np.sort(values))
        assert (np.diff(probabilities) >= -1e-12).all()
        assert probabilities[-1] == pytest.approx(1.0)

    @COMMON_SETTINGS
    @given(values=samples, point=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_cdf_at_matches_manual_count(self, values, point):
        expected = sum(1 for v in values if v <= point) / len(values)
        assert cdf_at(values, [point])[0] == pytest.approx(expected)


class TestVectorizedKernelBounds:
    """The array kernels honour their sentinel and state invariants."""

    @COMMON_SETTINGS
    @given(
        n=st.integers(min_value=2, max_value=50),
        bins=st.integers(min_value=1, max_value=8),
        bits=st.integers(min_value=1, max_value=12),
        rounds=st.integers(min_value=0, max_value=15),
        fail_fraction=st.floats(min_value=0.0, max_value=0.9),
        decay=st.booleans(),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_counter_kernel_stays_inside_its_sentinel(
        self, n, bins, bits, rounds, fail_fraction, decay, seed
    ):
        """The default cutoff stores uint8 counters, decay off int16 ones; either way
        every counter lies in [0, never_heard] and a position nobody owns stays at
        the sentinel on every row."""
        cutoff = default_cutoff if decay else None
        kernel = VectorizedCountSketchReset(n, bins=bins, bits=bits, cutoff=cutoff, seed=seed)
        kernel.step_many(rounds)
        kernel.fail_random_fraction(fail_fraction)
        kernel.step_many(rounds)
        never_heard = kernel.never_heard
        assert kernel.counters.dtype == (np.uint8 if decay else np.int16)
        assert never_heard.dtype == kernel.counters.dtype
        assert kernel.counters.min() >= 0
        assert kernel.counters.max() <= never_heard
        unowned = ~kernel.own_mask.any(axis=0)  # fail() disowns nothing
        assert (kernel.counters[:, unowned] == never_heard).all()
        # Finite counters are bounded by the elapsed rounds: nothing can be
        # staler than the simulation is old.
        finite = kernel.counters[kernel.counters < never_heard]
        if finite.size:
            assert finite.max() <= 2 * rounds

    @COMMON_SETTINGS
    @given(
        n=st.integers(min_value=2, max_value=50),
        rounds=st.integers(min_value=1, max_value=10),
        fail_fraction=st.floats(min_value=0.0, max_value=0.9),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_sketch_count_estimates_never_decrease(self, n, rounds, fail_fraction, seed):
        """OR-merge gossip is monotone: every host's sketch can only grow —
        including through failures, which is exactly its dynamic weakness.
        (The *population mean* may still drop when a failure removes a host
        whose estimate was above average, so the invariant is per host.)"""
        kernel = VectorizedSketchCount(n, bins=8, bits=16, seed=seed)
        previous_ranks = kernel.ranks()
        for _ in range(rounds):
            kernel.step()
            current_ranks = kernel.ranks()
            assert (current_ranks >= previous_ranks).all()
            previous_ranks = current_ranks
        kernel.fail_random_fraction(fail_fraction)
        kernel.step_many(2)
        assert (kernel.ranks() >= previous_ranks).all()

    @COMMON_SETTINGS
    @given(
        values=values_strategy,
        reversion=st.floats(min_value=0.0, max_value=1.0),
        rounds=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_push_sum_weights_stay_positive(self, values, reversion, rounds, seed):
        kernel = VectorizedPushSumRevert(values, reversion, mode="pushpull", seed=seed)
        kernel.step_many(rounds)
        assert (kernel.weight[kernel.alive] > 0.0).all()
        assert np.isfinite(kernel.estimates()).all()


@st.composite
def gossip_pairs(draw):
    """``(n, senders, targets)``: unique ascending senders (any subset of the rows,
    so topology drop-outs are covered; ``_merge_rows``' precondition), each with
    an arbitrary target row."""
    n = draw(st.integers(min_value=1, max_value=12))
    rows = st.integers(min_value=0, max_value=n - 1)
    senders = sorted(draw(st.lists(rows, unique=True, max_size=n)))
    targets = draw(st.lists(rows, min_size=len(senders), max_size=len(senders)))
    return n, senders, targets


def _prefix_rank(image):
    """Per (host, bin) prefix-of-ones length of a whole boolean image, in one pass: a
    trailing all-False column makes ``argmin`` (first False) see all-True rows' width."""
    padded = np.zeros(image.shape[:-1] + (image.shape[-1] + 1,), dtype=bool)
    padded[..., :-1] = image
    return padded.argmin(axis=-1)


def _chunks_of(monkeypatch, rows, chunk):
    """Shrink the sketch helpers' byte budget to ``chunk`` rows of ``rows`` (``None``:
    the module's own budget)."""
    if chunk is not None:
        row_bytes = rows.itemsize * int(np.prod(rows.shape[1:]))
        monkeypatch.setattr(sketch_kernels, "_CHUNK_BYTES", chunk * row_bytes)


class TestSketchKernelPrimitives:
    """The shared row merge, read-out and threshold table against their plain references.

    The merge and read-out work a chunk of rows at a time; ``chunk`` reruns a test
    with 1- and 2-row chunks, so the small drawn states cross chunk boundaries.
    """

    @staticmethod
    def _ufunc_at_merge(rows, senders, targets, reduce, pull):
        before = rows.copy()
        reduce.at(rows, targets, rows[senders])
        if pull:
            rows[senders] = reduce(rows[senders], before[targets])

    @pytest.mark.parametrize("chunk", [None, 1, 2])
    @COMMON_SETTINGS
    @given(
        pairs=gossip_pairs(),
        width=st.integers(min_value=1, max_value=6),
        pull=st.booleans(),
        boolean=st.booleans(),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @example(pairs=(6, [0, 1, 2, 3, 4, 5], [2] * 6), width=3, pull=True, boolean=False, seed=0)
    @example(pairs=(6, [0, 1, 2, 3, 4, 5], [2] * 6), width=3, pull=False, boolean=True, seed=0)
    @example(pairs=(4, [0, 1, 2, 3], [0, 1, 2, 3]), width=2, pull=True, boolean=False, seed=1)
    @example(pairs=(5, [3], [1]), width=2, pull=True, boolean=False, seed=2)
    @example(pairs=(5, [], []), width=2, pull=True, boolean=True, seed=3)
    @example(pairs=(7, [1, 4, 6], [1, 0, 1]), width=4, pull=True, boolean=False, seed=4)
    # Every row sends: the in-place pull, without and with self-targets.
    @example(pairs=(5, [0, 1, 2, 3, 4], [1, 2, 3, 4, 0]), width=3, pull=True, boolean=False, seed=5)
    @example(pairs=(5, [0, 1, 2, 3, 4], [3, 1, 0, 3, 4]), width=3, pull=True, boolean=True, seed=6)
    def test_matches_ufunc_at_reference(self, chunk, pairs, width, pull, boolean, seed):
        n, senders, targets = pairs
        senders = np.array(senders, dtype=np.int64)
        targets = np.array(targets, dtype=np.int64)
        rng = np.random.default_rng(seed)
        if boolean:
            reduce, rows = np.logical_or, rng.random((n, width)) < 0.3
        else:
            reduce, rows = np.minimum, rng.integers(0, 9, size=(n, width)).astype(np.int16)
            rows[rng.random((n, width)) < 0.3] = 30_000
        expected = rows.copy()
        self._ufunc_at_merge(expected, senders, targets, reduce, pull)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _chunks_of(monkeypatch, rows, chunk)
            _merge_rows(rows, senders, targets, reduce, pull)
        assert np.array_equal(rows, expected)

    @pytest.mark.parametrize("chunk", [None, 1, 2])
    @COMMON_SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=20),
        bins=st.integers(min_value=1, max_value=4),
        bits=st.integers(min_value=1, max_value=8),
        rounds=st.integers(min_value=0, max_value=4),
        survivors=st.one_of(st.sampled_from([0, 1, None]), st.integers(min_value=0, max_value=20)),
        counters=st.booleans(),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @example(n=5, bins=2, bits=4, rounds=3, survivors=None, counters=True, seed=0)  # all alive
    @example(n=5, bins=2, bits=4, rounds=3, survivors=1, counters=True, seed=1)
    @example(n=5, bins=2, bits=4, rounds=3, survivors=0, counters=True, seed=2)
    @example(n=5, bins=2, bits=4, rounds=3, survivors=None, counters=False, seed=3)
    @example(n=5, bins=2, bits=4, rounds=3, survivors=1, counters=False, seed=4)
    @example(n=5, bins=2, bits=4, rounds=3, survivors=0, counters=False, seed=5)
    def test_chunked_read_out_matches_whole_image(
        self, chunk, n, bins, bits, rounds, survivors, counters, seed
    ):
        """Both sketch kernels' ``ranks()`` and ``estimates()`` (``survivors`` live hosts,
        ``None``: everyone) equal the prefix ranks of the whole bit image."""
        kernel_class = VectorizedCountSketchReset if counters else VectorizedSketchCount
        kernel = kernel_class(n, bins=bins, bits=bits, identifiers_per_host=2, seed=seed)
        kernel.step_many(rounds)
        if survivors is not None:
            leaving = np.random.default_rng(seed).permutation(n)[min(survivors, n):]
            kernel.fail(leaving)
        image = kernel.bit_image() if counters else kernel.matrix
        sketches = kernel.counters if counters else kernel.matrix
        with pytest.MonkeyPatch.context() as monkeypatch:
            _chunks_of(monkeypatch, sketches, chunk)
            ranks, estimates = kernel.ranks(), kernel.estimates()
            live_mean = _chunked_ranks(
                sketches, kernel.live_index(), kernel._thresholds if counters else None, mean=True
            )
        whole = _prefix_rank(image)
        mean_rank = whole.mean(axis=1)[kernel.alive]
        assert np.array_equal(ranks, whole)
        assert np.array_equal(live_mean, mean_rank)
        assert np.array_equal(estimates, bins / PHI * np.exp2(mean_rank) / 2)

    @pytest.mark.parametrize("chunk", [None, 1, 2])
    @pytest.mark.parametrize("gather", [False, True])
    @pytest.mark.parametrize("counters", [False, True])
    @pytest.mark.parametrize("bits", [1, 8, 18])
    def test_read_out_corners(self, bits, counters, gather, chunk):
        """An all-ones bin ranks ``bits``, a bin with bit 0 unset ranks 0 and a bin whose
        only unset bit is the last ranks ``bits - 1``, in every bin of the row."""
        corners = np.ones((3, bits), dtype=bool)
        corners[1, 0] = corners[2, -1] = False
        order = (np.arange(5)[:, None] + np.arange(3)) % 3  # row r: corners rotated by r
        image, expected = corners[order], np.array([bits, 0, bits - 1])[order]
        if counters:  # set on the boundary (c == f(k)), unset one above it
            thresholds = np.random.default_rng(bits).integers(0, 20, size=bits).astype(np.int16)
            sketches = np.where(image, thresholds, thresholds + 1).astype(np.int16)
        else:
            thresholds, sketches = None, image
        hosts = np.array([4, 1, 3]) if gather else None
        if gather:
            expected = expected[hosts]
        with pytest.MonkeyPatch.context() as monkeypatch:
            _chunks_of(monkeypatch, sketches, chunk)
            ranks = _chunked_ranks(sketches, hosts, thresholds)
            mean_rank = _chunked_ranks(sketches, hosts, thresholds, mean=True)
        assert np.array_equal(ranks, expected)
        assert np.array_equal(mean_rank, expected.mean(axis=1))

    def test_scatter_rows_refuses_a_source_sharing_memory_with_rows(self):
        """Later fan-in ranks gather ``source`` after earlier ones wrote ``rows``."""
        rows = np.arange(12, dtype=np.int16).reshape(4, 3)
        for source in (rows, rows[::-1], rows[1:3]):
            targets = np.zeros(len(source), dtype=np.int64)
            with pytest.raises(ValueError, match="share memory"):
                _scatter_rows(rows, targets, np.minimum, source)
        assert np.array_equal(rows, np.arange(12).reshape(4, 3))

    def test_neither_caller_hands_scatter_rows_an_alias(self, monkeypatch):
        """``_merge_rows`` scatters from its snapshot and a landing push from its payload
        copy: rounds of both kernels, and Sketch-Count's calendar with delayed pushes."""
        callers = []

        def recorded(rows, targets, reduce, source, index=None):
            callers.append("merge" if index is not None else "land")
            _scatter_rows(rows, targets, reduce, source, index)

        monkeypatch.setattr(sketch_kernels, "_scatter_rows", recorded)
        for kernel_class in (VectorizedCountSketchReset, VectorizedSketchCount):
            kernel = kernel_class(12, bins=2, bits=6, seed=0)
            kernel.step_many(2)
            kernel.fail([3, 7])
            kernel.step()
        calendar = VectorizedSketchCount(12, bins=2, bits=6, pull=False, seed=1)
        delays = np.random.default_rng(2)
        for _ in range(3):
            batches = calendar.step_subset(
                calendar.live_index()[::2], lambda k: delays.choice([0.0, 1.0], size=k)
            )
            for _kind, _senders, _delay, *arrays in batches:
                calendar.deliver("push", *arrays)
        assert {"merge", "land"} <= set(callers)

    @COMMON_SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=30),
        bits=st.integers(min_value=1, max_value=8),
        identifiers=st.integers(min_value=1, max_value=3),
        pull=st.booleans(),
        ring=st.booleans(),
        leaves=st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.6), st.booleans()),
                        max_size=5),
        decay=st.booleans(),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @example(n=6, bits=3, identifiers=1, pull=True, ring=False, leaves=[], decay=True, seed=0)
    @example(n=6, bits=3, identifiers=2, pull=True, ring=True, leaves=[(0.5, True)], decay=True,
             seed=1)
    @example(n=6, bits=3, identifiers=1, pull=False, ring=False, leaves=[(0.5, False)],
             decay=False, seed=2)
    def test_count_sketch_reset_round_matches_plain_reference(
        self, n, bits, identifiers, pull, ring, leaves, decay, seed
    ):
        """Each round equals "age every live row in int64 against the kernel's sentinel,
        re-pin live owners, ``minimum.at`` merge" on a copy, and a dead row stays
        byte-identical from the round it died in.  ``leaves`` lists one (fraction,
        graceful) departure per round; two more rounds follow.  ``decay`` picks uint8
        counters (the default cutoff) or int16 ones (decay off)."""
        topology = None
        if ring and n > 4:
            topology = CSRTopology.from_edges(*ring_lattice_edges(n, k=2), n)
        kernel = VectorizedCountSketchReset(
            n, bins=2, bits=bits, cutoff=default_cutoff if decay else None,
            identifiers_per_host=identifiers, pull=pull, topology=topology, seed=seed,
        )
        never_heard = int(kernel.never_heard)
        frozen = {}  # dead host → its row at death
        for fraction, graceful in leaves + [(0.0, False)] * 2:
            leaving = kernel.live_index()[: int(fraction * kernel.live_index().size)]
            (kernel.depart_gracefully if graceful else kernel.fail)(leaving)
            frozen.update((int(host), kernel.counters[host].copy()) for host in leaving)
            reference = copy.deepcopy(kernel)  # same generator state: same peers
            alive_idx = reference.live_index()
            rows = reference.counters.reshape(n, -1)
            rows[alive_idx] = np.minimum(rows[alive_idx].astype(np.int64) + 1, never_heard)
            owner_alive = reference.alive[reference._owned_hosts]
            rows[reference._owned_hosts[owner_alive], reference._owned_positions[owner_alive]] = 0
            if alive_idx.size >= 2:
                senders, targets = reference._draw_push_targets(alive_idx)  # live ranks
                self._ufunc_at_merge(rows, alive_idx[senders], alive_idx[targets], np.minimum, pull)
            kernel.step()
            assert np.array_equal(kernel.counters, reference.counters)
            for host, row in frozen.items():
                assert kernel.counters[host].tobytes() == row.tobytes()

    @COMMON_SETTINGS
    @given(
        intercept=st.floats(min_value=-3.0, max_value=40.0),
        slope=st.floats(min_value=-2.0, max_value=3.0),
    )
    @example(intercept=None, slope=0.0)
    @example(intercept=float("inf"), slope=0.0)
    @example(intercept=float("-inf"), slope=0.0)
    def test_integer_threshold_table_matches_float_compare(self, intercept, slope):
        """``c <= f(k)`` for every counter value 0..never_heard of the kernel's dtype and
        every bit k."""
        bits = 12
        cutoff = None if intercept is None else (lambda k: intercept + slope * k)
        never_heard = VectorizedCountSketchReset(1, bins=1, bits=bits, cutoff=cutoff).never_heard
        values = np.arange(int(never_heard) + 1, dtype=never_heard.dtype)
        kernel = VectorizedCountSketchReset(values.size, bins=1, bits=bits, cutoff=cutoff)
        assert kernel.counters.dtype == values.dtype
        kernel.counters[:, 0, :] = values[:, None]
        # With decay off the threshold still excludes the "never heard of" sentinel.
        ceiling = float(never_heard) - 1.0
        thresholds = np.array(
            [ceiling if cutoff is None else min(float(cutoff(k)), ceiling) for k in range(bits)]
        )
        assert np.array_equal(kernel.bit_image()[:, 0, :], values[:, None] <= thresholds)


class TestCounterDtypeRule:
    """Count-Sketch-Reset stores uint8 counters with a sentinel of 255 exactly when every
    ``floor(f(k))`` lies in [0, 254], else int16 with a sentinel of 30 000; either way
    its bits, ranks and estimates are those of a counter that never saturates."""

    BITS = 20
    ROUNDS = 300  # long enough for a departed source's counters to pass 255

    @pytest.mark.parametrize(
        "cutoff, dtype",
        [
            (NAMED_CUTOFFS["default"], np.uint8),
            (NAMED_CUTOFFS["slow"], np.uint8),
            (linear_cutoff(216.0, 2.0), np.uint8),  # floor(f(19)) = 254
            (linear_cutoff(216.9, 2.0), np.uint8),  # f(19) = 254.9
            (None, np.int16),
            (NAMED_CUTOFFS["off"], np.int16),
            (linear_cutoff(217.0, 2.0), np.int16),  # f(19) = 255
            (lambda k: k - 0.5, np.int16),  # floor(f(0)) = -1
        ],
        ids=["default", "slow", "floor-254", "254.9", "none", "off", "reaches-255", "negative"],
    )
    def test_the_cutoff_table_picks_the_dtype(self, cutoff, dtype):
        kernel = VectorizedCountSketchReset(6, bins=2, bits=self.BITS, cutoff=cutoff)
        assert kernel.counters.dtype == dtype
        assert kernel.never_heard.dtype == dtype
        assert kernel.never_heard == (255 if dtype is np.uint8 else 30_000)
        kernel.step_many(2)
        assert kernel.counters.dtype == dtype
        kernel.join([1.0])
        assert kernel.counters.dtype == dtype

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(min_value=2, max_value=24),
        bits=st.integers(min_value=1, max_value=8),
        identifiers=st.integers(min_value=1, max_value=3),
        pull=st.booleans(),
        ring=st.booleans(),
        cutoff=st.sampled_from(["default", "slow", "edge"]),
        script=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),
                st.sampled_from(["fail", "leave", "join"]),
                st.floats(min_value=0.0, max_value=0.5),
            ),
            max_size=6,
        ),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @example(n=12, bits=4, identifiers=2, pull=True, ring=False, cutoff="edge",
             script=[(2, "leave", 0.4), (5, "join", 0.3), (9, "fail", 0.2)], seed=0)
    @example(n=12, bits=4, identifiers=1, pull=False, ring=True, cutoff="edge",
             script=[(0, "leave", 0.3), (3, "fail", 0.3)], seed=1)
    def test_uint8_counters_match_a_wide_reference(
        self, n, bits, identifiers, pull, ring, cutoff, script, seed
    ):
        """Every round, the kernel's bit image, ranks and estimates equal those of an
        int64 reference whose sentinel is :data:`INFINITY`, and its counters equal the
        reference's clamped to 255.  ``script`` lists (round, event, fraction): an
        uncorrelated failure, a graceful departure, or a join (uniform gossip only).
        The "edge" cutoff puts ``floor(f(L-1))`` at 254; in both explicit examples live
        counters of departed sources climb through 254 and stop at 255."""
        cutoffs = {
            "default": NAMED_CUTOFFS["default"],
            "slow": NAMED_CUTOFFS["slow"],
            "edge": linear_cutoff(254.0 - 2.0 * (bits - 1), 2.0),
        }
        topology = None
        if ring and n > 4:
            topology = CSRTopology.from_edges(*ring_lattice_edges(n, k=2), n)
        kernel = VectorizedCountSketchReset(
            n, bins=2, bits=bits, cutoff=cutoffs[cutoff], identifiers_per_host=identifiers,
            pull=pull, topology=topology, seed=seed,
        )
        assert kernel.counters.dtype == np.uint8
        thresholds = np.floor([cutoffs[cutoff](k) for k in range(bits)])

        def widened(counters):
            rows = counters.reshape(len(counters), -1).astype(np.int64)
            rows[rows == kernel.never_heard] = INFINITY
            return rows

        wide = widened(kernel.counters)
        picker = np.random.default_rng(seed)
        for t in range(self.ROUNDS):
            for _, event, fraction in (entry for entry in script if entry[0] == t):
                live = kernel.live_index()
                if event == "fail":
                    kernel.fail_random_fraction(fraction)
                elif event == "leave":
                    count = int(fraction * live.size)
                    kernel.depart_gracefully(picker.choice(live, size=count, replace=False))
                elif topology is None:
                    start = kernel.n
                    kernel.join([1.0] * (1 + int(10 * fraction)))
                    wide = np.concatenate([wide, widened(kernel.counters[start:])])
            alive_idx = kernel.live_index()
            wide[alive_idx] = np.minimum(wide[alive_idx] + 1, INFINITY)
            owner_alive = kernel.alive[kernel._owned_hosts]
            wide[kernel._owned_hosts[owner_alive], kernel._owned_positions[owner_alive]] = 0
            if alive_idx.size >= 2:
                draw = copy.deepcopy(kernel)  # same generator state: same peers
                senders, targets = draw._draw_push_targets(alive_idx)
                TestSketchKernelPrimitives._ufunc_at_merge(
                    wide, alive_idx[senders], alive_idx[targets], np.minimum, pull
                )
            kernel.step()
            image = wide.reshape(kernel.n, 2, bits) <= thresholds
            ranks = _prefix_rank(image)
            expected = 2 / PHI * np.exp2(ranks.mean(axis=1)[kernel.alive]) / identifiers
            assert np.array_equal(kernel.counters.reshape(kernel.n, -1), np.minimum(wide, 255))
            assert np.array_equal(kernel.bit_image(), image)
            assert np.array_equal(kernel.ranks(), ranks)
            assert np.array_equal(kernel.estimates(), expected)


# ---------------------------------------------------------------------------
# Push-Sum-Revert's live-block round against the host-space round it replaced
# ---------------------------------------------------------------------------
def _host_push_targets(kernel, alive_idx):
    """``_draw_push_targets`` in host ids: who pushes, and to which live host."""
    if kernel.topology is None:
        return alive_idx, alive_idx[kernel.rng.integers(0, alive_idx.size, size=alive_idx.size)]
    drawn = kernel.live_view().sample_peers(alive_idx, kernel.rng, kernel.round_index)
    has_peer = drawn >= 0
    return alive_idx[has_peer], drawn[has_peer]


def _host_matching(kernel, alive_idx):
    """``_draw_matching`` in host ids."""
    if kernel.topology is not None:
        return kernel.live_view().sample_matching(kernel.rng, round_index=kernel.round_index)
    order = kernel.rng.permutation(alive_idx)
    pair_count = order.size // 2
    return order[:pair_count], order[pair_count : 2 * pair_count]


def _settle(kernel, host_idx, revert=False):
    """The host-space tail: ``host_idx``'s fixed revert if ``revert``, then the estimate
    refresh (a massless host keeps its last estimate)."""
    weight, total = kernel.weight[host_idx], kernel.total[host_idx]
    if revert:
        lam = kernel.reversion
        old_mass = weight.sum()
        weight *= 1.0 - lam
        weight += lam
        kernel.mass_injected += float(weight.sum() - old_mass)
        anchor = kernel.initial[host_idx]
        anchor *= lam
        total *= 1.0 - lam
        total += anchor
        kernel.weight[host_idx] = weight
        kernel.total[host_idx] = total
    has_weight = weight > 1e-12
    if not has_weight.all():
        host_idx, weight, total = host_idx[has_weight], weight[has_weight], total[has_weight]
    kernel._last_estimate[host_idx] = np.divide(total, weight, out=total)


def _settle_exchanges(kernel, left, right):
    """Account for attempted exchanges; a lossy link cancels one (the initiator's
    message still crossed the radio)."""
    if kernel.loss > 0.0:
        kept = kernel.rng.random(left.size) >= kernel.loss
        dropped = int(left.size - int(kept.sum()))
        left, right = left[kept], right[kept]
        kernel.messages_lost += 2 * dropped
        kernel.bytes_sent += 16 * dropped
    kernel.messages_delivered += 2 * int(left.size)
    kernel.bytes_sent += 32 * int(left.size)
    return left, right


def _emit_push(kernel, senders):
    """Halve ``senders``' mass; return the outgoing halves."""
    halves = kernel.weight[senders] / 2.0, kernel.total[senders] / 2.0
    kernel.weight[senders], kernel.total[senders] = halves
    return halves


def _lose_pushes(kernel, targets, weight, total):
    """Account for pushed halves; return the delivered ones (a lost half's mass leaves)."""
    if kernel.loss > 0.0:
        kept = kernel.rng.random(targets.size) >= kernel.loss
        kernel.mass_lost += float(weight[~kept].sum())
        kernel.messages_lost += int(targets.size - int(kept.sum()))
        targets, weight, total = targets[kept], weight[kept], total[kept]
    kernel.messages_delivered += int(targets.size)
    return targets, weight, total


def _host_step_matching(kernel, alive_idx):
    left, right = _settle_exchanges(kernel, *_host_matching(kernel, alive_idx))
    for array in (kernel.weight, kernel.total):
        mean = (array[left] + array[right]) / 2.0
        array[left] = mean
        array[right] = mean


def _host_step_push(kernel, alive_idx):
    senders, targets = _host_push_targets(kernel, alive_idx)
    kernel.bytes_sent += 16 * int(np.count_nonzero(targets != senders))
    outgoing_weight, outgoing_total = _emit_push(kernel, senders)
    targets, outgoing_weight, outgoing_total = _lose_pushes(
        kernel, targets, outgoing_weight, outgoing_total
    )
    np.add.at(kernel.weight, targets, outgoing_weight)
    np.add.at(kernel.total, targets, outgoing_total)
    if kernel.adaptive and kernel.reversion > 0.0:
        received = np.zeros(kernel.n, dtype=np.int64)
        np.add.at(received, targets, 1)
        received[alive_idx] += 1  # the self-message
        lam = np.minimum(1.0, 0.5 * kernel.reversion * received[alive_idx])
        old_mass = kernel.weight[alive_idx].sum()
        kernel.weight[alive_idx] = lam + (1.0 - lam) * kernel.weight[alive_idx]
        kernel.mass_injected += float(kernel.weight[alive_idx].sum() - old_mass)
        kernel.total[alive_idx] = (
            lam * kernel.initial[alive_idx] + (1.0 - lam) * kernel.total[alive_idx]
        )


def _host_step_full_transfer(kernel, alive_idx):
    lam = kernel.reversion
    outgoing_weight = (1.0 - lam) * kernel.weight[alive_idx] + lam
    kernel.mass_injected += float(outgoing_weight.sum() - kernel.weight[alive_idx].sum())
    outgoing_total = (1.0 - lam) * kernel.total[alive_idx] + lam * kernel.initial[alive_idx]
    parcel_weight = outgoing_weight / kernel.parcels
    parcel_total = outgoing_total / kernel.parcels
    new_weight = np.zeros(kernel.n, dtype=float)
    new_total = np.zeros(kernel.n, dtype=float)
    for _ in range(kernel.parcels):
        targets = alive_idx[kernel.rng.integers(0, alive_idx.size, size=alive_idx.size)]
        kernel.bytes_sent += 16 * int(np.count_nonzero(targets != alive_idx))
        if kernel.loss > 0.0:
            kept = kernel.rng.random(alive_idx.size) >= kernel.loss
            np.add.at(new_weight, targets[kept], parcel_weight[kept])
            np.add.at(new_total, targets[kept], parcel_total[kept])
            kernel.mass_lost += float(parcel_weight[~kept].sum())
            kernel.messages_lost += int(alive_idx.size - int(kept.sum()))
            kernel.messages_delivered += int(kept.sum())
        else:
            np.add.at(new_weight, targets, parcel_weight)
            np.add.at(new_total, targets, parcel_total)
            kernel.messages_delivered += int(alive_idx.size)
    kernel.weight[alive_idx] = new_weight[alive_idx]
    kernel.total[alive_idx] = new_total[alive_idx]
    received_mass = np.zeros(kernel.n, dtype=bool)
    received_mass[alive_idx] = new_weight[alive_idx] > 1e-12
    idx = np.nonzero(received_mass)[0]
    if idx.size:
        kernel._history_weight[idx, 1:] = kernel._history_weight[idx, :-1]
        kernel._history_total[idx, 1:] = kernel._history_total[idx, :-1]
        kernel._history_weight[idx, 0] = new_weight[idx]
        kernel._history_total[idx, 0] = new_total[idx]


def _host_space_step(kernel):
    """``VectorizedPushSumRevert.step`` as of fbc5cdb: the host-space ``_step_*`` bodies
    (every gather and scatter through live host ids), then ``_settle`` over the live index
    — with the adaptive and Full-Transfer reverts' weight booked in ``mass_injected``,
    which fbc5cdb left out of the books."""
    alive_idx = kernel.live_index()
    if alive_idx.size >= 2:
        body = {"pushpull": _host_step_matching, "push": _host_step_push,
                "full-transfer": _host_step_full_transfer}[kernel.mode]
        body(kernel, alive_idx)
    fixed = kernel.mode == "pushpull" or (kernel.mode == "push" and not kernel.adaptive)
    _settle(kernel, alive_idx, revert=fixed and kernel.reversion > 0.0)
    kernel.round_index += 1


#: What a Push-Sum-Revert kernel is bit-compared on after every round.
PSR_STATE = ("weight", "total", "_last_estimate", "_history_weight", "_history_total",
             "mass_injected", "mass_lost", "messages_delivered", "messages_lost", "bytes_sent",
             "round_index")
#: One membership change before a round: (kind, fraction of the live hosts).
membership_changes = st.lists(
    st.tuples(st.sampled_from(["none", "fail", "graceful", "join"]),
              st.floats(min_value=0.0, max_value=1.0)),
    max_size=6,
)


class TestPushSumRevertLiveBlock:
    """One ``step()`` on the live block equals the host-space round bit for bit."""

    @COMMON_SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=24),
        mode=st.sampled_from(["push", "pushpull", "full-transfer"]),
        loss=st.sampled_from([0.0, 0.3]),
        reversion=st.sampled_from([0.0, 0.1, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        adaptive=st.booleans(),
        ring=st.booleans(),
        changes=membership_changes,
        seed=st.integers(min_value=0, max_value=1000),
    )
    @example(n=8, mode="push", loss=0.0, reversion=0.1, adaptive=False, ring=False,
             changes=[], seed=0)  # everyone alive throughout: the arrays are the block
    @example(n=12, mode="push", loss=0.3, reversion=0.1, adaptive=True, ring=True,
             changes=[("fail", 0.5)], seed=1)
    @example(n=12, mode="pushpull", loss=0.3, reversion=0.1, adaptive=False, ring=True,
             changes=[("graceful", 0.4), ("none", 0.0)], seed=2)
    @example(n=10, mode="pushpull", loss=0.0, reversion=0.1, adaptive=False, ring=False,
             changes=[("fail", 0.5), ("join", 0.5)], seed=3)
    # Full-Transfer leaves a host no parcel lands on massless: it keeps its estimate.
    @example(n=9, mode="full-transfer", loss=0.3, reversion=0.0, adaptive=False, ring=False,
             changes=[("fail", 0.4)], seed=4)
    @example(n=6, mode="push", loss=0.0, reversion=0.1, adaptive=False, ring=False,
             changes=[("fail", 1.0), ("join", 0.5)], seed=5)  # an empty block, then a join
    def test_step_matches_the_host_space_round(
        self, n, mode, loss, reversion, adaptive, ring, changes, seed
    ):
        """``changes`` lists one membership change per round (joins only without a
        topology); two quiet rounds follow.  A dead host's rows stay byte-identical
        from the round it died in."""
        values = np.random.default_rng(seed).uniform(0.0, 100.0, n)
        topology = None
        if ring and n > 4 and mode != "full-transfer":
            topology = CSRTopology.from_edges(*ring_lattice_edges(n, k=2), n)
        kernel = VectorizedPushSumRevert(
            values, reversion, mode=mode, adaptive=adaptive, loss=loss,
            topology=topology, seed=seed,
        )
        frozen = {}  # dead host → its (weight, total, estimate) at death
        picks = np.random.default_rng(seed + 1)  # who leaves: any subset of the live hosts
        for kind, fraction in changes + [("none", 0.0)] * 2:
            live = kernel.live_index()
            leaving = live[picks.random(live.size) < fraction]
            if kind == "fail":
                kernel.fail(leaving)
            elif kind == "graceful":
                kernel.depart_gracefully(leaving)
            elif kind == "join" and topology is None:
                kernel.join(np.linspace(0.0, 50.0, 1 + int(4 * fraction)))
            frozen.update(
                (int(host), [getattr(kernel, name)[host].tobytes()
                             for name in ("weight", "total", "_last_estimate")])
                for host in leaving if kind in ("fail", "graceful")
            )
            reference = copy.deepcopy(kernel)  # same generator state: same draws
            _host_space_step(reference)
            kernel.step()
            for name in PSR_STATE:
                assert _bits(getattr(kernel, name)) == _bits(getattr(reference, name)), name
            assert kernel.rng.bit_generator.state == reference.rng.bit_generator.state
            for host, rows in frozen.items():
                assert [getattr(kernel, name)[host].tobytes()
                        for name in ("weight", "total", "_last_estimate")] == rows, host

    @COMMON_SETTINGS
    @given(
        alive=st.lists(st.booleans(), min_size=1, max_size=60),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_permuting_live_ranks_is_permuting_the_live_index(self, alive, seed):
        """The uniform matching's bit-identity: ``rng.permutation(k)`` shuffles ``k``
        positions exactly as ``rng.permutation(alive_idx)`` shuffles the ``k`` ids."""
        alive_idx = np.flatnonzero(alive)
        ranks_rng, hosts_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ranks = ranks_rng.permutation(alive_idx.size)
        assert np.array_equal(alive_idx[ranks], hosts_rng.permutation(alive_idx))
        assert ranks_rng.bit_generator.state == hosts_rng.bit_generator.state


# ---------------------------------------------------------------------------
# The calendar's whole-live tick against the host-space tick it replaced
# ---------------------------------------------------------------------------
def _exchange_one_by_one(weight, total, pairs):
    """The definition of a run of exchanges: each, in pair order, leaves both ends at the
    pair's mean."""
    for a, b in pairs:
        weight[a] = weight[b] = (weight[a] + weight[b]) / 2.0
        total[a] = total[b] = (total[a] + total[b]) / 2.0


def _host_space_tick(kernel, ticking, delays):
    """``step_subset`` as of 6507698: partners drawn as host ids, instant exchanges applied
    one by one and ``_settle``-d at the end, then ``_settle`` over the ticking hosts."""
    alive_idx = kernel.live_index()
    k = ticking.size
    if alive_idx.size < 2 or k == 0:
        _settle(kernel, ticking, revert=kernel.reversion > 0.0)
        return []
    if kernel.mode == "pushpull":
        offset = kernel.rng.integers(1, alive_idx.size, size=k)
        peers = alive_idx[(kernel.live_rank()[ticking] + offset) % alive_idx.size]
        legs = np.zeros(2 * k) if delays is None else delays(2 * k)
        delay = legs[:k] + legs[k:]
    else:
        peers = alive_idx[kernel.rng.integers(0, alive_idx.size, size=k)]
        kernel.bytes_sent += 16 * int(np.count_nonzero(peers != ticking))
        weight, total = _emit_push(kernel, ticking)
        delay = np.zeros(k) if delays is None else delays(k)
    now, later = np.flatnonzero(delay <= TIME_EPS), np.flatnonzero(delay > TIME_EPS)
    if kernel.mode == "pushpull":
        if now.size:
            left, right = _settle_exchanges(kernel, ticking[now], peers[now])
            _exchange_one_by_one(kernel.weight, kernel.total, zip(left, right))
            _settle(kernel, np.concatenate([left, right]))
        kernel.bytes_sent += 32 * later.size
        kernel.messages_in_flight += 2 * later.size
        deferred = [("exchange", ticking[later], delay[later], ticking[later], peers[later])]
    else:
        if now.size:
            targets, landed_weight, landed_total = _lose_pushes(
                kernel, peers[now], weight[now], total[now])
            np.add.at(kernel.weight, targets, landed_weight)
            np.add.at(kernel.total, targets, landed_total)
            _settle(kernel, targets)
        kernel.in_flight_mass += float(weight[later].sum())
        kernel.messages_in_flight += later.size
        deferred = [("push", ticking[later], delay[later], peers[later], weight[later],
                     total[later])]
    _settle(kernel, ticking, revert=kernel.reversion > 0.0)
    return deferred if later.size else []


def _delay_sampler(seed):
    """A calendar delay sampler: whole seconds 0..2, a third of them instant."""
    rng = np.random.default_rng(seed)
    return lambda k: rng.integers(0, 3, size=k).astype(float)


#: What a calendar tick is bit-compared on, besides :data:`PSR_STATE`.
CALENDAR_STATE = PSR_STATE + ("in_flight_mass", "messages_in_flight")


class TestCalendarTickOnTheLiveBlock:
    """A bucket where every live host ticks equals the host-space tick bit for bit."""

    @COMMON_SETTINGS
    @given(
        alive=st.lists(st.booleans(), min_size=1, max_size=30),
        mode=st.sampled_from(["push", "pushpull"]),
        reversion=st.sampled_from([0.0, 0.1]),
        loss=st.sampled_from([0.0, 0.3]),
        delayed=st.booleans(),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @example(alive=[True] * 9, mode="pushpull", reversion=0.1, loss=0.0, delayed=True,
             seed=0)  # everyone alive: the arrays are the block
    @example(alive=[True, False] * 6, mode="pushpull", reversion=0.1, loss=0.3, delayed=True,
             seed=1)
    @example(alive=[False, True, True] * 4, mode="push", reversion=0.1, loss=0.0,
             delayed=False, seed=2)
    @example(alive=[True, False, True, True] * 3, mode="push", reversion=0.0, loss=0.3,
             delayed=True, seed=3)
    @example(alive=[False, True, False], mode="pushpull", reversion=0.1, loss=0.0,
             delayed=False, seed=4)  # one live host: no partner, the block tail alone
    def test_whole_live_tick_matches_the_host_space_tick(
        self, alive, mode, reversion, loss, delayed, seed
    ):
        """Three buckets of every live host ticking; a dead host's rows never move."""
        values = np.random.default_rng(seed).uniform(0.0, 100.0, len(alive))
        kernel = VectorizedPushSumRevert(values, reversion, mode=mode, loss=loss, seed=seed)
        kernel.step()  # mix the masses first: no row still equals its initial value
        kernel.fail(np.flatnonzero(~np.array(alive)))
        dead = np.flatnonzero(~kernel.alive)
        frozen = [getattr(kernel, name)[dead].tobytes()
                  for name in ("weight", "total", "_last_estimate")]
        for bucket in range(3):
            ticking = kernel.live_index().copy()
            reference = copy.deepcopy(kernel)  # same generator state: same draws
            sampler = (lambda: _delay_sampler(seed + bucket)) if delayed else (lambda: None)
            got = kernel.step_subset(ticking, sampler())
            want = _host_space_tick(reference, ticking, sampler())
            for name in CALENDAR_STATE:
                assert _bits(getattr(kernel, name)) == _bits(getattr(reference, name)), name
            assert kernel.rng.bit_generator.state == reference.rng.bit_generator.state
            assert len(got) == len(want)
            for (got_kind, *got_arrays), (want_kind, *want_arrays) in zip(got, want):
                assert got_kind == want_kind
                assert list(map(_bits, got_arrays)) == list(map(_bits, want_arrays))
            assert [getattr(kernel, name)[dead].tobytes()
                    for name in ("weight", "total", "_last_estimate")] == frozen


# ---------------------------------------------------------------------------
# The one scorer against the three inline formulas it replaced
# ---------------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def scored_population(draw):
    """``(estimates, truths)``: 0..30 finite estimates, a scalar or per-host truth."""
    estimates = draw(st.lists(finite, min_size=0, max_size=30))
    if draw(st.booleans()):
        return estimates, draw(finite)
    return estimates, draw(st.lists(finite, min_size=len(estimates), max_size=len(estimates)))


def _agent_engine_formula(estimates, truths):
    """``Simulation._record_round`` before the scorer: Python-float deltas."""
    per_host = truths if isinstance(truths, list) else [truths] * len(estimates)
    deltas = [estimate - truth for estimate, truth in zip(estimates, per_host)]
    if deltas:
        deltas_arr = np.asarray(deltas, dtype=float)
        stddev_error = float(np.sqrt(np.mean(deltas_arr**2)))
        max_abs_error = float(np.max(np.abs(deltas_arr)))
        mean_abs_error = float(np.mean(np.abs(deltas_arr)))
    else:
        stddev_error = max_abs_error = mean_abs_error = float("nan")
    mean_estimate = float(np.mean(list(estimates))) if estimates else float("nan")
    return stddev_error, max_abs_error, mean_abs_error, mean_estimate


def _kernel_driver_formula(estimates, truths):
    """``KernelRun.sample`` before the scorer: array deltas."""
    estimates = np.asarray(estimates, dtype=float)
    truths = np.asarray(truths, dtype=float) if isinstance(truths, list) else truths
    deltas = estimates - truths if estimates.size else estimates
    if deltas.size:
        stddev_error = float(np.sqrt(np.mean(deltas**2)))
        max_abs_error = float(np.max(np.abs(deltas)))
        mean_abs_error = float(np.mean(np.abs(deltas)))
    else:
        stddev_error = max_abs_error = mean_abs_error = float("nan")
    mean_estimate = float(np.mean(estimates)) if estimates.size else float("nan")
    return stddev_error, max_abs_error, mean_abs_error, mean_estimate


def _kernel_error_formula(estimates, truth):
    """``_VectorizedKernel.error`` before the scorer (scalar truth only)."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.size == 0:
        return float("nan")
    return float(np.sqrt(np.mean((estimates - truth) ** 2)))


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestScorerMatchesTheInlineFormulas:
    @COMMON_SETTINGS
    @given(population=scored_population())
    @example(population=([], 4.0))
    @example(population=([7.5], 7.5))
    @example(population=([1e308, -1e308], [0.0, 1.0]))
    def test_bit_for_bit(self, population):
        estimates, truths = population
        with np.errstate(over="ignore", invalid="ignore"):
            per_host = np.asarray(truths, dtype=float) if isinstance(truths, list) else truths
            scored = error_statistics(estimates, per_host)
            assert _bits(scored) == _bits(_agent_engine_formula(estimates, truths))
            assert _bits(scored) == _bits(_kernel_driver_formula(estimates, truths))
            if not isinstance(truths, list):
                assert _bits(scored.stddev_error) == _bits(_kernel_error_formula(estimates, truths))


# ---------------------------------------------------------------------------
# Kernel caches: the membership-epoch live index and Push-Sum-Revert's
# stored estimates must survive any interleaving of the public mutators.
# ---------------------------------------------------------------------------
#: One mutator call: its name, a fraction in [0, 1] and a seed for its host picks.
kernel_calls = st.lists(
    st.tuples(
        st.sampled_from([
            "step", "step_subset", "deliver", "fail", "fail_random_fraction",
            "fail_extreme_fraction", "depart_gracefully", "join", "change_values",
        ]),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=25,
)


def _apply(kernel, in_flight, name, fraction, seed):
    """Call the mutator ``name`` on ``kernel``; ``False`` if it has no such call.

    ``in_flight`` queues what :meth:`step_subset` deferred, for ``deliver``.
    """
    rng = np.random.default_rng(seed)
    live = np.nonzero(kernel.alive)[0]
    picked = live[rng.random(live.size) < fraction]
    if name == "step":
        kernel.step()
    elif name == "step_subset":
        if not hasattr(kernel, "step_subset") or getattr(kernel, "mode", "") == "full-transfer":
            return False
        in_flight.extend(kernel.step_subset(picked, lambda k: rng.choice([0.0, 0.75], size=k)))
    elif name == "deliver":
        if not in_flight:
            return False
        kind, _senders, _delay, *arrays = in_flight.pop(0)
        kernel.deliver(kind, *arrays)
    elif name == "fail":
        kernel.fail(rng.integers(0, kernel.n, size=2).tolist())  # dead or alive
    elif name == "fail_random_fraction":
        kernel.fail_random_fraction(fraction)
    elif name == "fail_extreme_fraction":
        if not hasattr(kernel, "change_values"):  # a counting kernel orders by no value
            return False
        kernel.fail_extreme_fraction(fraction, highest=True)
    elif name == "depart_gracefully":
        kernel.depart_gracefully(picked[:3].tolist())
    elif name == "join":
        if kernel.topology is not None:
            return False
        kernel.join(rng.uniform(0.0, 100.0, size=1 + seed % 3))
    elif name == "change_values":
        if not hasattr(kernel, "change_values"):
            return False
        kernel.change_values({int(host): 100.0 * fraction for host in picked[:2]})
    return True


class TestKernelCachesSurviveAnyCallSequence:
    @staticmethod
    def _kernel(protocol, seed, **spec_overrides):
        from repro.api import BACKENDS, ScenarioSpec

        spec = ScenarioSpec(
            protocol=protocol, n_hosts=12, seed=seed, backend="vectorized",
            **{"mode": next(iter(KERNELS[protocol].modes)), **spec_overrides},
        )
        return BACKENDS.get("vectorized").build_kernel(spec)

    @pytest.mark.parametrize("protocol", sorted(KERNELS))
    @COMMON_SETTINGS
    @given(calls=kernel_calls, seed=st.integers(min_value=0, max_value=100))
    def test_live_index_is_the_nonzero_of_alive(self, protocol, calls, seed):
        kernel, in_flight = self._kernel(protocol, seed), []
        for call in calls:
            _apply(kernel, in_flight, *call)
            live = kernel.live_index()
            assert live.dtype == np.int64 and not live.flags.writeable
            assert np.array_equal(live, np.nonzero(kernel.alive)[0])
            rank = kernel.live_rank()  # its inverse, dropped in the same breath
            assert np.array_equal(rank[live], np.arange(live.size))
            assert rank.shape == kernel.alive.shape and (rank[~kernel.alive] == -1).all()
            senders = kernel._every_rank()  # every live rank, held for the epoch too
            assert np.array_equal(senders, np.arange(live.size)) and not senders.flags.writeable

    @pytest.mark.parametrize("overrides", [
        dict(mode="exchange"),
        dict(mode="push"),
        dict(mode="push", network="bernoulli-loss", network_params={"p": 0.3}),
        dict(mode="exchange", network="bernoulli-loss", network_params={"p": 0.3}),
        dict(mode="exchange", environment="ring", environment_params={"k": 2}),
        dict(mode="push", environment="ring", environment_params={"k": 2}),
        pytest.param(dict(mode="push", protocol_params={"adaptive": True}), id="push-adaptive"),
        pytest.param(dict(protocol="push-sum-revert-full-transfer", mode="push",
                          network="bernoulli-loss", network_params={"p": 0.3}),
                     id="full-transfer-bernoulli-loss"),
    ], ids=lambda overrides: "-".join(str(v) for v in overrides.values() if isinstance(v, str)))
    @COMMON_SETTINGS
    @given(
        calls=kernel_calls,
        reversion=st.sampled_from([0.0, 0.1, 1.0]),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_push_sum_revert_serves_fresh_estimates_and_truth(
        self, overrides, calls, reversion, seed
    ):
        """``estimates()`` and ``truth()`` equal their from-scratch values after any call,
        read-only and untouched by later calls; the live block's estimates the kernel
        holds for the epoch are what it would gather; no call moves a dead row's weight;
        and ``mass_view()`` alone closes the books, membership calls included."""
        spec = dict(overrides)
        protocol = spec.pop("protocol", "push-sum-revert")
        params = {"reversion": reversion, **spec.pop("protocol_params", {})}
        kernel = self._kernel(protocol, seed, protocol_params=params, **spec)
        in_flight, held = [], []
        initial = kernel.mass_view()[0]
        for call in calls:
            dead = np.nonzero(~kernel.alive)[0]
            stranded = kernel.weight[dead].copy()
            if not _apply(kernel, in_flight, *call):
                continue
            assert np.array_equal(kernel.weight[dead], stranded), call  # dead rows are frozen
            at_hosts, in_flight_mass, injected, lost = kernel.mass_view()
            expected = initial + injected - lost
            assert at_hosts + in_flight_mass == pytest.approx(expected, rel=1e-9, abs=1e-9), call
            live = np.nonzero(kernel.alive)[0]
            for estimates, bits in held:  # every earlier answer, unchanged by this call
                assert _bits(estimates) == bits, call
            estimates = kernel.estimates()
            assert not estimates.flags.writeable
            held.append((estimates, _bits(estimates)))
            if kernel.mode != "full-transfer":
                weight, total = kernel.weight[live], kernel.total[live]
                from_scratch = np.where(
                    weight > 1e-12, total / np.maximum(weight, 1e-300), kernel._last_estimate[live]
                )
                assert _bits(estimates) == _bits(from_scratch), call
            if kernel._estimates is not None and kernel._estimates_of is kernel.live_index():
                assert _bits(kernel._estimates) == _bits(kernel._last_estimate[live]), call
            truth = float(kernel.initial[live].mean()) if live.size else float("nan")
            assert _bits(kernel.truth()) == _bits(truth), call

    @COMMON_SETTINGS
    @given(calls=kernel_calls, seed=st.integers(min_value=0, max_value=100))
    def test_live_view_is_the_topology_under_alive(self, calls, seed):
        kernel = self._kernel(
            "push-sum-revert", seed, mode="exchange",
            environment="ring", environment_params={"k": 2},
        )
        in_flight = []
        for call in calls:
            _apply(kernel, in_flight, *call)
            view, fresh = kernel.live_view(), kernel.topology.view(kernel.alive.copy())
            assert view.alive is kernel.alive and view.live_index is kernel.live_index()
            for name in ("indptr", "indices", "degree", "_index_degree", "_index_start"):
                assert np.array_equal(getattr(view, name), getattr(fresh, name)), (call, name)


# ---------------------------------------------------------------------------
# Sparse matching: the contract every view keeps and the matcher's law
# ---------------------------------------------------------------------------
@st.composite
def masked_graphs(draw):
    """``(n, edges, mask)``: a simple undirected graph and who is alive on it."""
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1])
    edges = draw(st.lists(pairs, unique=True, max_size=3 * n))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, edges, mask


STAR = [(0, leaf) for leaf in range(1, 7)]
PATH = [(host, host + 1) for host in range(7)]
masked_graph_examples = [
    (5, [], [True] * 5),  # no edges
    (6, [(0, 1), (1, 2), (3, 4)], [False, True, False, False, False, False]),  # one live host
    (6, [(0, 3), (1, 3), (2, 4)], [True, True, True, False, False, True]),  # all live isolated
    (7, STAR, [True] * 7),  # everyone proposes the hub
    (7, STAR, [False] + [True] * 6),  # ... which is dead
    (2, [(0, 1)], [True, True]),  # two hosts
    (2, [(0, 1)], [True, False]),
    (8, PATH, [True, True, False, True, False, True, True, True]),  # 3 has live degree 0
    (8, PATH + [(0, 7), (2, 5)], [True] * 8),
]


def _with_examples(test):
    for index, graph in enumerate(masked_graph_examples):
        test = example(graph=graph, passes=(1, 2, 3, 5)[index % 4], seed=index)(test)
    return test


def _masked_csr(graph):
    n, edges, mask = graph
    u, v = (np.array(side, dtype=np.int64) for side in zip(*edges)) if edges else ([], [])
    return CSRTopology.from_edges(u, v, n), np.array(mask, dtype=bool)


def _assert_peer_contract(peers, requesters, alive):
    """``sample_peers``' contract: a live host or -1, never the requester itself."""
    assert peers.shape == requesters.shape and (peers >= -1).all()
    assert alive[peers[peers >= 0]].all()
    assert not np.any(peers == requesters)


def _assert_matching(left, right, alive, graph=None):
    """Vertex-disjoint pairs of live hosts, each an edge of the CSR ``graph`` if given."""
    touched = np.concatenate([left, right])
    assert np.unique(touched).size == touched.size and alive[touched].all()
    if graph is not None:
        for a, b in zip(left.tolist(), right.tolist()):
            assert b in graph.indices[graph.indptr[a] : graph.indptr[a + 1]], (a, b)


class _TieOnFirstPriorityDraw:
    """A generator whose second ``random`` call — a CSR view's first priority
    draw, after the proposal draw — gives every candidate edge the same value."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def random(self, size):
        self.calls += 1
        draw = self._rng.random(size)
        return np.full(size, 0.5) if self.calls == 2 else draw

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestSparseMatchingContract:
    """``LiveView.sample_matching``: disjoint pairs along live edges, drawn by
    the greedy-priority law, and still a matching when two priorities tie."""

    @COMMON_SETTINGS
    @given(
        graph=masked_graphs(),
        passes=st.sampled_from([1, 2, 3, 5]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @_with_examples
    def test_pairs_are_disjoint_live_edges(self, graph, passes, seed):
        topology, alive = _masked_csr(graph)
        view = topology.view(alive)
        rng = np.random.default_rng(seed)
        # The whole live index (the per-view gathers), then an arbitrary subset.
        for requesters in (view.live_index, view.live_index[::2].copy()):
            _assert_peer_contract(view.sample_peers(requesters, rng), requesters, alive)
        left, right = view.sample_matching(rng, passes=passes)
        _assert_matching(left, right, alive, topology)

    @staticmethod
    def _topology(kind):
        if kind == "csr":
            return CSRTopology.from_edges(*ring_lattice_edges(30, k=2), 30), 0
        if kind == "grid-ring":
            return GridRingTopology(6, 5), 0
        from repro.mobility import haggle_dataset

        return TraceCSRTopology(haggle_dataset(1)), 1555  # its densest round: 28 contacts

    @pytest.mark.parametrize("kind", ["csr", "grid-ring", "trace"])
    @COMMON_SETTINGS
    @given(
        dead=st.sets(st.integers(min_value=0, max_value=29)),
        passes=st.sampled_from([1, 2, 3, 5]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_every_view_keeps_the_contract_the_matcher_relies_on(self, kind, dead, passes, seed):
        topology, round_index = self._topology(kind)
        alive = np.ones(topology.n, dtype=bool)
        alive[[host for host in dead if host < topology.n]] = False
        view = topology.view(alive)
        rng = np.random.default_rng(seed)
        # A live host or -1: what lets pass 0 skip the availability gather.
        peers = view.sample_peers(view.live_index, rng, round_index)
        _assert_peer_contract(peers, view.live_index, alive)
        left, right = view.sample_matching(rng, passes=passes, round_index=round_index)
        if kind == "grid-ring":  # (any two cells of the grid are a 1/d² link apart)
            graph = None
        else:
            graph = topology if kind == "csr" else topology._round_csr(round_index, NULL_PROBE)
        _assert_matching(left, right, alive, graph)

    def test_acceptance_law_on_a_star(self):
        """Everyone alive, one pass: the six leaves propose the hub and the hub
        one leaf, so seven candidate edges meet at the hub and the highest
        priority wins.  The hub's own target holds two of them (2/7), every
        other leaf one (1/7).  Each of the six offsets from the hub's target
        is held to 4.5 binomial sigmas over 4 000 seeds: a correct matcher
        trips one with probability about 6 × 6.8e-6 ≈ 4e-5 per seed range.
        """
        topology, alive = _masked_csr((7, STAR, [True] * 7))
        view = topology.view(alive)
        seeds = 4000
        counts = np.zeros(6, dtype=np.int64)
        for seed in range(seeds):
            # The matching's first draw is the proposals: replay it for the hub's.
            hub_target = int(view.sample_peers(view.live_index, np.random.default_rng(seed))[0])
            left, right = view.sample_matching(np.random.default_rng(seed), passes=1)
            assert left.size == 1 and 0 in (left[0], right[0])
            leaf = int(left[0] + right[0])
            counts[(leaf - hub_target) % 6] += 1
        law = np.array([2, 1, 1, 1, 1, 1]) / 7
        sigma = np.sqrt(seeds * law * (1 - law))
        assert (np.abs(counts - seeds * law) <= 4.5 * sigma).all(), counts

    @COMMON_SETTINGS
    @given(graph=masked_graphs(), passes=st.sampled_from([1, 2, 3, 5]), seed=st.integers(0, 1000))
    @_with_examples
    def test_a_priority_tie_is_redrawn(self, graph, passes, seed):
        topology, alive = _masked_csr(graph)
        view = topology.view(alive)
        left, right = view.sample_matching(_TieOnFirstPriorityDraw(seed), passes=passes)
        _assert_matching(left, right, alive, topology)

    def test_a_tie_on_the_star_costs_one_redraw(self):
        topology, alive = _masked_csr((7, STAR, [True] * 7))
        rng = _TieOnFirstPriorityDraw(0)
        left, right = topology.view(alive).sample_matching(rng, passes=1)
        # Proposals, the tied draw (all seven edges meet at the hub), one redraw.
        assert rng.calls == 3 and left.size == 1 and 0 in (left[0], right[0])

    def test_a_kernel_view_of_a_ring_with_a_quarter_failed_matches_most_hosts(self):
        # Through a kernel's own live view, where a live rank is not a host id.
        n = 10_000
        topology = CSRTopology.from_edges(*ring_lattice_edges(n, k=2), n)
        values = np.random.default_rng(1).uniform(0.0, 100.0, n)
        kernel = VectorizedPushSumRevert(values, 0.01, topology=topology, seed=1)
        kernel.fail_random_fraction(0.25)
        left, right = kernel.live_view().sample_matching(kernel.rng)
        _assert_matching(left, right, kernel.alive, topology)
        assert left.size > n // 4


# ---------------------------------------------------------------------------
# The event calendar's queue: KernelRun.defer's contract
# ---------------------------------------------------------------------------
#: One message's maturity, ``(whole, inside, hair)``: ``whole`` buckets past
#: ``bucket_now`` (zero or negative = already due; the far ones need a 16- or
#: 32-bit sort key), ``inside`` of a bucket short of that boundary, and a
#: ``hair`` of seconds either side of it and of the ``TIME_EPS`` tolerance.
HAIRS = [0.0, 0.4 * TIME_EPS, -0.4 * TIME_EPS, 2 * TIME_EPS, -2 * TIME_EPS]
maturities = st.lists(
    st.tuples(
        st.integers(min_value=-2, max_value=5) | st.sampled_from([127, 128, 32_767, 32_768]),
        st.just(0.0) | st.floats(min_value=0.0, max_value=0.999),
        st.sampled_from(HAIRS),
    ),
    max_size=30,
)
#: ``(kind, payload arrays per message, maturities)``: an exchange carries
#: two arrays, a push three, a third-party kernel's batch may carry one.
deferred_batches = st.lists(
    st.tuples(st.sampled_from(["exchange", "push", "token"]), st.integers(1, 3), maturities),
    min_size=1,
    max_size=3,
)
ON_THE_EDGE = [(whole, 0.0, hair) for whole in (1, 2) for hair in HAIRS]


class TestDeferContract:
    """``KernelRun.defer`` queues each message once, in the slot its maturity names."""

    @COMMON_SETTINGS
    @given(
        batches=deferred_batches,
        quantum=st.sampled_from([1.0, 0.5, 0.25, 0.2, 1.0 / 3.0]),
        bucket_now=st.integers(min_value=0, max_value=70_000),
    )
    @example(batches=[("push", 3, [(2, 0.5, 0.0)] * 6)], quantum=1.0, bucket_now=3)  # one group
    @example(batches=[("exchange", 2, ON_THE_EDGE)], quantum=0.2, bucket_now=7)
    @example(batches=[("exchange", 2, ON_THE_EDGE)], quantum=1.0 / 3.0, bucket_now=0)
    @example(  # already due: forced into bucket_now + 1, in order with what matures there
        batches=[("push", 3, [(-2, 0.0, 0.0), (1, 0.5, 0.0), (0, 0.0, 0.0), (-1, 0.3, 0.0),
                              (1, 0.0, 0.0), (3, 0.0, 0.0)])],
        quantum=0.5, bucket_now=9,
    )
    @example(  # a third-party kernel's one-array batch (TokenPassing)
        batches=[("token", 1, [(4, 0.0, 0.0), (1, 0.1, 0.0), (4, 0.1, 0.0), (1, 0.0, 0.0)])],
        quantum=1.0, bucket_now=0,
    )
    @example(  # two calls into the same slots (a second tick pass of one bucket), one empty
        batches=[("exchange", 2, [(1, 0.0, 0.0), (2, 0.5, 0.0), (1, 0.0, 0.0)]),
                 ("exchange", 2, []),
                 ("exchange", 2, [(2, 0.2, 0.0), (1, 0.0, 0.0), (1, 0.9, 0.0)])],
        quantum=0.25, bucket_now=2,
    )
    def test_each_message_lands_in_its_slot_in_queue_order(self, batches, quantum, bucket_now):
        from types import SimpleNamespace

        from repro.api.kernel_run import KernelRun

        # ``defer`` reads the quantum and writes the queue, nothing else of a run.
        run = SimpleNamespace(quantum=quantum, pending={})
        sent = {}  # message id -> (kind, maturity); ids grow in queue order
        for call, (kind, width, offsets) in enumerate(batches):
            mature = np.array(
                [(bucket_now + whole - inside) * quantum + hair for whole, inside, hair in offsets],
                dtype=float,
            )
            ids = 1000 * call + np.arange(mature.size)
            sent.update((int(i), (kind, m)) for i, m in zip(ids, mature))
            KernelRun.defer(run, kind, bucket_now, mature, *[ids, ids / 8.0, ids * 3.0][:width])
        landed = []
        for slot, queued in run.pending.items():
            bucket, edge = slot
            # A plain ``(int, bool)`` key, not NumPy scalars that merely compare equal.
            assert type(bucket) is int and type(edge) is bool, repr(slot)
            assert bucket > bucket_now
            ids = np.concatenate([arrays[0] for _kind, *arrays in queued])
            assert np.all(np.diff(ids) > 0), slot  # queue order kept inside the slot
            for kind, *arrays in queued:
                assert arrays[0].size and all(sent[int(i)][0] == kind for i in arrays[0])
                # The arrays of a batch travel together, and each owns its data
                # (freed when its slot drains, not when the batch's last slot does).
                for array, scale in zip(arrays, (1.0, 1 / 8.0, 3.0)):
                    assert np.array_equal(array, arrays[0] * scale)
                    assert array.base is None
            for i in ids:
                m = sent[int(i)][1]
                # Matured by the bucket's end, and not by the one before unless
                # already due (then forced into the first bucket after now).
                assert m / quantum - TIME_EPS <= bucket, (slot, m)
                assert bucket == bucket_now + 1 or m / quantum - TIME_EPS > bucket - 1, (slot, m)
                # On the edge exactly when it lands within TIME_EPS of the bucket's end.
                assert edge == (m >= bucket * quantum - TIME_EPS), (slot, m)
            landed.extend(ids.tolist())
        assert sorted(landed) == sorted(sent)  # every message queued exactly once


# ---------------------------------------------------------------------------
# merge_pairs: first-claim passes ≡ the pairs applied one by one
# ---------------------------------------------------------------------------
MERGE_HOSTS = 9
pair_lists = st.lists(
    st.tuples(st.integers(0, MERGE_HOSTS - 1), st.integers(0, MERGE_HOSTS - 1)), max_size=24
)
STAR_PAIRS = [(0, leaf) if leaf % 2 else (leaf, 0) for leaf in range(1, MERGE_HOSTS)]
CHAIN_PAIRS = [(host, host + 1) for host in range(MERGE_HOSTS - 1)]


class TestMergePairsIsSequentialApplication:
    """``merge_pairs`` ≡ the pairs applied one by one, then one ``_settle`` of every endpoint
    (per-pass refreshes included: a host repeats across passes in the star and chain
    examples, and in any draw where endpoints collide)."""

    @COMMON_SETTINGS
    @given(first=pair_lists, second=pair_lists, seed=st.integers(min_value=0, max_value=1000))
    @example(first=STAR_PAIRS, second=[], seed=0)  # every pair shares host 0: one per pass
    @example(first=CHAIN_PAIRS, second=CHAIN_PAIRS[::-1], seed=1)
    @example(first=[(2, 5), (2, 5), (5, 2)], second=[(5, 2)], seed=2)  # the same pair again
    @example(first=[(3, 3), (3, 4), (4, 4)], second=[(4, 3)], seed=3)  # self-pairs
    @example(first=[(0, 1), (2, 3), (4, 5), (6, 7)], second=[(1, 2), (3, 4)], seed=4)  # disjoint
    @example(first=[], second=[], seed=5)
    # A long first call, then a short one over its hosts: every claim entry
    # the second call could read was left by the first (or by the allocator).
    @example(first=STAR_PAIRS + CHAIN_PAIRS, second=[(8, 0), (1, 0), (8, 7)], seed=6)
    def test_bit_for_bit(self, first, second, seed):
        rng = np.random.default_rng(seed)
        kernel = VectorizedPushSumRevert(rng.uniform(0.0, 100.0, MERGE_HOSTS), 0.0, seed=seed)
        kernel.weight[:] = rng.uniform(0.25, 4.0, MERGE_HOSTS)
        kernel.total[:] = rng.uniform(-50.0, 50.0, MERGE_HOSTS)
        reference = copy.deepcopy(kernel)
        for pairs in (first, second):
            left, right = (
                np.array(side, dtype=np.int64) for side in (zip(*pairs) if pairs else ([], []))
            )
            kernel.merge_pairs(left, right)
            _exchange_one_by_one(reference.weight, reference.total, pairs)
            _settle(reference, np.concatenate([left, right]))
            assert _bits(kernel.weight) == _bits(reference.weight), pairs
            assert _bits(kernel.total) == _bits(reference.total), pairs
            # Every touched host's stored estimate is current; nobody else's moved.
            assert _bits(kernel._last_estimate) == _bits(reference._last_estimate), pairs
