"""Tests for CDFs, cutoff fitting and text rendering."""

import numpy as np
import pytest

from repro.analysis import (
    cdf_at,
    empirical_cdf,
    fit_linear_cutoff,
    format_number,
    quantile,
    render_series_table,
    render_table,
)


class TestCDF:
    def test_empirical_cdf_monotone(self):
        values, probabilities = empirical_cdf([3.0, 1.0, 2.0, 2.0])
        assert list(values) == [1.0, 2.0, 2.0, 3.0]
        assert probabilities[-1] == 1.0
        assert all(np.diff(probabilities) >= 0)

    def test_empirical_cdf_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_cdf_at_points(self):
        probabilities = cdf_at([1, 2, 3, 4], [0, 2, 10])
        assert list(probabilities) == [0.0, 0.5, 1.0]

    def test_cdf_at_ignores_sample_order(self):
        assert list(cdf_at([4, 1, 3, 2], [2.5, 4])) == [0.5, 1.0]
        with pytest.raises(ValueError):
            cdf_at([], [1.0])

    def test_quantile(self):
        assert quantile(list(range(101)), 0.5) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)
        with pytest.raises(ValueError):
            quantile([], 0.5)


class TestCutoffFit:
    def test_fit_recovers_linear_bound(self):
        rng = np.random.default_rng(1)
        counters_by_bit = {
            k: np.clip(rng.normal(loc=2.0 + 0.5 * k, scale=0.5, size=500), 0, None)
            for k in range(8)
        }
        fit = fit_linear_cutoff(counters_by_bit, probability=0.99)
        assert 0.4 < fit.slope < 0.6
        assert fit.intercept > 2.0
        assert fit(4) == pytest.approx(fit.intercept + 4 * fit.slope)

    def test_fit_excludes_sparse_bits(self):
        counters_by_bit = {0: [1] * 100, 1: [2] * 100, 7: [50]}
        fit = fit_linear_cutoff(counters_by_bit, min_samples=10)
        assert 7 not in fit.per_bit_bounds

    def test_fit_requires_two_bits(self):
        with pytest.raises(ValueError):
            fit_linear_cutoff({0: [1] * 100}, min_samples=10)

    def test_fit_validates_probability(self):
        with pytest.raises(ValueError):
            fit_linear_cutoff({0: [1] * 20, 1: [2] * 20}, probability=0.0)

    def test_max_residual(self):
        counters_by_bit = {k: [float(k)] * 50 for k in range(5)}
        fit = fit_linear_cutoff(counters_by_bit)
        assert fit.max_residual() < 1e-6


class TestRendering:
    def test_format_number(self):
        assert format_number(None) == "-"
        assert format_number(3) == "3"
        assert format_number(3.0) == "3"
        assert format_number(3.14159) == "3.142"
        assert format_number(float("nan")) == "nan"
        assert format_number(123456.0) == "123456"
        assert format_number(1.23e-7) == "1.23e-07"
        assert format_number("text") == "text"

    def test_render_table_alignment_and_rows(self):
        table = render_table(["name", "value"], [["a", 1.5], ["bbbb", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]
        assert "bbbb" in lines[3]
        # all rows have equal width
        assert len({len(line) for line in lines}) == 1

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_render_series_table_downsampling(self):
        table = render_series_table(
            "round", list(range(10)), {"error": [float(i) for i in range(10)]}, every=3
        )
        lines = table.splitlines()
        # header + separator + rows for rounds 0,3,6,9
        assert len(lines) == 6
        assert lines[-1].startswith("9")

    def test_render_series_table_validates_lengths(self):
        with pytest.raises(ValueError):
            render_series_table("x", [1, 2], {"y": [1.0]})
        with pytest.raises(ValueError):
            render_series_table("x", [1], {"y": [1.0]}, every=0)
