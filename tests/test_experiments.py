"""Tests for the experiment harness (small configurations of every figure)."""

import numpy as np
import pytest

from repro.experiments import FIG6, FIG8, FIG9, FIG10, FIG11
from repro.experiments import (
    render_fig10,
    render_fig11,
    render_fig6,
    render_fig8,
    render_fig9,
    run_adaptive_lambda_ablation,
    run_all_experiments,
    run_cutoff_slope_ablation,
    run_fig10,
    run_fig11,
    run_fig6,
    run_fig8,
    run_fig9,
    run_full_transfer_parameter_ablation,
    run_push_vs_pushpull_ablation,
    run_summation_cost_ablation,
)
from repro.api import run_scenario
from repro.experiments.fig8_uncorrelated import DEFAULT_LAMBDAS
from repro.experiments.runner import (
    SCENARIO_PROFILES,
    ExperimentReport,
    lambda_sweep,
    scenario_specs,
)
from repro.store import ResultStore


def fail_at(spec, failure_round, **changes):
    """``spec`` resized by ``changes``, its failure moved to ``failure_round``."""
    (failure,) = spec.events
    return spec.replace(events=({**failure, "round": failure_round},), **changes)


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        spec = FIG6.replace(protocol_params={"bins": 8, "bits": 16}, rounds=20, seed=1)
        return run_fig6(spec, sizes=(200, 800))

    def test_counters_collected_for_low_bits(self, result):
        for size in (200, 800):
            assert 0 in result.counters[size]
            assert 1 in result.counters[size]

    def test_cdfs_are_monotone(self, result):
        points = list(range(13))
        cdf = result.cdf(200, 0, points)
        assert all(np.diff(cdf) >= 0)
        assert cdf[-1] <= 1.0

    def test_low_bit_counters_are_small(self, result):
        # Bit 0 is sourced by ~half the hosts, so its counters converge fast.
        values = result.counters[800][0]
        assert np.quantile(values, 0.9) <= 10

    def test_fitted_slope_is_positive_and_shallow(self, result):
        assert 0.0 < result.pooled_fit.slope < 1.5
        assert 0.0 < result.pooled_fit.intercept < 15.0

    def test_distribution_roughly_size_independent(self, result):
        # The median counter of bit 0 should not differ wildly between sizes.
        median_small = float(np.median(result.counters[200][0]))
        median_large = float(np.median(result.counters[800][0]))
        assert abs(median_small - median_large) <= 3.0

    def test_render_mentions_paper_cutoff(self, result):
        text = render_fig6(result)
        assert "7+k/4" in text.replace(" ", "") or "paper" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            spec = FIG6.replace(protocol_params={"bins": 4, "bits": 4}, rounds=1)
            run_fig6(spec, sizes=(10,), min_samples=1000)


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig8(fail_at(FIG8, 15, n_hosts=600, rounds=40, seed=1), lambdas=(0.0, 0.01, 0.5))

    def test_series_lengths(self, result):
        assert set(result.errors) == {0.0, 0.01, 0.5}
        assert all(len(series) == 40 for series in result.errors.values())
        assert len(result.truths) == 40

    def test_all_lambdas_survive_uncorrelated_failure(self, result):
        # No curve should blow up after the failure; the static protocol and
        # the small-lambda variants end near zero error.
        assert result.final_error(0.0) < 3.0
        assert result.final_error(0.01) < 3.0
        assert result.final_error(0.5) < 25.0

    def test_truth_stays_near_fifty(self, result):
        assert abs(result.truths[-1] - 50.0) < 5.0

    def test_error_at_accessor(self, result):
        assert result.error_at(0.0, 39) == result.final_error(0.0)

    def test_render_contains_lambdas(self, result):
        text = render_fig8(result)
        assert "lambda=0.5" in text
        assert "round" in text

    def test_failure_round_validation(self):
        with pytest.raises(ValueError, match="inside the simulated rounds"):
            run_fig8(FIG8.replace(n_hosts=10, rounds=5))
        with pytest.raises(ValueError, match="exactly one failure event"):
            run_fig8(FIG8.replace(n_hosts=10, events=()))


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        params = {**FIG9.protocol_params, "bins": 16, "bits": 18}
        return run_fig9(fail_at(FIG9, 15, n_hosts=800, rounds=35, protocol_params=params, seed=1))

    def test_naive_variant_never_recovers(self, result):
        # The naive estimate stays near the pre-failure population, so its
        # error is of the order of the removed half.
        assert result.naive_final_error() > 0.25 * 800

    def test_limited_variant_recovers(self, result):
        assert result.limited_final_error() < 0.25 * 800
        assert result.recovery_rounds(0.25 * 800) is not None

    def test_truth_halves_at_failure(self, result):
        assert result.truths[14] == 800.0
        assert result.truths[-1] == 400.0

    def test_render_labels(self, result):
        text = render_fig9(result)
        assert "propagation limiting on" in text
        assert "propagation limiting off" in text


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        spec = fail_at(FIG10, 15, n_hosts=800, rounds=50, seed=1)
        return run_fig10(spec, lambdas=(0.0, 0.1, 0.5))

    def test_truth_drops_after_failure(self, result):
        assert result.truths[10] == pytest.approx(50.0, abs=3.0)
        assert result.truths[-1] == pytest.approx(25.0, abs=3.0)

    def test_static_protocol_never_recovers(self, result):
        assert result.plateau(0.0) > 15.0

    def test_reversion_recovers(self, result):
        assert result.plateau(0.5) < result.plateau(0.0)
        assert result.plateau(0.1, full_transfer=True) < 5.0

    def test_full_transfer_improves_plateau(self, result):
        assert result.plateau(0.1, full_transfer=True) <= result.plateau(0.1) + 1e-9

    def test_larger_lambda_recovers_faster(self, result):
        fast = result.recovery_rounds(0.5, threshold=12.0)
        slow = result.recovery_rounds(0.1, threshold=12.0)
        assert fast is not None
        assert slow is None or fast <= slow

    def test_render_has_both_panels(self, result):
        text = render_fig10(result)
        assert "Figure 10(a)" in text
        assert "Figure 10(b)" in text

    def test_can_skip_full_transfer(self):
        spec = fail_at(FIG10, 5, n_hosts=100, rounds=10)
        result = run_fig10(spec, lambdas=(0.0,), include_full_transfer=False)
        assert result.full_transfer_errors == {}
        assert "Figure 10(b)" not in render_fig10(result)


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig11(FIG11.replace(seed=1), datasets=(1,), max_hours=6.0,
                         average_lambdas=(0.0, 0.01), bins=8, bits=12, identifiers_per_host=50)

    def test_dataset_structure(self, result):
        data = result.datasets[1]
        assert data.n_devices == 9
        assert len(data.hours) == len(data.group_size)
        assert set(data.average_errors) == {"lambda=0", "lambda=0.01"}
        assert set(data.size_errors) == {"reversion off", "reversion on", "reversion slow"}

    def test_hourly_series_lengths_match(self, result):
        data = result.datasets[1]
        for series in list(data.average_errors.values()) + list(data.size_errors.values()):
            assert len(series) == len(data.hours)

    def test_group_sizes_plausible(self, result):
        data = result.datasets[1]
        finite = [s for s in data.group_size if np.isfinite(s)]
        assert finite
        assert all(1.0 <= s <= 9.0 for s in finite)

    def test_reversion_tracks_group_size_better_than_static(self, result):
        data = result.datasets[1]
        assert data.mean_error("reversion on", size=True) <= data.mean_error(
            "reversion off", size=True
        )

    def test_render_contains_dataset_header(self, result):
        text = render_fig11(result)
        assert "dataset 1" in text
        assert "avg group size" in text


class TestAblations:
    def test_push_vs_pushpull(self):
        result = run_push_vs_pushpull_ablation(n_hosts=500, rounds=30, seed=1)
        assert result.outcomes["pushpull"] <= result.outcomes["push"]

    def test_adaptive_lambda_runs(self):
        result = run_adaptive_lambda_ablation(n_hosts=400, rounds=40, seed=1)
        assert set(result.outcomes) == {"fixed", "adaptive"}

    def test_full_transfer_parameters(self):
        result = run_full_transfer_parameter_ablation(
            n_hosts=300, rounds=40, parcel_counts=(2, 4), history_lengths=(3,), seed=1
        )
        assert len(result.outcomes) == 2
        assert all(np.isfinite(v) for v in result.outcomes.values())

    def test_cutoff_slope(self):
        result = run_cutoff_slope_ablation(
            n_hosts=400, rounds=30, intercepts=(4.0, 12.0), bins=8, bits=14, seed=1
        )
        assert len(result.outcomes) == 2

    def test_summation_cost(self):
        result = run_summation_cost_ablation()
        assert result.outcomes["ratio"] > 1.0
        assert "invert-average (per sum, sketch amortised)" in result.outcomes

    def test_ablation_render(self):
        result = run_summation_cost_ablation()
        text = result.render()
        assert "Ablation" in text
        assert "ratio" in text


class TestRunner:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            run_all_experiments("enormous")

    @pytest.mark.parametrize("name", ["fig7", "Fig8"])
    def test_unknown_experiment_rejected(self, name):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_all_experiments("quick", only=[name], include_ablations=False)

    def test_report_sections_in_numeric_figure_order(self):
        report = ExperimentReport(profile="quick")
        for name in ("fig10", "fig11", "fig6", "fig8", "fig9", "ablations"):
            report.rendered[name] = f"section {name}"
        assert report.section_names() == ["fig6", "fig8", "fig9", "fig10", "fig11", "ablations"]
        text = report.text()
        assert text.index("## fig6") < text.index("## fig9") < text.index("## fig10")
        assert text.index("## fig11") < text.index("## ablations")


class TestScenarioProfiles:
    def test_every_profile_has_engine_level_specs(self):
        assert {"quick", "full"} <= set(SCENARIO_PROFILES)
        for profile in SCENARIO_PROFILES:
            specs = scenario_specs(profile)
            assert {"fig6", "fig8", "fig9", "fig10", "fig11"} <= set(specs)

    def test_report_runs_the_lambda_sweep_of_its_spec(self, tmp_path):
        # The report's fig8 section runs exactly the cells lambda_sweep describes.
        with ResultStore(str(tmp_path / "store")) as store:
            report = run_all_experiments("quick", only=["fig8"], store=store)
            sweep = lambda_sweep("quick", figure="fig8")
            assert len(store) == len(sweep)
            assert all(store.contains(spec) for spec in sweep.specs())
        assert set(report.results) == {"fig8"}
        assert "fig8" in report.text()

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            scenario_specs("enormous")

    def test_fig8_spec_runs_and_rides_through_failure(self):
        spec = scenario_specs("quick")["fig8"].replace(n_hosts=300, rounds=35)
        result = run_scenario(spec)
        assert result.alive_counts()[-1] == 150
        # Fig 8's point: an uncorrelated failure barely moves the estimate —
        # the post-failure error stays at the converged plateau, far below
        # the initial convergence transient.
        assert result.final_error() < result.errors()[0] / 10.0

    def test_lambda_sweep_matches_paper_grid(self):
        sweep = lambda_sweep("quick", figure="fig10", seeds=2)
        assert len(sweep) == len(DEFAULT_LAMBDAS) * 2
        reversions = {spec.protocol_params["reversion"] for spec in sweep.specs()}
        assert reversions == set(DEFAULT_LAMBDAS)
        with pytest.raises(ValueError):
            lambda_sweep("quick", figure="fig6")
