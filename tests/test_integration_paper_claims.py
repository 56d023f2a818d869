"""Integration tests pinning the paper's qualitative claims.

Each test corresponds to a statement in the paper's evaluation (Section V)
and checks the *shape* of the reproduced result: who wins, in which
direction, and roughly by how much.  Absolute numbers use scaled-down
populations, so tolerances are generous; the point is that the qualitative
conclusion of each figure holds in this implementation.
"""

import numpy as np
import pytest

from repro.experiments import FIG6, FIG8, FIG9, FIG10, run_fig10, run_fig6, run_fig8, run_fig9
from repro.metrics.convergence import reconvergence_round


@pytest.fixture(scope="module")
def fig8():
    return run_fig8(FIG8.replace(n_hosts=1500))


@pytest.fixture(scope="module")
def fig9():
    params = {**FIG9.protocol_params, "bins": 16, "bits": 18}
    return run_fig9(FIG9.replace(n_hosts=1500, protocol_params=params))


@pytest.fixture(scope="module")
def fig10():
    return run_fig10(FIG10.replace(n_hosts=1500))


@pytest.fixture(scope="module")
def fig6():
    return run_fig6(FIG6.replace(protocol_params={"bins": 16, "bits": 20}), sizes=(500, 2000, 5000))


class TestSectionVAClaims:
    def test_uncorrelated_failures_have_no_adverse_effect(self, fig8):
        """Fig 8: 'massive uncorrelated node failures have no direct adverse
        effects on any instance of Push-Sum-Revert'."""
        for reversion, errors in fig8.errors.items():
            error_before = errors[18]
            error_after_recovery = errors[-1]
            # No curve should end dramatically worse than its pre-failure level.
            assert error_after_recovery <= error_before + 5.0

    def test_correlated_failures_break_static_push_sum(self, fig10):
        """Fig 10(a): the lambda=0 curve (static Push-Sum) never recovers —
        its error remains at the size of the shift in the true average."""
        static_plateau = fig10.plateau(0.0)
        assert static_plateau > 0.7 * 25.0

    def test_higher_lambda_faster_convergence_but_larger_error(self, fig10):
        """Fig 10(a): 'higher values of lambda result in faster convergence
        but result in greater error once the system has converged'."""
        recovery_05 = reconvergence_round(
            fig10.basic_errors[0.5], 15.0, disturbance_round=fig10.failure_round
        )
        recovery_01 = reconvergence_round(
            fig10.basic_errors[0.1], 15.0, disturbance_round=fig10.failure_round
        )
        assert recovery_05 is not None
        assert recovery_01 is None or recovery_05 <= recovery_01
        # ...but lambda=0.5 plateaus above lambda=0.1.
        assert fig10.plateau(0.5) > fig10.plateau(0.1)

    def test_full_transfer_reduces_plateau_error(self, fig10):
        """Fig 10(b): Full-Transfer lowers the converged error for the same
        lambda (paper: 2.13 at lambda=0.5, 0.694 at lambda=0.1)."""
        for reversion in (0.1, 0.5):
            assert fig10.plateau(reversion, full_transfer=True) < fig10.plateau(reversion)
        # Within scaled tolerances, the paper's headline numbers hold: the
        # lambda=0.1 plateau is small in absolute terms (paper: ~0.7 on a true
        # average of 25, i.e. under ~3), lambda=0.5 is a few times larger.
        assert fig10.plateau(0.1, full_transfer=True) < 3.0
        assert fig10.plateau(0.5, full_transfer=True) < 8.0

    def test_full_transfer_converges_quickly_at_high_lambda(self, fig10):
        """Fig 10(b): with lambda=0.5 the protocol converges within ~10 rounds
        of the failure."""
        recovery = reconvergence_round(
            fig10.full_transfer_errors[0.5], 5.0, disturbance_round=fig10.failure_round
        )
        assert recovery is not None
        assert recovery <= 15


class TestSectionVBClaims:
    def test_naive_sketch_counting_cannot_recover(self, fig9):
        """Fig 9: without propagation limiting the estimate increases
        monotonically, so after the failure the error stays at roughly the
        removed population."""
        removed = fig9.n_hosts * fig9.failure_fraction
        assert fig9.naive_final_error() > 0.5 * removed

    def test_count_sketch_reset_recovers_within_about_ten_rounds(self, fig9):
        """Fig 9: the algorithm 'reverts to its original state within 10
        rounds of a massive node failure'."""
        pre_failure_error = fig9.limited_errors[18]
        recovery = fig9.recovery_rounds(max(2.0 * pre_failure_error, 0.2 * fig9.n_hosts))
        assert recovery is not None
        assert recovery <= 15

    def test_counter_distribution_is_size_agnostic(self, fig6):
        """Fig 6: 'as the size of the network increases, the distribution of
        counter values (save for a tail at the high indices) remains
        constant' — compare the bit-0 and bit-2 medians across sizes."""
        for bit in (0, 2):
            medians = [
                float(np.median(fig6.counters[size][bit]))
                for size in fig6.sizes
                if bit in fig6.counters[size]
            ]
            assert max(medians) - min(medians) <= 3.0

    def test_counter_bound_is_roughly_linear_with_quarter_slope(self, fig6):
        """Fig 6 / Section IV-A: the high-probability bound grows linearly in
        the bit index with a shallow slope (paper fit: 7 + k/4)."""
        fit = fig6.pooled_fit
        assert 0.05 < fit.slope < 0.8
        assert 2.0 < fit.intercept < 14.0

    def test_expected_sketch_error_with_64_bins(self):
        """Section V-B: '64 buckets for an expected error of 9.7%'."""
        from repro.sketches.fm_sketch import expected_relative_error

        assert expected_relative_error(64) == pytest.approx(0.0975, abs=0.002)
