"""Queue-delay bound for the adaptive scheme and its threshold inversion; the
rate moments and the frozen bound against the channel-law oracle."""

import math

import numpy as np
import pytest

from bufrelay import analytic

import oracle
from conftest import (
    PAIR_MIXED,
    assert_within_sigma,
    random_pair,
    sample_pair_snr,
    second_moment_rate_hop_s,
)


class TestSecondMoments:
    def test_matches_quadrature_route(self):
        rng = np.random.default_rng(61)
        for k in range(8):
            pair = random_pair(rng, pip=(k % 4 == 3))
            rho = float(10.0 ** rng.uniform(-0.8, 0.8))
            closed = second_moment_rate_hop_s(pair, rho)
            assert closed == pytest.approx(oracle.hop(pair, rho, oracle.RATE2, "s"), rel=1e-8)

    def test_against_sampling(self):
        rng = np.random.default_rng(62)
        n = 1_500_000
        rho = 0.5233
        gs, gr = sample_pair_snr(PAIR_MIXED, rng, n)
        vals = np.where(gr <= rho * gs, np.log2(1.0 + gs) ** 2, 0.0)
        est, se = float(np.mean(vals)), float(np.std(vals) / math.sqrt(n))
        closed = second_moment_rate_hop_s(PAIR_MIXED, rho)
        assert_within_sigma(est, se, closed, 4.5, "second moment")

    def test_dominates_squared_mean(self):
        # masked Jensen: E[w^2 1] * q >= (E[w 1])^2 ... with the mask mass
        rho = 0.7
        q_s = analytic.lsp(PAIR_MIXED, rho)[0]
        m1 = analytic.avg_rate_cabr_hop_s(PAIR_MIXED, rho)
        m2 = second_moment_rate_hop_s(PAIR_MIXED, rho)
        assert m2 * q_s >= m1 * m1


class TestDelayBound:
    def test_frozen_value(self):
        assert analytic.delay_bound_adaptive(PAIR_MIXED, 0.5233) == pytest.approx(
            5.71004303570813, rel=1e-9
        )

    def test_frozen_value_from_the_oracle_moments(self):
        # the bound 0.5 (xi^2 m2s + (2 xi - 1) m2r) / ((xi m1s)^2 (xi - 1)),
        # xi = m1r / m1s, from the oracle's first and second rate moments
        rho = 0.5233
        m1s, m1r, m2s, m2r = (
            oracle.hop(PAIR_MIXED, rho, kernel, which)
            for kernel in (oracle.RATE, oracle.RATE2)
            for which in "sr"
        )
        xi = m1r / m1s
        bound = 0.5 * (xi * xi * m2s + (2.0 * xi - 1.0) * m2r) / ((xi * m1s) ** 2 * (xi - 1.0))
        assert bound == pytest.approx(5.71004303570813, rel=1e-9)

    def test_monotone_in_rho_below_balance(self):
        bounds = [
            analytic.delay_bound_adaptive(PAIR_MIXED, rho)
            for rho in (0.1, 0.3, 0.5233, 0.8, 1.0)
        ]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_requires_starving_buffer(self):
        _, rho_bal = analytic.avg_rate_cabr(PAIR_MIXED)
        with pytest.raises(ValueError):
            analytic.delay_bound_adaptive(PAIR_MIXED, rho_bal * 1.01)

    def test_past_balance_raises_its_own_type(self):
        # the balance point of this pair is 1.0466
        with pytest.raises(analytic.PastBalanceError, match=r"starving buffer \(xi > 1\)"):
            analytic.delay_bound_adaptive(PAIR_MIXED, 2.0)

    def test_rejects_vanishing_selection(self):
        with pytest.raises(ValueError):
            analytic.delay_bound_adaptive(PAIR_MIXED, 1e-9)


class TestDelayTargetInversion:
    def test_roundtrip(self):
        for t_target in (12.0, 5.710019, 3.3, 2.3):
            rho = analytic.rho_for_delay_bound(PAIR_MIXED, t_target)
            assert analytic.delay_bound_adaptive(PAIR_MIXED, rho) == pytest.approx(
                t_target, rel=1e-6
            )

    def test_tighter_targets_need_smaller_thresholds(self):
        rhos = [
            analytic.rho_for_delay_bound(PAIR_MIXED, t) for t in (12.0, 5.0, 3.0)
        ]
        assert rhos[0] > rhos[1] > rhos[2]

    def test_target_met_at_the_end_of_the_range(self):
        # the bound 1e-3 decades below the balance point, the end of the
        # searched range, is 1388.76: a looser target returns that end
        _, rho_bal = analytic.avg_rate_cabr(PAIR_MIXED)
        rho = analytic.rho_for_delay_bound(PAIR_MIXED, 1e4)
        assert rho == 10.0 ** (math.log10(rho_bal) - 1e-3)
        assert rho == pytest.approx(1.0441890632, rel=1e-9)
        bound = analytic.delay_bound_adaptive(PAIR_MIXED, rho)
        assert bound == pytest.approx(1388.7619, rel=1e-6)
        assert bound <= 1e4

    def test_target_just_under_the_end_bisects_inside_the_range(self):
        rho = analytic.rho_for_delay_bound(PAIR_MIXED, 1388.0)
        assert rho == pytest.approx(1.0441877422, rel=1e-9)
        assert rho < analytic.rho_for_delay_bound(PAIR_MIXED, 1e4)
        assert analytic.delay_bound_adaptive(PAIR_MIXED, rho) == pytest.approx(1388.0, rel=1e-6)

    def test_unreachable_target_raises(self):
        # the bound plateaus near 2.23 for this pair as rho -> 0
        for t_target in (2.2, 1.5):
            with pytest.raises(ValueError):
                analytic.rho_for_delay_bound(PAIR_MIXED, t_target)
        with pytest.raises(ValueError):
            analytic.rho_for_delay_bound(PAIR_MIXED, -1.0)
