"""Threshold-protocol chain: stationary law, delays, design rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bufrelay import queueing
from bufrelay.channel import LinkParams
from bufrelay.analytic import BracketError, HopPair, ModulationParams
from bufrelay.queueing import (
    SchemeConstraint,
    ThresholdProtocolParams,
    ct_xi_c,
    ct_xi_min,
    delays,
    epsilon_xi_c,
    feasibility,
    flow_rates,
    lifo_equivalent_queue_delay,
    mdmt_xi_range,
    mean_occupancy,
    ser_asym_threshold_pip,
    ser_threshold,
    steady_state,
    throughput,
)

from conftest import mdmt_delay, mdmt_min_delay

PIP_UNEVEN = HopPair(LinkParams(math.inf, 33.75, 1.0), LinkParams(math.inf, 80.0, 1.0))


def reversed_chain(p: ThresholdProtocolParams) -> ThresholdProtocolParams:
    """Time-reversed role swap: growth and drain exchange places."""
    return ThresholdProtocolParams(
        buffer_size_L=p.buffer_size_L, q_s=p.q_r, q_c=p.q_d, q_d=p.q_c
    )


def random_chain(rng, l_max=64):
    L = int(rng.integers(1, l_max + 1))
    return ThresholdProtocolParams(
        buffer_size_L=L,
        q_s=float(rng.uniform(0.02, 0.98)),
        q_c=float(rng.uniform(0.02, 1.0)),
        q_d=float(rng.uniform(0.02, 1.0)),
    )


def transition_matrix(p):
    """Dense occupancy-walk kernel, built state by state."""
    L = int(p.buffer_size_L)
    m = np.zeros((L + 1, L + 1))
    m[0, 0], m[0, 1] = 1.0 - p.q_c, p.q_c
    m[L, L], m[L, L - 1] = 1.0 - p.q_d, p.q_d
    for i in range(1, L):
        m[i, i + 1], m[i, i - 1] = p.q_s, p.q_r
    return m


class TestParams:
    def test_properties(self):
        p = ThresholdProtocolParams(4, 0.25, 0.5, 0.8)
        assert p.q_r == 0.75
        assert p.xi == pytest.approx(3.0)
        assert p.xi_c == pytest.approx(1.0)
        assert p.xi_d == pytest.approx(0.25)

    def test_from_xis_roundtrip(self):
        p = ThresholdProtocolParams.from_xis(8, 2.0, 0.5, 3.0)
        assert p.q_s == pytest.approx(1.0 / 3.0)
        assert p.xi == pytest.approx(2.0)
        assert p.xi_c == pytest.approx(0.5)
        assert p.xi_d == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdProtocolParams(0, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            ThresholdProtocolParams(2.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            ThresholdProtocolParams(4, 0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            ThresholdProtocolParams(4, 0.5, 1.5, 0.5)
        with pytest.raises(ValueError):
            ThresholdProtocolParams(4, 0.5, 0.5, 0.0)
        # unbounded buffer must drain on average
        with pytest.raises(ValueError):
            ThresholdProtocolParams(math.inf, 0.6, 0.5, 0.5)
        with pytest.raises(ValueError):
            ThresholdProtocolParams.from_xis(4, -1.0, 0.5, 0.5)


class TestSteadyState:
    def test_matches_linear_solve(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            p = random_chain(rng)
            pi = steady_state(p)
            m = transition_matrix(p)
            L = int(p.buffer_size_L)
            a = np.vstack([m.T - np.eye(L + 1), np.ones(L + 1)])
            b = np.zeros(L + 2)
            b[-1] = 1.0
            ref, *_ = np.linalg.lstsq(a, b, rcond=None)
            assert np.max(np.abs(pi - ref)) < 1e-12

    def test_normalized_and_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_chain(rng)
            pi = steady_state(p)
            assert pi.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.max(np.abs(pi @ transition_matrix(p) - pi)) < 1e-14

    def test_extreme_drift_stays_finite(self):
        # interior weights span hundreds of orders of magnitude; the
        # log-space construction must not overflow the mass that matters
        p = ThresholdProtocolParams(400, 0.01, 0.5, 0.5)
        pi = steady_state(p)
        assert np.all(np.isfinite(pi))
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(pi) == 0  # strongly draining: mass sits at empty
        assert pi[0] > 0.6 and pi[-1] < 1e-300

    @pytest.mark.parametrize("L", [1, 2, 3, 10, 257, 1000])
    def test_log_weights_equal_the_python_loop(self, L):
        # the interior log weights are one array expression; the loop they
        # replaced computed each one as a Python float, with the same IEEE
        # operations, so the distributions are equal bit for bit
        rng = np.random.default_rng(L)
        for _ in range(5):
            p = ThresholdProtocolParams(L, *rng.uniform(0.05, 0.95, 3))
            log_xi = math.log(p.q_r) - math.log(p.q_s)
            logs = np.empty(L + 1)
            logs[0] = 0.0
            for i in range(1, L):
                logs[i] = math.log(p.q_c) - math.log(p.q_r) + (1 - i) * log_xi
            logs[L] = math.log(p.q_c) - math.log(p.q_d) + (1 - L) * log_xi
            w = np.exp(logs - logs.max())
            assert np.array_equal(steady_state(p), w / w.sum())

    def test_flow_balance_and_throughput(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = random_chain(rng)
            arrival, departure = flow_rates(p)
            assert arrival == pytest.approx(departure, abs=1e-14)
            assert throughput(p) == pytest.approx(arrival, abs=1e-14)

    def test_occupancy_within_range(self):
        p = ThresholdProtocolParams(10, 0.7, 0.9, 0.3)
        occ = mean_occupancy(p)
        assert 0.0 < occ < 10.0


class TestDelays:
    def test_decomposition_sums(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            p = random_chain(rng)
            d = delays(p)
            assert d.t_total == pytest.approx(d.t_q + d.t_u + d.t_o, abs=1e-14)
            assert d.t_q >= 1.0

    def test_throughput_delay_identity(self):
        # per delivered packet: two transmit slots plus the silent overhead
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = random_chain(rng)
            d = delays(p)
            assert throughput(p) == pytest.approx(
                1.0 / (2.0 + d.t_u + d.t_o), abs=1e-13
            )

    def test_balanced_chain_closed_form(self):
        # zero drift: queueing delay L + xi_d, boundary weights 1/L
        for L, q_d in ((4, 0.4), (9, 1.0)):
            p = ThresholdProtocolParams(L, 0.5, 0.7, q_d)
            assert delays(p).t_q == pytest.approx(L + p.xi_d, abs=1e-12)
            w_c, v_d = ser_threshold(p, 0.0, 1.0, 0.0, 1.0)
            assert w_c == pytest.approx(1.0 / L, abs=1e-13)
            assert v_d == pytest.approx(1.0 / L, abs=1e-13)

    def test_queue_delay_l_independent_at_matched_drain(self):
        xi = 2.5
        p_small = ThresholdProtocolParams.from_xis(3, xi, 1.3, 2.0 / (xi - 1.0))
        p_large = ThresholdProtocolParams.from_xis(48, xi, 1.3, 2.0 / (xi - 1.0))
        t_inf = 1.0 + 2.0 / (xi - 1.0)
        assert delays(p_small).t_q == pytest.approx(t_inf, abs=1e-12)
        assert delays(p_large).t_q == pytest.approx(t_inf, abs=1e-12)

    def test_infinite_buffer_limit(self):
        p_inf = ThresholdProtocolParams.from_xis(math.inf, 3.0, 1.2, 0.7)
        d_inf = delays(p_inf)
        assert d_inf.t_q == pytest.approx(2.0)
        assert d_inf.t_o == 0.0
        p_big = ThresholdProtocolParams.from_xis(200, 3.0, 1.2, 0.7)
        d_big = delays(p_big)
        assert d_big.t_q == pytest.approx(d_inf.t_q, abs=1e-12)
        assert d_big.t_u == pytest.approx(d_inf.t_u, abs=1e-12)
        assert throughput(p_big) == pytest.approx(throughput(p_inf), abs=1e-12)


class TestReversal:
    def test_double_reverse_identity(self):
        p = ThresholdProtocolParams(6, 0.3, 0.8, 0.4)
        back = reversed_chain(reversed_chain(p))
        assert back.buffer_size_L == p.buffer_size_L
        assert back.q_s == pytest.approx(p.q_s, abs=1e-15)
        assert back.q_c == p.q_c and back.q_d == p.q_d

    def test_reversed_stationary_law_is_flipped(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = random_chain(rng)
            assert np.max(
                np.abs(steady_state(reversed_chain(p)) - steady_state(p)[::-1])
            ) < 1e-14

    def test_lifo_queue_delay_equals_reversed_fifo(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = random_chain(rng)
            assert lifo_equivalent_queue_delay(p) == pytest.approx(
                delays(reversed_chain(p)).t_q, rel=1e-12
            )


class TestSerThreshold:
    def test_infinite_buffer_weights(self):
        p = ThresholdProtocolParams.from_xis(math.inf, 2.0, 1.0, 1.0)
        p_s, p_r = ser_threshold(p, 0.1, 0.3, 0.05, 0.9)
        assert p_s == pytest.approx(0.5 * 0.3 + 0.5 * 0.1)
        assert p_r == pytest.approx(0.05)  # full state never seen

    def test_weights_are_convex(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            p = random_chain(rng)
            p_s, p_r = ser_threshold(p, 1.0, 1.0, 1.0, 1.0)
            assert p_s == pytest.approx(1.0, abs=1e-13)
            assert p_r == pytest.approx(1.0, abs=1e-13)

    def test_rejects_bad_probability(self):
        p = ThresholdProtocolParams(4, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            ser_threshold(p, 1.2, 0.1, 0.1, 0.1)


class TestMdmt:
    def test_min_delay_closed_forms(self):
        md = mdmt_min_delay(1.0)
        assert md.t_min == pytest.approx(1.0 + 2.0 * math.sqrt(2.0))
        assert md.xi_star == pytest.approx(1.0 + math.sqrt(2.0))
        md = mdmt_min_delay(0.5)
        assert md.t_min == pytest.approx(3.0)
        assert md.xi_star == pytest.approx(3.0)
        md = mdmt_min_delay(0.25)
        assert md.t_min == pytest.approx(1.0 + math.sqrt(2.0))
        assert md.xi_star == pytest.approx(1.0 + 2.0 * math.sqrt(2.0))

    def test_delay_curve_attains_minimum(self):
        for x_star in (0.25, 0.5, 1.0, 2.0):
            md = mdmt_min_delay(x_star)
            assert mdmt_delay(x_star, md.xi_star) == pytest.approx(md.t_min)
            assert mdmt_delay(x_star, md.xi_star * 1.3) > md.t_min
            assert mdmt_delay(x_star, 1.0 + 0.7 * (md.xi_star - 1.0)) > md.t_min

    def test_delay_matches_chain(self):
        x_star, xi = 0.5, 4.0
        p = ThresholdProtocolParams.from_xis(math.inf, xi, x_star * xi, 1.0)
        assert delays(p).t_total == pytest.approx(mdmt_delay(x_star, xi), abs=1e-12)

    def test_xi_range(self):
        r = mdmt_xi_range(0.5, SchemeConstraint(4.0, 0.25))
        assert r.feasible
        assert r.xi_lo == pytest.approx(1.7639320225002102)
        assert r.xi_hi == pytest.approx(5.0)
        # the delay ceiling binds at the low end, the throughput floor on top
        assert mdmt_delay(0.5, r.xi_lo) == pytest.approx(4.0, abs=1e-12)
        p_hi = ThresholdProtocolParams.from_xis(math.inf, r.xi_hi, 0.5 * r.xi_hi, 1.0)
        assert throughput(p_hi) == pytest.approx(0.25, abs=1e-12)

    def test_xi_range_infeasible(self):
        # passes the coarse joint check but sits below this family's minimum
        r = mdmt_xi_range(1.0, SchemeConstraint(3.5, 0.3))
        assert not r.feasible
        assert r.violated == "t_max below the minimum delay"
        assert math.isnan(r.xi_lo)
        r = mdmt_xi_range(0.5, SchemeConstraint(0.5, 0.3))
        assert not r.feasible
        assert r.violated == "t_max below one slot"

    def test_rejects_bad_x_star(self):
        with pytest.raises(ValueError):
            mdmt_min_delay(0.0)
        with pytest.raises(ValueError):
            mdmt_delay(0.5, 1.0)


class TestCt:
    def test_substitution_recovers_target(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            tau_star = float(rng.uniform(0.05, 0.49))
            xi = float(rng.uniform(1.05, 20.0))
            p = ThresholdProtocolParams.from_xis(
                math.inf, xi, ct_xi_c(tau_star, xi), 1.0
            )
            assert throughput(p) == pytest.approx(tau_star, abs=1e-12)

    def test_arithmetic_example(self):
        assert ct_xi_c(1.0 / 3.0, 2.0) == pytest.approx(2.0)

    def test_half_packet_limit(self):
        assert ct_xi_c(0.4999999, 2.0) == pytest.approx(0.0, abs=1e-5)

    def test_xi_min_is_tight(self):
        for tau_star, t_max in ((1.0 / 3.0, 5.0), (0.25, 8.0), (0.4, 2.0)):
            xi_min = ct_xi_min(tau_star, t_max)
            p = ThresholdProtocolParams.from_xis(
                math.inf, xi_min, ct_xi_c(tau_star, xi_min), 1.0
            )
            assert delays(p).t_total == pytest.approx(t_max, abs=1e-9)
            # below the cutoff the queue term blows the ceiling
            xi_bad = 1.0 + 0.9 * (xi_min - 1.0)
            p_bad = ThresholdProtocolParams.from_xis(
                math.inf, xi_bad, ct_xi_c(tau_star, xi_bad), 1.0
            )
            assert delays(p_bad).t_total > t_max

    def test_xi_min_domain(self):
        with pytest.raises(ValueError):
            ct_xi_min(0.2, 2.0)  # tau*(1+t_max) < 1
        assert ct_xi_min(0.25, 3.0) == math.inf
        with pytest.raises(ValueError):
            ct_xi_c(0.6, 2.0)
        with pytest.raises(ValueError):
            ct_xi_c(0.3, 1.0)


class TestEpsilonFamily:
    def test_substitution(self):
        assert epsilon_xi_c(0.0, 2.0) == pytest.approx(2.0 / 3.0)

    def test_zero_knob_makes_asym_ser_flat(self):
        mod = ModulationParams(eta=2.0, phi=1.0)
        base = 0.75 * mod.phi / (mod.eta**2 * PIP_UNEVEN.s.mu**2)
        vals = [
            ser_asym_threshold_pip(PIP_UNEVEN, xi, epsilon_xi_c(0.0, xi), mod)
            for xi in (1.2, 2.0, 5.0, 17.0)
        ]
        for v in vals:
            assert v == pytest.approx(2.0 * base, rel=1e-12)

    def test_nonzero_knob_depends_on_xi(self):
        mod = ModulationParams(eta=2.0, phi=1.0)
        a = ser_asym_threshold_pip(PIP_UNEVEN, 2.0, epsilon_xi_c(1.0, 2.0), mod)
        b = ser_asym_threshold_pip(PIP_UNEVEN, 8.0, epsilon_xi_c(1.0, 8.0), mod)
        assert abs(a - b) / a > 0.2

    def test_domain(self):
        with pytest.raises(ValueError):
            epsilon_xi_c(-0.1, 2.0)
        with pytest.raises(ValueError):
            epsilon_xi_c(2.0, 2.0)  # denominator crosses zero


class TestSerAsymThreshold:
    def test_exact_close_to_approx(self):
        mod = ModulationParams(eta=2.0, phi=1.0)
        a = ser_asym_threshold_pip(PIP_UNEVEN, 2.0, 1.0, mod, method="approx")
        e = ser_asym_threshold_pip(PIP_UNEVEN, 2.0, 1.0, mod, method="exact")
        assert a == pytest.approx(e, rel=0.15)

    def test_exact_raises_when_threshold_not_bracketed(self):
        # q_s at rho = 1e-30 already exceeds the target 1/(1 + xi) = 1/3
        far = HopPair(LinkParams(math.inf, 1e31, 1.0), LinkParams(math.inf, 1.0, 1.0))
        mod = ModulationParams(eta=2.0, phi=1.0)
        with pytest.raises(BracketError):
            ser_asym_threshold_pip(far, 2.0, 1.0, mod, method="exact")

    def test_validation(self):
        mod = ModulationParams(eta=2.0, phi=1.0)
        mixed = HopPair(
            LinkParams(4.0, 10.0, math.exp(-10.0 / 4.0)), LinkParams(math.inf, 3.0, 1.0)
        )
        with pytest.raises(ValueError):
            ser_asym_threshold_pip(mixed, 2.0, 1.0, mod)
        with pytest.raises(ValueError):
            ser_asym_threshold_pip(PIP_UNEVEN, 0.5, 1.0, mod)
        with pytest.raises(ValueError):
            ser_asym_threshold_pip(PIP_UNEVEN, 2.0, 1.0, mod, method="fancy")


class TestFeasibility:
    def test_tags(self):
        assert feasibility(SchemeConstraint(4.0, 0.25)) == (True, None)
        f = feasibility(SchemeConstraint(0.5, 0.3))
        assert (f.feasible, f.violated) == (False, "t_max below one slot")
        f = feasibility(SchemeConstraint(4.0, 0.6))
        assert f.violated == "tau_min above the half-packet ceiling"
        f = feasibility(SchemeConstraint(2.0, 0.3))
        assert f.violated == "tau_min * (1 + t_max) below one"

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            SchemeConstraint(-1.0, 0.3)
        with pytest.raises(ValueError):
            SchemeConstraint(4.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    lsize=st.integers(min_value=1, max_value=48),
    q_s=st.floats(min_value=0.03, max_value=0.97),
    q_c=st.floats(min_value=0.03, max_value=1.0),
    q_d=st.floats(min_value=0.03, max_value=1.0),
)
def test_chain_invariants(lsize, q_s, q_c, q_d):
    p = ThresholdProtocolParams(lsize, q_s, q_c, q_d)
    pi = steady_state(p)
    assert pi.shape == (lsize + 1,)
    assert abs(pi.sum() - 1.0) < 1e-12
    assert np.all(pi >= 0.0)
    d = delays(p)
    assert d.t_q >= 1.0 - 1e-12
    assert d.t_u >= 0.0 and d.t_o >= 0.0
    tau = throughput(p)
    assert 0.0 < tau <= 0.5 + 1e-12
