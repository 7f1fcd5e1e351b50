"""Joint selection/SNR tail probabilities against sampling and limit forms."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bufrelay import analytic
from bufrelay.analytic import HopPair, SelectionThresholds
from bufrelay.channel import LinkParams

from conftest import (
    PAIR_MIXED,
    PAIR_PIP,
    PAIR_PTP,
    assert_within_sigma,
    joint_ccdf_rd,
    make_pair,
    random_pair,
    sample_pair_snr,
)


class ApproxQs(NamedTuple):
    value: float
    starving_side: bool


def approx_qs_pip(pair: HopPair, rho: float) -> ApproxQs:
    """Geometric-series approximation q_s ~ z/(1+z), z = rho mu_s / mu_r.

    Intended for the starving side z < 1 (flagged otherwise); it is exact at
    z = 1 and degrades as z -> 0.
    """
    z = rho * pair.s.mu / pair.r.mu
    return ApproxQs(value=z / (1.0 + z), starving_side=z < 1.0)


def rho_for_qs(pair: HopPair, q_target: float) -> float:
    """Threshold whose first-hop selection probability equals q_target.

    The selection probability is monotone increasing in rho, so a log-domain
    bisection converges unconditionally.
    """
    if not (0.0 < q_target < 1.0):
        raise ValueError("q_target must lie in (0, 1)")

    # relative to the nearer end of (0, 1), so targets near 0 or 1 keep their digits
    tol = 1e-12 * min(q_target, 1.0 - q_target)

    def f(log10_rho: float) -> float:
        d = analytic.lsp(pair, 10.0**log10_rho)[0] - q_target
        return 0.0 if abs(d) < tol else d

    return analytic._bisect_log10_rho(f, "q_target")


def bisect_log10_halvings(f, lo, hi, xtol=0.0):
    """Oracle: analytic._bisect_log10 without a probe, as it ran before it
    stopped at brackets it can no longer split: 200 halvings, unless f is
    exactly 0.0 at a midpoint or the bracket gets narrower than xtol."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid, mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < xtol:
            break
    return lo, hi


def mc_joint(pair, rho, x, n, seed):
    rng = np.random.default_rng(seed)
    gs, gr = sample_pair_snr(pair, rng, n)
    sel_s = gr <= rho * gs
    p_sr = float(np.mean(sel_s & (gs > x)))
    p_rd = float(np.mean(~sel_s & (gr > x)))
    return p_sr, p_rd


class TestJointCcdfAgainstSampling:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_parameter_sets(self, seed):
        rng = np.random.default_rng(1000 + seed)
        pair = random_pair(rng, pip=(seed % 3 == 2))
        rho = float(10.0 ** rng.uniform(-1.0, 1.0))
        x = float(rng.uniform(0.0, 3.0))
        n = 1_000_000
        mc_sr, mc_rd = mc_joint(pair, rho, x, n, seed)
        for label, mc, closed in (
            ("sr", mc_sr, analytic.joint_ccdf_sr(pair, rho, x)),
            ("rd", mc_rd, joint_ccdf_rd(pair, rho, x)),
        ):
            se = math.sqrt(max(closed * (1.0 - closed), 1e-12) / n)
            assert_within_sigma(mc, se, closed, 4.5, f"joint {label} seed={seed}")

    def test_near_balanced_interference_branch(self):
        # the builder switches series when rho mu_s ~ mu_r; both sides of the
        # switch must agree to analytic accuracy
        pair = make_pair(4.0, 10.0, 7.0, 8.0)
        rho0 = 8.0 / 10.0  # exact degeneracy
        for x in (0.0, 0.7, 2.5):
            at = analytic.joint_ccdf_sr(pair, rho0, x)
            near = analytic.joint_ccdf_sr(pair, rho0 * (1.0 + 3e-7), x)
            off = analytic.joint_ccdf_sr(pair, rho0 * (1.0 + 1e-3), x)
            assert at == pytest.approx(near, rel=1e-6)
            assert at == pytest.approx(off, rel=5e-3)


class TestClosedFormCorners:
    def test_complementarity_at_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            pair = random_pair(rng)
            rho = float(10.0 ** rng.uniform(-1.2, 1.2))
            total = analytic.joint_ccdf_sr(pair, rho, 0.0) + joint_ccdf_rd(
                pair, rho, 0.0
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_peak_power_only_closed_form(self):
        lam_s, lam_r, rho, x = 2.0, 5.0, 0.7, 1.3
        pair = HopPair(
            s=LinkParams(lam=lam_s, mu=200.0, p=0.0),
            r=LinkParams(lam=lam_r, mu=300.0, p=0.0),
        )
        # exponential-only marginals integrate in closed form
        k = 1.0 / lam_s + rho / lam_r
        expect_sr = math.exp(-x / lam_s) - math.exp(-k * x) / (lam_s * k)
        assert analytic.joint_ccdf_sr(pair, rho, x) == pytest.approx(expect_sr, rel=1e-12)
        expect_q_s = rho * lam_s / (lam_r + rho * lam_s)
        assert analytic.lsp(pair, rho)[0] == pytest.approx(expect_q_s, rel=1e-12)

    def test_interference_only_selection_probability(self):
        for rho in (0.2, 6.0 / 11.0 * 0.999999, 1.0, 3.4):
            z = rho * PAIR_PIP.s.mu / PAIR_PIP.r.mu
            if abs(z - 1.0) < 1e-9:
                expect = 0.5
            else:
                expect = -z / (1.0 - z) - z * math.log(z) / (1.0 - z) ** 2
            assert analytic.qs_pip_exact(PAIR_PIP, rho) == pytest.approx(expect, rel=1e-9)
            assert analytic.lsp(PAIR_PIP, rho)[0] == pytest.approx(expect, rel=1e-6)

    def test_q_s_exact_half_at_symmetry(self):
        pair = make_pair(3.0, 7.0, 3.0, 7.0)
        q_s, q_r = analytic.lsp(pair, 1.0)
        assert q_s == pytest.approx(0.5, abs=1e-12)
        assert q_r == pytest.approx(0.5, abs=1e-12)

    def test_rejects_unsamplable_links(self):
        with pytest.raises(ValueError, match="infinite lam requires p = 1"):
            HopPair(
                s=LinkParams(lam=math.inf, mu=5.0, p=0.7),
                r=LinkParams.from_lambda_mu(7.0, 3.0),
            )


class TestApproximateSelection:
    def test_geometric_series_form(self):
        out = approx_qs_pip(PAIR_PIP, 0.9)
        z = 0.9 * PAIR_PIP.s.mu / PAIR_PIP.r.mu
        assert out.value == pytest.approx(z / (1.0 + z), rel=1e-12)
        assert out.starving_side  # z < 1

    def test_error_profile(self):
        # exact at z = 1, monotonically worse toward z -> 0 (documented)
        errs = []
        for z in (1.0, 0.5, 0.1):
            rho = z * PAIR_PIP.r.mu / PAIR_PIP.s.mu
            exact = analytic.qs_pip_exact(PAIR_PIP, rho)
            approx = approx_qs_pip(PAIR_PIP, rho).value
            errs.append(abs(approx - exact) / exact)
        assert errs[0] < 1e-9
        assert errs[0] < errs[1] < errs[2]
        assert errs[1] < 0.15


class TestThresholdInversions:
    def test_rho_for_qs_roundtrip(self):
        for pair in (PAIR_MIXED, PAIR_PTP, PAIR_PIP):
            for q in (0.2, 0.5, 0.8):
                rho = rho_for_qs(pair, q)
                # interference-limited pairs take the degenerate-series limit
                # on a +-1e-6 window around the balanced threshold, which
                # flattens the objective there (bias ~ (z-1)/6 <= 2e-7)
                tol = 5e-7 if (pair is PAIR_PIP and q == 0.5) else 1e-10
                assert analytic.lsp(pair, rho)[0] == pytest.approx(q, abs=tol)
            # the search stops relative to the target, so tiny targets keep their digits
            for q in (1e-13, 1e-11):
                rho = rho_for_qs(pair, q)
                assert analytic.lsp(pair, rho)[0] == pytest.approx(q, rel=1e-2, abs=0.0)

    def test_rho_opt_fixed_balances_selection(self):
        assert analytic.rho_opt_fixed(PAIR_MIXED) == pytest.approx(
            0.9460887270122132, rel=1e-9
        )
        for pair in (PAIR_MIXED, PAIR_PTP, PAIR_PIP):
            rho = analytic.rho_opt_fixed(pair)
            assert analytic.lsp(pair, rho)[0] == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("root", [0.3, -1.7, 2.5, math.log10(0.9460887270122132)])
    def test_bisection_stops_at_an_unsplittable_bracket(self, root):
        # the sign changes between root and the double below it, so the
        # bracket closes on those two long before 200 halvings
        calls = []

        def step(x):
            calls.append(x)
            return -1.0 if x < root else 1.0

        want = bisect_log10_halvings(step, -30.0, 30.0)
        assert len(calls) == 200
        calls.clear()
        got = analytic._bisect_log10(step, -30.0, 30.0)
        assert got == want == (np.nextafter(root, -math.inf), root)
        assert len(calls) <= 70

    # hop scales 30 decades apart put q_s = 1/2 just past one end of the
    # searched log10 rho range [-30, 30]
    @pytest.mark.parametrize(
        "pair",
        [make_pair(1e-20, 1e-20, 1e10, 1e20), make_pair(1e10, 1e20, 1e-20, 1e-20)],
        ids=["past_upper_end", "past_lower_end"],
    )
    def test_unbracketed_inversions_raise(self, pair):
        with pytest.raises(analytic.BracketError):
            analytic.rho_opt_fixed(pair)
        with pytest.raises(analytic.BracketError):
            rho_for_qs(pair, 0.5)

    def test_pure_regime_closed_forms(self):
        assert analytic.rho_opt_fixed(PAIR_PTP) == pytest.approx(
            PAIR_PTP.r.lam / PAIR_PTP.s.lam, rel=1e-6
        )
        assert analytic.rho_opt_fixed(PAIR_PIP) == pytest.approx(
            PAIR_PIP.r.mu / PAIR_PIP.s.mu, rel=1e-9
        )

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=1.02, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_q_s_strictly_increasing_in_rho(self, rho, factor):
        assert analytic.lsp(PAIR_MIXED, rho * factor)[0] > analytic.lsp(
            PAIR_MIXED, rho
        )[0]


class TestReversal:
    def test_reverse_swaps_roles(self):
        thr = SelectionThresholds(rho=0.8, rho_c=0.4, rho_d=1.9)
        rpair, rthr = analytic.reverse(PAIR_MIXED, thr)
        assert rpair.s == PAIR_MIXED.r and rpair.r == PAIR_MIXED.s
        assert rthr.rho == pytest.approx(1.0 / 0.8)
        # the empty-state threshold of the mirror comes from the full-state
        # threshold of the original, and vice versa
        assert rthr.rho_c == pytest.approx(1.0 / 1.9)
        assert rthr.rho_d == pytest.approx(1.0 / 0.4)

    def test_double_reverse_is_identity(self):
        thr = SelectionThresholds(rho=0.8, rho_c=0.4, rho_d=1.9)
        rpair, rthr = analytic.reverse(*analytic.reverse(PAIR_MIXED, thr))
        assert rpair == PAIR_MIXED
        assert rthr.rho == pytest.approx(thr.rho)
        assert rthr.rho_c == pytest.approx(thr.rho_c)
        assert rthr.rho_d == pytest.approx(thr.rho_d)

    def test_reversed_selection_probabilities_swap(self):
        for rho in (0.3, 1.0, 2.7):
            q_s, q_r = analytic.lsp(PAIR_MIXED, rho)
            rpair, rthr = analytic.reverse(
                PAIR_MIXED, SelectionThresholds.uniform(rho)
            )
            q_s_rev, q_r_rev = analytic.lsp(rpair, rthr.rho)
            assert q_s_rev == pytest.approx(q_r, rel=1e-12)
            assert q_r_rev == pytest.approx(q_s, rel=1e-12)

    def test_joint_ccdf_duality(self):
        for rho, x in ((0.8, 0.0), (0.8, 1.7), (2.5, 0.4)):
            rpair, rthr = analytic.reverse(
                PAIR_MIXED, SelectionThresholds.uniform(rho)
            )
            assert joint_ccdf_rd(pair=PAIR_MIXED, rho=rho, x=x) == pytest.approx(
                analytic.joint_ccdf_sr(rpair, rthr.rho, x), rel=1e-11
            )
