"""Average-rate closed forms against the channel-law oracle, sampling, and each other."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bufrelay import analytic
from bufrelay.analytic import ModulationParams, SelectionThresholds

import oracle
from conftest import (
    PAIR_MIXED,
    PAIR_PIP,
    PAIR_PTP,
    assert_within_sigma,
    make_pair,
    random_pair,
    sample_pair_snr,
)

# balance point of the default workhorse pair, frozen from the solver itself
# after cross-checking both hop rates against quadrature and sampling; the
# oracle's own balance point is 1.2756299537 at rho 1.0465961692
BALANCE_RATE_MIXED = 1.27562995
BALANCE_RHO_MIXED = 1.04659617
BPSK = ModulationParams(eta=2.0, phi=1.0)


class TestHopCapacity:
    def test_against_direct_quadrature(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            link = random_pair(rng).s
            closed = analytic.avg_capacity_hop(link)
            assert closed == pytest.approx(oracle.capacity(link), rel=1e-9)

    def test_interference_only_capacity(self):
        link = PAIR_PIP.s
        closed = analytic.avg_capacity_hop(link)
        assert closed == pytest.approx(oracle.capacity(link), rel=1e-9)


class TestSelectionMaskedRates:
    def test_closed_matches_quadrature_route(self):
        rng = np.random.default_rng(22)
        for k in range(10):
            pair = random_pair(rng, pip=(k % 4 == 3))
            rho = float(10.0 ** rng.uniform(-1, 1))
            for closed, which in (
                (analytic.avg_rate_cabr_hop_s(pair, rho), "s"),
                (analytic.avg_rate_cabr_hop_r(pair, rho), "r"),
            ):
                assert closed == pytest.approx(oracle.hop(pair, rho, oracle.RATE, which), rel=1e-8)
            q_s = analytic.lsp(pair, rho)[0]
            assert q_s == pytest.approx(oracle.hop(pair, rho, oracle.ONE, "s"), rel=1e-8)

    def test_against_sampling(self):
        rng = np.random.default_rng(23)
        n = 1_500_000
        for pair, rho in ((PAIR_MIXED, 0.8), (PAIR_PTP, 1.4), (PAIR_PIP, 0.6)):
            gs, gr = sample_pair_snr(pair, rng, n)
            sel = gr <= rho * gs
            vals_s = np.where(sel, np.log2(1.0 + gs), 0.0)
            vals_r = np.where(~sel, np.log2(1.0 + gr), 0.0)
            for vals, closed, label in (
                (vals_s, analytic.avg_rate_cabr_hop_s(pair, rho), "hop s"),
                (vals_r, analytic.avg_rate_cabr_hop_r(pair, rho), "hop r"),
            ):
                est = float(np.mean(vals))
                se = float(np.std(vals) / math.sqrt(n))
                assert_within_sigma(est, se, closed, 4.5, label)

    @pytest.mark.parametrize("rho", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("pair", [PAIR_MIXED, PAIR_PIP, PAIR_PTP], ids=["mixed", "pip", "ptp"])
    @pytest.mark.parametrize("hop", ["s", "r"])
    @pytest.mark.parametrize(
        "kernel, oracle_kernel",
        [
            (analytic.ONE, oracle.ONE),
            (analytic.RATE, oracle.RATE),
            (analytic.RATE2, oracle.RATE2),
            (BPSK, oracle.ser(BPSK)),
        ],
        ids=["one", "rate", "rate2", "ser"],
    )
    def test_seam_matches_the_oracle(self, kernel, oracle_kernel, hop, pair, rho):
        # every exact quantity reads _selected, so each kernel of each hop is
        # checked here once; the worst measured relative error is 2.5e-12
        got = analytic._selected(pair, rho, kernel, hop)[0]
        assert got == pytest.approx(oracle.hop(pair, rho, oracle_kernel, hop), rel=1e-9)

    def test_hop_r_is_the_mirrored_hop_s(self):
        for rho in (0.3, 1.0, 2.2):
            rpair, rthr = analytic.reverse(PAIR_MIXED, SelectionThresholds.uniform(rho))
            assert analytic.avg_rate_cabr_hop_r(PAIR_MIXED, rho) == pytest.approx(
                analytic.avg_rate_cabr_hop_s(rpair, rthr.rho), rel=1e-11
            )

    def test_hop_rates_split_the_capacity(self):
        # masked hop rates of a common threshold never exceed, and at rho
        # extremes recover, each hop's unmasked capacity
        cap_s = analytic.avg_capacity_hop(PAIR_MIXED.s)
        assert analytic.avg_rate_cabr_hop_s(PAIR_MIXED, 1e9) == pytest.approx(
            cap_s, rel=1e-6
        )
        assert analytic.avg_rate_cabr_hop_s(PAIR_MIXED, 0.7) < cap_s


class TestBalancePoint:
    def test_frozen_value(self):
        rate, rho = analytic.avg_rate_cabr(PAIR_MIXED)
        assert rate == pytest.approx(BALANCE_RATE_MIXED, rel=1e-7)
        assert rho == pytest.approx(BALANCE_RHO_MIXED, rel=1e-6)

    def test_frozen_value_is_the_oracle_balance(self):
        # bisection on log10 rho of the oracle's hop-rate gap, to 1e-12 decades
        lo, hi = -1.0, 1.0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            rho = 10.0**mid
            gap = oracle.hop(PAIR_MIXED, rho, oracle.RATE, "s") - oracle.hop(
                PAIR_MIXED, rho, oracle.RATE, "r"
            )
            lo, hi = (lo, mid) if gap > 0.0 else (mid, hi)
        rho = 10.0**lo
        rate = oracle.hop(PAIR_MIXED, rho, oracle.RATE, "s")
        assert rate == pytest.approx(BALANCE_RATE_MIXED, rel=1e-7)
        assert rho == pytest.approx(BALANCE_RHO_MIXED, rel=1e-6)

    def test_hops_balance_at_the_returned_threshold(self):
        rng = np.random.default_rng(31)
        for k in range(6):
            pair = random_pair(rng, pip=(k == 5))
            rate, rho = analytic.avg_rate_cabr(pair)
            in_rate = analytic.avg_rate_cabr_hop_s(pair, rho)
            out_rate = analytic.avg_rate_cabr_hop_r(pair, rho)
            assert in_rate == pytest.approx(out_rate, rel=1e-7)
            assert rate == pytest.approx(in_rate, rel=1e-7)

    def test_balance_is_the_maximum_of_min_of_hops(self):
        _, rho = analytic.avg_rate_cabr(PAIR_MIXED)
        at = min(
            analytic.avg_rate_cabr_hop_s(PAIR_MIXED, rho),
            analytic.avg_rate_cabr_hop_r(PAIR_MIXED, rho),
        )
        for factor in (0.8, 1.25):
            off = min(
                analytic.avg_rate_cabr_hop_s(PAIR_MIXED, rho * factor),
                analytic.avg_rate_cabr_hop_r(PAIR_MIXED, rho * factor),
            )
            assert off < at


class TestSchedulingBaselines:
    def test_cnbr_matches_quadrature_route(self):
        rng = np.random.default_rng(41)
        for k in range(8):
            pair = random_pair(rng, pip=(k % 4 == 3))
            assert analytic.avg_rate_cnbr(pair) == pytest.approx(
                oracle.cnbr_rate(pair), rel=1e-8
            )

    def test_cnbr_against_sampling(self):
        rng = np.random.default_rng(42)
        n = 1_500_000
        gs, gr = sample_pair_snr(PAIR_MIXED, rng, n)
        vals = 0.5 * np.log2(1.0 + np.minimum(gs, gr))
        est, se = float(np.mean(vals)), float(np.std(vals) / math.sqrt(n))
        assert_within_sigma(est, se, analytic.avg_rate_cnbr(PAIR_MIXED), 4.5, "cnbr")

    def test_cnbr_degenerate_interference_scales(self):
        # equal mu on both hops exercises the repeated-pole series
        pair = make_pair(4.0, 10.0, 7.0, 10.0)
        assert analytic.avg_rate_cnbr(pair) == pytest.approx(
            oracle.cnbr_rate(pair), rel=1e-8
        )
        near = make_pair(4.0, 10.0, 7.0, 10.0 + 1e-9)
        assert analytic.avg_rate_cnbr(pair) == pytest.approx(
            analytic.avg_rate_cnbr(near), rel=1e-7
        )

    def test_cbr_is_half_the_binding_capacity(self):
        expect = 0.5 * min(
            analytic.avg_capacity_hop(PAIR_MIXED.s),
            analytic.avg_capacity_hop(PAIR_MIXED.r),
        )
        assert analytic.avg_rate_cbr(PAIR_MIXED) == pytest.approx(expect, rel=1e-12)

    def test_scheme_ordering(self):
        rng = np.random.default_rng(43)
        for k in range(12):
            pair = random_pair(rng, pip=(k % 4 == 3))
            cabr, _ = analytic.avg_rate_cabr(pair)
            cnbr = analytic.avg_rate_cnbr(pair)
            cbr = analytic.avg_rate_cbr(pair)
            assert cabr >= cnbr - 1e-12
            assert cabr >= cbr - 1e-12

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_any_threshold_lower_bounds_the_balance_rate(self, rho):
        sustained = min(
            analytic.avg_rate_cabr_hop_s(PAIR_MIXED, rho),
            analytic.avg_rate_cabr_hop_r(PAIR_MIXED, rho),
        )
        assert sustained <= BALANCE_RATE_MIXED * (1.0 + 1e-7)
