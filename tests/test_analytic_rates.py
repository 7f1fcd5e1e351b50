"""Average-rate closed forms against quadrature, sampling, and each other."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bufrelay import analytic
from bufrelay.analytic import SelectionThresholds
from bufrelay.channel import link_ccdf
from bufrelay.specfun import quad_semi_infinite

from conftest import (
    PAIR_MIXED,
    PAIR_PIP,
    PAIR_PTP,
    assert_within_sigma,
    make_pair,
    random_pair,
    sample_pair_snr,
    semi_infinite,
)

LN2 = math.log(2.0)


def avg_rate_cabr_hop_s_quad(pair, rho):
    """Oracle: the first-hop adaptive rate by direct quadrature of the joint CCDF."""
    terms = analytic.joint_terms_sr(pair, rho)
    nats = quad_semi_infinite(semi_infinite(lambda x: analytic.eval_terms(terms, x) / (1.0 + x)))
    return nats / LN2


def avg_rate_cnbr_quad(pair):
    """Oracle: the fixed-alternation rate by direct quadrature of the product CCDF."""
    terms = analytic.product_terms(pair)
    nats = quad_semi_infinite(semi_infinite(lambda x: analytic.eval_terms(terms, x) / (1.0 + x)))
    return nats / (2.0 * LN2)

# balance point of the default workhorse pair, frozen from the solver itself
# after cross-checking both hop rates against quadrature and sampling
BALANCE_RATE_MIXED = 1.27562995
BALANCE_RHO_MIXED = 1.04659617


class TestHopCapacity:
    def test_against_direct_quadrature(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            link = random_pair(rng).s
            closed = analytic.avg_capacity_hop(link)
            direct = quad_semi_infinite(
                semi_infinite(lambda x: link_ccdf(link, x) / (1.0 + x))
            ) / LN2
            assert closed == pytest.approx(direct, rel=1e-9)

    def test_interference_only_capacity(self):
        link = PAIR_PIP.s
        closed = analytic.avg_capacity_hop(link)
        direct = quad_semi_infinite(
            semi_infinite(lambda x: link.mu / (link.mu + x) / (1.0 + x))
        ) / LN2
        assert closed == pytest.approx(direct, rel=1e-9)


class TestSelectionMaskedRates:
    def test_closed_matches_quadrature_route(self):
        rng = np.random.default_rng(22)
        for k in range(10):
            pair = random_pair(rng, pip=(k % 4 == 3))
            rho = float(10.0 ** rng.uniform(-1, 1))
            closed = analytic.avg_rate_cabr_hop_s(pair, rho)
            quad = avg_rate_cabr_hop_s_quad(pair, rho)
            assert closed == pytest.approx(quad, rel=1e-8)

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
                avg_rate_cnbr_quad(pair), rel=1e-8
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
            avg_rate_cnbr_quad(pair), rel=1e-8
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
