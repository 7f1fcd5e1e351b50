"""Fixed-rate symbol error probabilities: closed forms against the channel-law
oracle and sampling, asymptotes, floors."""

import json
import math

import numpy as np
import pytest
from scipy import special

from bufrelay import analytic, cli
from bufrelay.analytic import HopPair, ModulationParams
from bufrelay.channel import LinkParams

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

BPSK = ModulationParams(eta=2.0, phi=1.0, rate_R=1.0)

# interference-limited error floors for matched hops with mu = 156.25
CABR_PIP_FLOOR_SUM = 3.072e-5
CNBR_PIP_FLOOR_SUM = 3.2e-3

SYM_PIP_156 = HopPair(
    s=LinkParams(lam=math.inf, mu=156.25, p=1.0),
    r=LinkParams(lam=math.inf, mu=156.25, p=1.0),
)


def gaussian_ser(g, mod):
    return 0.5 * mod.phi * special.erfc(np.sqrt(0.5 * mod.eta * g))


def oracle_ser(pair, rho, mod, which):
    """The oracle's error rate of hop `which`, conditioned on its selection."""
    return oracle.hop(pair, rho, oracle.ser(mod), which) / oracle.hop(pair, rho, oracle.ONE, which)


class TestExactCabr:
    def test_matches_quadrature_route(self):
        rng = np.random.default_rng(51)
        for k in range(8):
            pair = random_pair(rng, pip=(k % 4 == 3))
            rho = float(10.0 ** rng.uniform(-0.7, 0.7))
            mod = ModulationParams(
                eta=float(rng.uniform(0.5, 4.0)), phi=float(rng.uniform(0.5, 2.0))
            )
            closed = analytic.ser_exact_cabr(pair, rho, mod)
            assert closed.p_s == pytest.approx(oracle_ser(pair, rho, mod, "s"), rel=1e-7)
            assert closed.p_r == pytest.approx(oracle_ser(pair, rho, mod, "r"), rel=1e-7)

    def test_against_sampling(self):
        rng = np.random.default_rng(52)
        n = 2_000_000
        rho = 0.8
        gs, gr = sample_pair_snr(PAIR_MIXED, rng, n)
        sel = gr <= rho * gs
        closed = analytic.ser_exact_cabr(PAIR_MIXED, rho, BPSK)
        for draws, target, label in (
            (gaussian_ser(gs[sel], BPSK), closed.p_s, "hop s"),
            (gaussian_ser(gr[~sel], BPSK), closed.p_r, "hop r"),
        ):
            est = float(np.mean(draws))
            se = float(np.std(draws) / math.sqrt(draws.size))
            assert_within_sigma(est, se, target, 4.5, label)

    def test_bound_is_the_sum(self):
        t = analytic.ser_exact_cabr(PAIR_MIXED, 0.8, BPSK)
        assert t.p_bound == pytest.approx(t.p_s + t.p_r)

    def test_requires_two_sided_selection(self):
        with pytest.raises(ValueError):
            analytic.ser_exact_cabr(PAIR_MIXED, 1e-14, BPSK)

    def test_each_hop_needs_only_its_own_selection(self):
        # q_r(1e14) and q_s(1e-14) are below the 1e-7 floor, the other hop's are not
        assert 0.0 < analytic.ser_cabr_hop_s(PAIR_MIXED, 1e14, BPSK) < 0.5
        assert 0.0 < analytic.ser_cabr_hop_r(PAIR_MIXED, 1e-14, BPSK) < 0.5
        with pytest.raises(analytic.OneSidedError):
            analytic.ser_cabr_hop_r(PAIR_MIXED, 1e14, BPSK)
        with pytest.raises(analytic.OneSidedError):
            analytic.ser_cabr_hop_s(PAIR_MIXED, 1e-14, BPSK)

    def test_mirror_consistency(self):
        rho = 0.8
        rpair, rthr = analytic.reverse(
            PAIR_MIXED, analytic.SelectionThresholds.uniform(rho)
        )
        fwd = analytic.ser_exact_cabr(PAIR_MIXED, rho, BPSK)
        rev = analytic.ser_exact_cabr(rpair, rthr.rho, BPSK)
        assert fwd.p_s == pytest.approx(rev.p_r, rel=1e-10)
        assert fwd.p_r == pytest.approx(rev.p_s, rel=1e-10)


def known_defect(measured):
    return pytest.mark.xfail(strict=True, reason=f"known accuracy defect, measured {measured}")


# the pair of a fig9 case at gamma_max_db, as its ser-sweep builds it
def fig9_pair(case, gamma_max_db):
    lam = 10.0 ** (gamma_max_db / 10.0)
    ohr, mu_r = {"symmetric": (0.5787, 156.25), "asymmetric": (0.751, 202.5)}[case]
    return make_pair(lam, 156.25, ohr * lam, mu_r)


class TestKnownAccuracyDefects:
    """Closed-form error rates where they have fewer correct digits than they
    print. The failing cells are strict xfails with their measured error; a
    fix turns them into passes."""

    @pytest.mark.parametrize("case, gamma_max_db", [
        ("symmetric", 30.0),
        ("asymmetric", 30.0),
        pytest.param("symmetric", 40.0, marks=known_defect("6.4e-6 / 1.1e-5")),
        pytest.param("asymmetric", 40.0, marks=known_defect("9.9e-6 / 1.7e-5")),
        pytest.param("symmetric", 50.0, marks=known_defect("8.4e-2 / 1.0e-1")),
        pytest.param("asymmetric", 50.0, marks=known_defect("2.3e-2 / 6.2e-2")),
    ])
    def test_fig9_ser_is_smooth_in_rho(self, case, gamma_max_db):
        # relative spread of p_s / p_r over rho_opt * (1 + k 1e-9), k = -3..3;
        # 30 dB moves 2e-9 / 7e-9
        pair = fig9_pair(case, gamma_max_db)
        rho = analytic.rho_opt_fixed(pair)
        sers = np.array([
            analytic.ser_exact_cabr(pair, rho * (1.0 + k * 1e-9), BPSK)[:2]
            for k in range(-3, 4)
        ])
        spread = np.ptp(sers, axis=0) / sers[3]
        assert np.all(spread <= 1e-7), spread

    @pytest.mark.parametrize("rho", [
        1e-5,
        pytest.param(1e-6, marks=known_defect("4.2e-3 against the oracle")),
    ])
    def test_one_sided_ser_matches_quadrature(self, rho):
        # q_s - Ew carries about 1e-10 absolute error, so p_s about
        # 1e-10 / (2 p_s q_s) relative; at rho 1e-5 the error against the
        # oracle is 4.4e-10
        closed = analytic.ser_exact_cabr(PAIR_MIXED, rho, BPSK)
        assert closed.p_s == pytest.approx(oracle_ser(PAIR_MIXED, rho, BPSK, "s"), rel=1e-8)

    def test_ser_below_the_selection_floor_raises(self, tmp_path, capsys):
        # q_s = 1.4e-9 at rho 1e-9, below the 1e-7 floor: the quotient read
        # 185.44 against the oracle's 0.0083664 before the floor rose
        assert analytic.lsp(PAIR_MIXED, 1e-9)[0] < 1e-7
        with pytest.raises(analytic.OneSidedError):
            analytic.ser_exact_cabr(PAIR_MIXED, 1e-9, BPSK)
        links = {"s": {"lam": 4.0, "mu": 10.0}, "r": {"lam": 7.0, "mu": 3.0}}
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"metrics": ["ser_cabr"], "rho": 1e-9, "pair": {"links": links}}))
        assert cli.main(["analyze", str(doc)]) == cli.EXIT_CONVERGENCE
        assert "selection is too one-sided" in capsys.readouterr().err


class TestExactCnbr:
    def test_marginal_error_rates(self):
        rng = np.random.default_rng(53)
        n = 2_000_000
        gs, gr = sample_pair_snr(PAIR_MIXED, rng, n)
        closed = analytic.ser_exact_cnbr(PAIR_MIXED, BPSK)
        for draws, target, label in (
            (gaussian_ser(gs, BPSK), closed.p_s, "hop s"),
            (gaussian_ser(gr, BPSK), closed.p_r, "hop r"),
        ):
            est = float(np.mean(draws))
            se = float(np.std(draws) / math.sqrt(n))
            assert_within_sigma(est, se, target, 4.5, label)

    def test_selection_gain_orders_the_schemes(self):
        cabr = analytic.ser_exact_cabr(PAIR_MIXED, analytic.rho_opt_fixed(PAIR_MIXED), BPSK)
        cnbr = analytic.ser_exact_cnbr(PAIR_MIXED, BPSK)
        assert cabr.p_s < cnbr.p_s
        assert cabr.p_r < cnbr.p_r


class TestAsymptotes:
    def test_high_snr_agreement_cabr(self):
        # push the power cap far out while holding the interference statistics
        pair = make_pair(2000.0, 50.0, 3000.0, 80.0)
        rho = 1.1
        exact = analytic.ser_exact_cabr(pair, rho, BPSK)
        asym = analytic.ser_asym_cabr(pair, rho, BPSK)
        assert asym.p_s == pytest.approx(exact.p_s, rel=0.10)
        assert asym.p_r == pytest.approx(exact.p_r, rel=0.10)

    def test_high_snr_agreement_cnbr(self):
        pair = make_pair(2000.0, 50.0, 3000.0, 80.0)
        exact = analytic.ser_exact_cnbr(pair, BPSK)
        asym = analytic.ser_asym_cnbr(pair, BPSK)
        assert asym.p_s == pytest.approx(exact.p_s, rel=0.10)
        assert asym.p_r == pytest.approx(exact.p_r, rel=0.10)

    def test_ptp_diversity_two_slope(self):
        # doubling the scale in the peak-power regime divides the adaptive
        # error rate by ~4 (slope 2), the alternating one by ~2 (slope 1)
        def at_scale(c):
            pair = make_pair(40.0 * c, 4000.0 * c, 70.0 * c, 7000.0 * c)
            rho = analytic.rho_opt_fixed(pair)
            return (
                analytic.ser_asym_cabr(pair, rho, BPSK).p_s,
                analytic.ser_asym_cnbr(pair, BPSK).p_s,
            )

        lo, hi = at_scale(1.0), at_scale(2.0)
        assert lo[0] / hi[0] == pytest.approx(4.0, rel=0.05)
        assert lo[1] / hi[1] == pytest.approx(2.0, rel=0.05)

    def test_interference_limited_floors(self):
        asym = analytic.ser_asym_cabr(SYM_PIP_156, 1.0, BPSK)
        assert asym.p_bound == pytest.approx(CABR_PIP_FLOOR_SUM, rel=1e-9)
        cnbr = analytic.ser_asym_cnbr(SYM_PIP_156, BPSK)
        assert cnbr.p_bound == pytest.approx(CNBR_PIP_FLOOR_SUM, rel=1e-9)
        # exact floor sits within a few percent of the asymptote at mu ~ 156
        exact = analytic.ser_exact_cabr(SYM_PIP_156, 1.0, BPSK)
        assert exact.p_bound == pytest.approx(asym.p_bound, rel=0.04)

    def test_floor_is_power_independent(self):
        # raising lam far beyond mu must not move the interference floor
        a = make_pair(1e5, 156.25, 1e5, 156.25)
        b = make_pair(1e7, 156.25, 1e7, 156.25)
        sa = analytic.ser_exact_cabr(a, 1.0, BPSK)
        sb = analytic.ser_exact_cabr(b, 1.0, BPSK)
        assert sa.p_s == pytest.approx(sb.p_s, rel=2e-2)
        assert sb.p_s == pytest.approx(
            analytic.ser_exact_cabr(SYM_PIP_156, 1.0, BPSK).p_s, rel=2e-2
        )

    def test_balanced_threshold_minimizes_the_sum(self):
        rho_opt = analytic.rho_opt_fixed(PAIR_MIXED)
        at = analytic.ser_exact_cabr(PAIR_MIXED, rho_opt, BPSK).p_bound
        for factor in (0.6, 1.7):
            off = analytic.ser_exact_cabr(PAIR_MIXED, rho_opt * factor, BPSK).p_bound
            assert at < off


class TestModulationParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModulationParams(eta=0.0)
        with pytest.raises(ValueError):
            ModulationParams(phi=-1.0)
        with pytest.raises(ValueError):
            ModulationParams(rate_R=0.0)
