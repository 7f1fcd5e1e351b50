"""Unit tests for the per-hop SNR statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bufrelay import channel
from bufrelay.channel import (
    LinkParams,
    NodeGeometry,
    PowerConstraints,
    derive_link_params,
    link_ccdf,
    link_pdf,
    sample_snr,
)
from bufrelay.specfun import quad_semi_infinite

from conftest import assert_within_sigma, semi_infinite


def constraints_from_linear(gamma_max: float, gamma_p: float) -> PowerConstraints:
    """PowerConstraints from linear peak and interference-cap SNRs."""
    if not (gamma_max > 0.0) or not (gamma_p > 0.0):
        raise ValueError("linear SNR constraints must be positive")
    return PowerConstraints(10.0 * math.log10(gamma_max), 10.0 * math.log10(gamma_p))


class TestNodeGeometry:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NodeGeometry(d_sr=0.0, d_rd=1.0, d_sp=1.0, d_rp=1.0)
        with pytest.raises(ValueError):
            NodeGeometry(d_sr=1.0, d_rd=1.0, d_sp=1.0, d_rp=1.0, alpha=-3.0)


class TestPowerConstraints:
    def test_db_conversion(self):
        pc = PowerConstraints(gamma_max_db=30.0, gamma_p_db=10.0)
        assert pc.gamma_max == pytest.approx(1000.0)
        assert pc.gamma_p == pytest.approx(10.0)

    def test_from_linear_roundtrip(self):
        pc = constraints_from_linear(250.0, 3.5)
        assert pc.gamma_max == pytest.approx(250.0)
        assert pc.gamma_p == pytest.approx(3.5)
        with pytest.raises(ValueError):
            constraints_from_linear(-1.0, 1.0)


class TestLinkParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkParams(lam=0.0, mu=1.0, p=0.5)
        with pytest.raises(ValueError):
            LinkParams(lam=1.0, mu=math.inf, p=0.5)
        with pytest.raises(ValueError):
            LinkParams(lam=1.0, mu=1.0, p=1.5)
        with pytest.raises(ValueError, match="infinite lam requires p = 1"):
            LinkParams(lam=math.inf, mu=1.0, p=0.7)

    def test_from_lambda_mu(self):
        link = LinkParams.from_lambda_mu(4.0, 10.0)
        assert link.p == pytest.approx(math.exp(-2.5))
        assert link.consistent
        pip = LinkParams.from_lambda_mu(math.inf, 10.0)
        assert pip.p == 1.0 and pip.consistent

    def test_forced_p_flagged_inconsistent(self):
        assert not LinkParams(lam=4.0, mu=10.0, p=0.0).consistent


class TestDeriveLinkParams:
    def test_path_loss_mapping(self):
        geom = NodeGeometry(d_sr=1.0, d_rd=1.2, d_sp=1.5, d_rp=2.0, alpha=3.0)
        pc = PowerConstraints(gamma_max_db=30.0, gamma_p_db=10.0)
        hop_s, hop_r = derive_link_params(geom, pc)
        assert hop_s.lam == pytest.approx(1000.0)
        assert hop_s.mu == pytest.approx(10.0 * 1.5**3)
        omega_h_r = 1.2**-3
        assert hop_r.lam == pytest.approx(1000.0 * omega_h_r)
        assert hop_r.mu == pytest.approx(10.0 * omega_h_r / 2.0**-3)

    def test_fading_overrides(self):
        geom = NodeGeometry(d_sr=1.0, d_rd=1.0, d_sp=1.5, d_rp=2.0)
        pc = PowerConstraints(gamma_max_db=30.0, gamma_p_db=10.0)
        hop_s, hop_r = derive_link_params(geom, pc, omega_h_s=1.0, omega_h_r=0.5787)
        assert hop_s.lam == pytest.approx(1000.0)
        assert hop_r.lam == pytest.approx(578.7)
        assert hop_r.mu == pytest.approx(10.0 * 0.5787 * 2.0**3)
        with pytest.raises(ValueError):
            derive_link_params(geom, pc, omega_h_s=-1.0)


class TestMarginals:
    def test_ccdf_endpoints(self):
        link = LinkParams.from_lambda_mu(4.0, 10.0)
        assert link_ccdf(link, 0.0) == pytest.approx(1.0)
        assert link_ccdf(link, 1e9) == pytest.approx(0.0, abs=1e-12)

    def test_regime_limits(self):
        s = 3.7
        assert link_ccdf(LinkParams(4.0, 10.0, 0.0), s) == pytest.approx(math.exp(-s / 4.0))
        assert link_ccdf(LinkParams(4.0, 10.0, 1.0), s) == pytest.approx(
            math.exp(-s / 4.0) * 10.0 / (s + 10.0)
        )
        pip_link = LinkParams.from_lambda_mu(math.inf, 10.0)
        assert link_ccdf(pip_link, s) == pytest.approx(10.0 / (s + 10.0))

    def test_pdf_is_derivative_of_ccdf(self):
        for link in (
            LinkParams.from_lambda_mu(4.0, 10.0),
            LinkParams.from_lambda_mu(math.inf, 6.0),
        ):
            for s in (0.1, 1.0, 5.0, 20.0):
                h = 1e-6 * max(1.0, s)
                numeric = -(link_ccdf(link, s + h) - link_ccdf(link, s - h)) / (2 * h)
                assert link_pdf(link, s) == pytest.approx(numeric, rel=1e-6)

    def test_pdf_normalizes(self):
        link = LinkParams.from_lambda_mu(2.0, 5.0)
        total = quad_semi_infinite(semi_infinite(lambda s: link_pdf(link, s)))
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_vector_evaluation(self):
        link = LinkParams.from_lambda_mu(4.0, 10.0)
        s = np.array([0.0, 1.0, 2.0])
        out = link_ccdf(link, s)
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0.0)

    @given(
        st.floats(min_value=0.2, max_value=50.0),
        st.floats(min_value=0.2, max_value=50.0),
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_ccdf_monotone_and_bounded(self, lam, mu, s, ds):
        link = LinkParams.from_lambda_mu(lam, mu)
        a, b = link_ccdf(link, s), link_ccdf(link, s + ds)
        assert 0.0 <= b <= a <= 1.0


class TestSampleSnr:
    def test_empirical_ccdf_matches_closed_form(self):
        rng = np.random.default_rng(42)
        n = 400_000
        for link in (
            LinkParams.from_lambda_mu(4.0, 10.0),
            LinkParams.from_lambda_mu(7.0, 3.0),
            LinkParams.from_lambda_mu(math.inf, 6.0),
        ):
            draws = sample_snr(link, rng, size=n)
            for s in (0.5, 2.0, 8.0):
                target = link_ccdf(link, s)
                est = float(np.mean(draws > s))
                se = math.sqrt(target * (1.0 - target) / n)
                assert_within_sigma(est, se, target, 4.0, f"ccdf at s={s}")

    def test_forced_regimes(self):
        rng = np.random.default_rng(1)
        draws = sample_snr(LinkParams(4.0, 100.0, 0.0), rng, size=200_000)
        assert float(np.mean(draws)) == pytest.approx(4.0, rel=0.02)
        with pytest.raises(ValueError):
            LinkParams(math.inf, 5.0, 0.0)

    def test_stream_alignment_across_regimes(self):
        # every call consumes the same number of variates whatever the link,
        # so matched-seed streams stay in lockstep after the call
        tails = []
        for link in (
            LinkParams.from_lambda_mu(4.0, 10.0),
            LinkParams(4.0, 10.0, 0.0),
            LinkParams.from_lambda_mu(math.inf, 10.0),
        ):
            rng = np.random.default_rng(77)
            sample_snr(link, rng, size=1000)
            tails.append(rng.standard_normal(4))
        assert np.array_equal(tails[0], tails[1])
        assert np.array_equal(tails[0], tails[2])

    def test_forced_p_other_than_zero_is_not_samplable(self):
        rng = np.random.default_rng(3)
        forced = LinkParams(lam=4.0, mu=10.0, p=0.33)
        with pytest.raises(ValueError, match="cannot be sampled"):
            sample_snr(forced, rng, size=10)
        # p = 0 is the documented peak-power shortcut
        zero = LinkParams(lam=4.0, mu=10.0, p=0.0)
        draws = sample_snr(zero, rng, size=50_000)
        assert float(np.mean(draws)) == pytest.approx(4.0, rel=0.05)

    def test_exact_draw_bytes_match_reference_expression(self):
        # the in-place build must not change a single bit of the stream
        link = LinkParams.from_lambda_mu(4.0, 10.0)
        # one piece of the second exponential, and pieces with a partial last one
        for n in (50_000, 3 * channel._PIECE + 777):
            drawn = np.random.default_rng(2024)
            got = sample_snr(link, drawn, size=n)
            rng = np.random.default_rng(2024)
            u = rng.standard_exponential(n)
            v = rng.standard_exponential(n)
            want = np.minimum(link.lam, link.mu / v) * u
            assert got.tobytes() == want.tobytes()
            assert drawn.bit_generator.state == rng.bit_generator.state
        rng = np.random.default_rng(5)
        u, v = rng.standard_exponential(), rng.standard_exponential()
        scalar = sample_snr(link, np.random.default_rng(5))
        assert scalar == np.minimum(link.lam, link.mu / v) * u
        rng = np.random.default_rng(2024)
        u = rng.standard_exponential(50_000)
        forced = sample_snr(LinkParams(4.0, 10.0, 0.0), np.random.default_rng(2024), size=50_000)
        assert forced.tobytes() == (4.0 * u).tobytes()
