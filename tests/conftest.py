"""Shared helpers: parameter-set factories and an independent sampling oracle.

The sampler here re-derives the capped-ratio SNR construction from the
marginal law directly (min of the power cap and the interference cap, each
exponential), so Monte Carlo checks do not route through the package's own
sampling code.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from bufrelay import analytic, specfun
from bufrelay.analytic import HopPair
from bufrelay.channel import LinkParams


def make_pair(lam_s, mu_s, lam_r, mu_r) -> HopPair:
    return HopPair(
        s=LinkParams.from_lambda_mu(lam_s, mu_s),
        r=LinkParams.from_lambda_mu(lam_r, mu_r),
    )


# a moderate mixed-regime pair used as the default workhorse everywhere
PAIR_MIXED = make_pair(4.0, 10.0, 7.0, 3.0)

# power cap dominant on both hops (escape probability ~ 1)
PAIR_PTP = make_pair(2.0, 100.0, 3.0, 120.0)

# interference cap dominant on both hops (no power cap at all)
PAIR_PIP = HopPair(
    s=LinkParams(lam=math.inf, mu=6.0, p=1.0),
    r=LinkParams(lam=math.inf, mu=11.0, p=1.0),
)


def random_pair(rng: np.random.Generator, pip=False) -> HopPair:
    """A random two-hop parameter set spanning both capping regimes."""
    if pip:
        return HopPair(
            s=LinkParams(lam=math.inf, mu=float(rng.uniform(0.5, 50.0)), p=1.0),
            r=LinkParams(lam=math.inf, mu=float(rng.uniform(0.5, 50.0)), p=1.0),
        )
    lam = 10.0 ** rng.uniform(-0.5, 1.5, size=2)
    mu = 10.0 ** rng.uniform(-0.7, 2.0, size=2)
    return make_pair(lam[0], mu[0], lam[1], mu[1])


def semi_infinite(f):
    """f(x) on [0, inf) as the integrand in t = x/(1+x) that quad_semi_infinite takes.

    The map, Jacobian and operation order are those every integrand in the
    package writes inline, so an integral built from this helper equals the
    package's own bit for bit.
    """

    def g(t):
        om = 1.0 - t
        x = t / om
        return f(x) / (om * om)

    return g


def sample_link_snr(link: LinkParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """Independent draw of the capped SNR: min(power cap, interference cap).

    The received SNR is an exponential fading gain scaled by the smaller of
    the fixed power cap and the interference-driven cap, the latter being an
    exponential ratio.
    """
    u = rng.exponential(size=n)
    v = rng.exponential(size=n)
    if math.isinf(link.lam):
        return link.mu * u / v
    return np.minimum(link.lam, link.mu / v) * u


def sample_pair_snr(pair: HopPair, rng: np.random.Generator, n: int):
    return sample_link_snr(pair.s, rng, n), sample_link_snr(pair.r, rng, n)


def mc_mean_and_se(values: np.ndarray) -> tuple:
    m = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return m, se


def assert_within_sigma(estimate, se, target, n_sigma, label=""):
    __tracebackhide__ = True
    if se == 0.0:
        assert estimate == pytest.approx(target), label
        return
    z = abs(estimate - target) / se
    assert z <= n_sigma, (
        f"{label}: estimate {estimate:.6g} vs target {target:.6g} "
        f"differs by {z:.2f} sigma (se {se:.3g})"
    )


@pytest.fixture
def quad_calls(monkeypatch):
    """A one-element list counting quad_semi_infinite calls, from specfun or analytic.

    analytic imports the quadrature by name, so both module names are wrapped.
    """
    calls = [0]
    quad = specfun.quad_semi_infinite

    def counted(f):
        calls[0] += 1
        return quad(f)

    monkeypatch.setattr(specfun, "quad_semi_infinite", counted)
    monkeypatch.setattr(analytic, "quad_semi_infinite", counted)
    return calls
