"""Shared helpers: parameter-set factories, an independent sampling oracle,
the closed forms and checks that more than one test module calls, and a
loader for the benchmark's scripts.

The sampler here re-derives the capped-ratio SNR construction from the
marginal law directly (min of the power cap and the interference cap, each
exponential), so Monte Carlo checks do not route through the package's own
sampling code.
"""

from __future__ import annotations

import functools
import importlib.util
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from bufrelay import analytic, sim, specfun
from bufrelay.analytic import HopPair, SelectionThresholds
from bufrelay.channel import LinkParams


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def perfbench_module(name: str):
    """``perfbench/<name>.py`` as a module: perfbench is a directory of scripts, not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


# ---------------------------------------------------------------------------
# closed forms and checks that only tests call


def joint_ccdf_rd(pair: HopPair, rho: float, x: float) -> float:
    """Pr{gamma_r > rho gamma_s, gamma_r > x}: second hop selected and strong."""
    rpair, _ = analytic.reverse(pair, SelectionThresholds.uniform(rho))
    return analytic.joint_ccdf_sr(rpair, 1.0 / rho, x)


def second_moment_rate_hop_s(pair: HopPair, rho: float) -> float:
    """Second moment of the selected first-hop rate (bits^2 per channel use^2)."""
    return analytic._selected(pair, rho, analytic.RATE2, "s")[0]


class MinDelay(NamedTuple):
    t_min: float
    xi_star: float


def mdmt_delay(x_star: float, xi: float) -> float:
    """Total delay of the drift-proportional design xi_c = xi * x_star."""
    if not (x_star > 0.0):
        raise ValueError("x_star must be positive")
    if not (xi > 1.0):
        raise ValueError("xi must exceed 1")
    return 1.0 + 2.0 / (xi - 1.0) + x_star * (xi - 1.0)


def mdmt_min_delay(x_star: float) -> MinDelay:
    """Unconstrained minimum of the drift-proportional delay curve."""
    if not (x_star > 0.0):
        raise ValueError("x_star must be positive")
    return MinDelay(
        t_min=1.0 + 2.0 * math.sqrt(2.0 * x_star),
        xi_star=1.0 + math.sqrt(2.0 / x_star),
    )


@dataclass(frozen=True)
class DualityReport:
    """Matched-seed mirror comparison of a run against its role-reversed twin."""

    original: sim.SimOutcome
    dual: sim.SimOutcome
    differences: dict
    sigmas: dict


def run_lifo_duality_check(config: sim.SchemeConfig, pair: HopPair) -> DualityReport:
    """Run the configured buffer against its role-reversed mirror.

    The mirror swaps the hop roles and the drain order, inverts and swaps the
    boundary thresholds, starts the buffer at the mirrored occupancy
    capacity - occupancy, and reuses the same random draws with the streams
    exchanged, so the two runs see mirrored slot histories. Rate, summed
    error rate, and mean delay must agree within Monte Carlo noise. The
    mirror of level B is L - B, so the buffer must be finite.
    """
    if config.scheme != "cabr":
        raise ValueError("duality check applies to the adaptive-selection scheme")
    cap = config.buffer.capacity
    if math.isinf(cap):
        raise ValueError("duality check needs a finite buffer: the mirror of level B is L - B")
    _, rthr = analytic.reverse(pair, config.thresholds)
    flipped = "lifo" if config.buffer.discipline == "fifo" else "fifo"
    dual_buffer = replace(
        config.buffer, discipline=flipped, occupancy=cap - config.buffer.occupancy
    )
    dual_config = replace(config, thresholds=rthr, buffer=dual_buffer)
    gs, gr = sim._draw_streams(pair, config.slots, config.seed)
    original = sim._run_with_streams(config, (gs, gr))
    dual = sim._run_with_streams(dual_config, (gr, gs))
    diffs = {"avg_rate": original.avg_rate - dual.avg_rate}
    sigmas = {
        "avg_rate": math.hypot(original.ci_halfwidths["avg_rate"], dual.ci_halfwidths["avg_rate"])
    }
    if config.rate_mode == "fixed":
        diffs["sum_ber"] = sum(original.ser_per_hop) - sum(dual.ser_per_hop)
        sigmas["sum_ber"] = math.hypot(
            math.hypot(original.ci_halfwidths["ser_s"], original.ci_halfwidths["ser_r"]),
            math.hypot(dual.ci_halfwidths["ser_s"], dual.ci_halfwidths["ser_r"]),
        )
        diffs["delay"] = original.delay.t_total - dual.delay.t_total
        sigmas["delay"] = math.hypot(
            original.ci_halfwidths["t_total"], dual.ci_halfwidths["t_total"]
        )
        diffs["underflow_vs_dual_overflow"] = float(
            original.underflow_count - dual.overflow_count
        )
        # The mirror starts at L - B and sees the same draws, so its history is
        # B' = L - B slot by slot. The mirrored threshold tests compare against
        # rounded reciprocals, though: a slot whose SNR ratio sits within
        # rounding of a threshold can go different ways in the two runs, and
        # the levels then disagree until both walks meet a common boundary,
        # which can shift the boundary-event counts by up to one buffer's worth.
        sigmas["underflow_vs_dual_overflow"] = float(int(cap))
    return DualityReport(original=original, dual=dual, differences=diffs, sigmas=sigmas)
