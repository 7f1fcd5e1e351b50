"""Finite-buffer threshold protocol: birth-death chain analytics.

The buffer occupancy under threshold-based link selection is a birth-death
chain on {0..L} with an interior up-probability q_s, a boosted up-probability
q_c at the empty state and a boosted down-probability q_d at the full state.
Slots in which the selected hop cannot act (empty buffer picks the second
hop, full buffer picks the first) are silent, which is what separates the
throughput from the ideal 1/2 packet per slot.

All closed forms are evaluated through normalized geometric sums, which stay
finite for any drift ratio xi and reduce to the correct counting limits at
xi = 1 without a separate code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .analytic import HopPair, ModulationParams, _bisect_log10_rho, qs_pip_exact

__all__ = [
    "ThresholdProtocolParams",
    "DelayDecomposition",
    "SchemeConstraint",
    "Feasibility",
    "XiRange",
    "MinDelay",
    "reversed_chain",
    "steady_state",
    "mean_occupancy",
    "flow_rates",
    "throughput",
    "delays",
    "lifo_equivalent_queue_delay",
    "ser_threshold",
    "mdmt_delay",
    "mdmt_min_delay",
    "mdmt_xi_range",
    "ct_xi_c",
    "ct_xi_min",
    "epsilon_xi_c",
    "ser_asym_threshold_pip",
    "feasibility",
]


@dataclass(frozen=True)
class ThresholdProtocolParams:
    """Chain parameters: buffer size and the three transition probabilities.

    q_s drives interior growth (the complementary q_r = 1 - q_s drains),
    q_c is the forced-growth probability at the empty state and q_d the
    forced-drain probability at the full state.
    """

    buffer_size_L: float
    q_s: float
    q_c: float
    q_d: float

    def __post_init__(self) -> None:
        L = self.buffer_size_L
        if not math.isinf(L):
            if L != int(L) or L < 1:
                raise ValueError("buffer_size_L must be a positive integer or inf")
        if not (0.0 < self.q_s < 1.0):
            raise ValueError("q_s must lie in (0, 1)")
        if not (0.0 < self.q_c <= 1.0):
            raise ValueError("q_c must lie in (0, 1]")
        if not (0.0 < self.q_d <= 1.0):
            raise ValueError("q_d must lie in (0, 1]")
        if math.isinf(L) and not (self.xi > 1.0):
            raise ValueError("infinite buffer requires a draining chain (xi > 1)")

    @property
    def q_r(self) -> float:
        return 1.0 - self.q_s

    @property
    def xi(self) -> float:
        return (1.0 - self.q_s) / self.q_s

    @property
    def xi_c(self) -> float:
        return (1.0 - self.q_c) / self.q_c

    @property
    def xi_d(self) -> float:
        return (1.0 - self.q_d) / self.q_d

    @classmethod
    def from_xis(
        cls, buffer_size_L: float, xi: float, xi_c: float, xi_d: float
    ) -> "ThresholdProtocolParams":
        for name, v in (("xi", xi), ("xi_c", xi_c), ("xi_d", xi_d)):
            if not (v >= 0.0):
                raise ValueError(f"{name} must be non-negative")
        return cls(
            buffer_size_L=buffer_size_L,
            q_s=1.0 / (1.0 + xi),
            q_c=1.0 / (1.0 + xi_c),
            q_d=1.0 / (1.0 + xi_d),
        )


@dataclass(frozen=True)
class DelayDecomposition:
    """Per-packet delay split into queueing and the two silence causes."""

    t_q: float
    t_u: float
    t_o: float
    t_total: float


@dataclass(frozen=True)
class SchemeConstraint:
    """Design targets: a delay ceiling and a throughput floor."""

    t_max: float
    tau_min: float

    def __post_init__(self) -> None:
        if not (self.t_max > 0.0):
            raise ValueError("t_max must be positive")
        if not (0.0 < self.tau_min < 1.0):
            raise ValueError("tau_min must lie in (0, 1)")


class Feasibility(NamedTuple):
    feasible: bool
    violated: Optional[str]


class XiRange(NamedTuple):
    feasible: bool
    xi_lo: float
    xi_hi: float
    violated: Optional[str]


class MinDelay(NamedTuple):
    t_min: float
    xi_star: float


def reversed_chain(p: ThresholdProtocolParams) -> ThresholdProtocolParams:
    """Time-reversed role swap: growth and drain exchange places."""
    return ThresholdProtocolParams(
        buffer_size_L=p.buffer_size_L, q_s=p.q_r, q_c=p.q_d, q_d=p.q_c
    )


def _require_finite_L(p: ThresholdProtocolParams, what: str) -> int:
    if math.isinf(p.buffer_size_L):
        raise ValueError(f"{what} requires a finite buffer")
    return int(p.buffer_size_L)


def steady_state(p: ThresholdProtocolParams) -> np.ndarray:
    """Stationary occupancy distribution (length L+1), via log-space weights.

    Detailed balance gives geometric interior weights with ratio 1/xi and
    boundary corrections q_c/q_r and q_c/q_d; working with logarithms keeps
    extreme drift ratios at large L representable.
    """
    L = _require_finite_L(p, "steady_state")
    log_xi = math.log(p.q_r) - math.log(p.q_s)
    logs = np.empty(L + 1)
    logs[0] = 0.0
    boundary = math.log(p.q_c) - math.log(p.q_r)
    logs[1:L] = boundary + (1 - np.arange(1, L)) * log_xi
    logs[L] = math.log(p.q_c) - math.log(p.q_d) + (1 - L) * log_xi
    m = logs.max()
    w = np.exp(logs - m)
    return w / w.sum()


def mean_occupancy(p: ThresholdProtocolParams) -> float:
    L = _require_finite_L(p, "mean_occupancy")
    pi = steady_state(p)
    return float(np.arange(L + 1) @ pi)


def _pi0_infinite(p: ThresholdProtocolParams) -> float:
    xi = p.xi
    z = 1.0 + (p.q_c / p.q_r) * xi / (xi - 1.0)
    return 1.0 / z


def flow_rates(p: ThresholdProtocolParams) -> tuple[float, float]:
    """(arrival rate into the buffer, departure rate out of it); equal at
    steady state."""
    if math.isinf(p.buffer_size_L):
        pi0, piL = _pi0_infinite(p), 0.0
    else:
        pi = steady_state(p)
        pi0, piL = float(pi[0]), float(pi[-1])
    mid = 1.0 - pi0 - piL
    arrival = p.q_c * pi0 + p.q_s * mid
    departure = p.q_d * piL + p.q_r * mid
    return arrival, departure


def throughput(p: ThresholdProtocolParams) -> float:
    """Delivered packets per slot: half the non-silent slot fraction."""
    if math.isinf(p.buffer_size_L):
        return 1.0 / (2.0 + p.xi_c * (1.0 - 1.0 / p.xi))
    pi = steady_state(p)
    return 0.5 * (1.0 - (1.0 - p.q_c) * float(pi[0]) - (1.0 - p.q_d) * float(pi[-1]))


def _geom_sum(r: float, n: int) -> float:
    """sum_{k=0}^{n-1} r^k, Horner form; exact at r = 1."""
    s = 1.0
    for _ in range(n - 1):
        s = 1.0 + r * s
    return s


def _weighted_geom_sum(r: float, n: int) -> float:
    """sum_{m=1}^{n} m r^m via the nested form r(1 + r(2 + r(3 + ...)))."""
    h = 0.0
    for m in range(n, 0, -1):
        h = m + r * h
    return r * h


def _chain_weights(xi: float, L: int) -> tuple[float, float, float, float]:
    """(w_c, v_d, G/S, L/S) for S = sum xi^k, G = sum (L-1-j) xi^j over the
    first L powers; w_c and v_d are the reciprocals of the backward and
    forward geometric sums. Normalized so nothing overflows for any xi."""
    if xi >= 1.0:
        r = 1.0 / xi
        s = _geom_sum(r, L)
        g = _weighted_geom_sum(r, L - 1)
        tail = r ** (L - 1)
        return 1.0 / s, tail / s, g / s, L * tail / s
    s = _geom_sum(xi, L)
    g = math.fsum((L - 1 - j) * xi**j for j in range(L - 1))
    return xi ** (L - 1) / s, 1.0 / s, g / s, L / s


def delays(p: ThresholdProtocolParams) -> DelayDecomposition:
    """Mean per-packet delay decomposition.

    t_q is the time spent queued (including the packet's own two hops),
    t_u the extra silence while the buffer sits empty, t_o the extra silence
    while it sits full. An infinite buffer has no overflow silence.
    """
    xi = p.xi
    if math.isinf(p.buffer_size_L):
        t_q = 1.0 + 2.0 / (xi - 1.0)
        t_u = p.xi_c * (1.0 - 1.0 / xi)
        t_o = 0.0
        return DelayDecomposition(t_q, t_u, t_o, t_q + t_u + t_o)
    L = int(p.buffer_size_L)
    w_c, v_d, g_over_s, l_over_s = _chain_weights(xi, L)
    t_u = p.xi_c * w_c
    t_o = p.xi_d * v_d
    t_q = 1.0 + 2.0 * g_over_s + p.xi_d * l_over_s
    return DelayDecomposition(t_q, t_u, t_o, t_q + t_u + t_o)


def lifo_equivalent_queue_delay(p: ThresholdProtocolParams) -> float:
    """Mean queueing delay when the buffer is drained newest-first.

    Equals (L - mean occupancy) / arrival rate, and coincides with the
    first-in-first-out queueing delay of the role-reversed chain.
    """
    L = _require_finite_L(p, "lifo_equivalent_queue_delay")
    arrival, _ = flow_rates(p)
    return (L - mean_occupancy(p)) / arrival


def ser_threshold(
    p: ThresholdProtocolParams,
    p_s: float,
    p_c: float,
    p_r: float,
    p_d: float,
) -> tuple[float, float]:
    """Per-hop error rates of the threshold protocol as state-weighted mixes.

    The first hop transmits from the empty state a fraction w_c of the time
    (where the boundary threshold applies) and from interior states otherwise;
    the second hop mixes analogously between the full state and the interior.
    """
    for name, v in (("p_s", p_s), ("p_c", p_c), ("p_r", p_r), ("p_d", p_d)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1]")
    xi = p.xi
    if math.isinf(p.buffer_size_L):
        w_c, v_d = 1.0 - 1.0 / xi, 0.0
    else:
        w_c, v_d, _, _ = _chain_weights(xi, int(p.buffer_size_L))
    return w_c * p_c + (1.0 - w_c) * p_s, v_d * p_d + (1.0 - v_d) * p_r


# ---------------------------------------------------------------------------
# infinite-buffer design schemes


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


def feasibility(c: SchemeConstraint) -> Feasibility:
    """Whether a (delay ceiling, throughput floor) pair admits any design."""
    if c.t_max < 1.0:
        return Feasibility(False, "t_max below one slot")
    if c.tau_min > 0.5:
        return Feasibility(False, "tau_min above the half-packet ceiling")
    if c.tau_min * (1.0 + c.t_max) < 1.0:
        return Feasibility(False, "tau_min * (1 + t_max) below one")
    return Feasibility(True, None)


def mdmt_xi_range(x_star: float, c: SchemeConstraint) -> XiRange:
    """Drift interval meeting both constraints under xi_c = xi * x_star.

    Infeasibility is reported as a value carrying the violated condition,
    never as an exception.
    """
    if not (x_star > 0.0):
        raise ValueError("x_star must be positive")
    feas = feasibility(c)
    if not feas.feasible:
        return XiRange(False, math.nan, math.nan, feas.violated)
    disc = (c.t_max - 1.0) ** 2 - 8.0 * x_star
    if disc < 0.0:
        return XiRange(False, math.nan, math.nan, "t_max below the minimum delay")
    root = math.sqrt(disc)
    xi_lo = 1.0 + ((c.t_max - 1.0) - root) / (2.0 * x_star)
    xi_hi_delay = 1.0 + ((c.t_max - 1.0) + root) / (2.0 * x_star)
    xi_hi_tau = 1.0 + (1.0 / c.tau_min - 2.0) / x_star
    xi_hi = min(xi_hi_delay, xi_hi_tau)
    if xi_hi < xi_lo:
        return XiRange(False, math.nan, math.nan, "throughput floor empties the interval")
    return XiRange(True, xi_lo, xi_hi, None)


def ct_xi_c(tau_star: float, xi: float) -> float:
    """Boundary drift ratio that pins the infinite-buffer throughput at tau_star."""
    if not (0.0 < tau_star < 0.5):
        raise ValueError("tau_star must lie in (0, 1/2)")
    if not (xi > 1.0):
        raise ValueError("xi must exceed 1")
    return (1.0 / (1.0 - 1.0 / xi)) * (1.0 - 2.0 * tau_star) / tau_star


def ct_xi_min(tau_star: float, t_max: float) -> float:
    """Smallest drift ratio for which the pinned-throughput design can also
    meet the delay ceiling t_max."""
    if not (0.0 < tau_star < 0.5):
        raise ValueError("tau_star must lie in (0, 1/2)")
    den = tau_star * (1.0 + t_max) - 1.0
    if den < 0.0:
        raise ValueError("constraints infeasible: tau_star * (1 + t_max) below one")
    if den == 0.0:
        return math.inf
    # tight: total delay of the pinned design at this drift equals t_max
    return 1.0 + 2.0 * tau_star / den


def epsilon_xi_c(epsilon: float, xi: float) -> float:
    """Boundary drift ratio of the error-balance family with knob epsilon."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    if not (xi > 1.0):
        raise ValueError("xi must exceed 1")
    den = 1.0 + 1.0 / xi - epsilon
    if not (den > 0.0):
        raise ValueError("epsilon too large: 1 + 1/xi - epsilon must be positive")
    return 1.0 / den


def _invert_qs_pip(pair: HopPair, q_target: float) -> float:
    """Threshold rho whose interference-limited first-hop selection
    probability equals q_target, by bisection on the exact closed form."""

    def side(log10_rho: float) -> float:
        # meeting the target counts as above it, so only the width rule stops
        return -1.0 if qs_pip_exact(pair, 10.0**log10_rho) < q_target else 1.0

    return _bisect_log10_rho(side, "the selection probability target", xtol=1e-13)


def ser_asym_threshold_pip(
    pair: HopPair,
    xi: float,
    xi_c: float,
    mod: ModulationParams,
    method: str = "approx",
) -> float:
    """High-SNR first-hop error rate of the infinite-buffer threshold protocol
    in the interference-limited regime.

    method="approx" uses the geometric-series inversion of the selection
    probability (thresholds proportional to the drift), collapsing to a
    closed form in (xi, xi_c) alone. method="exact" inverts the closed-form
    selection probability numerically and evaluates the same state-weighted
    mix of per-threshold asymptotes.
    """
    if not (math.isinf(pair.s.lam) and math.isinf(pair.r.lam)):
        raise ValueError("interference-limited hops required (infinite lam)")
    if not (xi >= 1.0) or not (xi_c > 0.0):
        raise ValueError("xi must be at least 1 and xi_c positive")
    mu_s, mu_r = pair.s.mu, pair.r.mu
    base = 0.75 * mod.phi / (mod.eta * mod.eta * mu_s * mu_s)
    if method == "approx":
        return base * (
            (1.0 / xi) * (1.0 + 1.0 / xi) + (1.0 - 1.0 / xi) * (1.0 + 1.0 / xi_c)
        )
    if method != "exact":
        raise ValueError("method must be 'approx' or 'exact'")
    rho = _invert_qs_pip(pair, 1.0 / (1.0 + xi))
    rho_c = _invert_qs_pip(pair, 1.0 / (1.0 + xi_c))
    z, z_c = rho * mu_s / mu_r, rho_c * mu_s / mu_r
    return base * ((1.0 / xi) * z * (1.0 + xi) + (1.0 - 1.0 / xi) * z_c * (1.0 + xi_c))
