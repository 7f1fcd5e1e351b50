"""Closed and semi-closed forms for the adaptive link-selection relay.

Every distribution this module touches is a finite sum of five primitive
shapes in the SNR variable x:

    exp     c * e^(-x/a)
    ratio   c * (mu/(x+mu)) * e^(-x/a)
    ratio2  c * (mu/(x+mu))^2 * e^(-x/a)
    e1      c * e^(mu/a) E_1((x+mu)/a)          (finite a)
    e1log   c * (-euler_gamma - ln(x+mu))        (infinite-a limit of e1;
                                                  appears only in zero-sum
                                                  groups so the discarded
                                                  ln(a) offset cancels)

The marginal CCDF, the product CCDF of the bottleneck SNR, and the joint
CCDF of (selection decision, hop SNR) are all built as term lists once, and
then rates, gaussian-weight expectations (for error probability) and
log-squared weights (for the second moment of rate) follow from one small
dictionary of integrals per shape. The same machinery therefore guarantees
that a probability, its rate integral and its error-weight integral always
refer to the same underlying expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .channel import LinkParams
from .specfun import (
    EULER_GAMMA,
    QuadValue,
    dilog,
    exp_integral_en_scaled,
    integral_I,
    integral_J,
    integral_K,
    integral_L,
    integral_M,
    memo,
    memoized,
    quad_semi_infinite,
)

__all__ = [
    "BracketError",
    "OneSidedError",
    "PastBalanceError",
    "HopPair",
    "SelectionThresholds",
    "ModulationParams",
    "SerTriple",
    "reverse",
    "joint_ccdf_sr",
    "lsp",
    "qs_pip_exact",
    "rho_opt_fixed",
    "avg_capacity_hop",
    "avg_rate_cabr_hop_s",
    "avg_rate_cabr_hop_r",
    "avg_rate_cabr",
    "avg_rate_cnbr",
    "avg_rate_cbr",
    "ew_joint_ccdf_sr",
    "ser_exact_cabr",
    "ser_exact_cnbr",
    "ser_asym_cabr",
    "ser_asym_cnbr",
    "delay_bound_adaptive",
    "rho_for_delay_bound",
]

LN2 = math.log(2.0)

# Relative closeness of mu_r and rho*mu_s below which the removable-pole
# branch expressions replace the general ones.
BRANCH_TOL = 1e-6

# Below this |mu - 1| the ratio shapes switch to their mu -> 1 limits
# (the general forms divide by mu - 1).
_MU_ONE_TOL = 1e-8

_ROUND = 1e-12  # relative rounding allowed per summed piece in the searches' error bounds


class BracketError(ValueError):
    """A threshold search could not bracket its root within log10 rho in [-30, 30].

    Every search over that range raises it: rho_opt_fixed, avg_rate_cabr
    and the exact interference-limited SER in queueing.
    """


class OneSidedError(ValueError):
    """A threshold selects one hop too rarely for a conditional closed form:
    q_s or q_r <= 1e-12 for ser_exact_cabr, q_s < 1e-7 for the delay bound."""


class PastBalanceError(ValueError):
    """A threshold at or past the rate balance point (xi <= 1) has no delay bound."""


@dataclass(frozen=True)
class HopPair:
    """First-hop and second-hop link parameters."""

    s: LinkParams
    r: LinkParams


@dataclass(frozen=True)
class SelectionThresholds:
    """Selection thresholds: interior rho, empty-buffer rho_c, full-buffer rho_d."""

    rho: float
    rho_c: float
    rho_d: float

    def __post_init__(self) -> None:
        for name in ("rho", "rho_c", "rho_d"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")

    @classmethod
    def uniform(cls, rho: float) -> "SelectionThresholds":
        return cls(rho=rho, rho_c=rho, rho_d=rho)


@dataclass(frozen=True)
class ModulationParams:
    """Error-rate model parameters and the fixed packet rate in bits per use."""

    eta: float = 2.0
    phi: float = 1.0
    rate_R: float = 1.0

    def __post_init__(self) -> None:
        if not (self.eta > 0.0) or not (self.phi > 0.0) or not (self.rate_R > 0.0):
            raise ValueError("eta, phi and rate_R must be positive")


class SerTriple(NamedTuple):
    p_s: float
    p_r: float
    p_bound: float


# ---------------------------------------------------------------------------
# term machinery


@dataclass(frozen=True)
class _Term:
    kind: str  # exp | ratio | ratio2 | e1 | e1log
    c: float
    mu: float
    a: float


def _mk(kind: str, c: float, mu: float, a: float, out: list) -> None:
    if c != 0.0:
        out.append(_Term(kind, c, mu, a))


def _inv(x: float) -> float:
    return 0.0 if math.isinf(x) else 1.0 / x


def _eval_term(t: _Term, x: float) -> float:
    if t.kind == "e1log":
        return t.c * (-EULER_GAMMA - math.log(x + t.mu))
    decay = 1.0 if math.isinf(t.a) else math.exp(-x / t.a)
    if t.kind == "exp":
        return t.c * decay
    if t.kind == "ratio":
        return t.c * decay * (t.mu / (x + t.mu))
    if t.kind == "ratio2":
        return t.c * decay * (t.mu / (x + t.mu)) ** 2
    # e1 (finite a by construction)
    return t.c * decay * exp_integral_en_scaled(1, (x + t.mu) / t.a)


def eval_terms(terms: Iterable[_Term], x: float) -> float:
    return math.fsum(_eval_term(t, x) for t in terms)


def _times(c: float, q: QuadValue) -> tuple[float, float]:
    """c q for a quadrature result q, and c times the error quad reported for q."""
    return c * q, abs(c) * q.err


def _rate_term_nats(t: _Term) -> tuple[float, float]:
    """int_0^inf term(x)/(1+x) dx for one primitive shape, and a bound on its
    error beyond rounding: _ROUND of pieces that cancel, quad's reported error."""
    c, mu, a = t.c, t.mu, t.a
    if t.kind == "exp":
        if math.isinf(a):
            raise ValueError("rate diverges: constant term with no decay")
        return c * integral_I(1, 1.0, a), 0.0
    if t.kind == "ratio":
        if abs(mu - 1.0) < _MU_ONE_TOL:
            return c if math.isinf(a) else c * integral_I(2, 1.0, a), 0.0
        g = mu / (mu - 1.0)
        if math.isinf(a):
            return c * g * math.log(mu), 0.0
        i1, im = integral_I(1, 1.0, a), integral_I(1, mu, a)
        return c * g * (i1 - im), _ROUND * abs(c * g) * (i1 + im)
    if t.kind == "ratio2":
        if abs(mu - 1.0) < _MU_ONE_TOL:
            return 0.5 * c if math.isinf(a) else c * integral_I(3, 1.0, a), 0.0
        g = mu / (mu - 1.0)
        if math.isinf(a):
            lg = math.log(mu)
            return c * (g * g * lg - g), _ROUND * abs(c) * (g * g * abs(lg) + abs(g))
        i1, im, i2 = integral_I(1, 1.0, a), integral_I(1, mu, a), integral_I(2, mu, a)
        err = _ROUND * abs(c) * (g * g * (i1 + im) + abs(g) * i2)
        return c * (g * g * (i1 - im) - g * i2), err
    if t.kind == "e1":
        return _times(c, integral_J(mu, a))
    # e1log: meaningful only summed over a zero-sum group
    return c * dilog(1.0 - mu), 0.0


def _sum_with_err(terms: Iterable[_Term], term) -> tuple[float, float]:
    """math.fsum of term(t)[0] over the terms, and a bound on its error."""
    parts = [term(t) for t in terms]
    err = math.fsum(e + _ROUND * abs(v) for v, e in parts)
    return math.fsum(v for v, _ in parts), err


def rate_terms_nats(terms: Iterable[_Term]) -> float:
    return _sum_with_err(terms, _rate_term_nats)[0]


def _ew_term(t: _Term, eta: float) -> float:
    """Expectation of one shape under the weight sqrt(eta/(2 pi w)) e^(-eta w/2)."""
    c, mu, a = t.c, t.mu, t.a
    if t.kind == "exp":
        if math.isinf(a):
            return c
        return c * math.sqrt(eta * a / (eta * a + 2.0))
    if t.kind == "ratio":
        return c * integral_K(mu, a, eta)
    if t.kind == "ratio2":
        kappa = 0.5 * eta + _inv(a)
        return c * (
            integral_K(mu, a, eta) * (0.5 - kappa * mu)
            + mu * math.sqrt(0.5 * eta * kappa)
        )
    if t.kind == "e1":
        return c * integral_L(mu, a, eta)
    return c * integral_L(mu, math.inf, eta)


def ew_terms(terms: Iterable[_Term], eta: float) -> float:
    return math.fsum(_ew_term(t, eta) for t in terms)


def _w2_term_nats(t: _Term) -> tuple[float, float]:
    """int_0^inf 2 ln(1+x) term(x) / (1+x) dx for one shape, and its error bound."""
    c, mu, a = t.c, t.mu, t.a
    exp, log, log1p = math.exp, math.log, math.log1p
    if t.kind == "exp":
        if math.isinf(a):
            raise ValueError("second moment diverges: constant term with no decay")
        return _times(2.0 * c, integral_J(1.0, a))
    if t.kind == "ratio":
        if math.isinf(a):
            if abs(mu - 1.0) < _MU_ONE_TOL:
                return 2.0 * c, 0.0
            return -2.0 * c * mu * dilog(1.0 - mu) / (mu - 1.0), 0.0
        if abs(mu - 1.0) < _MU_ONE_TOL:

            def f(t: float) -> float:
                om = 1.0 - t
                x = t / om
                return 2.0 * log1p(x) * exp(-x / a) / (1.0 + x) ** 2 / (om * om)

            return _times(c, quad_semi_infinite(f))
        g = mu / (mu - 1.0)
        cg, j1, jm = 2.0 * c * g, integral_J(1.0, a), integral_J(mu, a)
        return cg * (j1 - jm), _times(cg, j1)[1] + _times(cg, jm)[1]
    if t.kind == "ratio2":
        inv_a = _inv(a)

        def f2(t: float) -> float:
            om = 1.0 - t
            x = t / om
            return 2.0 * log1p(x) * (mu / (x + mu)) ** 2 * exp(-x * inv_a) / (1.0 + x) / (om * om)

        return _times(c, quad_semi_infinite(f2))
    if t.kind == "e1":
        return _times(c, integral_M(mu, a))

    def f3(t: float) -> float:
        om = 1.0 - t
        x = t / om
        return 2.0 * log1p(x) * (log1p(x) - log(x + mu)) / (1.0 + x) / (om * om)

    return _times(c, quad_semi_infinite(f3))


# ---------------------------------------------------------------------------
# term builders


def marginal_terms(link: LinkParams) -> list[_Term]:
    """Terms of the marginal CCDF e^(-x/lam) [1 - p (1 - mu/(x+mu))]."""
    out: list[_Term] = []
    _mk("exp", 1.0 - link.p, 1.0, link.lam, out)
    _mk("ratio", link.p, link.mu, link.lam, out)
    return out


def product_terms(pair: HopPair) -> list[_Term]:
    """Terms of Pr{min(gamma_s, gamma_r) > x} = Fc_s(x) Fc_r(x)."""
    ps, mus, lams = pair.s.p, pair.s.mu, pair.s.lam
    pr, mur, lamr = pair.r.p, pair.r.mu, pair.r.lam
    inv_a = _inv(lams) + _inv(lamr)
    a = math.inf if inv_a == 0.0 else 1.0 / inv_a
    out: list[_Term] = []
    _mk("exp", (1.0 - ps) * (1.0 - pr), 1.0, a, out)
    if abs(mur - mus) < BRANCH_TOL * max(mur, mus):
        mu = 0.5 * (mus + mur)
        _mk("ratio", ps * (1.0 - pr) + pr * (1.0 - ps), mu, a, out)
        _mk("ratio2", ps * pr, mu, a, out)
        return out
    _mk("ratio", ps * (1.0 - pr + pr * mur / (mur - mus)), mus, a, out)
    _mk("ratio", pr * (1.0 - ps - ps * mus / (mur - mus)), mur, a, out)
    return out


def joint_terms_sr(pair: HopPair, rho: float) -> list[_Term]:
    """Terms of Pr{select first hop, gamma_s > x} for the interior threshold rho."""
    if not (rho > 0.0):
        raise ValueError("rho must be positive")
    ps, mus, lams = pair.s.p, pair.s.mu, pair.s.lam
    pr, mur, lamr = pair.r.p, pair.r.mu, pair.r.lam
    inv_ls, inv_lr = _inv(lams), _inv(lamr)

    # decay scale of the mixed terms: e^(-rho x / lam_rho) = e^(-x/a)
    inv_a = inv_ls + rho * inv_lr
    a = math.inf if inv_a == 0.0 else 1.0 / inv_a

    # weight lam_rho/(rho lam_s); irrelevant (coefficient 0) when both lams
    # are infinite, so any finite placeholder works there.
    u1 = inv_ls / rho
    u2 = inv_lr
    w = u1 / (u1 + u2) if (u1 + u2) > 0.0 else 0.0

    out: list[_Term] = []
    _mk("exp", 1.0 - ps, 1.0, lams, out)
    _mk("exp", -(1.0 - ps) * (1.0 - pr) * w, 1.0, a, out)
    _mk("ratio", ps, mus, lams, out)

    d = mur - rho * mus
    if abs(d) < BRANCH_TOL * max(mur, rho * mus):
        # removable-pole branch at mu_r = rho mu_s
        _mk(
            "ratio",
            -ps * ((1.0 - pr) - 0.5 * pr * (mur * inv_lr - mus * inv_ls)),
            mus,
            a,
            out,
        )
        _mk("ratio2", -0.5 * ps * pr, mus, a, out)
        c6 = (
            ps * (1.0 - pr) * mur * inv_lr
            - pr * (1.0 - ps) * mus * inv_ls
            + 0.5 * ps * pr * ((mus * inv_ls) ** 2 - (mur * inv_lr) ** 2)
        )
        if c6 != 0.0:
            _mk("e1", c6, mus, a, out)
        return out

    _mk("ratio", -ps * (1.0 - pr + mur * pr / d), mus, a, out)
    if math.isinf(a):
        # both hops interference limited: the two E1 coefficients collapse to
        # an exactly zero-sum logarithmic pair
        cpair = ps * pr * rho * mus * mur / (d * d)
        _mk("e1log", cpair, mus, math.inf, out)
        _mk("e1log", -cpair, mur / rho, math.inf, out)
        return out
    c3 = ps * rho * mus * (
        (1.0 - pr) * inv_lr + mur * pr * inv_lr / d + mur * pr / (d * d)
    )
    c4 = -pr * mur * (
        (1.0 - ps) * inv_ls / rho - mus * ps * inv_ls / d + rho * mus * ps / (d * d)
    )
    _mk("e1", c3, mus, a, out)
    _mk("e1", c4, mur / rho, a, out)
    return out


# ---------------------------------------------------------------------------
# public operations


def reverse(
    pair: HopPair, thr: SelectionThresholds
) -> tuple[HopPair, SelectionThresholds]:
    """Swap the hop roles.

    The selection rule compares gamma_r against threshold * gamma_s, so under
    the role swap every threshold acts on the reciprocal comparison: the
    interior threshold inverts, and the boundary thresholds invert while
    trading places (the empty-buffer rule of the swapped system plays the
    full-buffer role of the original, and vice versa). Applying the operation
    twice is the identity.
    """
    return (
        HopPair(s=pair.r, r=pair.s),
        SelectionThresholds(
            rho=1.0 / thr.rho, rho_c=1.0 / thr.rho_d, rho_d=1.0 / thr.rho_c
        ),
    )


def joint_ccdf_sr(pair: HopPair, rho: float, x: float) -> float:
    """Pr{gamma_r <= rho gamma_s, gamma_s > x}: first hop selected and strong."""
    if x < 0.0:
        raise ValueError("x must be non-negative")
    v = eval_terms(joint_terms_sr(pair, rho), x)
    return min(1.0, max(0.0, v))


def lsp(pair: HopPair, rho: float) -> tuple[float, float]:
    """Link-selection probabilities (q_s, q_r) for the interior threshold."""
    q_s = joint_ccdf_sr(pair, rho, 0.0)
    return q_s, 1.0 - q_s


def qs_pip_exact(pair: HopPair, rho: float) -> float:
    """Interference-limited q_s in closed form, z = rho mu_s / mu_r."""
    z = rho * pair.s.mu / pair.r.mu
    if abs(z - 1.0) < 1e-6:
        return 0.5 + (z - 1.0) / 6.0
    om = 1.0 - z
    return -z / om - z * math.log(z) / (om * om)


def _regime(pair: HopPair) -> str:
    if pair.s.p == 0.0 and pair.r.p == 0.0:
        return "ptp"
    if (
        pair.s.p == 1.0
        and pair.r.p == 1.0
        and math.isinf(pair.s.lam)
        and math.isinf(pair.r.lam)
    ):
        return "pip"
    return "mixed"


def _bisect_log10(f, lo: float, hi: float, xtol: float = 0.0, probe=None) -> tuple[float, float]:
    """Bisect an increasing f on a [lo, hi] bracket in log10 rho; return the
    final bracket.

    Stops at a midpoint where f is exactly 0.0 (a caller with a tolerance
    returns 0.0 once converged), returning (mid, mid); once hi - lo < xtol; or
    after 200 halvings.

    With a probe, midpoints on a side that _proved_bracket proved take its
    sign unevaluated, so the evaluated midpoints and the result stay the plain
    bisection's; a replay not ending on evaluated points (f == 0.0 when xtol
    is 0, else both bracket ends) reruns the plain bisection.
    """
    lo0, hi0, a, b = lo, hi, -math.inf, math.inf
    if probe is not None and f(0.5 * (lo + hi)) != 0.0:  # the plain first step
        a, b = _proved_bracket(probe, lo, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = -1.0 if mid <= a else 1.0 if mid >= b else f(mid)
        if fm == 0.0:
            return mid, mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < xtol:
            break
    if probe is not None and (xtol == 0.0 or lo <= a or hi >= b):
        return _bisect_log10(f, lo0, hi0, xtol)
    return lo, hi


def _proved_bracket(probe, lo: float, hi: float) -> tuple[float, float]:
    """(a, b) near the root with every point <= a proved negative and >= b positive.

    probe(x) gives u, v > 0 and a margin above f's evaluation error; with f
    monotone, |u - v| > margin proves the sign of u - v for x and beyond.
    Secant steps on r = ln(u/v) from the first midpoint stop within the proof
    width w; probes 1.5 w each side of the estimate (its noise is under w/2),
    quadrupled until both sides are proved, give (a, b); an error ends it.
    """
    a, b = -math.inf, math.inf

    def look(x: float) -> tuple[float, float]:
        nonlocal a, b
        u, v, margin = probe(x)
        r, m = math.log(u) - math.log(v), math.log1p(margin / min(u, v))
        a, b = (max(a, x), b) if r < -m else (a, min(b, x)) if r > m else (a, b)
        return r, m

    try:
        x, prev = 0.5 * (lo + hi), None
        for _ in range(16):
            r, m = look(x)
            slope = 1.0 if prev is None else (r - prev[1]) / (x - prev[0])
            if not slope > 0.0:
                return a, b
            prev, step = (x, r), -r / slope
            x = min(max(x + step, lo), hi)
            if abs(step) <= m / slope:
                break
        h = 1.5 * m / slope
        for _ in range(12):
            if b - a <= 2.0 * h or h >= hi - lo:
                break
            for y in (x - h, x + h):
                if max(a, lo) < y < min(b, hi):
                    look(y)
            h *= 4.0
    except (ArithmeticError, ValueError, RuntimeError):  # the replay meets them exactly
        pass
    return a, b


def _bisect_log10_rho(f, what: str, xtol: float = 0.0, probe=None) -> float:
    """_bisect_log10 on log10 rho in [-30, 30], returning rho at the final
    bracket's midpoint; BracketError unless f changes sign."""
    lo, hi = -30.0, 30.0
    flo, fhi = f(lo), f(hi)
    if flo > 0.0 or fhi < 0.0:
        raise BracketError(f"could not bracket {what} within log10 rho in [-30, 30]")
    lo, hi = _bisect_log10(f, lo, hi, xtol, probe)
    return 10.0 ** (0.5 * (lo + hi))


def rho_opt_fixed(pair: HopPair) -> float:
    """Fixed-rate optimal threshold: the rho that makes q_s = 1/2.

    Pure regimes have closed forms; otherwise q_s is monotone in rho and a
    log-domain bisection suffices.
    """
    regime = _regime(pair)
    if regime == "ptp":
        return pair.r.lam / pair.s.lam
    if regime == "pip":
        return pair.r.mu / pair.s.mu

    def f(log10_rho: float) -> float:
        d = lsp(pair, 10.0**log10_rho)[0] - 0.5
        return 0.0 if abs(d) < 1e-10 else d

    return _bisect_log10_rho(f, "q_s = 1/2")


def avg_capacity_hop(link: LinkParams) -> float:
    """Ergodic capacity E[log2(1 + gamma)] of one hop in bits per channel use."""
    return rate_terms_nats(marginal_terms(link)) / LN2


def avg_rate_cabr_hop_s(pair: HopPair, rho: float) -> float:
    """Average rate carried by the first hop under adaptive selection."""
    return rate_terms_nats(joint_terms_sr(pair, rho)) / LN2


def avg_rate_cabr_hop_r(pair: HopPair, rho: float) -> float:
    """Average rate carried by the second hop under adaptive selection."""
    rpair, _ = reverse(pair, SelectionThresholds.uniform(rho))
    return avg_rate_cabr_hop_s(rpair, 1.0 / rho)


@memoized
def _hop_moments(pair: HopPair, rho: float, term, scale: float) -> tuple[float, ...]:
    """(s, err_s, r, err_r): a moment of both hops' selected rate over scale."""
    rpair, _ = reverse(pair, SelectionThresholds.uniform(rho))
    s, es = _sum_with_err(joint_terms_sr(pair, rho), term)
    r, er = _sum_with_err(joint_terms_sr(rpair, 1.0 / rho), term)
    return s / scale, es / scale, r / scale, er / scale


@memo()
@memoized
def avg_rate_cabr(pair: HopPair) -> tuple[float, float]:
    """Adaptive-rate throughput and the threshold balancing the two hop rates.

    The first-hop rate grows with rho while the second-hop rate shrinks, so
    the balance point is found by bisection on log10 rho; the common value is
    the end-to-end average rate. The rates being monotone, a midpoint beyond a
    pair whose gap exceeds twice the tolerance plus both error bounds (quad's
    reported errors) has that gap's sign, so it is not evaluated and no digit
    moves (9 rate pairs instead of 33 on a moderate pair). The solve runs in
    one specfun memo block, so the probe and the bisection share each pair.
    """
    last = [0.0, 0.0, 0.0]  # log10 rho, rs and rr of the latest evaluation

    def rates(log10_rho: float) -> tuple[float, ...]:
        return _hop_moments(pair, 10.0**log10_rho, _rate_term_nats, LN2)

    def gap(log10_rho: float) -> float:
        rs, _, rr, _ = rates(log10_rho)
        last[:] = log10_rho, rs, rr
        g = rs - rr
        return 0.0 if abs(g) <= 1e-8 * max(rs, rr) else g

    def probe(log10_rho: float) -> tuple[float, float, float]:
        rs, es, rr, er = rates(log10_rho)
        return rs, rr, 2.0 * (1e-8 * max(rs, rr) + es + er)

    _bisect_log10_rho(gap, "the rate balance point", probe=probe)
    log10_rho, rs, rr = last
    return 0.5 * (rs + rr), 10.0**log10_rho


def avg_rate_cnbr(pair: HopPair) -> float:
    """Fixed-alternation relay rate (1/2) E[log2(1 + min(gamma_s, gamma_r))]."""
    return rate_terms_nats(product_terms(pair)) / (2.0 * LN2)


def avg_rate_cbr(pair: HopPair) -> float:
    """Block-scheduled buffered relay rate: half the bottleneck hop capacity."""
    return 0.5 * min(avg_capacity_hop(pair.s), avg_capacity_hop(pair.r))


def ew_joint_ccdf_sr(pair: HopPair, rho: float, eta: float) -> float:
    """Expectation of the joint selection CCDF under the gaussian error weight."""
    return ew_terms(joint_terms_sr(pair, rho), eta)


def ser_exact_cabr(pair: HopPair, rho: float, mod: ModulationParams) -> SerTriple:
    """Per-hop symbol error rates conditioned on selection, and their sum bound."""
    q_s, q_r = lsp(pair, rho)
    # conditioning divides two absolutely-accurate closed forms; below ~1e-12
    # the numerator q - Ew is cancellation noise and the quotient has no
    # correct digits
    if not (q_s > 1e-12) or not (q_r > 1e-12):
        raise OneSidedError(
            "selection is too one-sided to condition on (q_s or q_r <= 1e-12)"
        )
    ew_s = ew_joint_ccdf_sr(pair, rho, mod.eta)
    p_s = 0.5 * mod.phi * (q_s - ew_s) / q_s
    rpair, _ = reverse(pair, SelectionThresholds.uniform(rho))
    ew_r = ew_joint_ccdf_sr(rpair, 1.0 / rho, mod.eta)
    p_r = 0.5 * mod.phi * (q_r - ew_r) / q_r
    return SerTriple(p_s, p_r, p_s + p_r)


def ser_exact_cnbr(pair: HopPair, mod: ModulationParams) -> SerTriple:
    """Per-hop symbol error rates of the fixed-alternation relay."""
    vals = []
    for link in (pair.s, pair.r):
        ew = ew_terms(marginal_terms(link), mod.eta)
        vals.append(0.5 * mod.phi * (1.0 - ew))
    return SerTriple(vals[0], vals[1], vals[0] + vals[1])


def _interference_factor(link: LinkParams) -> float:
    return _inv(link.lam) + link.p / link.mu


def ser_asym_cabr(pair: HopPair, rho: float, mod: ModulationParams) -> SerTriple:
    """High-SNR error-rate approximation for adaptive selection (slope-2 regime)."""
    q_s, q_r = lsp(pair, rho)
    prod = _interference_factor(pair.s) * _interference_factor(pair.r)
    base = 0.75 * mod.phi / (mod.eta * mod.eta)
    p_s = base * (rho / q_s) * prod
    p_r = base * (1.0 / (rho * q_r)) * prod
    return SerTriple(p_s, p_r, p_s + p_r)


def ser_asym_cnbr(pair: HopPair, mod: ModulationParams) -> SerTriple:
    """High-SNR error-rate approximation for the fixed-alternation relay (slope 1)."""
    base = 0.5 * mod.phi / mod.eta
    p_s = base * _interference_factor(pair.s)
    p_r = base * _interference_factor(pair.r)
    return SerTriple(p_s, p_r, p_s + p_r)


def delay_bound_adaptive(pair: HopPair, rho: float) -> float:
    """Mean-delay upper bound for the adaptive scheme run below the balance point.

    Requires the buffer-starving condition xi = (second-hop rate)/(first-hop
    rate) > 1, else PastBalanceError; the bound diverges as the rates balance.
    """
    return _delay_bound(pair, rho)[0]


@memoized
def _delay_bound(pair: HopPair, rho: float) -> tuple[float, float]:
    """delay_bound_adaptive and its error bound: with d the moments' relative
    errors and d_xi = d_1s + d_1r, to first order 2 d_1r ((xi m1s)^2 = m1r^2),
    2 d_xi + max(d_2s, d_2r) (the numerator) and xi d_xi / (xi - 1); past a
    relative 0.1 the linearisation is not trusted."""
    # the masked moments are absolutely accurate, so once the first hop is
    # essentially never selected their ratios carry no correct digits (and
    # the bound has long since plateaued anyway)
    if lsp(pair, rho)[0] < 1e-7:
        raise OneSidedError(
            "threshold too one-sided for the conditional-moment delay bound"
        )
    m1s, e1s, m1r, e1r = _hop_moments(pair, rho, _rate_term_nats, LN2)
    xi = m1r / m1s
    if not (xi > 1.0):
        raise PastBalanceError("delay bound requires a starving buffer (xi > 1)")
    m2s, e2s, m2r, e2r = _hop_moments(pair, rho, _w2_term_nats, LN2 * LN2)
    numer = xi * xi * m2s + (2.0 * xi - 1.0) * m2r
    bound = 0.5 / (xi * m1s) ** 2 * numer / (xi - 1.0)
    d1s, d1r = e1s / abs(m1s), e1r / abs(m1r)
    d2 = max(e2s / abs(m2s), e2r / abs(m2r)) if m2s and m2r else math.inf
    rel = 2.0 * (d1r + d1s + d1r) + d2 + xi * (d1s + d1r) / (xi - 1.0)
    return bound, bound * (rel + 10.0 * _ROUND) if rel < 0.1 else math.inf


@memo()
def rho_for_delay_bound(pair: HopPair, t_target: float) -> float:
    """Largest rho (below the rate balance point) whose delay bound meets t_target.

    The bound increases toward infinity as rho approaches the balance point.
    The search range ends 1e-3 decades below it, which is the answer if its
    bound meets t_target; else 0.25-decade steps down bracket the target
    (an end numerically past the balance point counts as above it) and the
    bracket is bisected. The bound being monotone, a midpoint beyond a bound
    farther from t_target than twice its error bound is on that bound's side,
    so it is not evaluated and no digit moves (17 bounds in all instead of 36
    on a moderate pair). The search runs in one specfun memo block: the hop
    moments at every rho share their J, L and M integrals, which roughly
    halves its quadratures.
    """
    if not (t_target > 0.0):
        raise ValueError("t_target must be positive")

    def side(log10_rho: float) -> float:
        # meeting the target counts as below it, so only the width rule stops
        # the bisection
        try:
            val = _delay_bound(pair, 10.0**log10_rho)[0]
        except OneSidedError as exc:
            # only the downward scan meets it, and q_s grows with rho, so every
            # lower threshold is one-sided too
            raise ValueError("delay target unreachable within the search range") from exc
        except PastBalanceError:
            return math.inf
        return -1.0 if val <= t_target else 1.0

    def probe(log10_rho: float) -> tuple[float, float, float]:
        val, err = _delay_bound(pair, 10.0**log10_rho)
        return val, t_target, 2.0 * err

    _, rho_bal = avg_rate_cabr(pair)
    hi = lo = math.log10(rho_bal) - 1e-3
    while side(lo) > 0.0:
        lo -= 0.25
        if lo < -30.0:
            raise ValueError("delay target unreachable within the search range")
    if lo == hi:  # the end of the searched range meets the target
        return 10.0**hi
    lo, _ = _bisect_log10(side, lo, hi, xtol=1e-10, probe=probe)
    return 10.0**lo
