"""Special functions and the named semi-infinite integrals behind the closed forms.

Everything here is a pure function. The five integral families (I, J, K, L, M)
show up throughout the rate / error-probability / delay expressions; each one
is exposed with its closed or semi-closed form plus enough numerical care to
survive the parameter ranges the sweeps use (decay scales from 1e-4 to 1e4 and
the distinguished infinite scale).

The semi-closed integrals (J, L, M and the second-moment shapes in analytic)
all go through quad_semi_infinite, whose tolerances are fixed: absolute 1e-10,
relative 1e-9, at most 200 subdivisions. A result whose error estimate exceeds
50 times the requested tolerance raises ConvergenceError. Each caller writes
its integrand in t = x/(1+x), Jacobian included (see quad_semi_infinite).
Their values are QuadValue floats that carry quad's reported error estimate
in ``err``; the bracket proofs of analytic's root searches rest on it.

Inside a ``with memo():`` block, a function decorated with ``memoized``
(integral_J, integral_L, integral_M here; the balance solve, hop moments and
delay bound in analytic) computes each distinct argument tuple once and
returns the stored value on a repeat call; outside any block it computes on
every call. The store keys on the function's module and qualified name and on
the exact positional arguments. A nested block shares the outermost block's
store, and the store is dropped when that block exits, so no value outlives
it. A call that raises stores nothing, so a ConvergenceError is raised again,
after integrating again, on a repeat call. The store lives in a context
variable, so threads never share one.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math

from scipy import integrate, special

__all__ = [
    "ConvergenceError",
    "EULER_GAMMA",
    "QuadValue",
    "exp_integral_en_scaled",
    "dilog",
    "integral_I",
    "integral_J",
    "integral_K",
    "integral_L",
    "integral_M",
    "memo",
    "memoized",
]

EULER_GAMMA = 0.57721566490153286060651209008240243


# tolerances of quad_semi_infinite, the one quadrature behind every semi-closed form
_ABS_TOL = 1e-10
_REL_TOL = 1e-9
_MAX_SUBDIVISIONS = 200


class ConvergenceError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, what: str, achieved: float, requested: float):
        super().__init__(
            f"{what}: achieved abs error {achieved:.3e} vs requested {requested:.3e}"
        )
        self.achieved = achieved
        self.requested = requested


class QuadValue(float):
    """A quadrature result; ``err`` is the absolute error estimate quad reported."""

    __slots__ = ("err",)

    def __new__(cls, value: float, err: float):
        self = super().__new__(cls, value)
        self.err = err
        return self


def quad_semi_infinite(g) -> QuadValue:
    """Integrate f over [0, inf) given as g(t) = f(x) dx/dt, t = x/(1+x) in [0, 1).

    g computes ``om = 1.0 - t; x = t / om; return f(x) / (om * om)`` inline, so
    a node costs one Python call. The compactified form covers every tail weight
    we meet (exponential, gaussian, algebraic) without ad hoc truncation. A node
    that rounds to t = 1 divides by zero in g and becomes ConvergenceError. The
    name outlives the x-space contract: profiling hooks count g's calls by it.
    The value carries quad's reported abserr, which may exceed the requested
    tolerance up to the 50-fold limit; analytic's search proofs bound with it.
    """
    try:
        res = integrate.quad(
            g,
            0.0,
            1.0,
            epsabs=_ABS_TOL,
            epsrel=_REL_TOL,
            limit=_MAX_SUBDIVISIONS,
            full_output=1,
        )
    except ZeroDivisionError:
        # subdivision reached a node that rounds to t = 1: the tail decays too
        # slowly for the map to resolve
        raise ConvergenceError("semi-infinite quadrature", math.inf, _ABS_TOL) from None
    value, abserr = res[0], res[1]
    requested = max(_ABS_TOL, _REL_TOL * abs(value))
    # quad reports its own error estimate; a modest safety factor separates
    # "roundoff-limited but fine" from genuinely unconverged results.
    if abserr > 50.0 * requested or math.isnan(value):
        raise ConvergenceError("semi-infinite quadrature", abserr, requested)
    return QuadValue(value, abserr)


# the open memo block's store, None outside any block
_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar("_MEMO", default=None)


@contextlib.contextmanager
def memo():
    """Compute each memoized call once inside the block (see the module docstring)."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def memoized(func):
    """func, looked up by its exact arguments while a memo block is open."""
    name = (func.__module__, func.__qualname__)

    @functools.wraps(func)
    def wrapper(*args):
        store = _MEMO.get()
        if store is None:
            return func(*args)
        key = (name, *args)
        value = store.get(key)
        if value is None:
            value = store[key] = func(*args)
        return value

    return wrapper


def exp_integral_en_scaled(n: int, x: float) -> float:
    """e^x * E_n(x), stable for arbitrarily large x.

    The plain product overflows/underflows past x ~ 700; beyond a safe switch
    point the value comes from the continued fraction of E_n evaluated without
    the e^(-x) prefactor.
    """
    if n < 0 or n != int(n):
        raise ValueError("order n must be a non-negative integer")
    n = int(n)
    if n <= 1:
        if x <= 0.0:
            raise ValueError("E_n(x) with n <= 1 requires x > 0")
    elif x < 0.0:
        raise ValueError("E_n(x) requires x >= 0")
    if x == 0.0:
        return 1.0 / (n - 1.0)
    if n == 0:
        return 1.0 / x
    if x > 600.0:
        return _en_continued_fraction(n, x)
    return math.exp(x) * float(special.expn(n, x))


def _en_continued_fraction(n: int, x: float) -> float:
    # Modified Lentz evaluation of the E_n continued fraction, returning
    # e^x E_n(x). Converges fast for x >> 1 where we use it. The stopping
    # tolerance must sit a few ulps above machine epsilon or rounding noise
    # in delta can stall the loop just short of it.
    eps = 1e-15
    tiny = 1e-300
    b = x + n
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        a = -i * (n - 1 + i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ConvergenceError("E_n continued fraction", abs(delta - 1.0), eps)


def dilog(x: float) -> float:
    """Euler dilogarithm Li2(x) for x <= 1."""
    if x > 1.0:
        raise ValueError("dilog defined here only for x <= 1")
    return float(special.spence(1.0 - x))


def integral_I(n: int, mu: float, lam: float, x: float = 0.0) -> float:
    """I_n(mu, lam; x) = int_x^inf mu^(n-1) e^(-s/lam) / (s+mu)^n ds.

    Closed form: (mu/(x+mu))^(n-1) e^(mu/lam) E_n((x+mu)/lam), evaluated in a
    scaled fashion so large mu/lam never overflows.
    """
    if n < 1 or n != int(n):
        raise ValueError("order n must be a positive integer")
    if not (mu > 0.0) or not (lam > 0.0):
        raise ValueError("mu and lam must be positive")
    if x < 0.0:
        raise ValueError("lower limit x must be non-negative")
    n = int(n)
    if math.isinf(lam):
        # exp(-s/lam) -> 1; the integral converges only for n >= 2.
        if n == 1:
            return math.inf
        return (mu / (x + mu)) ** (n - 1) / (n - 1.0)
    return (
        (mu / (x + mu)) ** (n - 1)
        * math.exp(-x / lam)
        * exp_integral_en_scaled(n, (x + mu) / lam)
    )


@memoized
def integral_J(mu: float, lam: float) -> QuadValue:
    """J(mu, lam) = int_0^inf ln(1+x) e^(-x/lam) / (x+mu) dx."""
    if not (mu > 0.0) or not (lam > 0.0) or math.isinf(lam):
        raise ValueError("mu and lam must be positive and finite")
    exp, log1p = math.exp, math.log1p

    def g(t: float) -> float:
        om = 1.0 - t
        x = t / om
        return log1p(x) * exp(-x / lam) / (x + mu) / (om * om)

    return quad_semi_infinite(g)


def integral_K(mu: float, lam: float, eta: float) -> float:
    """K(mu, lam, eta) = int_0^inf sqrt(eta/(2 pi w)) mu e^(-(eta/2 + 1/lam) w) / (w+mu) dw.

    Closed form sqrt(pi eta mu / 2) * erfcx(sqrt((eta/2 + 1/lam) mu)); the
    infinite-scale case drops the 1/lam term.
    """
    if not (mu > 0.0) or not (eta > 0.0):
        raise ValueError("mu and eta must be positive")
    if not (lam > 0.0):
        raise ValueError("lam must be positive (or infinite)")
    kappa = 0.5 * eta + (0.0 if math.isinf(lam) else 1.0 / lam)
    return math.sqrt(0.5 * math.pi * eta * mu) * float(
        special.erfcx(math.sqrt(kappa * mu))
    )


@memoized
def integral_L(mu: float, lam: float, eta: float) -> QuadValue:
    """L(mu, lam, eta) = int_0^inf sqrt(eta/(2 pi w)) e^(-eta w/2) e^(mu/lam) E_1((w+mu)/lam) dw.

    The w = s*s substitution removes the integrable endpoint singularity.

    Infinite decay scale: the integral grows like ln(lam), so this routine
    returns the renormalized limit of L(mu, lam) - ln(lam), i.e. the gaussian
    average of (-euler_gamma - ln(w+mu)). Callers only ever consume such
    values in differences or zero-sum combinations where the discarded offset
    cancels, which keeps the interference-limited expressions finite.
    """
    if not (mu > 0.0) or not (eta > 0.0):
        raise ValueError("mu and eta must be positive")
    if not (lam > 0.0):
        raise ValueError("lam must be positive (or infinite)")
    coef = 2.0 * math.sqrt(0.5 * eta / math.pi)
    exp, log, en_scaled = math.exp, math.log, exp_integral_en_scaled

    if math.isinf(lam):

        def g_reg(t: float) -> float:
            om = 1.0 - t
            s = t / om
            w = s * s
            return coef * exp(-0.5 * eta * w) * (-EULER_GAMMA - log(w + mu)) / (om * om)

        return quad_semi_infinite(g_reg)

    def g(t: float) -> float:
        om = 1.0 - t
        s = t / om
        w = s * s
        return coef * exp(-0.5 * eta * w - w / lam) * en_scaled(1, (w + mu) / lam) / (om * om)

    return quad_semi_infinite(g)


@memoized
def integral_M(mu: float, lam: float) -> QuadValue:
    """M(mu, lam) = int_0^inf ln(1+x)^2 e^(-x/lam) / (x+mu) dx."""
    if not (mu > 0.0) or not (lam > 0.0) or math.isinf(lam):
        raise ValueError("mu and lam must be positive and finite")
    exp, log1p = math.exp, math.log1p

    def g(t: float) -> float:
        om = 1.0 - t
        x = t / om
        lg = log1p(x)
        return lg * lg * exp(-x / lam) / (x + mu) / (om * om)

    return quad_semi_infinite(g)
