"""Quadrature oracle for the closed forms, from the channel law alone.

Each adaptive-scheme closed form is one integral over the selected hop's SNR
g, int k(g) f_a(g) F_b(t g) dg: a kernel k, the PDF of hop a, and the CDF of
hop b at t g, where (a, b, t) is (s, r, rho) for hop s and (r, s, 1/rho) for
hop r. hop() integrates it with scipy in u = ln g. Only bufrelay.channel's
marginal law goes in, so no term list or special function of bufrelay.analytic
or bufrelay.specfun is checked against itself.
"""

import math

from scipy import integrate

from bufrelay.channel import link_ccdf, link_pdf

LN2 = math.log(2.0)


def ONE(g):
    """Over ONE, hop() gives the selection probability q_s or q_r."""
    return 1.0


def RATE(g):
    return math.log1p(g) / LN2


def RATE2(g):
    return RATE(g) ** 2


def ser(mod):
    """The symbol error probability at SNR g; over ONE it conditions on selection."""
    return lambda g: 0.5 * mod.phi * math.erfc(math.sqrt(0.5 * mod.eta * g))


def _cdf(link, x):
    """Pr{gamma <= x}, written without the cancellation of 1 - CCDF."""
    r = x / link.lam
    return -math.expm1(-r) + math.exp(-r) * link.p * x / (x + link.mu)


def _integral(f, scales):
    """int_0^inf f(g) dg in u = ln g, with a breakpoint at every scale."""
    logs = sorted({math.log(s) for s in scales if math.isfinite(s)})
    lo, hi = min(0.0, logs[0]) - 45.0, logs[-1] + 45.0
    value, _ = integrate.quad(
        lambda u: f(math.exp(u)) * math.exp(u),
        lo, hi, points=logs, epsabs=0.0, epsrel=1e-13, limit=1000,
    )
    return value


def hop(pair, rho, kernel, which):
    """E[k(gamma_which); hop `which` selected at the threshold rho]."""
    a, b, t = (pair.s, pair.r, rho) if which == "s" else (pair.r, pair.s, 1.0 / rho)
    return _integral(
        lambda g: kernel(g) * link_pdf(a, g) * _cdf(b, t * g), (a.lam, a.mu, b.lam / t, b.mu / t)
    )


def capacity(link):
    """E[log2(1 + gamma)] of one link, from its CCDF."""
    return _integral(lambda x: link_ccdf(link, x) / (1.0 + x), (link.lam, link.mu)) / LN2


def cnbr_rate(pair):
    """(1/2) E[log2(1 + min(gamma_s, gamma_r))], from the product of the CCDFs."""
    return _integral(
        lambda x: link_ccdf(pair.s, x) * link_ccdf(pair.r, x) / (1.0 + x),
        (pair.s.lam, pair.s.mu, pair.r.lam, pair.r.mu),
    ) / (2.0 * LN2)
