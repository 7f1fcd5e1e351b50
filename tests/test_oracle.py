"""The channel-law oracle of tests/oracle.py: independent of what it checks,
and right to 20-digit mpmath quadrature of the same integral."""

import ast
import math
from pathlib import Path

import mpmath as mp
import pytest

from bufrelay.analytic import ModulationParams

import oracle
from conftest import PAIR_MIXED, make_pair


def test_oracle_shares_no_code_with_the_closed_forms():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert imported, "no import found"
    for banned in ("bufrelay.analytic", "bufrelay.specfun"):
        assert banned not in imported


def mp_hop(pair, rho, kernel, which):
    """int k(g) f_a(g) F_b(t g) dg at 20 digits, with F = 1 - CCDF written directly."""
    a, b, t = (pair.s, pair.r, rho) if which == "s" else (pair.r, pair.s, 1.0 / rho)

    def decay(link, x):
        return mp.mpf(1) if math.isinf(link.lam) else mp.exp(-x / link.lam)

    def f(g):
        ratio = a.mu / (g + a.mu)
        peak = 0 if math.isinf(a.lam) else (1 - a.p + a.p * ratio) / a.lam
        pdf = decay(a, g) * (peak + a.p * ratio**2 / a.mu)
        x = t * g
        cdf = 1 - decay(b, x) * (1 - b.p + b.p * b.mu / (x + b.mu))
        return kernel(g) * pdf * cdf

    with mp.workdps(20):
        scales = sorted({mp.mpf(s) for s in (a.lam, a.mu, b.lam / t, b.mu / t) if math.isfinite(s)})
        return mp.quad(f, [0, *scales, mp.inf])


@pytest.mark.parametrize("pair, rho", [
    (PAIR_MIXED, 0.8),
    (make_pair(1e-2, 1e2, 1e2, 1e-2), 3.0),
    (make_pair(1e3, 0.5, 20.0, 40.0), 0.2),
], ids=["mixed", "crossed", "strong_s"])
def test_oracle_matches_mpmath(pair, rho):
    # about 0.1 s per mpmath integral, a few ms per oracle integral
    bpsk = ModulationParams(eta=2.0, phi=1.0)
    cases = [
        (oracle.ONE, lambda g: 1, "s"),
        (oracle.RATE, lambda g: mp.log1p(g) / mp.log(2), "r"),
        (oracle.RATE2, lambda g: (mp.log1p(g) / mp.log(2)) ** 2, "s"),
        (oracle.ser(bpsk), lambda g: mp.erfc(mp.sqrt(g)) / 2, "r"),
    ]
    for kernel, mp_kernel, which in cases:
        ref = float(mp_hop(pair, rho, mp_kernel, which))
        got = oracle.hop(pair, rho, kernel, which)
        assert got == pytest.approx(ref, rel=1e-12), (kernel, which)
