"""The balance and delay-bound searches replayed from a proved bracket.

avg_rate_cabr and rho_for_delay_bound evaluate only the bisection midpoints
whose side is not already proved. The plain bisections they replay are kept
here as oracles: every result and every exception message must be equal, the
searches must stay within their evaluation budgets, and a lying error bound
must still give a correct answer through the plain-bisection rerun.
"""

import copy
import itertools
import math

import numpy as np
import pytest

from bufrelay import analytic, cli, specfun

from conftest import PAIR_MIXED, make_pair, random_pair, second_moment_rate_hop_s
from test_analytic_rates import avg_rate_cabr_hop_s_quad

LN2 = math.log(2.0)


def avg_rate_cabr_plain(pair):
    """Oracle: the balance point by plain bisection, every midpoint evaluated."""
    last = [0.0, 0.0, 0.0]

    def gap(log10_rho):
        rho = 10.0**log10_rho
        rs = analytic.avg_rate_cabr_hop_s(pair, rho)
        rr = analytic.avg_rate_cabr_hop_r(pair, rho)
        last[:] = log10_rho, rs, rr
        g = rs - rr
        return 0.0 if abs(g) <= 1e-8 * max(rs, rr) else g

    analytic._bisect_log10_rho(gap, "the rate balance point")
    log10_rho, rs, rr = last
    return 0.5 * (rs + rr), 10.0**log10_rho


def rho_for_delay_bound_plain(pair, t_target):
    """Oracle: the delay-target inversion by plain bisection."""
    if not (t_target > 0.0):
        raise ValueError("t_target must be positive")

    def side(log10_rho):
        try:
            val = analytic.delay_bound_adaptive(pair, 10.0**log10_rho)
        except (analytic.OneSidedError, analytic.PastBalanceError):
            return math.inf
        return -1.0 if val <= t_target else 1.0

    _, rho_bal = avg_rate_cabr_plain(pair)
    hi = lo = math.log10(rho_bal) - 1e-3
    while side(lo) > 0.0:
        lo -= 0.25
        if lo < -30.0:
            raise ValueError("delay target unreachable within the search range")
    if lo == hi:
        return 10.0**hi
    lo, _ = analytic._bisect_log10(side, lo, hi, xtol=1e-10)
    return 10.0**lo


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc).__name__, str(exc)


PAIR_SLOW = make_pair(1.0, 2.0, 3.0, 0.5)

BALANCE_CASES = {
    "mixed": PAIR_MIXED,
    # symmetric: the first midpoint is already balanced
    "symmetric": make_pair(0.01, 1e-4, 0.01, 1e-4),
    # the gap swings by +-5e-11 near the root against a 1.2e-11 tolerance
    "swinging": make_pair(100.0, 1e-4, 1e4, 1e-4),
    # both rates sit under their own error bound at rho = 1
    "unresolved": make_pair(1e-4, 1e-4, 1.0, 1.0),
    **{
        f"grid{q}": make_pair(*q)
        for q in itertools.product((1e-4, 1.0, 1e4), repeat=4)
    },
}


@pytest.mark.parametrize("name", list(BALANCE_CASES))
def test_balance_equals_plain_bisection(name):
    pair = BALANCE_CASES[name]
    assert outcome(analytic.avg_rate_cabr, pair) == outcome(avg_rate_cabr_plain, pair)


@pytest.mark.parametrize("pair", [PAIR_MIXED, PAIR_SLOW], ids=["mixed", "slow"])
@pytest.mark.parametrize("t_target", [3.0, 5.0, 7.3, 12.0, 1e4])
def test_delay_inversion_equals_plain_bisection(pair, t_target):
    assert outcome(analytic.rho_for_delay_bound, pair, t_target) == outcome(
        rho_for_delay_bound_plain, pair, t_target
    )


@pytest.mark.parametrize("name", list(BALANCE_CASES))
def test_unreachable_delay_target_matches_plain_bisection(name):
    # 2.2 is below the bound's plateau for most pairs (near 2.23 for the mixed
    # one as rho -> 0): the scan stops at the first threshold too one-sided
    # for the bound, the plain one runs off the range
    pair = BALANCE_CASES[name]
    for t_target in (2.2, -1.0):
        assert outcome(analytic.rho_for_delay_bound, pair, t_target) == outcome(
            rho_for_delay_bound_plain, pair, t_target
        )


def test_moments_with_error_bounds_match_the_public_values():
    rng = np.random.default_rng(91)
    for k in range(8):
        pair = random_pair(rng, pip=(k % 4 == 3))
        rho = float(10.0 ** rng.uniform(-1.0, 1.0))
        rs, es, rr, _ = analytic._hop_moments(pair, rho, analytic._rate_term_nats, LN2)
        assert (rs, rr) == (
            analytic.avg_rate_cabr_hop_s(pair, rho),
            analytic.avg_rate_cabr_hop_r(pair, rho),
        )
        m2s = analytic._hop_moments(pair, rho, analytic._w2_term_nats, LN2 * LN2)[0]
        assert m2s == second_moment_rate_hop_s(pair, rho)
        # the bound the proofs rest on covers the distance to direct
        # quadrature of the joint CCDF, within that quadrature's own tolerance
        quad = avg_rate_cabr_hop_s_quad(pair, rho)
        assert abs(rs - quad) <= es + (1e-10 + 1e-9 * abs(quad)) / LN2


def test_rate_term_error_is_the_reported_quadrature_error():
    j = specfun.integral_J(3.0, 4.0)
    for c in (0.7, -2.5):
        term = analytic._Term("e1", c, 3.0, 4.0)
        assert analytic._rate_term_nats(term) == (c * j, abs(c) * j.err)


def counting(monkeypatch, name):
    """Count the calls of an analytic function; of a memoized one, the calls
    that compute, not the memo hits."""
    calls = [0]
    fn = getattr(analytic, name)
    inner = getattr(fn, "__wrapped__", fn)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(analytic, name, counted if inner is fn else specfun.memoized(counted))
    return calls


class TestEvaluationBudget:
    """Bounds at the measured counts + 2 (9 rate pairs for the balance, 17
    delay bounds at t = 5), or + 1 for the unreachable target; the plain
    bisections take 33 rate pairs, 36 delay bounds at t = 5 and 120 at t = 2.2."""

    def test_balance_rate_pairs(self, monkeypatch):
        # one rate pair builds the joint terms of both hops
        calls = counting(monkeypatch, "joint_terms_sr")
        analytic.avg_rate_cabr(PAIR_MIXED)
        assert calls[0] <= 2 * 11

    def test_delay_bounds(self, monkeypatch):
        # delay_bound_adaptive is _delay_bound without the error bound, so
        # counting the latter counts every delay-bound evaluation
        calls = counting(monkeypatch, "_delay_bound")
        analytic.rho_for_delay_bound(PAIR_MIXED, 5.0)
        assert calls[0] <= 19

    def test_unreachable_delay_target(self, monkeypatch):
        # the downward scan stops at the first threshold too one-sided for the
        # bound (29 bounds) instead of stepping on to log10 rho = -30
        calls = counting(monkeypatch, "_delay_bound")
        with pytest.raises(ValueError, match="^delay target unreachable within the search range$"):
            analytic.rho_for_delay_bound(PAIR_MIXED, 2.2)
        assert calls[0] <= 30


class TestQuadratureBudget:
    """Bounds at the measured counts + about 2% (206 quadratures at t = 5 and
    2842 for fig7): each J, L and M integral is computed once per delay-bound
    search and once per command (without that, 376 and 5492)."""

    def test_delay_bound_search(self, quad_calls):
        analytic.rho_for_delay_bound(PAIR_MIXED, 5.0)
        assert quad_calls[0] <= 210

    def test_fig7_command(self, quad_calls):
        counts = []
        for _ in range(2):
            quad_calls[0] = 0
            cli.cmd_compare(copy.deepcopy(cli.PRESETS["fig7"]))
            counts.append(quad_calls[0])
        assert counts[0] <= 2900
        # a second run in the same process integrates as much as the first:
        # no value outlives its command
        assert counts[1] == counts[0]


def lying_error_bound(kind):
    """Error bounds of the rates and moments flipped in sign, or made -1e-3 relative."""
    honest = analytic._sum_with_err

    def lie(terms, term):
        value, err = honest(terms, term)
        return value, -err if kind == "flipped" else -1e-3 * abs(value)

    return lie


@pytest.mark.parametrize("kind", ["flipped", "large"])
class TestLyingProof:
    """A false proof may cost the digits of the plain bisection, never correctness."""

    @pytest.mark.parametrize("pair", [PAIR_MIXED, PAIR_SLOW], ids=["mixed", "slow"])
    def test_balance_is_still_within_tolerance(self, monkeypatch, kind, pair):
        monkeypatch.setattr(analytic, "_sum_with_err", lying_error_bound(kind))
        _, rho = analytic.avg_rate_cabr(pair)
        rs = analytic.avg_rate_cabr_hop_s(pair, rho)
        rr = analytic.avg_rate_cabr_hop_r(pair, rho)
        assert abs(rs - rr) <= 1e-8 * max(rs, rr)

    @pytest.mark.parametrize("t_target", [3.0, 7.3])
    def test_delay_bracket_straddles_the_target(self, monkeypatch, kind, t_target):
        monkeypatch.setattr(analytic, "_sum_with_err", lying_error_bound(kind))
        bisect = analytic._bisect_log10
        brackets = []

        def recorded(f, lo, hi, xtol=0.0, probe=None):
            out = bisect(f, lo, hi, xtol, probe)
            brackets.append((xtol, out))
            return out

        monkeypatch.setattr(analytic, "_bisect_log10", recorded)
        rho = analytic.rho_for_delay_bound(PAIR_MIXED, t_target)
        lo, hi = brackets[-1][1]
        assert brackets[-1][0] == 1e-10 and rho == 10.0**lo and hi - lo < 1e-10
        # the replay did not end on evaluated points, so the plain one reran
        assert [xtol for xtol, _ in brackets].count(1e-10) == 2
        assert analytic.delay_bound_adaptive(PAIR_MIXED, 10.0**lo) <= t_target
        assert analytic.delay_bound_adaptive(PAIR_MIXED, 10.0**hi) > t_target
