"""The balance and delay-bound searches replayed from a proved bracket.

avg_rate_cabr and rho_for_delay_bound evaluate only the bisection midpoints,
and the delay search only the scan steps, whose side is not already proved.
The plain searches they replay are kept here as oracles: every result and
every exception message must be equal, the searches must stay within their
evaluation budgets, and a lying error bound must still give a correct answer
through the plain rerun. A wrong root guess from the node-rule locators must
cost evaluations, never a digit, and the locators must warn on nothing. The
error bounds the proofs rest on are checked against the channel-law oracle.
"""

import copy
import itertools
import math
import warnings

import numpy as np
import pytest

from bufrelay import analytic, cli, specfun

import oracle
from conftest import PAIR_MIXED, make_pair, random_pair, second_moment_rate_hop_s


def avg_rate_cabr_plain(pair):
    """Oracle: the balance point by plain bisection, every midpoint evaluated.

    Both public hop rates read one moment pair, computed once in the memo block.
    """
    last = [0.0, 0.0, 0.0]

    def gap(log10_rho):
        rho = 10.0**log10_rho
        rs = analytic.avg_rate_cabr_hop_s(pair, rho)
        rr = analytic.avg_rate_cabr_hop_r(pair, rho)
        last[:] = log10_rho, rs, rr
        g = rs - rr
        return 0.0 if abs(g) <= 1e-8 * max(rs, rr) else g

    with specfun.memo():
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


def search_top(pair):
    """log10 rho at the top of the delay search's range: 1e-3 decades below the balance."""
    return math.log10(analytic.avg_rate_cabr(pair)[1]) - 1e-3


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


def scan_steps(pair, n):
    """The first n thresholds of the delay search's downward scan, in log10 rho,
    by the search's own repeated subtraction."""
    steps = [search_top(pair)]
    while len(steps) < n:
        steps.append(steps[-1] - 0.25)
    return steps


def computed_thresholds(monkeypatch):
    """rho of every delay bound the search computes, memo hits left out."""
    seen = []
    inner = analytic._delay_bound.__wrapped__

    def recorded(pair, rho):
        seen.append(rho)
        return inner(pair, rho)

    monkeypatch.setattr(analytic, "_delay_bound", specfun.memoized(recorded))
    return seen


def replaced_proofs(monkeypatch, replace):
    """Route _proved_bracket through replace(prove, probe, lo, hi, guess) and
    return the list of (lo, hi, bracket) of every call."""
    prove, calls = analytic._proved_bracket, []

    def routed(probe, lo, hi, guess):
        calls.append((lo, hi, replace(prove, probe, lo, hi, guess)))
        return calls[-1][2]

    monkeypatch.setattr(analytic, "_proved_bracket", routed)
    return calls


def honest(prove, *args):
    return prove(*args)


# pairs whose balance solves, but whose scan meets a failing J quadrature
# near rho = 1e-5 (ConvergenceError) unless the target is met above it
FAILING_QUADRATURE_PAIRS = {
    "lam_r_1": make_pair(1e4, 1e-4, 1.0, 1e-4),
    "lam_r_1e4": make_pair(1e4, 1e-4, 1e4, 1e-4),
}


class TestScanReadsTheProof:
    """rho_for_delay_bound proves its bracket (a, b) before the scan, and the
    scan evaluates only the steps inside it: the outcome, value or exception,
    is the plain search's. The unreachable targets are checked over every
    balance case above."""

    def test_steps_outside_the_bracket_are_not_evaluated(self, monkeypatch):
        steps = scan_steps(PAIR_MIXED, 3)
        plain = outcome(rho_for_delay_bound_plain, PAIR_MIXED, 5.0)
        calls = replaced_proofs(monkeypatch, honest)
        seen = computed_thresholds(monkeypatch)
        assert outcome(analytic.rho_for_delay_bound, PAIR_MIXED, 5.0) == plain
        lo, hi, (a, b) = calls[-1]
        assert (lo, hi) == (-30.0, steps[0]) and steps[2] < a < b < steps[1]
        assert not {10.0**x for x in steps} & set(seen)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bracket_straddling_a_scan_step(self, monkeypatch, k):
        # the bound at the k-th step down is the target, so no proof decides
        # that step's side: the bracket straddles it and the scan evaluates it
        step = scan_steps(PAIR_MIXED, k + 1)[k]
        t_target = analytic.delay_bound_adaptive(PAIR_MIXED, 10.0**step)
        plain = outcome(rho_for_delay_bound_plain, PAIR_MIXED, t_target)
        calls = replaced_proofs(monkeypatch, honest)
        seen = computed_thresholds(monkeypatch)
        assert outcome(analytic.rho_for_delay_bound, PAIR_MIXED, t_target) == plain
        a, b = calls[-1][2]
        assert -math.inf < a < step < b < math.inf and 10.0**step in seen

    def test_widened_bracket(self, monkeypatch):
        # half a decade more on each side is still proved; the scan evaluates
        # the three steps it now holds
        steps = scan_steps(PAIR_MIXED, 3)
        plain = outcome(rho_for_delay_bound_plain, PAIR_MIXED, 5.0)

        def widened(prove, *args):
            a, b = prove(*args)
            return a - 0.5, b + 0.5

        replaced_proofs(monkeypatch, widened)
        seen = computed_thresholds(monkeypatch)
        assert outcome(analytic.rho_for_delay_bound, PAIR_MIXED, 5.0) == plain
        assert {10.0**x for x in steps} <= set(seen)

    @pytest.mark.parametrize("pair", [PAIR_MIXED, PAIR_SLOW], ids=["mixed", "slow"])
    def test_target_met_at_the_top(self, pair):
        top = search_top(pair)
        for t_target in (analytic.delay_bound_adaptive(pair, 10.0**top), 1e4):
            got = outcome(analytic.rho_for_delay_bound, pair, t_target)
            assert got == outcome(rho_for_delay_bound_plain, pair, t_target) == 10.0**top

    @pytest.mark.parametrize("name", list(FAILING_QUADRATURE_PAIRS))
    @pytest.mark.parametrize("t_target", [2.5, 5.0, 1e4])
    def test_failing_quadrature_pairs(self, name, t_target):
        pair = FAILING_QUADRATURE_PAIRS[name]
        assert outcome(analytic.rho_for_delay_bound, pair, t_target) == outcome(
            rho_for_delay_bound_plain, pair, t_target
        )

    def test_one_sided_step_below_the_bracket(self, monkeypatch):
        # the target is the bound halfway between the first scan step too
        # one-sided for the bound (q_s < 1e-7) and the step above it: the
        # proof brackets it above the one-sided step, so that step is the
        # first one below the bracket, and the target is unreachable, as the
        # plain scan finds
        pair = BALANCE_CASES["grid(1.0, 0.0001, 0.0001, 0.0001)"]
        step = search_top(pair)
        while analytic.lsp(pair, 10.0**step)[0] >= 1e-7:
            step -= 0.25
        t_target = analytic.delay_bound_adaptive(pair, 10.0 ** (step + 0.125))
        plain = outcome(rho_for_delay_bound_plain, pair, t_target)
        assert plain == ("ValueError", "delay target unreachable within the search range")
        calls = replaced_proofs(monkeypatch, honest)
        assert outcome(analytic.rho_for_delay_bound, pair, t_target) == plain
        a, b = calls[-1][2]
        assert step < a < b < step + 0.25

    def test_false_proof_of_the_last_step(self, monkeypatch):
        # a false proof puts the target between 0.30 and 0.29 decades below
        # the top, so the scan stops at the step 0.5 below, read as under the
        # target. At t = 3 it is over it: the bisection cannot leave that
        # step, the search evaluates it once the bisection ends, and runs the
        # plain search, evaluating every step
        steps = scan_steps(PAIR_MIXED, 4)
        plain = outcome(rho_for_delay_bound_plain, PAIR_MIXED, 3.0)

        def false_before_the_scan(prove, probe, lo, hi, guess):
            if (lo, hi) == (-30.0, steps[0]):
                return steps[0] - 0.3, steps[0] - 0.29
            return prove(probe, lo, hi, guess)

        calls = replaced_proofs(monkeypatch, false_before_the_scan)
        seen = computed_thresholds(monkeypatch)
        assert outcome(analytic.rho_for_delay_bound, PAIR_MIXED, 3.0) == plain
        # one proof of the delay search, none over the plain scan's bracket
        assert [(lo, hi) for lo, hi, _ in calls if hi != 30.0] == [(-30.0, steps[0])]
        assert {10.0**x for x in steps} <= set(seen)

    @pytest.mark.parametrize("offsets", [(0.01, 0.011), (-0.011, -0.01)], ids=["above", "below"])
    def test_false_proof_inside_the_last_step(self, monkeypatch, offsets):
        # a false proof of both sides 0.01 decades off the root, inside the
        # last scan step: the scan reads its steps right, the bisection closes
        # on the false bracket, and the check of both final ends, one of them
        # on its wrong side, runs the plain search
        plain = rho_for_delay_bound_plain(PAIR_MIXED, 5.0)
        root = math.log10(plain)
        top = search_top(PAIR_MIXED)
        last = top - 0.25 * math.ceil((top - root) / 0.25)
        assert last < root - 0.011 and root + 0.011 < last + 0.25

        def false_before_the_scan(prove, probe, lo, hi, guess):
            if (lo, hi) == (-30.0, top):
                return root + offsets[0], root + offsets[1]
            return prove(probe, lo, hi, guess)

        replaced_proofs(monkeypatch, false_before_the_scan)
        bisect, brackets = analytic._bisect_log10, []

        def recorded(f, lo, hi, xtol=0.0):
            out = bisect(f, lo, hi, xtol)
            brackets.append((xtol, lo, out))
            return out

        monkeypatch.setattr(analytic, "_bisect_log10", recorded)
        assert analytic.rho_for_delay_bound(PAIR_MIXED, 5.0) == plain
        misread, rerun = [(lo, out) for xtol, lo, out in brackets if xtol == 1e-10]
        # both bisected the last scan step; the misread one closed on the
        # false bracket's near end
        assert misread[0] == rerun[0] == last
        assert abs(misread[1][0] - root) > 0.009 and 10.0 ** rerun[1][0] == plain


# wrong guesses built from a locator's own (x, slope), or from the bracket
# midpoint at slope 1 where it has none; _proved_bracket clamps x to the bracket
WRONG_GUESSES = {
    "none": lambda x, slope: None,
    "3 decades high": lambda x, slope: (x + 3.0, slope),
    "3 decades low": lambda x, slope: (x - 3.0, slope),
    "negative slope": lambda x, slope: (x, -1.0),
    "nan": lambda x, slope: (math.nan, math.nan),
}


def wrong_locators(monkeypatch, kind):
    """Make both node-rule locators return a wrong guess of the given kind."""
    for name in ("_balance_guess", "_delay_guess"):
        locate = getattr(analytic, name)

        def wrong(*args, locate=locate):
            lo, hi = args[-2:]
            return WRONG_GUESSES[kind](*(locate(*args) or (0.5 * (lo + hi), 1.0)))

        monkeypatch.setattr(analytic, name, wrong)


class TestWrongGuess:
    """A guess decides no sign: a wrong one costs evaluations, never a digit."""

    @pytest.mark.parametrize("name", list(BALANCE_CASES))
    def test_balance(self, monkeypatch, name):
        pair = BALANCE_CASES[name]
        plain = outcome(avg_rate_cabr_plain, pair)
        for kind in WRONG_GUESSES:
            with monkeypatch.context() as m:
                wrong_locators(m, kind)
                assert outcome(analytic.avg_rate_cabr, pair) == plain, kind

    @pytest.mark.parametrize(
        "name, t_target",
        [(name, t) for name in ("mixed", "slow") for t in (3.0, 5.0, 7.3, 12.0, 1e4)]
        # reachable for some of the cases, for the rest the scan runs out
        + [(name, 2.2) for name in BALANCE_CASES],
    )
    def test_delay_inversion(self, monkeypatch, name, t_target):
        pair = {**BALANCE_CASES, "slow": PAIR_SLOW}[name]
        plain = outcome(rho_for_delay_bound_plain, pair, t_target)
        for kind in WRONG_GUESSES:
            with monkeypatch.context() as m:
                wrong_locators(m, kind)
                assert outcome(analytic.rho_for_delay_bound, pair, t_target) == plain, kind


# the 81 grid pairs hold wide_range's 16 corners, {1e-4, 1e4}^4; the others
# put a scale near the float limits, where the rule's nodes overflow
LOCATOR_PAIRS = [pair for name, pair in BALANCE_CASES.items() if name.startswith("grid")] + [
    make_pair(1e300, 1e-300, 1.0, 1.0),
    make_pair(1.0, 1.0, 1e-300, 1e300),
    make_pair(1e-300, 1e-300, 1e300, 1e300),
]


def test_locators_emit_no_warning():
    # a failed command prints one stderr line, so the rule may add none: an
    # overflow or a NaN gives no guess
    def check(guess, lo, hi):
        if guess is not None:
            x, slope = guess
            assert lo <= x <= hi and 0.0 < slope < math.inf

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pair in LOCATOR_PAIRS:
            guess = analytic._balance_guess(pair, -30.0, 30.0)
            check(guess, -30.0, 30.0)
            top = (guess[0] if guess else 0.0) - 1e-3
            # a downward scan's first bracket, and the whole range below the
            # balance; 2.2 and -1.0 are the unreachable targets of the tests above
            brackets = [(top - 0.25, top), (-30.0, top)]
            try:
                # the range rho_for_delay_bound guesses in before its scan
                brackets.append((-30.0, search_top(pair)))
            except ValueError:  # no balance, or a scale the quadratures reject
                pass
            for lo, hi in brackets:
                for t_target in (5.0, 2.2, -1.0):
                    check(analytic._delay_guess(pair, t_target, lo, hi), lo, hi)


def test_moments_with_error_bounds_match_the_public_values():
    rng = np.random.default_rng(91)
    for k in range(8):
        pair = random_pair(rng, pip=(k % 4 == 3))
        rho = float(10.0 ** rng.uniform(-1.0, 1.0))
        (rs, es), (rr, _) = (analytic._selected(pair, rho, analytic.RATE, hop) for hop in "sr")
        assert (rs, rr) == (
            analytic.avg_rate_cabr_hop_s(pair, rho),
            analytic.avg_rate_cabr_hop_r(pair, rho),
        )
        m2s = analytic._selected(pair, rho, analytic.RATE2, "s")[0]
        assert m2s == second_moment_rate_hop_s(pair, rho)
        # the bound the proofs rest on covers the distance to the oracle's
        # rate, within the oracle's own relative tolerance
        quad = oracle.hop(pair, rho, oracle.RATE, "s")
        assert abs(rs - quad) <= es + 1e-13 * abs(quad)


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
    """Bounds at the measured counts + 2 (7 rate pairs for the balance, 10
    delay bounds at t = 5), or + 1 for the unreachable target; the plain
    bisections take 33 rate pairs, 36 delay bounds at t = 5 and 120 at t = 2.2."""

    def test_balance_rate_pairs(self, monkeypatch):
        # one rate pair builds the joint terms of both hops
        calls = counting(monkeypatch, "joint_terms_sr")
        analytic.avg_rate_cabr(PAIR_MIXED)
        assert calls[0] <= 2 * 9

    def test_delay_bounds(self, monkeypatch):
        # delay_bound_adaptive is _delay_bound without the error bound, so
        # counting the latter counts every delay-bound evaluation
        calls = counting(monkeypatch, "_delay_bound")
        analytic.rho_for_delay_bound(PAIR_MIXED, 5.0)
        assert calls[0] <= 12

    def test_unreachable_delay_target(self, monkeypatch):
        # the downward scan stops at the first threshold too one-sided for the
        # bound (29 bounds) instead of stepping on to log10 rho = -30
        calls = counting(monkeypatch, "_delay_bound")
        with pytest.raises(ValueError, match="^delay target unreachable within the search range$"):
            analytic.rho_for_delay_bound(PAIR_MIXED, 2.2)
        assert calls[0] <= 30


class TestQuadratureBudget:
    """Bounds at the measured counts + about 2% (128 quadratures at t = 5 and
    1870 for fig7): each J, L and M integral is computed once per delay-bound
    search and once per command (without that, 248 and 4440)."""

    def test_delay_bound_search(self, quad_calls):
        analytic.rho_for_delay_bound(PAIR_MIXED, 5.0)
        assert quad_calls[0] <= 131

    def test_fig7_command(self, quad_calls):
        counts = []
        for _ in range(2):
            quad_calls[0] = 0
            cli.cmd_analyze(copy.deepcopy(cli.PRESETS["fig7"]))
            counts.append(quad_calls[0])
        assert counts[0] <= 1907
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

        def recorded(f, lo, hi, xtol=0.0):
            out = bisect(f, lo, hi, xtol)
            brackets.append((xtol, out))
            return out

        monkeypatch.setattr(analytic, "_bisect_log10", recorded)
        rho = analytic.rho_for_delay_bound(PAIR_MIXED, t_target)
        lo, hi = brackets[-1][1]
        assert brackets[-1][0] == 1e-10 and rho == 10.0**lo and hi - lo < 1e-10
        # the lying error bounds prove no bracket of the target: the search runs plain
        assert rho == rho_for_delay_bound_plain(PAIR_MIXED, t_target)
        assert analytic.delay_bound_adaptive(PAIR_MIXED, 10.0**lo) <= t_target
        assert analytic.delay_bound_adaptive(PAIR_MIXED, 10.0**hi) > t_target
