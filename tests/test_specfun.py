"""Unit tests for the special functions and the five named integral families."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from bufrelay import analytic, specfun
from bufrelay.specfun import (
    ConvergenceError,
    EULER_GAMMA,
    dilog,
    exp_integral_en_scaled,
    integral_I,
    integral_J,
    integral_K,
    integral_L,
    integral_M,
    memo,
    quad_semi_infinite,
)

from conftest import semi_infinite
from test_analytic_ser import known_defect


def exp_integral_en(n: int, x: float) -> float:
    """Generalized exponential integral E_n(x) = int_1^inf t^(-n) e^(-x t) dt."""
    return math.exp(-x) * exp_integral_en_scaled(n, x)

# values frozen from a 50-digit independent evaluation
E1_OF_1 = 0.21938393439552027
SCALED_E1_OF_1 = 0.596347362323194074
J_1_1 = 0.26596538503240918
M_1_1 = 0.19356065027772386
J_5_2 = 0.2423239134528176
M_5_2 = 0.27850238326622432
J_03_7 = 2.3582277107861796
M_03_7 = 3.4688672348699201
K_10_100_2 = 0.951725473630750
K_15625_INF_2 = 0.996830239183677
L_10_100_2 = 1.96821258771646
L_1_1_2 = 0.372243390856102
L_REG_3375_2 = -4.11069679122864
L_REG_15625_2 = -5.63185775466715
I2_3_05_1 = 0.010329081747
I3_10_100_2 = 0.308675536586
I4_01_7_03 = 0.00485426053392
DILOG_1 = 1.64493406684822644
DILOG_M1 = -0.82246703342411322


def integral_I_quad(n, mu, lam, x=0.0):
    """Oracle: I_n by quadrature of its defining integral."""

    def f(t):
        s = x + t
        return mu ** (n - 1) * math.exp(-s / lam) / (s + mu) ** n

    return quad_semi_infinite(semi_infinite(f))


def integral_K_quad(mu, lam, eta):
    """Oracle: K by quadrature of its defining integral (w = t*t kills the 1/sqrt(w))."""
    inv_lam = 0.0 if math.isinf(lam) else 1.0 / lam
    coef = 2.0 * math.sqrt(0.5 * eta / math.pi)

    def f(t):
        w = t * t
        return coef * mu * math.exp(-(0.5 * eta + inv_lam) * w) / (w + mu)

    return quad_semi_infinite(semi_infinite(f))


class TestExpIntegral:
    def test_frozen_values(self):
        assert exp_integral_en(1, 1.0) == pytest.approx(E1_OF_1, rel=1e-13)
        assert exp_integral_en_scaled(1, 1.0) == pytest.approx(SCALED_E1_OF_1, rel=1e-13)

    def test_zero_argument(self):
        assert exp_integral_en(3, 0.0) == 0.5
        assert exp_integral_en_scaled(4, 0.0) == pytest.approx(1.0 / 3.0)

    def test_order_zero_scaled(self):
        assert exp_integral_en_scaled(0, 2.5) == pytest.approx(0.4)

    def test_recursion(self):
        # n E_{n+1}(x) = e^(-x) - x E_n(x)
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            x = float(10.0 ** rng.uniform(-2, 2))
            lhs = n * exp_integral_en(n + 1, x)
            rhs = math.exp(-x) - x * exp_integral_en(n, x)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)

    def test_scaled_continuous_across_switch(self):
        below = exp_integral_en_scaled(1, 599.9)
        above = exp_integral_en_scaled(1, 600.1)
        assert below == pytest.approx(above, rel=1e-3)
        # both sandwiched by the classic bounds 1/(x+1) < e^x E1(x) < 1/x
        for x, val in ((599.9, below), (600.1, above)):
            assert 1.0 / (x + 1.0) < val < 1.0 / x

    def test_scaled_huge_argument(self):
        x = 1e12
        val = exp_integral_en_scaled(1, x)
        assert val == pytest.approx(1.0 / x, rel=1e-9)
        assert math.isfinite(val)

    def test_unscaled_huge_argument_underflows_cleanly(self):
        assert exp_integral_en(1, 800.0) == pytest.approx(
            math.exp(-800.0) * exp_integral_en_scaled(1, 800.0)
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exp_integral_en(1, 0.0)
        with pytest.raises(ValueError):
            exp_integral_en(1, -1.0)
        with pytest.raises(ValueError):
            exp_integral_en(-1, 1.0)
        with pytest.raises(ValueError):
            exp_integral_en_scaled(1, -2.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scaled_equals_the_ufunc_product(self, n):
        xs = 10.0 ** np.random.default_rng(40 + n).uniform(-8.0, math.log10(600.0), 2000)
        for x in xs.tolist():
            assert exp_integral_en_scaled(n, x) == math.exp(x) * float(special.expn(n, x))

    @given(st.floats(min_value=0.01, max_value=500.0))
    @settings(max_examples=60, deadline=None)
    def test_scaled_e1_bounds(self, x):
        val = exp_integral_en_scaled(1, x)
        assert 1.0 / (x + 1.0) < val < 1.0 / x


class TestCythonSpecial:
    """specfun calls expn, spence and erfcx through scipy.special.cython_special
    for their lower call cost; they must be the ufuncs' C code bit for bit, so
    a scipy release that splits the two fails here first."""

    @staticmethod
    def assert_bitwise(scalar, ufunc, xs):
        got = np.array([scalar(x) for x in xs.tolist()])
        assert np.array_equal(got.view(np.int64), ufunc(xs).view(np.int64))

    def test_expn(self):
        xs = 10.0 ** np.random.default_rng(61).uniform(-12.0, math.log10(600.0), 30_000)
        self.assert_bitwise(
            functools.partial(specfun.expn, 1), functools.partial(special.expn, 1), xs
        )

    def test_spence(self):
        rng = np.random.default_rng(62)
        xs = np.concatenate((rng.uniform(0.0, 2.0, 5000), 10.0 ** rng.uniform(-12.0, 6.0, 5000)))
        self.assert_bitwise(specfun.spence, special.spence, xs)

    def test_erfcx(self):
        rng = np.random.default_rng(63)
        xs = np.concatenate((rng.uniform(0.0, 10.0, 5000), 10.0 ** rng.uniform(-12.0, 6.0, 5000)))
        self.assert_bitwise(specfun.erfcx, special.erfcx, xs)


class TestDilog:
    def test_frozen_values(self):
        assert dilog(1.0) == pytest.approx(DILOG_1, rel=1e-14)
        assert dilog(-1.0) == pytest.approx(DILOG_M1, rel=1e-14)
        assert dilog(0.0) == 0.0

    def test_reflection_identity(self):
        # Li2(x) + Li2(1-x) = pi^2/6 - ln(x) ln(1-x)
        rng = np.random.default_rng(11)
        for x in rng.uniform(0.01, 0.99, size=20):
            lhs = dilog(float(x)) + dilog(float(1.0 - x))
            rhs = math.pi**2 / 6.0 - math.log(x) * math.log1p(-x)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            dilog(1.5)


class TestIntegralI:
    def test_frozen_values(self):
        assert integral_I(2, 3.0, 0.5, x=1.0) == pytest.approx(I2_3_05_1, rel=1e-9)
        assert integral_I(3, 10.0, 100.0, x=2.0) == pytest.approx(I3_10_100_2, rel=1e-9)
        assert integral_I(4, 0.1, 7.0, x=0.3) == pytest.approx(I4_01_7_03, rel=1e-9)

    def test_closed_form_matches_defining_integral(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            mu = float(10.0 ** rng.uniform(-1, 2))
            lam = float(10.0 ** rng.uniform(-1, 2))
            x = float(rng.uniform(0.0, 4.0))
            closed = integral_I(n, mu, lam, x)
            direct = integral_I_quad(n, mu, lam, x)
            assert closed == pytest.approx(direct, rel=1e-8)

    def test_recursion(self):
        # n I_{n+1} = (mu/(x+mu))^n e^(-x/lam) - (mu/lam) I_n
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            mu = float(10.0 ** rng.uniform(-1, 2.2))
            lam = float(10.0 ** rng.uniform(-1, 2))
            x = float(rng.uniform(0.0, 5.0))
            lhs = n * integral_I(n + 1, mu, lam, x)
            rhs = (mu / (x + mu)) ** n * math.exp(-x / lam) - (mu / lam) * integral_I(
                n, mu, lam, x
            )
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-280)

    def test_infinite_scale(self):
        assert math.isinf(integral_I(1, 2.0, math.inf))
        assert integral_I(2, 2.0, math.inf) == pytest.approx(1.0)
        assert integral_I(3, 2.0, math.inf, x=2.0) == pytest.approx(0.125)

    def test_huge_ratio_is_finite(self):
        val = integral_I(1, 1e6, 1.0)
        assert 0.0 < val < 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            integral_I(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            integral_I(1, -1.0, 1.0)
        with pytest.raises(ValueError):
            integral_I(1, 1.0, 1.0, x=-0.5)

    @given(
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_decreasing_in_lower_limit(self, n, mu, lam, x, dx):
        assert integral_I(n, mu, lam, x) > integral_I(n, mu, lam, x + dx)


class TestIntegralJ:
    def test_frozen_values(self):
        assert integral_J(1.0, 1.0) == pytest.approx(J_1_1, rel=1e-9)
        assert integral_J(5.0, 2.0) == pytest.approx(J_5_2, rel=1e-9)
        assert integral_J(0.3, 7.0) == pytest.approx(J_03_7, rel=1e-9)
        assert integral_J(33.75, 4.0) == pytest.approx(0.13663439091712569, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            integral_J(0.0, 1.0)
        with pytest.raises(ValueError):
            integral_J(1.0, math.inf)

    @given(
        st.floats(min_value=0.2, max_value=20.0),
        st.floats(min_value=0.2, max_value=20.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_decreasing_in_mu(self, mu, lam, dmu):
        assert integral_J(mu, lam) > integral_J(mu + dmu, lam)


class TestIntegralK:
    def test_frozen_values(self):
        assert integral_K(10.0, 100.0, 2.0) == pytest.approx(K_10_100_2, rel=1e-12)
        assert integral_K(156.25, math.inf, 2.0) == pytest.approx(K_15625_INF_2, rel=1e-12)

    def test_closed_form_matches_defining_integral(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            mu = float(10.0 ** rng.uniform(-1, 2))
            lam = float(10.0 ** rng.uniform(-1, 2))
            eta = float(10.0 ** rng.uniform(-0.3, 0.9))
            assert integral_K(mu, lam, eta) == pytest.approx(
                integral_K_quad(mu, lam, eta), rel=1e-8
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            integral_K(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            integral_K(1.0, 1.0, 0.0)

    @given(
        st.floats(min_value=0.05, max_value=300.0),
        st.floats(min_value=0.05, max_value=300.0),
        st.floats(min_value=0.2, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_one(self, mu, lam, eta):
        # the gaussian-weighted ratio average always lands strictly inside (0, 1)
        assert 0.0 < integral_K(mu, lam, eta) < 1.0


class TestIntegralL:
    def test_frozen_values(self):
        assert integral_L(10.0, 100.0, 2.0) == pytest.approx(L_10_100_2, rel=1e-9)
        assert integral_L(1.0, 1.0, 2.0) == pytest.approx(L_1_1_2, rel=1e-9)

    def test_frozen_renormalized_values(self):
        assert integral_L(33.75, math.inf, 2.0) == pytest.approx(L_REG_3375_2, rel=1e-9)
        assert integral_L(156.25, math.inf, 2.0) == pytest.approx(L_REG_15625_2, rel=1e-9)

    def test_renormalized_limit_is_the_large_scale_limit(self):
        # L(mu, lam) - ln(lam) approaches the stored infinite-scale value with
        # an O((mu/lam) ln lam) correction
        mu, eta = 3.0, 2.0
        reg = integral_L(mu, math.inf, eta)
        err5 = abs(integral_L(mu, 1e5, eta) - math.log(1e5) - reg)
        err7 = abs(integral_L(mu, 1e7, eta) - math.log(1e7) - reg)
        assert err5 < 1e-3
        assert err7 < 1e-5
        assert err7 < err5

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            integral_L(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            integral_L(1.0, -1.0, 2.0)

    # the last two start past specfun's x = 600 switch or cross it
    @pytest.mark.parametrize(
        "mu, lam, eta",
        [(1.0, 1.0, 2.0), (10.0, 100.0, 2.0), (0.3, 7.0, 0.5), (700.0, 1.0, 2.0), (10.0, 0.1, 1.0)],
    )
    def test_unchecked_integrand_equals_the_checked_one(self, mu, lam, eta):
        coef = 2.0 * math.sqrt(0.5 * eta / math.pi)

        def g(t):
            om = 1.0 - t
            s = t / om
            w = s * s
            en = exp_integral_en_scaled(1, (w + mu) / lam)
            return coef * math.exp(-0.5 * eta * w - w / lam) * en / (om * om)

        want = quad_semi_infinite(g)
        got = integral_L(mu, lam, eta)
        assert (got.hex(), got.err.hex()) == (want.hex(), want.err.hex())


class TestIntegralM:
    def test_frozen_values(self):
        assert integral_M(1.0, 1.0) == pytest.approx(M_1_1, rel=1e-9)
        assert integral_M(5.0, 2.0) == pytest.approx(M_5_2, rel=1e-9)
        assert integral_M(0.3, 7.0) == pytest.approx(M_03_7, rel=1e-9)
        assert integral_M(33.75, 4.0) == pytest.approx(0.22851526864001117, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            integral_M(1.0, math.inf)

    def test_cauchy_schwarz_against_J(self):
        # int w^2 f >= (int w f)^2 / int f with f the exponential-over-shift weight
        rng = np.random.default_rng(13)
        for _ in range(10):
            mu = float(10.0 ** rng.uniform(-0.5, 1.5))
            lam = float(10.0 ** rng.uniform(-0.5, 1.5))
            mass = integral_I(1, mu, lam)
            assert integral_M(mu, lam) * mass >= integral_J(mu, lam) ** 2


# (mu, lam) log-uniform over [1e-4, 1e4]^2, and the points where J or M is more
# than 1e-8 relative off the tanh-sinh oracle, with the measured error; most
# have lam below 3e-3, and none raises ConvergenceError
ORACLE_POINTS = 10.0 ** np.random.default_rng(2024).uniform(-4.0, 4.0, (300, 2))
J_OFF = {19: 1.5e-4, 37: 0.96, 86: 0.91, 103: 7.6e-7, 166: 0.97, 282: 0.99}
M_OFF = {
    2: 0.12, 19: 0.74, 37: 0.83, 61: 0.17, 82: 0.011, 86: 0.66, 90: 0.13, 103: 0.71,
    106: 7.0e-4, 125: 0.14, 127: 0.16, 136: 0.91, 139: 0.18, 142: 0.15, 161: 1.3e-8,
    166: 0.88, 169: 0.02, 180: 0.19, 183: 1.9e-5, 184: 0.21, 185: 0.17, 194: 0.47,
    205: 0.8, 219: 8.8e-4, 224: 3.4e-4, 228: 0.95, 245: 0.6, 281: 0.11, 282: 0.96,
    297: 5.6e-3,
}


@functools.cache
def tanhsinh_values(power):
    """int_0^inf ln(1+x)^power e^(-x/lam) / (x+mu) dx at every ORACLE_POINTS pair,
    by scipy's vectorized tanh-sinh rule (relative error below 1e-13)."""
    pytest.importorskip("scipy", minversion="1.15")
    from scipy.integrate import tanhsinh

    def f(x, mu, lam):
        return np.log1p(x) ** power * np.exp(-x / lam) / (x + mu)

    res = tanhsinh(f, 0.0, np.inf, args=tuple(ORACLE_POINTS.T), rtol=1e-13, atol=0.0)
    assert res.success.all()
    return res.integral


def oracle_cases(off):
    return [
        pytest.param(i, id=f"{i:03d}", marks=[known_defect(f"{off[i]:.2g}")] if i in off else [])
        for i in range(ORACLE_POINTS.shape[0])
    ]


class TestTanhSinhOracle:
    """J and M against an independent quadrature over the range the module
    promises, at 1e-8 relative; the points they miss are strict xfails. L is
    not covered: tanh-sinh needs its w = t^2 substitution at the endpoint."""

    @pytest.mark.parametrize("i", oracle_cases(J_OFF))
    def test_integral_J(self, i):
        mu, lam = ORACLE_POINTS[i]
        assert integral_J(mu, lam) == pytest.approx(tanhsinh_values(1)[i], rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("i", oracle_cases(M_OFF))
    def test_integral_M(self, i):
        mu, lam = ORACLE_POINTS[i]
        assert integral_M(mu, lam) == pytest.approx(tanhsinh_values(2)[i], rel=1e-8, abs=0.0)


class TestConvergenceError:
    def test_missed_tolerance_raises(self):
        # an oscillating tail the compactified quadrature cannot resolve
        with pytest.raises(ConvergenceError) as info:
            quad_semi_infinite(semi_infinite(lambda x: math.cos(x) / (1.0 + x)))
        assert info.value.achieved > 50.0 * info.value.requested
        assert info.value.requested >= 1e-10

    def test_slow_tail_raises_instead_of_dividing_by_zero(self):
        # the 1/x tail drives subdivision onto a node that rounds to t = 1
        with pytest.raises(ConvergenceError):
            quad_semi_infinite(semi_infinite(lambda x: 1.0 / (1.0 + x)))

    def test_carries_numbers(self):
        err = ConvergenceError("thing", 1e-3, 1e-9)
        assert err.achieved == 1e-3
        assert err.requested == 1e-9
        assert "thing" in str(err)


# (mu, lam) for the bit-identity checks below, log-uniform over [1e-3, 1e3]^2
IDENTITY_POINTS = (10.0 ** np.random.default_rng(15).uniform(-3.0, 3.0, (200, 2))).tolist()


def assert_same_outcome(compute, oracle, label):
    """compute() == oracle() exactly, or both raise an exception of one type."""
    __tracebackhide__ = True
    try:
        expected = oracle()
    except Exception as exc:
        with pytest.raises(Exception) as info:
            compute()
        assert type(info.value) is type(exc), label
        return
    assert compute() == expected, label


def jm_integrands(mu, lam):
    """The x-space integrands of J(mu, lam) and M(mu, lam)."""

    def j(x):
        return math.log1p(x) * math.exp(-x / lam) / (x + mu)

    def m(x):
        lg = math.log1p(x)
        return lg * lg * math.exp(-x / lam) / (x + mu)

    return j, m


def w2_shape(kind, mu, a):
    return analytic._w2_term_nats(analytic._Term(kind, 1.0, mu, a))[0]


class TestIntegrandsInTheMappedVariable:
    """Each integrand written in t gives the value of its x-space form under semi_infinite."""

    def test_J_and_M(self):
        for mu, lam in IDENTITY_POINTS:
            for family, f in zip((integral_J, integral_M), jm_integrands(mu, lam)):
                assert_same_outcome(
                    lambda: family(mu, lam),
                    lambda: quad_semi_infinite(semi_infinite(f)),
                    f"{family.__name__}({mu!r}, {lam!r})",
                )

    def test_L(self):
        eta = 2.0
        coef = 2.0 * math.sqrt(0.5 * eta / math.pi)
        for mu, lam in IDENTITY_POINTS:

            def finite(s):
                w = s * s
                return (
                    coef
                    * math.exp(-0.5 * eta * w - w / lam)
                    * exp_integral_en_scaled(1, (w + mu) / lam)
                )

            def regularized(s):
                w = s * s
                return coef * math.exp(-0.5 * eta * w) * (-EULER_GAMMA - math.log(w + mu))

            assert_same_outcome(
                lambda: integral_L(mu, lam, eta),
                lambda: quad_semi_infinite(semi_infinite(finite)),
                f"integral_L({mu!r}, {lam!r}, {eta!r})",
            )
            assert_same_outcome(
                lambda: integral_L(mu, math.inf, eta),
                lambda: quad_semi_infinite(semi_infinite(regularized)),
                f"integral_L({mu!r}, inf, {eta!r})",
            )

    def test_second_moment_shapes(self):
        for mu, lam in IDENTITY_POINTS:
            inv_lam = 1.0 / lam

            def ratio(x):
                return 2.0 * math.log1p(x) * math.exp(-x / lam) / (1.0 + x) ** 2

            def ratio2(x):
                return (
                    2.0 * math.log1p(x) * (mu / (x + mu)) ** 2 * math.exp(-x * inv_lam) / (1.0 + x)
                )

            def e1log(x):
                return 2.0 * math.log1p(x) * (math.log1p(x) - math.log(x + mu)) / (1.0 + x)

            # the ratio shape integrates numerically only at mu = 1
            shapes = (("ratio", 1.0, ratio), ("ratio2", mu, ratio2), ("e1log", mu, e1log))
            for kind, mu_k, f in shapes:
                assert_same_outcome(
                    lambda: w2_shape(kind, mu_k, lam),
                    lambda: quad_semi_infinite(semi_infinite(f)),
                    f"{kind}({mu_k!r}, {lam!r})",
                )


# (mu, lam) for the reported-error checks, log-uniform over [1e-2, 1e3]^2
ERROR_POINTS = (10.0 ** np.random.default_rng(16).uniform(-2.0, 3.0, (50, 2))).tolist()


class TestReportedError:
    """J and M carry the absolute error quad reports for their integrand, which
    the bracket proofs of the root searches rest on; quad_semi_infinite accepts
    it up to 50 times the requested tolerance."""

    def test_J_and_M(self):
        for mu, lam in ERROR_POINTS:
            for family, f in zip((integral_J, integral_M), jm_integrands(mu, lam)):
                value = family(mu, lam)
                quad = integrate.quad(
                    semi_infinite(f), 0.0, 1.0, epsabs=1e-10, epsrel=1e-9, limit=200,
                    full_output=1,
                )
                label = f"{family.__name__}({mu!r}, {lam!r})"
                assert (value, value.err) == quad[:2], label
                assert value.err <= 50.0 * max(1e-10, 1e-9 * value), label


class TestMemo:
    def test_outside_a_block_every_call_integrates(self, quad_calls):
        assert integral_J(5.0, 2.0) == integral_J(5.0, 2.0)
        assert quad_calls[0] == 2

    def test_inside_a_block_each_integral_runs_once(self, quad_calls):
        calls = [
            (integral_J, (5.0, 2.0)),
            (integral_L, (10.0, 100.0, 2.0)),
            (integral_L, (33.75, math.inf, 2.0)),
            (integral_M, (5.0, 2.0)),
        ]
        with memo():
            first = [f(*args) for f, args in calls]
            again = [f(*args) for f, args in calls]
        assert first == again
        assert quad_calls[0] == len(calls)

    def test_families_do_not_share_keys(self, quad_calls):
        with memo():
            assert integral_J(5.0, 2.0) != integral_M(5.0, 2.0)
        assert quad_calls[0] == 2

    def test_nested_block_shares_the_outer_store(self, quad_calls):
        with memo():
            integral_J(5.0, 2.0)
            with memo():
                integral_J(5.0, 2.0)
                integral_M(5.0, 2.0)
            assert quad_calls[0] == 2
            # leaving the inner block keeps what it stored
            integral_M(5.0, 2.0)
            assert quad_calls[0] == 2
        # leaving the outer block drops the store
        integral_J(5.0, 2.0)
        assert quad_calls[0] == 3

    def test_store_is_dropped_when_the_block_raises(self, quad_calls):
        with pytest.raises(KeyError):
            with memo():
                integral_J(5.0, 2.0)
                raise KeyError
        with memo():
            integral_J(5.0, 2.0)
        assert quad_calls[0] == 2

    def test_errors_are_not_stored(self, monkeypatch):
        calls = [0]

        def failing(f):
            calls[0] += 1
            raise ConvergenceError("semi-infinite quadrature", 1.0, 1e-10)

        monkeypatch.setattr(specfun, "quad_semi_infinite", failing)
        with memo():
            for _ in range(2):
                with pytest.raises(ConvergenceError):
                    integral_J(5.0, 2.0)
        assert calls[0] == 2

    def test_values_equal_inside_and_outside(self):
        rng = np.random.default_rng(29)
        points = [tuple((10.0 ** rng.uniform(-3.0, 3.0, size=2)).tolist()) for _ in range(12)]
        calls = [(f, p) for p in points for f in (integral_J, integral_M)]
        calls += [(integral_L, (mu, lam, 2.0)) for mu, lam in points]
        calls += [(integral_L, (mu, math.inf, 2.0)) for mu, _ in points]
        outside = [f(*args) for f, args in calls]
        with memo():
            inside = [f(*args) for f, args in calls]
            stored = [f(*args) for f, args in calls]
        assert inside == outside
        assert stored == outside
