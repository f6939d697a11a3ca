import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfbm.specfun as specfun
from cfbm.specfun import (
    BranchCutError,
    DegenerateParameterError,
    NonConvergenceError,
    PoleError,
    SpecFunError,
    gamma_fn,
    hyp2f1,
    hyp2f1_at_one,
    principal_pow,
)

from helpers import (
    cheapest_route_by_route_list,
    hyp2f1_euler_integral,
    series_2f1_by_integer_index,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestPrincipalPow:
    def test_identity(self):
        assert principal_pow(1, 0.5) == 1

    def test_i_squared(self):
        assert principal_pow(1j, 2) == pytest.approx(-1)

    def test_negative_i_fractional(self):
        # Log(-i) = -i pi/2 forces exp(0.6 i pi)
        assert principal_pow(-1j, -1.2) == pytest.approx(cmath.exp(0.6j * math.pi))

    def test_cut_rejected(self):
        with pytest.raises(BranchCutError):
            principal_pow(-2.0, 0.3)
        with pytest.raises(BranchCutError):
            principal_pow(0.0, -1.0)
        assert principal_pow(0.0, 0.7) == 0

    def test_overflow_is_a_specfun_error(self):
        # cmath.exp raises OverflowError past the double range
        with pytest.raises(SpecFunError, match="overflows double precision"):
            principal_pow(10.0, 400)

    @given(
        re=st.floats(min_value=-2, max_value=2),
        im=st.floats(min_value=0.01, max_value=2),
        b1=finite,
        b2=finite,
    )
    @settings(max_examples=60, deadline=None)
    def test_exponent_additivity(self, re, im, b1, b2):
        z = complex(re, im)
        lhs = principal_pow(z, b1 + b2)
        rhs = principal_pow(z, b1) * principal_pow(z, b2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @given(
        ur=finite,
        ui=st.floats(min_value=0.01, max_value=3),
        vr=finite,
        vi=st.floats(min_value=0.01, max_value=3),
        alpha=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_modulus_bound(self, ur, ui, vr, vi, alpha):
        # |(-i(u - conj v))^(2a-2)| <= (Im u + Im v)^(2a-2) on the open UHP
        u, v = complex(ur, ui), complex(vr, vi)
        val = abs(principal_pow(-1j * (u - v.conjugate()), 2 * alpha - 2))
        assert val <= (ui + vi) ** (2 * alpha - 2) * (1 + 1e-12)


class TestGamma:
    def test_one(self):
        assert gamma_fn(1) == pytest.approx(1, abs=1e-14)

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_small_argument_euler_constant(self):
        # Gamma(eps) ~ 1/eps - euler_gamma + O(eps) near 0
        assert abs((gamma_fn(0.001) - 1000) - (-0.57721566490153286)) < 1e-2

    def test_poles(self):
        for z in (0, -1, -7):
            with pytest.raises(PoleError):
                gamma_fn(z)

    def test_overflow_is_a_specfun_error(self):
        # math.gamma raises OverflowError past the double range, and scipy's
        # complex Gamma returns inf there; an underflow is the value 0
        for z in (200.0, 1e-320, complex(200.0, 1.0)):
            with pytest.raises(SpecFunError, match="overflows double precision"):
                gamma_fn(z)
        assert gamma_fn(-298.5) == 0.0

    def test_accuracy_on_disk(self):
        import mpmath

        rng = np.random.default_rng(5)
        for _ in range(60):
            z = complex(rng.uniform(-49, 49), rng.uniform(-49, 49))
            if abs(z) > 50 or (abs(z.imag) < 0.1 and z.real < 0.6):
                continue
            ref = complex(mpmath.gamma(z))
            assert abs(gamma_fn(z) - ref) <= 1e-12 * abs(ref)

    def test_real_axis_matches_mpmath(self):
        import mpmath

        for x in (-7.9, -4.5, -2.3, -1.5, -0.5, -0.01, 0.01, 0.1, 0.5, 1.7, 3.7, 20.2, 150.5):
            ref = float(mpmath.gamma(x))
            assert abs(gamma_fn(x) - ref) <= 1e-14 * abs(ref), x
            assert abs(gamma_fn(complex(x, 0.0)) - ref) <= 1e-14 * abs(ref), x

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("d", (1e-12, 1e-8, 1e-3))
    def test_near_poles_off_axis(self, k, d):
        # just off a pole, where a reflection through sin(pi z) of the
        # rounded pi z would lose about k 4e-17 / d of relative accuracy
        import mpmath

        z = complex(-k, d)
        ref = complex(mpmath.gamma(z))
        assert abs(gamma_fn(z) - ref) <= 1e-13 * abs(ref)

    @given(re=st.floats(min_value=-4.7, max_value=5), im=st.floats(min_value=0.1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, re, im):
        z = complex(re, im)
        lhs = gamma_fn(z + 1)
        rhs = z * gamma_fn(z)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestGradedQuad:
    def test_exact_on_polynomials_of_the_guard_degree(self):
        # both rules integrate degree <= 23 exactly, so the guard is quiet and
        # the value is the integral, here on 18 panels of widths 1e-3 to 0.26
        coeffs = np.random.default_rng(3).uniform(-1.0, 1.0, 24)
        edges = specfun._graded_edges(1e-3, 2.0)
        val = specfun._graded_quad(lambda x: np.polyval(coeffs, x), edges, "poly")
        exact = np.polyval(np.polyint(coeffs), 2.0)
        assert val == pytest.approx(exact, rel=1e-14, abs=0)

    def test_returns_the_20_point_value(self):
        # on two panels x^39 is exact under the 20-point rule only; the
        # 12-point guard is 2.7e-12 off, inside its tolerance
        val = specfun._graded_quad(lambda x: x ** 39, np.array([0.0, 0.5, 1.0]), "x^39")
        assert val == pytest.approx(1.0 / 40.0, rel=1e-13, abs=0)

    def test_trailing_axes_are_integrated_elementwise(self):
        edges = np.array([0.0, 0.5, 1.5])
        val = specfun._graded_quad(
            lambda x: np.stack([np.ones_like(x), x ** 23, 1j * x ** 5], axis=-1), edges, "cols"
        )
        assert val.shape == (3,)
        assert val == pytest.approx([1.5, 1.5 ** 24 / 24, 1j * 1.5 ** 6 / 6], rel=1e-13, abs=0)

    def test_raises_on_a_jump_inside_a_panel(self):
        edges = np.array([0.0, 0.5, 1.0])
        with pytest.raises(NonConvergenceError, match="step"):
            specfun._graded_quad(lambda x: (x > 0.3).astype(float), edges, "step")
        # with the jump on an edge both rules are exact
        assert specfun._graded_quad(
            lambda x: (x > 0.5).astype(float), edges, "step"
        ) == pytest.approx(0.5, rel=1e-15, abs=0)

    def test_raises_when_one_trailing_column_disagrees(self):
        edges = np.array([0.0, 0.5, 1.0])

        def f(x):
            out = np.stack([x ** 2, x ** 3, x ** 4], axis=-1)
            out[:, 1] = x > 0.3
            return out

        with pytest.raises(NonConvergenceError, match="one column"):
            specfun._graded_quad(f, edges, "one column")


class TestHyp2F1:
    def test_unit_when_a_or_b_zero(self):
        assert hyp2f1(0, 0.7, 1.3, 0.9 + 0.4j) == 1
        assert hyp2f1(0.7, 0, 1.3, -2.0) == 1
        # on the cut too, and at z = 1 with Re(c - a - b) <= 0
        assert hyp2f1(0, 0.7, 1.3, 1e3) == 1
        assert hyp2f1(2.5, 0, 1.3, 1.0) == 1

    def test_unit_at_zero(self):
        assert hyp2f1(0.3, 0.7, 1.1, 0) == 1

    def test_gamma_ratio_at_one(self):
        alpha = 0.4
        val = hyp2f1(1 - 2 * alpha, 1 + 2 * alpha, 2 + 2 * alpha, 1.0)
        ref = gamma_fn(2 + 2 * alpha) * gamma_fn(2 * alpha) / gamma_fn(1 + 4 * alpha)
        assert abs(val - ref) <= 1e-10 * abs(ref)

    def test_at_one_requires_convergence(self):
        with pytest.raises(BranchCutError):
            hyp2f1_at_one(1.2, 0.8, 1.5)

    def test_cut_rejected(self):
        with pytest.raises(BranchCutError):
            hyp2f1(0.3, 0.7, 1.1, 1.7)

    def test_c_pole_rejected(self):
        with pytest.raises(PoleError):
            hyp2f1(0.3, 0.7, -2, 0.4)

    def test_degenerate_connection_signals(self):
        # b - a and c - a - b both integers break all four connections; at
        # these points every convergent route is one of them
        with pytest.raises(DegenerateParameterError):
            hyp2f1(0.3, 1.3, 2.6, 3.5 + 0.1j)
        with pytest.raises(DegenerateParameterError):
            hyp2f1(0.3, 1.3, 2.6, 1.05 + 0.1j)
        # one integer difference leaves a convergent route: b - a = 1 is
        # served by 1-1/z, c - a - b = 1 by 1/z; near an integer difference
        # the connections whose terms cancel are charged for the lost digits
        import mpmath

        near = [(0.3, 1.3 + d, 1.9, 3.5 + 0.1j) for d in (1e-8, 1e-6, 1e-4, 1e-3)]
        for args in ((0.3, 1.3, 1.9, 3.5 + 0.1j), (0.3, 0.8, 2.1, 1.05 + 0.1j), *near):
            ref = complex(mpmath.hyp2f1(*args))
            assert abs(hyp2f1(*args) - ref) <= 1e-12 * abs(ref), args

    @pytest.mark.parametrize(
        "a, b_minus_a, c, z",
        [
            # b - a within 2e-8 of -4: the connection in 1/z
            (0.25 + 0.2j, -4 + 2e-8j, 2.1 + 0.07j, 0.5 - 1.5j),
            # b - a within 1e-8 of -1: the Pfaff connection in 1/(1-z)
            (-0.5 - 0.25j, -1 + 1e-8j, 1.95 - 0.04j, 0.45 - 2.8j),
        ],
    )
    def test_connection_near_gamma_pole(self, a, b_minus_a, c, z):
        # the Gamma coefficients are evaluated next to their poles, where the
        # cancellation of the two terms leaves about eps/|b - a + k| of error
        import mpmath

        b = a + b_minus_a
        with mpmath.workdps(40):
            ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(hyp2f1(a, b, c, z) - ref) <= 1e-6 * abs(ref)

    def test_quadrature_oracle_at_one(self):
        # the Euler integral converges at z = 1 when Re(c-a-b) > 0 and gives
        # the Gauss Gamma ratio; without that it diverges, as beyond 1
        a, b, c = 0.3 + 0.2j, 0.7 - 0.1j, 2.4 + 0.15j
        oracle = hyp2f1_euler_integral(a, b, c, 1.0)
        assert abs(hyp2f1(a, b, c, 1.0) - oracle) <= 1e-12 * abs(oracle)
        for z in (1.0, 1.5):
            with pytest.raises(BranchCutError):
                hyp2f1_euler_integral(0.9, 0.7, 1.5, z)

    def test_quadrature_oracle_fixed_point(self):
        val = hyp2f1(0.3, 0.7, 1.1, 0.4 + 0.2j)
        oracle = hyp2f1_euler_integral(0.3, 0.7, 1.1, 0.4 + 0.2j)
        assert abs(val - oracle) <= 1e-8 * abs(oracle)

    def test_quadrature_oracle_regions(self):
        from cfbm.cli import _SPECFUN_REGIONS, _random_2f1_case

        rng = np.random.default_rng(12)
        for i in range(24):
            a, b, c, z = _random_2f1_case(rng, _SPECFUN_REGIONS[i % 3])
            val = hyp2f1(a, b, c, z)
            oracle = hyp2f1_euler_integral(a, b, c, z)
            assert abs(val - oracle) <= 1e-8 * abs(oracle), (a, b, c, z)

    def test_symmetric_in_a_b(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
            b = complex(rng.uniform(0.2, 1.8), rng.uniform(-0.5, 0.5))
            c = complex(rng.uniform(2.2, 3.5), rng.uniform(-0.3, 0.3))
            z = complex(rng.uniform(-0.8, 0.65), rng.uniform(-0.6, 0.6))
            lhs, rhs = hyp2f1(a, b, c, z), hyp2f1(b, a, c, z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_terminating_polynomial(self):
        # negative-integer a terminates: 2F1(-2, b; c; z) = 1 - 2bz/c + b(b+1)z^2/(c(c+1))
        b, c, z = 0.7, 1.9, 5.0 + 2.0j
        expected = 1 - 2 * b * z / c + b * (b + 1) * z * z / (c * (c + 1))
        assert hyp2f1(-2, b, c, z) == pytest.approx(expected, rel=1e-12)
        # on the cut and at z = 1: 2F1(-1, 1/2; 3/2; 2) = 1 - 2/3 and
        # 2F1(-2, 3; 1/2; 1) = 1 - 12 + 16
        assert hyp2f1(-1, 0.5, 1.5, 2.0) == pytest.approx(1 / 3, rel=1e-12)
        assert hyp2f1(-2, 3, 0.5, 1.0) == pytest.approx(5, rel=1e-12)

    # a or b a non-positive integer, b = -2 with a complex partner
    @pytest.mark.parametrize("a, b, c", [
        (-1, 0.5, 1.5),
        (-3, 0.7 + 0.3j, 1.9),
        (1.3 - 0.4j, -2, 0.6 + 0.2j),
    ])
    @pytest.mark.parametrize("z", [1.5, 4.0, 1e3])
    def test_polynomial_on_the_cut_matches_mpmath(self, a, b, c, z):
        # a terminating series has one value at every z, [1, oo) included
        import mpmath

        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(hyp2f1(a, b, c, z) - ref) <= 1e-12 * abs(ref)

    # Re(c - a - b) <= 0, where a non-polynomial 2F1 diverges at z = 1
    @pytest.mark.parametrize("a, b, c", [
        (-2, 3, 0.5),
        (-1, 2.5 + 0.5j, 1.2),
        (3.4 + 0.2j, -3, -0.5 + 0.3j),
    ])
    def test_polynomial_at_one_matches_mpmath(self, a, b, c):
        import mpmath

        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(a, b, c, 1))
        assert abs(hyp2f1(a, b, c, 1.0) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("a, b, c, z, expected", [
        (1e-13, 0.7, 1.3, 0.5, 1.000000000000034),
        (-1 + 1e-13, 0.7, 1.3, 0.5 + 0.5j, 0.73077 - 0.26923j),
        (0.7, -3 + 1e-13, 1.3, 0.9 + 0.3j, 0.247563 - 0.068459j),
    ])
    def test_near_nonpositive_integer_is_not_a_polynomial(self, a, b, c, z, expected):
        # a or b within 1e-13 of a non-positive integer does not terminate,
        # so the terminating branch and its short term guard must not take it;
        # exact integers still do (test_polynomial_on_the_cut_matches_mpmath)
        import mpmath

        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert ref == pytest.approx(expected, rel=1e-4)
        assert abs(hyp2f1(a, b, c, z) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("args, name", [
        ((math.inf, 0.7, 1.3, 0.5), "a"),
        ((math.nan, 0.7, 1.3, 0.5), "a"),
        ((0.3, complex(0.7, -math.inf), 1.3, 0.5), "b"),
        ((0.3, 0.7, math.inf, 0.5), "c"),
        ((0.3, 0.7, complex(math.nan, 0.2), 0.5), "c"),
        ((0.3, 0.7, 1.3, math.nan), "z"),
        ((0.3, 0.7, 1.3, complex(0.2, math.inf)), "z"),
        ((-2, 0.7, 1.3, math.inf), "z"),
    ], ids=["a-inf", "a-nan", "b-inf", "c-inf", "c-nan", "z-nan", "z-inf", "polynomial-z-inf"])
    def test_non_finite_argument_rejected(self, args, name):
        # rejected up front, naming the argument: an infinite a or c used to
        # raise OverflowError from round(), a NaN a a bare ValueError, and a
        # NaN z ran the series to its 6000-term guard
        with pytest.raises(SpecFunError, match=f"argument {name}=.* not finite"):
            hyp2f1(*args)

    @pytest.mark.parametrize("args, error", [
        # the series terms overflow to inf, and the stop test reads inf <= inf
        ((1000, 1000, 2.5, 0.3), NonConvergenceError),
        ((500 + 1j, 400, 1.5, 0.5 + 0.1j), NonConvergenceError),
        # the connection in 1-z needs 1/Gamma(-298.5), whose Gamma underflows
        # to 0 (it was a ZeroDivisionError)
        ((300, 300, 1.5, 0.9), SpecFunError),
    ], ids=["series-real", "series-complex", "rgamma-underflow"])
    def test_overflow_raises(self, args, error):
        with pytest.raises(SpecFunError, match="overflows double precision") as info:
            hyp2f1(*args)
        assert type(info.value) is error

    def test_extreme_parameters_give_a_finite_value_or_a_specfun_error(self):
        # seeded draws of a, b, c from +-1e-12 ... +-1e3, integers and 0, and
        # z inside, near and outside the unit circle and on the real axis:
        # Gamma under/overflow, overflowing powers and series, and products
        # past the double range all raise SpecFunError, never a bare Python
        # error or a non-finite value
        rng = np.random.default_rng(26)

        def param():
            kind = rng.integers(5)
            if kind == 0:
                return float(rng.integers(-20, 21))
            if kind == 1:
                return 0.0
            x = 10 ** rng.uniform(-12, 3) * rng.choice((-1, 1))
            if kind == 2:
                return complex(x, 10 ** rng.uniform(-12, 3) * rng.choice((-1, 1)))
            return x

        outcomes = {"finite": 0, "raised": 0}
        for _ in range(2000):
            r = (rng.uniform(0, 0.9), rng.uniform(0.9, 1.1), rng.uniform(1.1, 5),
                 10 ** rng.uniform(-3, 3))[rng.integers(4)]
            theta = rng.choice((0.0, math.pi)) if rng.uniform() < 0.2 else rng.uniform(-3.2, 3.2)
            args = (param(), param(), param(), cmath.rect(r, theta))
            try:
                value = hyp2f1(*args)
            except SpecFunError:
                outcomes["raised"] += 1
                continue
            assert cmath.isfinite(value), args
            outcomes["finite"] += 1
        assert min(outcomes.values()) > 500

    def test_annulus_point(self):
        # z = -1 sits on the annulus where the Pfaff-transformed series runs
        import mpmath

        val = hyp2f1(1.2, 0.9, 2.8, -1.0)
        ref = complex(mpmath.hyp2f1(1.2, 0.9, 2.8, -1.0))
        assert abs(val - ref) <= 1e-10 * abs(ref)

    def test_series_guard_trips(self):
        z = cmath.exp(1j * math.pi / 3)
        with pytest.raises(NonConvergenceError):
            # |z| = 1 with Re(c-a-b) < 0: the terms do not decay, so the
            # direct series stops at its term cap
            specfun._series_2f1(0.4 + 0.997j, 0.9, 0.31, z)
        # hyp2f1 reaches the point by the Taylor re-expansion
        import mpmath

        ref = complex(mpmath.hyp2f1(0.4 + 0.997j, 0.9, 0.31, z))
        assert abs(hyp2f1(0.4 + 0.997j, 0.9, 0.31, z) - ref) <= 1e-12 * abs(ref)


# (a, b, c, z) of I1/I2 calls of the benchmark generator (seeds 0 and
# 2001-2003) with |z| between 0.9994 and 1.0000, where neither the series in
# z nor the Pfaff series in z/(z-1) converges
UNIT_CIRCLE_CASES = (
    (0.6582635290042924, 1.3417364709957076, 2.3417364709957074,
     0.9468882041417116 - 0.3207882483510378j),
    (0.650198369306277, 1.349801630693723, 2.3498016306937233,
     0.9315565819611333 + 0.36236818961307943j),
    (-0.36883283074187934, 1.3688328307418793, 2.368832830741879,
     0.9269382281867138 + 0.37501309302406954j),
    (1.5906716338340747, 0.4093283661659253, 1.4093283661659253,
     0.7480201850544809 + 0.663653989351249j),
    (1.1466729628774137, 0.8533270371225863, 1.8533270371225863,
     0.9252457707720804 + 0.38084540675152223j),
)

# complex parameters with b - a and c - a - b away from the integers
ROUTE_PARAMS = (
    (0.3 + 0.2j, 0.7 - 0.1j, 1.9 + 0.15j),
    (-0.6 + 0.3j, 1.4 + 0.2j, 2.3 - 0.1j),
    (1.2 - 0.25j, 0.45 + 0.1j, 1.35 + 0.3j),
)

# both sides of the cut [1, oo) and of the negative real axis, where the
# connection formulas' powers have their cuts, and one point per route
ROUTE_POINTS = (
    2 + 1e-9j, 2 - 1e-9j, 1.6 + 1e-12j, 1.6 - 1e-12j,
    -3 + 1e-12j, -3 - 1e-12j, -3, 0.8 + 1e-12j, 0.8 - 1e-12j,
    0.3 + 0.2j, -0.9, -0.4 + 2j, 5 + 3j, 1.2 - 0.3j,
)


def _near_sixth_roots_of_unity():
    # the neighbourhood of exp(+-i pi/3), where all six Kummer variables
    # have modulus near 1
    for sign in (1, -1):
        for r in np.linspace(0.85, 1.17, 9):
            for dtheta in np.linspace(-0.35, 0.35, 8):
                yield complex(r * cmath.exp(1j * sign * (math.pi / 3 + dtheta)))


class TestHyp2F1Routes:
    @pytest.mark.parametrize("case", UNIT_CIRCLE_CASES)
    def test_unit_circle_cases_match_mpmath(self, case):
        import mpmath

        ref = complex(mpmath.hyp2f1(*case))
        assert abs(hyp2f1(*case) - ref) <= 1e-10 * abs(ref)

    def test_every_route_matches_mpmath(self, monkeypatch):
        import mpmath

        taken = set()
        choose = specfun._cheapest_route

        def spy(a, b, c, z):
            route = choose(a, b, c, z)
            taken.add((route[0].__name__, route[1]))
            return route

        monkeypatch.setattr(specfun, "_cheapest_route", spy)
        points = (*ROUTE_POINTS, *_near_sixth_roots_of_unity())
        for a, b, c in ROUTE_PARAMS:
            for z in points:
                ref = complex(mpmath.hyp2f1(a, b, c, z))
                val = hyp2f1(a, b, c, z)
                assert abs(val - ref) <= 1e-12 * abs(ref), (a, b, c, z)
        expansions = ("_series_2f1", "_connection_one_minus_z", "_connection_inv_z")
        routes = {(name, pfaff) for name in expansions for pfaff in (False, True)}
        assert taken == routes | {("_taylor_2f1", False)}
        assert len(taken) == 7

    def test_inv_z_term_at_a_gamma_pole_matches_mpmath(self):
        # on the 1/z route c - a = -1, a pole of Gamma: the term in (-z)^-a
        # has the coefficient 1/Gamma(c - a) = 0 and drops out
        import mpmath

        a, b, c, z = 2.5, 0.3, 1.5, 3 + 1j
        assert specfun._cheapest_route(a, b, c, z)[0] is specfun._connection_inv_z
        ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(hyp2f1(a, b, c, z) - ref) <= 1e-14 * abs(ref)


def _with_former_loops(f, *args):
    # f(*args) with the former integer-indexed series and list-built route
    # choice in place of the library's; an exception is returned as its type
    with pytest.MonkeyPatch.context() as m:
        m.setattr(specfun, "_series_2f1", series_2f1_by_integer_index)
        m.setattr(specfun, "_cheapest_route", cheapest_route_by_route_list)
        return _outcome(f, *args)


def _outcome(f, *args):
    try:
        return f(*args)
    except SpecFunError as exc:
        return type(exc)


def _random_2f1_sweep(n_per_region, seed, regions=None):
    from cfbm.cli import _SPECFUN_REGIONS, _random_2f1_case

    rng = np.random.default_rng(seed)
    return [_random_2f1_case(rng, region)
            for region in regions or _SPECFUN_REGIONS for _ in range(n_per_region)]


class TestFormerLoopsBitForBit:
    # the float-indexed series and the tuple-literal route choice give the
    # bits and routes of the former loops, kept in tests/helpers.py

    @staticmethod
    def _assert_same(cases):
        for case in cases:
            a, b, c, z = (complex(x) for x in case)
            assert _outcome(hyp2f1, *case) == _with_former_loops(hyp2f1, *case), case
            if not (z == 0 or (z.imag == 0 and z.real >= 1.0)):
                route = _outcome(specfun._cheapest_route, a, b, c, z)
                assert route == _outcome(cheapest_route_by_route_list, a, b, c, z), case

    def test_route_params_and_points(self):
        points = (*ROUTE_POINTS, *_near_sixth_roots_of_unity())
        self._assert_same([(*abc, z) for abc in ROUTE_PARAMS for z in points])

    def test_polynomials(self):
        rng = np.random.default_rng(25)
        cases = []
        for i in range(60):
            m = -int(rng.integers(0, 9))
            q = complex(rng.uniform(-3, 3), rng.uniform(-1, 1) if i % 2 else 0.0)
            c = complex(rng.uniform(0.1, 4), rng.uniform(-1, 1) if i % 3 else 0.0)
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5) if i % 4 else 0.0)
            cases.append((m, q, c, z) if i % 2 else (q, m, c, z))
        self._assert_same(cases)

    def test_random_cases_in_each_region(self):
        self._assert_same(_random_2f1_sweep(200, seed=2025))

    def test_series_directly(self):
        # real and complex parameters inside the unit disk, and the guard
        # raising at |z| = 1
        for a, b, c, z in _random_2f1_sweep(100, seed=7, regions=("series",)):
            for args in ((a, b, c, z), (a.real + 0j, b.real + 0j, c.real + 0j, z)):
                assert (_outcome(specfun._series_2f1, *args)
                        == _outcome(series_2f1_by_integer_index, *args)), args
        args = (0.4 + 0.997j, 0.9 + 0j, 0.31 + 0j, cmath.exp(1j * math.pi / 3))
        assert _outcome(specfun._series_2f1, *args) is NonConvergenceError
        assert _outcome(series_2f1_by_integer_index, *args) is NonConvergenceError

    def test_power_integral_generator(self, monkeypatch):
        # the I1/I2 sets of acceptance criterion 4, and every 2F1 call they make
        import cfbm.rough_integrals as ri
        from test_acceptance import _random_power_integral

        calls = []

        def recording(*args):
            calls.append(args)
            return hyp2f1(*args)

        monkeypatch.setattr(ri, "hyp2f1", recording)
        rng = np.random.default_rng(404)
        for _ in range(50):
            p = _random_power_integral(rng)
            for integral in (ri.I1, ri.I2):
                assert _outcome(integral, p) == _with_former_loops(integral, p), p
        assert len(calls) >= 100
        self._assert_same(calls)
