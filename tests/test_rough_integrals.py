import functools
import math
import os
import re
import warnings

import numpy as np
import pytest

from cfbm.gamma_process import DomainError, ModelParams
from cfbm.rough_integrals import (
    F1,
    F2,
    I1,
    I2,
    LevyAreaSpec,
    MCEstimate,
    PowerIntegralParams,
    area_path,
    divergence_slope,
    levy_area_sign_sum,
    levy_area_variance,
    levy_const,
    levy_volume_w1,
    mc_levy_area_moment,
    mc_levy_area_moments,
    mc_levy_volume_moment,
    volume_inner_closed,
    volume_path,
)

import cfbm.eps_approx as eps_approx
import cfbm.rough_integrals as rough_integrals
from cfbm.gamma_process import _philox
from cfbm.rough_integrals import _iterated_trapezoid

from helpers import (
    Phi1,
    Phi2,
    areas_batch,
    dblquad_complex,
    i1_integrand,
    i2_integrand,
    levy_area_sign_sum_by_quadpack,
    levy_area_variance_by_mpmath,
    levy_area_variance_by_quadpack,
    levy_area_variance_dblquad,
    quad_complex,
    run_python,
    volume_inner_by_mpmath,
    volumes_batch,
)


# the mpmath reference values are slow; the variance and the sign sum share them
_variance_by_mpmath = functools.cache(levy_area_variance_by_mpmath)


def _example_params(alpha=0.4, s=0.0, t=1.0):
    return PowerIntegralParams(
        a=0.0, b=0.0, beta1=2 * alpha - 2, beta2=2 * alpha,
        eps1=0.02, eps2=0.01, s=s, t=t,
    )


def _dense_second_moment(alpha, shifts, grid_n, n_paths, seed):
    # path by path: a fresh stream per path, drawn in the engine's layout
    # (an (n, components) C-order block keyed (seed, p)), every component
    # through the dense n x n factor product
    from cfbm.eps_approx import EpsApproxSpec, cholesky_factor

    grid = tuple(np.linspace(0.0, 1.0, grid_n + 1))
    factors = [cholesky_factor(EpsApproxSpec(alpha, e, grid), ModelParams(alpha)) for e in shifts]
    values = []
    for p in range(n_paths):
        z = _philox(seed, p).standard_normal((grid_n + 1, len(shifts)))
        comps = [(f @ z[:, c])[:, None] for c, f in enumerate(factors)]
        values.append(_iterated_trapezoid(comps)[0])
    return float(np.mean(np.square(values)))


def _dtrmm_widths(monkeypatch):
    # the width (columns) of every BLAS dtrmm product the Monte Carlo makes,
    # in call order; the engine imports dtrmm on use, so the patch holds
    from scipy.linalg import blas

    widths, dtrmm = [], blas.dtrmm

    def counting_dtrmm(alpha, a, b, **kwargs):
        widths.append(b.shape[1])
        return dtrmm(alpha, a, b, **kwargs)

    monkeypatch.setattr(blas, "dtrmm", counting_dtrmm)
    return widths


def _random_params(rng):
    alpha = rng.uniform(0.15, 0.85)
    while abs(alpha - 0.5) < 0.03:
        alpha = rng.uniform(0.15, 0.85)
    e2 = rng.uniform(0.005, 0.1)
    s, t = sorted(rng.uniform(-0.5, 1.5, 2))
    return PowerIntegralParams(
        a=rng.uniform(-0.5, 0.5),
        b=rng.uniform(-0.5, 0.5),
        beta1=rng.choice([2 * alpha - 2, 2 * alpha - 1, 2 * alpha]),
        beta2=rng.choice([2 * alpha - 1, 2 * alpha]),
        eps1=e2 + rng.uniform(0.001, 0.1),
        eps2=e2,
        s=s,
        t=t,
    )


class TestPowerIntegrals:
    def test_empty_interval(self):
        p = _example_params(s=0.7, t=0.7)
        assert I1(p) == 0
        assert I2(p) == 0

    def test_example_against_quadrature(self):
        p = _example_params()
        oracle = quad_complex(i1_integrand(p), p.s, p.t)
        assert abs(I1(p) - oracle) <= 1e-7 * abs(oracle)
        oracle = quad_complex(i2_integrand(p), p.s, p.t)
        assert abs(I2(p) - oracle) <= 1e-7 * abs(oracle)

    def test_randomized_against_quadrature(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = _random_params(rng)
            o1 = quad_complex(i1_integrand(p), p.s, p.t)
            assert abs(I1(p) - o1) <= 1e-7 * max(abs(o1), 1e-9)
            o2 = quad_complex(i2_integrand(p), p.s, p.t)
            assert abs(I2(p) - o2) <= 1e-7 * max(abs(o2), 1e-9)

    def test_antiderivative_forms_differ_by_constant(self):
        p = _example_params()
        d1 = [F1(p, t) - Phi1(p, t) for t in (0.3, 0.7, 1.0)]
        d2 = [F2(p, t) - Phi2(p, t) for t in (0.3, 0.7, 1.0)]
        for ds in (d1, d2):
            spread = max(abs(x - y) for x in ds for y in ds)
            assert spread <= 1e-9

    def test_first_family_needs_larger_eps1(self):
        p = PowerIntegralParams(0, 0, -0.8, 0.6, eps1=0.01, eps2=0.02, s=0, t=1)
        with pytest.raises(ValueError):
            I1(p)
        val = I2(p)  # second family has no such restriction
        oracle = quad_complex(i2_integrand(p), p.s, p.t)
        assert abs(val - oracle) <= 1e-7 * abs(oracle)

    def test_beta2_validation(self):
        with pytest.raises(ValueError):
            PowerIntegralParams(0, 0, -0.5, -1.2, eps1=0.02, eps2=0.01, s=0, t=1)

    def test_phi2_validity_region(self):
        p = _example_params()
        with pytest.raises(DomainError):
            Phi2(p, -0.3)
        shifted = PowerIntegralParams(
            a=0.1, b=0.0, beta1=p.beta1, beta2=p.beta2,
            eps1=p.eps1, eps2=p.eps2, s=0.0, t=1.0,
        )
        with pytest.raises(DomainError):
            Phi2(shifted, 1.0)


class TestLevyAreaVariance:
    def test_positive(self):
        for alpha in (0.2, 0.35, 0.45, 0.7):
            for e in (0.1, 0.02):
                assert levy_area_variance(LevyAreaSpec(alpha, 1.0, e, e)) > 0

    def test_scaling_law(self):
        # V(l e1, l e2)_(l t) = l^(4a) V(e1, e2)_t
        for alpha, lam in ((0.4, 2.0), (0.3, 0.5)):
            v1 = levy_area_variance(LevyAreaSpec(alpha, 1.0, 0.1, 0.07))
            v2 = levy_area_variance(LevyAreaSpec(alpha, lam, lam * 0.1, lam * 0.07))
            assert v2 == pytest.approx(lam ** (4 * alpha) * v1, rel=1e-6)

    def test_against_2d_quadrature_oracle(self):
        for alpha, e1, e2 in ((0.4, 0.1, 0.1), (0.3, 0.08, 0.05)):
            mine = levy_area_variance(LevyAreaSpec(alpha, 1.0, e1, e2))
            oracle = levy_area_variance_dblquad(alpha, e1, e2, 1.0)
            assert mine == pytest.approx(oracle, rel=1e-7)

    # (alpha, eps1, eps2, t) where the six-call QUADPACK route meets its
    # tolerance: the benchmark's variance grid, the levy-area divergence
    # schedule, and unequal shifts on other windows
    QUADPACK_CASES = (
        [(a, float(e), float(e), 1.0) for a in (0.3, 0.4, 0.45, 0.7)
         for e in np.logspace(-5.0, -1.0, 17)]
        + [(a, e, e, 1.0) for a in (0.15, 0.2) for e in (3e-4, 1e-4, 3e-5, 1e-5)]
        + [(a, e1, e2, t) for a in (0.15, 0.3, 0.45, 0.7, 0.85)
           for e1, e2 in ((0.1, 0.07), (0.02, 0.05), (1e-3, 4e-3)) for t in (0.3, 2.5, 7.0)]
    )

    def test_matches_quadpack_route(self):
        worst = 0.0
        for alpha, e1, e2, t in self.QUADPACK_CASES:
            mine = levy_area_variance(LevyAreaSpec(alpha, t, e1, e2))
            oracle = levy_area_variance_by_quadpack(alpha, e1, e2, t)
            worst = max(worst, abs(mine / oracle - 1.0))
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "alpha, e1, e2, t",
        [(0.05, 1e-4, 2e-4, 50.0), (0.26, 1e-8, 1e-8, 1.0),
         (0.02, 1e-3, 1000.0, 1.0), (0.9, 3.0, 3.0, 1e-3), (0.9, 1.0, 3000.0, 1.0)],
    )
    def test_extreme_shift_ratio_matches_mpmath(self, alpha, e1, e2, t):
        # shifts many orders below the window, where the QUADPACK route
        # returns values off by 1e-3 and 4e-5 relative, raising nothing
        # (an IntegrationWarning at most); and shifts far above it, where an
        # integrand carrying the ridge value (2 eps2)^2a of the inner kernels
        # cancels terms of that size: off by 6.7e-6 and 7.6e-10, or raising
        # NonConvergenceError
        mine = levy_area_variance(LevyAreaSpec(alpha, t, e1, e2))
        assert mine == pytest.approx(_variance_by_mpmath(alpha, e1, e2, t), rel=1e-11, abs=0.0)

    def test_matches_sign_sum_across_shift_scales(self):
        # both shifts over eleven decades around the unit window, at the
        # extreme alphas: where eps2 >> t an integrand that kept the ridge
        # value (2 eps2)^2a would cancel terms of that size
        worst = 0.0
        for alpha in (0.02, 0.98):
            kappa = ModelParams(alpha).kappa
            for e1 in np.logspace(-8.0, 3.0, 12):
                for e2 in np.logspace(-8.0, 3.0, 12):
                    v = levy_area_variance(LevyAreaSpec(alpha, 1.0, e1, e2))
                    ss = kappa * kappa * levy_area_sign_sum(alpha, e1, e2, 1.0).real
                    worst = max(worst, abs(v / ss - 1.0))
        assert worst <= 1e-10

    def test_guard_raises_when_rules_disagree(self, monkeypatch):
        from cfbm import specfun
        from cfbm.specfun import NonConvergenceError

        monkeypatch.setattr(specfun, "_GL_GUARD_ORDER", 2)
        with pytest.raises(NonConvergenceError):
            levy_area_variance(LevyAreaSpec(0.4, 1.0, 1e-3, 1e-3))

    def test_sign_resolved_route_agrees(self):
        alpha, e1, e2, t = 0.4, 0.05, 0.04, 1.0
        kappa = alpha * (1 - 2 * alpha) / (2 * math.cos(math.pi * alpha))
        ss = levy_area_sign_sum(alpha, e1, e2, t)
        assert abs(ss.imag) < 1e-10
        v = levy_area_variance(LevyAreaSpec(alpha, t, e1, e2))
        assert kappa ** 2 * ss.real == pytest.approx(v, rel=1e-9)

    def test_approaches_limit_constant_monotonically(self):
        alpha = 0.4
        c = levy_const(alpha)
        gaps = [
            abs(levy_area_variance(LevyAreaSpec(alpha, 1.0, e, e)) - c)
            for e in (0.1, 0.05, 0.025)
        ]
        assert gaps[2] < gaps[1] < gaps[0]

    def test_monotone_in_t_flagged_not_asserted(self):
        # expected to increase with the window; reported as a warning if not,
        # since no closed-form monotonicity statement backs it
        alpha, e = 0.35, 0.05
        vals = [levy_area_variance(LevyAreaSpec(alpha, t, e, e)) for t in (0.5, 1.0, 1.5, 2.0)]
        if not all(b > a for a, b in zip(vals, vals[1:])):
            warnings.warn(f"Levy-area second moment not monotone in t: {vals}")

    def test_second_variation_probe(self):
        # V is smooth in the shift: the 3-point second difference is far
        # smaller than the first difference at nearby shifts
        alpha, t = 0.35, 1.0
        for e, h in ((0.1, 0.02), (0.05, 0.01)):
            eta = e - h

            def f(x):
                return levy_area_variance(LevyAreaSpec(alpha, t, e, x))

            second = f(e) - 2 * f((e + eta) / 2) + f(eta)
            first = f(e) - f(eta)
            assert abs(second) <= 0.2 * abs(first)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LevyAreaSpec(0.5, 1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            LevyAreaSpec(0.4, -1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            LevyAreaSpec(0.4, 1.0, 0.0, 0.1)
        # non-finite values: t = inf gave V = -0.0, and t = nan a numpy reshape error
        for t, eps1, eps2 in [(math.inf, 0.1, 0.1), (math.nan, 0.1, 0.1),
                              (1.0, math.nan, 0.1), (1.0, 0.1, math.inf)]:
            with pytest.raises(ValueError, match="finite"):
                LevyAreaSpec(0.4, t, eps1, eps2)


class TestLevyAreaSignSum:
    # (alpha, eps1, eps2) on the unit window where the QUADPACK oracle meets
    # its tolerance
    ORACLE_CASES = (
        [(a, e1, e2) for a in (0.15, 0.3, 0.45, 0.7, 0.9)
         for e1, e2 in ((0.1, 0.05), (0.02, 0.04), (0.01, 0.01), (4e-3, 2e-3))]
        + [(a, 1e-3, 5e-4) for a in (0.3, 0.45, 0.7, 0.9)]
    )

    def test_matches_quadpack_oracle(self):
        for alpha, e1, e2 in self.ORACLE_CASES:
            mine = levy_area_sign_sum(alpha, e1, e2, 1.0)
            oracle = levy_area_sign_sum_by_quadpack(alpha, e1, e2, 1.0)
            assert mine.real == pytest.approx(oracle.real, rel=1e-11, abs=0.0)
            assert abs(mine.imag) <= 1e-11 * abs(mine.real)

    @pytest.mark.parametrize(
        "alpha, e1, e2, t",
        [(0.05, 1e-4, 2e-4, 50.0), (0.26, 1e-8, 1e-8, 1.0), (0.02, 1e-8, 1.0, 1.0)],
    )
    def test_extreme_shift_ratio_matches_mpmath(self, alpha, e1, e2, t):
        # where the QUADPACK oracle is off by 1e-3, 4e-5 and a factor 230,
        # raising nothing (an IntegrationWarning at most); the last case needs
        # the ridge value taken out of the inner kernel and the nodes near
        # x = t placed from that end
        kappa = ModelParams(alpha).kappa
        mine = kappa * kappa * levy_area_sign_sum(alpha, e1, e2, t).real
        assert mine == pytest.approx(_variance_by_mpmath(alpha, e1, e2, t), rel=1e-11, abs=0.0)

    def test_guard_raises_when_rules_disagree(self, monkeypatch):
        from cfbm import specfun
        from cfbm.specfun import NonConvergenceError

        monkeypatch.setattr(specfun, "_GL_GUARD_ORDER", 2)
        with pytest.raises(NonConvergenceError, match="Levy-area sign sum"):
            levy_area_sign_sum(0.4, 0.05, 0.04, 1.0)

    @pytest.mark.parametrize("args, message", [
        ((0.3, 0.0, 0.1, 1.0), "eps1 and eps2 must be finite and > 0, got 0.0, 0.1"),
        ((0.3, -0.1, 0.1, 1.0), "eps1 and eps2 must be finite and > 0, got -0.1, 0.1"),
        ((0.3, -math.inf, 0.1, 1.0), "eps1 and eps2 must be finite and > 0, got -inf, 0.1"),
        ((1.5, 0.1, 0.1, 1.0), "alpha must be in (0, 1), got 1.5"),
        ((0.3, 0.1, 0.1, -1.0), "t must be finite and > 0, got -1.0"),
        ((0.5, 0.1, 0.1, 1.0), "alpha = 1/2 is rejected"),
    ])
    def test_bad_argument_raises_naming_it(self, args, message):
        # at entry: a zero, negative or -inf shift grew the graded panel list
        # without end, alpha 1.5 returned 0.04, and t < 0 and alpha = 1/2
        # blamed the quadrature
        with pytest.raises(ValueError, match=re.escape(message)):
            levy_area_sign_sum(*args)


class TestLevyConst:
    def test_alpha_to_one(self):
        assert levy_const(1.0) == pytest.approx(0.25, abs=1e-12)
        assert levy_const(1 - 1e-9) == pytest.approx(0.25, abs=1e-6)

    def test_alpha_half_limit(self):
        assert levy_const(0.5) == pytest.approx(0.5, abs=1e-4)
        # no cancellation noise in the removable-singularity neighbourhood
        assert levy_const(0.5 + 1e-7) == pytest.approx(0.5, abs=1e-5)
        assert levy_const(0.5 - 1e-7) == pytest.approx(0.5, abs=1e-5)

    def test_blowup_rate_near_quarter(self):
        for a in (0.2501, 0.2505, 0.251):
            assert (4 * a - 1) * levy_const(a) == pytest.approx(0.125, rel=0.02)

    def test_finite_positive(self):
        for a in np.linspace(0.2501, 0.999, 25):
            v = levy_const(float(a))
            assert math.isfinite(v) and v > 0

    def test_domain(self):
        for bad in (0.25, 0.2, 1.2):
            with pytest.raises(DomainError):
                levy_const(bad)


class TestAreaPath:
    def test_linear_paths(self):
        grid = np.linspace(0.0, 2.0, 513)
        c = 0.7
        est = area_path(grid, grid, c * grid)
        assert est == pytest.approx(c * 2.0 ** 2 / 2, abs=1e-10)

    def test_constant_integrand_component(self):
        grid = np.linspace(0.0, 1.0, 65)
        rng = np.random.default_rng(0)
        x1 = rng.standard_normal(65)
        assert area_path(grid, x1, np.full(65, 3.7)) == 0.0

    def test_polynomial_oracle(self):
        rng = np.random.default_rng(14)
        grid = np.linspace(0.0, 1.0, 4097)
        for _ in range(5):
            p = np.polynomial.Polynomial(rng.uniform(-1, 1, 3))
            q = np.polynomial.Polynomial(rng.uniform(-1, 1, 3))
            est = area_path(grid, p(grid), q(grid))
            anti = ((q - q(0.0)) * p.deriv()).integ()
            assert est == pytest.approx(anti(1.0) - anti(0.0), abs=1e-8)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            area_path(np.arange(4.0), np.arange(4.0), np.arange(5.0))


class TestIteratedTrapezoid:
    # the one nested-trapezoid functional equals the written-out area and
    # volume bit for bit, on batches of odd and even path length, at widths
    # on both sides of its 16-column blocks, both on C-order batches and on
    # the F-order column slices of one buffer that the engine passes
    @pytest.mark.parametrize("n", [2, 3, 64, 257])
    @pytest.mark.parametrize("m", [1, 5, 16, 17, 33, 130])
    @pytest.mark.parametrize("order, oracle", [(2, areas_batch), (3, volumes_batch)])
    def test_matches_written_out_forms(self, n, m, order, oracle):
        rng = np.random.default_rng(n + order + m)
        comps = list(np.cumsum(rng.standard_normal((order, n, m)), axis=1))
        buf = np.asfortranarray(np.hstack([comps[0], *comps]))  # a leading slice unused
        slices = [buf[:, (i + 1) * m:(i + 2) * m] for i in range(order)]
        for batch in (comps, slices):
            assert _iterated_trapezoid(batch).tobytes() == oracle(batch).tobytes()

    def test_path_functions_share_the_length_check(self):
        grid, short = np.arange(5.0), np.arange(4.0)
        for call in (
            lambda: volume_path(grid, grid, grid, short),
            lambda: area_path(grid, short, grid),
        ):
            with pytest.raises(ValueError, match="equal length"):
                call()
        # an empty grid ended in an IndexError, 2-d paths in numpy's
        # concatenate message
        square = np.ones((5, 5))
        for call in (
            lambda: area_path([], [], []),
            lambda: volume_path(grid, square, square, square),
            lambda: area_path(square, grid, grid),
        ):
            with pytest.raises(ValueError, match="non-empty 1-d"):
                call()


class TestVolumePath:
    def test_linear_paths(self):
        grid = np.linspace(0.0, 1.0, 2049)
        est = volume_path(grid, grid, grid, grid)
        assert est == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_polynomial_oracle(self):
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 1.0, 4097)
        p1 = np.polynomial.Polynomial(rng.uniform(-1, 1, 3))
        p2 = np.polynomial.Polynomial(rng.uniform(-1, 1, 3))
        p3 = np.polynomial.Polynomial(rng.uniform(-1, 1, 3))
        inner = (p3 - p3(0.0)).integ() * 0  # placeholder replaced below
        # exact nested integral: mid(x) = int_0^x (p3 - p3(0)) dp2
        mid = ((p3 - p3(0.0)) * p2.deriv()).integ()
        outer = ((mid - mid(0.0)) * p1.deriv()).integ()
        est = volume_path(grid, p1(grid), p2(grid), p3(grid))
        assert est == pytest.approx(outer(1.0) - outer(0.0), abs=1e-7)


# the calls of `TestMonteCarloArea.test_second_call_keeps_no_more_heap`: a
# Monte Carlo pair at n = 1025, and an exact sample of stream 0 at a seed on
# the n-point uniform grid of [0, 1], each with its small warm-up
_MC_WARM_UP = "mc_levy_area_moments(0.4, [0.5], 1.0, 4, 16, seed=0)"
_MC_CALL = "mc_levy_area_moments(0.4, [0.1, 0.05], 1.0, 256, 1024, seed=0, n_threads=1)"
_SAMPLE_CALL = ("sample_gamma_eps_exact({}, EpsApproxSpec(0.4, 0.1, tuple(np.linspace(0.0, 1.0, {}))), "
                "ModelParams(0.4))")


class TestMonteCarloArea:
    def test_matches_analytic_small(self):
        est = mc_levy_area_moment(0.4, 0.1, 1.0, 1200, 256, seed=11)
        v = levy_area_variance(LevyAreaSpec(0.4, 1.0, 0.1, 0.1))
        assert abs(est.mean - v) <= 3 * est.stderr

    def test_deterministic_and_thread_invariant(self):
        a = mc_levy_area_moment(0.4, 0.1, 1.0, 300, 256, seed=5, n_threads=1)
        b = mc_levy_area_moment(0.4, 0.1, 1.0, 300, 256, seed=5, n_threads=4)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_clt_scaling(self):
        # quadrupling the paths quarters stderr^2 up to the (heavy-tailed)
        # fluctuation of the fourth-moment estimate itself
        small = mc_levy_area_moment(0.4, 0.1, 1.0, 500, 256, seed=3)
        big = mc_levy_area_moment(0.4, 0.1, 1.0, 2000, 256, seed=3)
        ratio = big.stderr ** 2 / small.stderr ** 2
        assert 0.125 <= ratio <= 0.5

    def test_component_swap_symmetric(self):
        # relabeling the two components changes the area path but not the
        # distribution of its square
        from cfbm.eps_approx import EpsApproxSpec, cholesky_factor

        grid = np.linspace(0.0, 1.0, 257)
        factor = cholesky_factor(EpsApproxSpec(0.4, 0.1, tuple(grid)), ModelParams(0.4))
        fwd, swp = [], []
        for r in range(800):
            z = _philox(33, r).standard_normal((257, 2))
            x1, x2 = factor @ z[:, 0], factor @ z[:, 1]
            fwd.append(area_path(grid, x1, x2) ** 2)
            swp.append(area_path(grid, x2, x1) ** 2)
        fwd, swp = np.array(fwd), np.array(swp)
        joint_se = np.sqrt(fwd.var(ddof=1) / 800 + swp.var(ddof=1) / 800)
        assert abs(fwd.mean() - swp.mean()) <= 3 * joint_se

    def test_non_integral_seed_rejected(self):
        # truncated to the key 2, seed 2.7 would alias seed 2's streams
        with pytest.raises(ValueError, match="got 2.7"):
            mc_levy_area_moment(0.4, 0.1, 1.0, 2, 64, seed=2.7)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(t=-1.0), "t must"), (dict(t=math.nan), "t must"), (dict(t=math.inf), "t must"),
        (dict(n_paths=0), "n_paths"), (dict(n_paths=1), "n_paths"), (dict(n_paths=2.0), "n_paths"),
        (dict(seed=-1), "seed"), (dict(seed=2.5), "seed"), (dict(seed=True), "seed"),
        (dict(eps_list=[math.nan]), "eps=nan"), (dict(grid_n=16.0), "grid_n"),
        (dict(eps_list=[]), "eps_list"), (dict(n_threads=0), "n_threads"),
        (dict(n_threads=-3), "n_threads"), (dict(n_threads=2.5), "n_threads"),
        (dict(n_threads=True), "n_threads"),
    ], ids=["t-negative", "t-nan", "t-inf", "n_paths-0", "n_paths-1", "n_paths-float",
            "seed-negative", "seed-float", "seed-bool", "eps-nan", "grid_n-float",
            "eps_list-empty", "n_threads-0", "n_threads-negative", "n_threads-float",
            "n_threads-bool"])
    def test_inputs_checked_before_any_covariance(self, kwargs, match, monkeypatch):
        # every input is checked up front, not after the factors are built
        # or all paths are drawn (t = -1 used to return a value)
        def no_factor(spec, params, out=None):
            raise AssertionError("a covariance was built")

        monkeypatch.setattr(eps_approx, "cholesky_factor", no_factor)
        args = dict(alpha=0.4, eps_list=[0.3], t=1.0, n_paths=10, grid_n=16, seed=0) | kwargs
        with pytest.raises(ValueError, match=match):
            mc_levy_area_moments(**args)

    def test_triangular_product_matches_dense_per_path(self, monkeypatch):
        # 300 paths span three batches (128, 128 and 44); per batch each
        # shift is one product of both components' normals, 2 m wide.  Each
        # path is rebuilt from a fresh stream through the dense factor product
        widths = _dtrmm_widths(monkeypatch)
        eps = [0.1, 0.05]
        ests = mc_levy_area_moments(0.4, eps, 1.0, 300, 256, seed=13)
        assert widths == [256, 256, 256, 256, 88, 88]
        for e, est in zip(eps, ests):
            mean = _dense_second_moment(0.4, (e, e), 256, 300, 13)
            assert est.mean == pytest.approx(mean, rel=1e-12)

    @pytest.mark.parametrize("n_threads", [1, 3])
    def test_shifts_of_one_run_match_one_shift_calls(self, n_threads):
        # the shifts of one call share each path's normals; each estimate is
        # bit for bit its own one-shift call
        eps = [0.1, 0.05, 0.025]
        ests = mc_levy_area_moments(0.4, eps, 1.0, 300, 256, seed=5, n_threads=n_threads)
        assert len(ests) == len(eps)
        for e, est in zip(eps, ests):
            one = mc_levy_area_moment(0.4, e, 1.0, 300, 256, seed=5, n_threads=n_threads)
            assert (est.mean, est.stderr, est.n_samples) == (one.mean, one.stderr, one.n_samples)

    def test_four_shifts_hold_two_factors_and_draw_twice(self, monkeypatch):
        # at most one factor beyond the one a shift needs is alive, so four
        # shifts run as two pairs, each drawing every path's normals once and
        # holding both its factors in one array
        import weakref

        cholesky, normal_block = eps_approx.cholesky_factor, eps_approx._normal_block
        made, sizes, arrays, draws = [], [], [], [0]

        def counting_cholesky(spec, params, out=None):
            if all(r() is None for r in made):  # a new pair: the last pair's factors are freed
                sizes.append(0)
                arrays.append(0)
            factor = cholesky(spec, params, out=out)
            if not any(r() is not None and np.shares_memory(r(), factor) for r in made):
                arrays[-1] += 1  # in no array of a live factor
            made.append(weakref.ref(factor))
            sizes[-1] += 1
            return factor

        def counting_normal_block(seed, p0, m, shape):
            draws[0] += m
            return normal_block(seed, p0, m, shape)

        monkeypatch.setattr(eps_approx, "cholesky_factor", counting_cholesky)
        monkeypatch.setattr(eps_approx, "_normal_block", counting_normal_block)
        mc_levy_area_moments(0.4, [0.2, 0.1, 0.05, 0.025], 1.0, 50, 256, seed=1)
        assert (sizes, arrays, draws[0]) == ([2, 2], [1, 1], 2 * 50)

    @staticmethod
    def _traced_peak(run):
        # the tracemalloc peak of run() above what was allocated before it
        import tracemalloc

        from scipy.linalg import blas, lapack  # noqa: F401  (loaded before the trace)

        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - base

    def test_pair_holds_one_array(self):
        # a pair of shifts keeps both factors in one n x (n + 1) array, and a
        # batch its paths in one buffer: at n = 1025 the traced peak of a
        # pair run (1.57 real n x n arrays; 1.90 with a copy of the normals
        # per shift, 2.89 with a factor per shift) stays within 1.7
        n = 1025
        peak = self._traced_peak(
            lambda: mc_levy_area_moments(0.4, [0.1, 0.05], 1.0, 256, n - 1, seed=0)
        )
        assert peak <= 1.7 * 8 * n * n

    def test_volume_batch_holds_one_path_buffer(self):
        # three distinct shifts hold two factor arrays, and each batch one
        # (n, 3 m) path buffer: at n = 1025 the traced peak (2.83 real n x n
        # arrays; 3.27 with a copy of the normals per shift) stays within 3.0
        n = 1025
        peak = self._traced_peak(
            lambda: mc_levy_volume_moment(0.4, 0.1, 0.05, 0.025, 1.0, 256, n - 1, seed=0)
        )
        assert peak <= 3.0 * 8 * n * n

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status") or eps_approx._malloc_trim() is None,
        reason="needs /proc/self/status and the C library's malloc_trim",
    )
    @pytest.mark.parametrize("warm_up, first, second", [
        pytest.param(_MC_WARM_UP, _MC_CALL, _MC_CALL, id="1"),
        pytest.param(_SAMPLE_CALL.format(0, 17), _SAMPLE_CALL.format(0, 1025),
                     _SAMPLE_CALL.format(1, 1025), id="sampler"),
    ])
    def test_second_call_keeps_no_more_heap(self, warm_up, first, second):
        # Freeing the 8.4 MB n = 1025 pair array raises glibc's mmap
        # threshold, so a second call's arrays land on the heap; the heap a
        # dropped factor pair leaves free is handed back, so the second call
        # ends within 1 MB of the first (12.4 MB above it without the release
        # for the Monte Carlo, 7.5 MB for the exact sampler).  A fresh
        # interpreter, so no earlier test shaped its heap
        code = (
            "import gc\n"
            "import numpy as np\n"
            "from cfbm.eps_approx import EpsApproxSpec, sample_gamma_eps_exact\n"
            "from cfbm.gamma_process import ModelParams\n"
            "from cfbm.rough_integrals import mc_levy_area_moments\n"
            "def rss_kb():\n"
            "    gc.collect()\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(s.split()[1]) for s in f if s.startswith('VmRSS:'))\n"
            f"{warm_up}\n"
            f"{first}\n"
            "first = rss_kb()\n"
            f"{second}\n"
            "print(rss_kb() - first)\n"
        )
        res = run_python(["-c", code])
        assert res.returncode == 0, res.stderr
        assert abs(int(res.stdout)) <= 1024

    @pytest.mark.parametrize("call", [
        "mc_levy_area_moments(0.4, [0.5, 0.25], 1.0, 300, 16, seed=0, n_threads=4)",
        "mc_levy_volume_moment(0.3, 0.5, 0.5, 0.5, 1.0, 300, 16, seed=0, n_threads=4)",
    ], ids=["area", "volume"])
    def test_batches_run_on_the_calling_thread(self, call):
        # n_threads changes nothing: every batch's functional runs on the
        # main thread with no other thread alive, and no thread pool module
        # is imported (scipy.linalg itself imports concurrent.futures, through
        # numpy.testing, but not its thread pool).  A fresh interpreter, so
        # no other test loaded the module
        code = (
            "import sys, threading\n"
            "import cfbm.rough_integrals as ri\n"
            "seen, trapezoid = set(), ri._iterated_trapezoid\n"
            "def spy(comps):\n"
            "    seen.add((threading.current_thread() is threading.main_thread(),\n"
            "              threading.active_count()))\n"
            "    return trapezoid(comps)\n"
            "ri._iterated_trapezoid = spy\n"
            f"ri.{call}\n"
            "print(sorted(seen), 'concurrent.futures.thread' in sys.modules,\n"
            "      threading.active_count())\n"
        )
        res = run_python(["-c", code])
        assert res.returncode == 0, res.stderr
        assert res.stdout.split("\n")[0] == "[(True, 1)] False 1"

    @pytest.mark.parametrize("batch", [64, 256])
    def test_batch_size_moves_estimates_only_by_rounding(self, batch, monkeypatch):
        # the streams are keyed by path and reduced in path order; only the
        # BLAS product's rounding of a column can depend on the batch width
        def run():
            area = mc_levy_area_moments(0.4, [0.1, 0.05], 1.0, 300, 256, seed=5)
            volume = mc_levy_volume_moment(0.3, 0.08, 0.05, 0.08, 1.0, 300, 128, seed=8)
            return [*area, volume]

        ref = run()
        monkeypatch.setattr(rough_integrals, "_MC_BATCH", batch)
        for got, want in zip(run(), ref):
            assert got.mean == pytest.approx(want.mean, rel=1e-12)
            assert got.stderr == pytest.approx(want.stderr, rel=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            mc_levy_area_moment(0.4, 0.1, 1.0, 10, 300, seed=0)  # not a power of 2
        with pytest.raises(DomainError):
            mc_levy_area_moment(0.4, 0.001, 1.0, 10, 256, seed=0)  # unresolved eps

    def test_estimate_record(self):
        with pytest.raises(ValueError):
            MCEstimate(mean=1.0, stderr=0.1, n_samples=1, seed=0)


class TestDivergenceSlope:
    def test_below_quarter_matches_power_law(self):
        # in the asymptotic window the divergence exponent is 4a - 1
        slope = divergence_slope(0.2, [3e-4, 1e-4, 3e-5, 1e-5], 1.0)
        assert slope == pytest.approx(-0.2, abs=0.05)

    def test_above_quarter_flattens(self):
        slope = divergence_slope(0.35, [3e-4, 1e-4, 3e-5, 1e-5], 1.0)
        assert abs(slope) < 0.05

    def test_order_independent(self):
        eps = [0.1, 0.05, 0.025, 0.0125]
        assert divergence_slope(0.2, eps, 1.0) == pytest.approx(
            divergence_slope(0.2, eps[::-1], 1.0), rel=1e-12
        )

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            divergence_slope(0.2, [0.1], 1.0)


class TestVolumeMoments:
    @pytest.mark.parametrize("sigma3", [0, 2, -0.5])
    def test_inner_closed_form_needs_a_kernel_sign(self, sigma3):
        with pytest.raises(ValueError, match="sigma3 must be"):
            volume_inner_closed(0.3, 0.4, sigma3, 0.05, 0.3)

    def test_inner_closed_form_against_quadrature(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x2, y2 = rng.uniform(0.05, 1.2, 2)
            sig = 1 if rng.random() < 0.5 else -1
            e3 = rng.uniform(0.01, 0.2)
            alpha = rng.uniform(0.2, 0.45)
            closed = volume_inner_closed(x2, y2, sig, e3, alpha)
            oracle = dblquad_complex(
                lambda x, y: (-1j * sig * (x - y) + 2 * e3) ** (2 * alpha - 2),
                0, x2, 0, y2,
            )
            assert abs(closed - oracle) <= 1e-8

    @pytest.mark.parametrize(
        "x2, y2, sig, e3, alpha",
        [(0.5, 0.3, 1, 1000.0, 0.3), (0.9, 0.2, -1, 1e4, 0.7), (0.3, 0.9, 1, 1e6, 0.9)],
    )
    def test_inner_closed_form_large_shift_matches_mpmath(self, x2, y2, sig, e3, alpha):
        # eps3 far above the rectangle: the four powers of size (2 eps3)^2a,
        # summed as written, cancel and lose up to 5e-3 relative, and the
        # ridge steps' linear terms, left in, lose up to 5e-11
        closed = volume_inner_closed(x2, y2, sig, e3, alpha)
        oracle = volume_inner_by_mpmath(x2, y2, sig, e3, alpha)
        assert abs(closed - oracle) <= 1e-13 * abs(oracle)

    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.9])
    def test_inner_closed_form_at_the_cli_shift_matches_mpmath(self, alpha):
        # eps3 = 0.05 on the levy-volume check's rectangles, where the ridge
        # steps take both of their branches
        rng = np.random.default_rng(0)
        for _ in range(20):
            x2, y2 = rng.uniform(0.05, 1.0, 2)
            sig = 1 if rng.random() < 0.5 else -1
            closed = volume_inner_closed(x2, y2, sig, 0.05, alpha)
            oracle = volume_inner_by_mpmath(x2, y2, sig, 0.05, alpha)
            assert abs(closed - oracle) <= 1e-14 * abs(oracle)

    def test_ridge_curvature_is_continuous_across_its_branches(self):
        # the series and the direct form agree where they meet, |u| = c/4
        for p in (0.4, 0.8, 1.4, 1.8):
            for u in (0.25, -0.25):
                series = rough_integrals._ridge_curvature(1.0, u * (1 - 1e-15), p)
                direct = rough_integrals._ridge_curvature(1.0, u * (1 + 1e-15), p)
                assert abs(series - direct) <= 1e-14 * abs(direct)

    def test_inner_vanishes_on_degenerate_rectangle(self):
        # a zero side makes two ridge steps equal and the third zero
        assert abs(volume_inner_closed(0.0, 0.7, 1, 0.05, 0.3)) < 1e-14
        assert abs(volume_inner_closed(0.7, 0.0, -1, 0.05, 0.3)) < 1e-14

    def test_w1_product_vs_sign_resolved_assembly(self):
        alpha, e1, e2, e3, t = 0.4, 0.05, 0.04, 0.03, 1.0
        a2 = 2 * alpha
        kappa = alpha * (1 - 2 * alpha) / (2 * math.cos(math.pi * alpha))
        route_a = levy_volume_w1(alpha, e1, e2, e3, t)
        ss = levy_area_sign_sum(alpha, e1, e2, t)
        route_b = kappa ** 3 * 2 * (2 * e3) ** a2 / (a2 * (a2 - 1)) * ss.real
        assert route_a == pytest.approx(route_b, rel=1e-8)
        # sign bookkeeping: negative below alpha = 1/2 (V > 0, 2a(2a-1) < 0)
        assert route_a < 0

    def test_mc_volume_reproducible_and_finite(self):
        a = mc_levy_volume_moment(0.3, 0.05, 0.05, 0.05, 1.0, 300, 512, seed=5)
        b = mc_levy_volume_moment(0.3, 0.05, 0.05, 0.05, 1.0, 300, 512, seed=5)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)
        assert math.isfinite(a.mean) and a.mean > 0

    def test_mc_volume_mixed_eps(self):
        est = mc_levy_volume_moment(0.3, 0.08, 0.05, 0.04, 1.0, 200, 512, seed=6)
        assert math.isfinite(est.mean) and est.mean > 0

    def test_mc_volume_thread_invariant(self):
        # 600 paths run as five batches
        a = mc_levy_volume_moment(0.3, 0.08, 0.05, 0.04, 1.0, 600, 128, seed=8, n_threads=1)
        b = mc_levy_volume_moment(0.3, 0.08, 0.05, 0.04, 1.0, 600, 128, seed=8, n_threads=3)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    @pytest.mark.parametrize("n_threads", [0, 1.5, True], ids=["zero", "float", "bool"])
    def test_mc_volume_checks_n_threads(self, n_threads):
        # unused, but checked as in mc_levy_area_moments
        with pytest.raises(ValueError, match="n_threads"):
            mc_levy_volume_moment(0.3, 0.5, 0.5, 0.5, 1.0, 10, 16, seed=0, n_threads=n_threads)

    # ks: components per product, one product per distinct shift in
    # first-use order; (0.08, 0.05, 0.08) shares a factor between components
    # 0 and 2 that component 1 does not use
    @pytest.mark.parametrize("shifts, ks", [
        ((0.08, 0.05, 0.04), [1, 1, 1]), ((0.08, 0.05, 0.08), [2, 1]), ((0.05, 0.05, 0.05), [3]),
    ], ids=["distinct", "outer-pair", "all-equal"])
    def test_mc_volume_triangular_product_matches_dense_per_path(self, shifts, ks, monkeypatch):
        widths = _dtrmm_widths(monkeypatch)
        est = mc_levy_volume_moment(0.3, *shifts, 1.0, 300, 128, seed=14)
        assert widths == [k * m for m in (128, 128, 44) for k in ks]
        mean = _dense_second_moment(0.3, shifts, 128, 300, 14)
        assert est.mean == pytest.approx(mean, rel=1e-12)

