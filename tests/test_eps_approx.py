import re
import tracemalloc

import numpy as np
import pytest

import cfbm.eps_approx as ea
import cfbm.specfun as specfun
from cfbm.eps_approx import (
    EpsApproxSpec,
    cholesky_factor,
    contour_kernel_integral,
    contour_kernel_pieces,
    contour_vv_piece,
    cov_eps,
    covariance_matrix,
    l2_error_law,
    sample_gamma_eps_exact,
    sup_error_experiment,
)
from cfbm.gamma_process import DomainError, ModelParams, fk_table, gaussian_draw
from cfbm.gamma_process import _REPLICATE_BLOCK as BLOCK
from cfbm.specfun import NonConvergenceError

from helpers import (
    contour_pieces_by_quadpack,
    coupled_sup_by_replicate,
    covariance_by_complex_broadcast,
    dblquad_complex,
    l2_error_by_mpmath,
    run_python,
)


class TestCovEps:
    def test_diagonal_matches_fbm_variance(self):
        for alpha in (0.3, 0.45, 0.7):
            p = ModelParams(alpha)
            for t in (0.3, 1.0, -1.4):
                assert cov_eps(t, 0.0, t, 0.0, p) == pytest.approx(
                    abs(t) ** (2 * alpha), rel=1e-13
                )

    def test_symmetry(self):
        p = ModelParams(0.35)
        rng = np.random.default_rng(8)
        for _ in range(40):
            s, t = rng.uniform(-1.5, 1.5, 2)
            e1, e2 = rng.uniform(0, 0.3, 2)
            assert cov_eps(s, e1, t, e2, p) == pytest.approx(
                cov_eps(t, e2, s, e1, p), rel=1e-12, abs=1e-14
            )
            # one closed form, whose swap is its conjugate bit for bit
            assert cov_eps(s, e1, t, e2, p) == cov_eps(t, e2, s, e1, p)

    def test_zero_limit_identity_on_grid(self):
        for alpha in (0.3, 0.35, 0.45, 0.7):
            p = ModelParams(alpha)
            a2 = 2 * alpha
            grid = np.linspace(-1.5, 1.5, 20)
            for s in grid:
                for t in grid:
                    ref = 0.5 * (abs(s) ** a2 + abs(t) ** a2 - abs(t - s) ** a2)
                    assert abs(cov_eps(s, 0.0, t, 0.0, p) - ref) <= 1e-12

    def test_negative_shift_rejected(self):
        with pytest.raises(DomainError):
            cov_eps(0.5, -0.1, 0.5, 0.0, ModelParams(0.3))

    @pytest.mark.parametrize("eps1, eps2", [(np.nan, 0.1), (0.1, np.nan), (np.inf, 0.1),
                                            (0.0, np.inf)])
    def test_non_finite_shift_rejected(self, eps1, eps2):
        # a NaN shift would pass the sign check and return nan
        with pytest.raises(DomainError, match="finite"):
            cov_eps(0.5, eps1, 0.5, eps2, ModelParams(0.3))

    @pytest.mark.parametrize("s, t", [(np.nan, 0.5), (np.inf, 0.5), (0.5, -np.inf)])
    def test_non_finite_time_rejected(self, s, t):
        # a non-finite time used to return nan with a RuntimeWarning
        with pytest.raises(DomainError, match="times must be finite"):
            cov_eps(s, 0.1, t, 0.1, ModelParams(0.3))

    def test_series_sampler_agrees(self):
        # empirical Var of the shift-regularized value from coupled series
        # draws matches the closed form within 3 standard errors
        p = ModelParams(0.4)
        col = fk_table(2000, np.array([1.0 + 0.05j]), p)[:, 0]
        vals = np.array(
            [2 * (gaussian_draw(77, 2000, p, stream=r).xi_plus @ col).real for r in range(3000)]
        )
        exact = cov_eps(1.0, 0.05, 1.0, 0.05, p)
        var = vals.var(ddof=1)
        stderr = var * np.sqrt(2 / len(vals))
        assert abs(var - exact) <= 3 * stderr


class TestEpsApproxSpec:
    @pytest.mark.parametrize("eps, grid", [(np.nan, (0.0, 1.0)), (np.inf, (0.0, 1.0)),
                                           (0.1, (0.0, np.nan)), (0.1, (np.nan, np.nan)),
                                           (0.1, (0.0, np.inf))],
                             ids=["nan-eps", "inf-eps", "nan-point", "two-nan-points",
                                  "inf-point"])
    def test_non_finite_values_rejected(self, eps, grid):
        # NaN points differ by NaN, not 0, so two of them would pass as
        # distinct, and the factor does not flag a NaN covariance
        with pytest.raises(ValueError, match="finite"):
            EpsApproxSpec(0.4, eps, grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            EpsApproxSpec(0.4, 0.1, ())

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            EpsApproxSpec(0.4, 0.1, (0.0, 0.5, 0.5))
        # -0.0 is the point 0.0
        with pytest.raises(ValueError, match="distinct"):
            EpsApproxSpec(0.4, 0.1, (0.0, -0.0))

    def test_build_leaves_numpy_ma_unloaded(self):
        # the distinctness test sorts the grid; np.unique would load numpy.ma,
        # numpy.ma.core and numpy.ma.extras.  A fresh interpreter, so no
        # other test loaded them
        code = (
            "import sys\n"
            "from cfbm.eps_approx import EpsApproxSpec\n"
            "EpsApproxSpec(0.4, 0.1, (0.5, 0.0, 1.0))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        res = run_python(["-c", code])
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["False"]


def _lower_of(cov):
    # a stand-in for the covariance build that writes cov's lower triangle,
    # diagonal included, into out and leaves the strict upper one
    def build(spec, params, out):
        np.copyto(out, cov, where=np.tri(len(cov), dtype=bool))
        return out

    return build


class TestCovarianceMatrix:
    def test_matches_scalar_and_is_psd(self):
        p = ModelParams(0.35)
        grid = np.linspace(0.0, 1.0, 40)
        spec = EpsApproxSpec(0.35, 0.1, tuple(grid))
        cov = covariance_matrix(spec, p)
        rng = np.random.default_rng(2)
        for i, j in rng.integers(0, len(grid), (40, 2)):
            assert cov[i, j] == pytest.approx(
                cov_eps(grid[i], 0.1, grid[j], 0.1, p), abs=1e-13
            )
        cholesky_factor(spec, p)  # must not raise

    def test_nonuniform_grid_path(self):
        p = ModelParams(0.35)
        grid = np.array([0.0, 0.07, 0.5, 0.52, 1.3])
        spec = EpsApproxSpec(0.35, 0.08, tuple(grid))
        cov = covariance_matrix(spec, p)
        for i in range(len(grid)):
            for j in range(len(grid)):
                assert cov[i, j] == pytest.approx(
                    cov_eps(grid[i], 0.08, grid[j], 0.08, p), abs=1e-13
                )

    def test_psd_across_alphas_and_eps(self):
        for alpha in (0.2, 0.35, 0.45, 0.7):
            p = ModelParams(alpha)
            for eps in (0.01, 0.1):
                grid = np.linspace(0.0, 2.0, 33)
                cholesky_factor(EpsApproxSpec(alpha, eps, tuple(grid)), p)

    def test_alpha_mismatch_rejected(self):
        # the spec's alpha must be the model's: the build reads only params.alpha
        grid = tuple(np.linspace(0.0, 1.0, 9))
        with pytest.raises(ValueError, match="alpha"):
            covariance_matrix(EpsApproxSpec(0.2, 0.1, grid), ModelParams(0.4))
        with pytest.raises(ValueError, match="alpha"):
            sample_gamma_eps_exact(0, EpsApproxSpec(0.2, 0.1, grid), ModelParams(0.4))

    def test_jitter_then_hard_error(self, monkeypatch):
        # the jitter factors a rank-deficient Gram matrix; an indefinite one
        # raises (both fed in as the covariance's lower triangle the factor builds)
        def factor_of(cov):
            monkeypatch.setattr(ea, "_covariance_lower", _lower_of(cov))
            return cholesky_factor(EpsApproxSpec(0.4, 0.1, (0.0, 1.0)), ModelParams(0.4))

        g = np.array([[1.0, 1.0], [1.0, 1.0]])
        factor_of(g + 1e-15 * np.eye(2))
        with pytest.raises(np.linalg.LinAlgError):
            factor_of(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite

    @pytest.mark.parametrize(
        "grid",
        [
            np.linspace(0.0, 1.0, 129),
            np.linspace(-0.4, 1.7, 64),
            np.array([0.0, 0.07, 0.5, 0.52, 1.3]),
            np.sort(np.random.default_rng(4).uniform(0.0, 2.0, 50)),
            np.array([0.4]),
            np.random.default_rng(5).permutation(np.linspace(0.0, 1.0, 65)),
            np.linspace(1.0, 0.0, 65),
            np.random.default_rng(6).uniform(0.0, 2.0, 50),
        ],
        ids=["uniform", "offset", "nonuniform", "random", "one-point", "permuted", "descending",
             "unsorted"],
    )
    def test_matches_complex_broadcast_oracle(self, grid):
        for alpha in (0.2, 0.45, 0.7, 0.9):
            p = ModelParams(alpha)
            for eps in (0.005, 0.05, 0.3):
                spec = EpsApproxSpec(alpha, eps, tuple(grid))
                ref = covariance_by_complex_broadcast(spec, p)
                cov = covariance_matrix(spec, p)
                assert np.max(np.abs(cov - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "grid",
        [
            np.linspace(0.0, 1.0, 257),
            np.linspace(-0.4, 1.7, 64),
            np.sort(np.random.default_rng(4).uniform(0.0, 2.0, 150)),
            np.array([0.4]),
            np.random.default_rng(5).permutation(np.linspace(0.0, 1.0, 65)),
            np.linspace(1.0, 0.0, 65),
            np.random.default_rng(6).uniform(0.0, 2.0, 50),
        ],
        ids=["uniform", "offset", "nonuniform", "one-point", "permuted", "descending", "unsorted"],
    )
    def test_exactly_symmetric(self, grid):
        # C_ij is built once, from v_i + v_j and a D read at |g_i - g_j|, and
        # C_ji is its copy, on any order of the grid points
        for alpha in (0.2, 0.45, 0.9):
            p = ModelParams(alpha)
            for eps in (0.005, 0.3):
                cov = covariance_matrix(EpsApproxSpec(alpha, eps, tuple(grid)), p)
                assert np.array_equal(cov, cov.T)

    def test_peak_memory_nonuniform_grid(self):
        # other grids evaluate D one column at a time, not as n x n complex
        # powers: at n = 1025 the traced peak (1.01 real n x n arrays; 6.0
        # with the complex temporaries) stays within 1.1.  A first build on a
        # small grid keeps one-time allocations out of the trace.
        n = 1025
        grid = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, n))
        spec = EpsApproxSpec(0.4, 0.05, tuple(grid))
        p = ModelParams(0.4)
        covariance_matrix(EpsApproxSpec(0.4, 0.05, (0.0, 0.1, 0.5, 0.6)), p)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            covariance_matrix(spec, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base <= 1.1 * 8 * n * n

    def test_lower_build_leaves_upper_triangle(self):
        # the build writes the lower triangle, diagonal included, with the
        # bits of covariance_matrix, and never the strict upper one
        p = ModelParams(0.4)
        for grid in (np.linspace(0.0, 1.0, 200), np.array([0.0, 0.07, 0.5, 0.52, 1.3])):
            spec = EpsApproxSpec(0.4, 0.05, tuple(grid))
            n = len(grid)
            out = np.full((n, n), np.nan, order="F")
            ea._covariance_lower(spec, p, out)
            lower = np.tri(n, dtype=bool)
            assert np.array_equal(out[lower], covariance_matrix(spec, p)[lower])
            assert np.isnan(out[~lower]).all()

    def test_factor_into_given_array(self):
        # out= takes the factor, and its strict upper triangle is kept
        p = ModelParams(0.4)
        spec = EpsApproxSpec(0.4, 0.1, tuple(np.linspace(0.0, 1.0, 130)))
        out = np.asfortranarray(np.triu(np.random.default_rng(1).normal(size=(130, 130)), 1))
        upper = out.copy()
        factor = cholesky_factor(spec, p, out=out)
        assert np.shares_memory(factor, out)
        assert np.array_equal(np.tril(factor), cholesky_factor(spec, p))
        assert np.array_equal(np.triu(factor, 1), upper)
        for bad in (np.zeros((130, 130)), np.zeros((129, 129), order="F"),
                    np.zeros((130, 130), order="F", dtype=np.float32)):
            with pytest.raises(ValueError, match="out must"):
                cholesky_factor(spec, p, out=bad)

    def test_peak_memory_uniform_grid(self):
        # the uniform build keeps no n x n temporaries beside its result: at
        # n = 1025 its traced allocation peak (1.01 real n x n arrays) stays
        # within 1.1.  A first build on a small grid keeps one-time
        # allocations out of the trace.
        n = 1025
        spec = EpsApproxSpec(0.4, 0.05, tuple(np.linspace(0.0, 1.0, n)))
        p = ModelParams(0.4)
        covariance_matrix(EpsApproxSpec(0.4, 0.05, tuple(np.linspace(0.0, 1.0, 4))), p)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            covariance_matrix(spec, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base <= 1.1 * 8 * n * n

    @pytest.mark.parametrize("n", [1, 2, 130])
    def test_mirror_lower(self, n):
        # the strict lower triangle is copied, transposed, onto the strict
        # upper one, in place, on a square array and on the F-order view
        # a[:, 1:] the Monte Carlo mirrors its first factor in; column 0 of a,
        # outside the view, is left as it was
        x = np.random.default_rng(2).normal(size=(n, n))
        want = np.tril(x) + np.tril(x, -1).T
        a = x.copy()
        assert ea._mirror_lower(a) is a
        assert np.array_equal(a, want)
        a = np.asfortranarray(np.random.default_rng(3).normal(size=(n, n + 1)))
        col0 = a[:, 0].copy()
        a[:, 1:] = x
        view = a[:, 1:]
        assert ea._mirror_lower(view) is view
        assert np.array_equal(a[:, 1:], want)
        assert np.array_equal(a[:, 0], col0)

    @staticmethod
    def _factor_with_built(write, spec, p, monkeypatch):
        # cholesky_factor(spec, p) with its covariance's lower triangle written
        # by `write`; returns the factor, the array written into and dpotrf of
        # a jittered copy of that triangle
        from scipy.linalg.lapack import dpotrf

        n = len(spec.grid)
        cov = write(spec, p, np.zeros((n, n), order="F"))
        built = []
        monkeypatch.setattr(ea, "_covariance_lower",
                            lambda spec, params, out: built.append(out) or write(spec, params, out))
        work = cov.copy()
        work.flat[:: len(cov) + 1] += 1e-12 * np.trace(cov) / len(cov)
        ref, info = dpotrf(work, lower=1, clean=1)
        assert info == 0
        return cholesky_factor(spec, p), built[0], ref

    @pytest.mark.parametrize("pd", [True, False], ids=["positive-definite", "grid-257"])
    def test_factor_is_cholesky_of_jittered_copy(self, pd, monkeypatch):
        # one code path: a positive-definite covariance gets the jitter too,
        # and the factor has the bits of dpotrf on a jittered copy
        p = ModelParams(0.4)
        mat = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        # the factor's array has the grid's size, so the matrix fed in has too
        spec = EpsApproxSpec(0.4, 0.1, tuple(np.linspace(0.0, 1.0, 3 if pd else 257)))
        write = _lower_of(mat) if pd else ea._covariance_lower
        factor, built, ref = self._factor_with_built(write, spec, p, monkeypatch)
        assert np.shares_memory(factor, built)
        assert np.array_equal(factor, ref)

    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.2])
    def test_in_place_core_matches_factor(self, eps, monkeypatch):
        # the factor is formed in place: it is the memory of the covariance
        # cholesky_factor builds, with the bits of dpotrf on a jittered copy
        p = ModelParams(0.4)
        spec = EpsApproxSpec(0.4, eps, tuple(np.linspace(0.0, 1.0, 257)))
        factor, built, ref = self._factor_with_built(ea._covariance_lower, spec, p, monkeypatch)
        assert np.shares_memory(factor, built)
        assert np.array_equal(factor, ref)

    def test_grid_covariance_factors_only_with_the_jitter(self):
        p = ModelParams(0.4)
        spec = EpsApproxSpec(0.4, 0.1, tuple(np.linspace(0.0, 1.0, 257)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(covariance_matrix(spec, p))  # rank-deficient
        cholesky_factor(spec, p)


class TestExactSampler:
    def test_value_at_time_zero(self):
        # the regularized value at t = 0 integrates from 0 to i*eps, so it is
        # a centered Gaussian whose variance is the closed form at (0, eps),
        # vanishing only in the zero-shift limit
        p = ModelParams(0.35)
        spec = EpsApproxSpec(0.35, 0.1, (0.0,))
        path = sample_gamma_eps_exact(9, spec, p)
        assert path.provenance == "cholesky"
        var = cov_eps(0.0, 0.1, 0.0, 0.1, p)
        assert var > 0
        draws = np.array(
            [sample_gamma_eps_exact(9, spec, p, stream=r).values[0] for r in range(3000)]
        )
        assert draws.var(ddof=1) == pytest.approx(var, rel=0.15)
        assert cov_eps(0.0, 0.0, 0.0, 0.0, p) == 0.0

    def test_factors_once(self, monkeypatch):
        # the sampler's factor is the public one, so a wrapper of it (the
        # tracer's, here a counter) sees every call
        calls = []
        factor = ea.cholesky_factor

        def counting_factor(spec, params, out=None):
            calls.append(spec)
            return factor(spec, params, out=out)

        monkeypatch.setattr(ea, "cholesky_factor", counting_factor)
        spec = EpsApproxSpec(0.35, 0.1, tuple(np.linspace(0.1, 1, 6)))
        sample_gamma_eps_exact(3, spec, ModelParams(0.35))
        assert calls == [spec]

    def test_deterministic(self):
        p = ModelParams(0.35)
        spec = EpsApproxSpec(0.35, 0.1, tuple(np.linspace(0.1, 1, 6)))
        a = sample_gamma_eps_exact(42, spec, p).values
        b = sample_gamma_eps_exact(42, spec, p).values
        assert np.array_equal(a, b)

    def test_mean_and_covariance_against_closed_form(self):
        p = ModelParams(0.35)
        grid = np.linspace(0.125, 1.0, 8)
        spec = EpsApproxSpec(0.35, 0.1, tuple(grid))
        cov = covariance_matrix(spec, p)
        n = 4000
        samples = np.array(
            [sample_gamma_eps_exact(99, spec, p, stream=r).values for r in range(n)]
        )
        # whitened mean: sqrt(n) L^-1 mean ~ N(0, I), so its squared norm is
        # chi-square(8); componentwise z-scores would double-count the strong
        # cross-grid correlation
        white = np.linalg.solve(cholesky_factor(spec, p), samples.mean(axis=0)) * np.sqrt(n)
        assert float(white @ white) <= 26.12  # chi2(8) 0.999 quantile
        emp = np.cov(samples.T, ddof=1)
        cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n)
        assert np.max(np.abs(emp - cov) / cov_se) <= 3

    def test_same_path_without_malloc_trim(self, monkeypatch):
        # where the C library has no malloc_trim (musl, macOS, Windows) the
        # lookup gives None, the heap is not handed back, and the path is
        # the same
        import ctypes

        p = ModelParams(0.35)
        spec = EpsApproxSpec(0.35, 0.1, tuple(np.linspace(0.1, 1, 6)))
        ea._malloc_trim.cache_clear()
        try:
            trimmed = sample_gamma_eps_exact(7, spec, p).values
            monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # no malloc_trim
            ea._malloc_trim.cache_clear()
            assert ea._malloc_trim() is None
            assert np.array_equal(sample_gamma_eps_exact(7, spec, p).values, trimmed)
        finally:
            ea._malloc_trim.cache_clear()


class TestL2ErrorLaw:
    def test_positive_and_vanishing(self):
        p = ModelParams(0.35)
        vals = [l2_error_law(1.0, e, p) for e in (0.2, 0.05, 0.01, 1e-4, 1e-8)]
        assert all(v >= 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-5

    def test_eps_must_be_positive(self):
        with pytest.raises(DomainError):
            l2_error_law(1.0, 0.0, ModelParams(0.35))

    def test_rate_exponent(self):
        p = ModelParams(0.35)
        eps = np.array([0.1, 0.05, 0.025, 0.0125])
        vals = np.array([l2_error_law(1.0, e, p) for e in eps])
        slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
        assert slope == pytest.approx(2 * p.alpha, abs=0.1)

    def test_same_at_every_t(self):
        p = ModelParams(0.35)
        for e in (0.2, 1e-4):
            vals = [l2_error_law(t, e, p) for t in (0.3, 1.0, 5.0)]
            assert vals[0] == vals[1] == vals[2]

    def test_matches_cov_eps_assembly(self):
        for alpha in (0.3, 0.7):
            p = ModelParams(alpha)
            for t in (0.3, 1.0):
                assembly = (
                    cov_eps(t, 0.05, t, 0.05, p)
                    - 2.0 * cov_eps(t, 0.05, t, 0.0, p)
                    + cov_eps(t, 0.0, t, 0.0, p)
                )
                assert l2_error_law(t, 0.05, p) == pytest.approx(assembly, rel=1e-12, abs=0.0)

    def test_matches_high_precision_assembly_at_tiny_eps(self):
        # the double-precision assembly is off by a factor 4.6 here: its
        # t-dependent powers, of size t^2a, cancel to eps^2a
        want = l2_error_by_mpmath(5.0, 1e-8, 0.9)
        assert l2_error_law(5.0, 1e-8, ModelParams(0.9)) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_ratio_bounded(self):
        # l2(t, e) / e^2a bounded above uniformly on [1e-3, 1e-1]
        for alpha in (0.3, 0.45):
            p = ModelParams(alpha)
            for t in (0.5, 1.0):
                ratios = [
                    l2_error_law(t, e, p) / e ** (2 * alpha)
                    for e in np.geomspace(1e-3, 1e-1, 12)
                ]
                assert max(ratios) <= 3.0 * min(ratios)


class TestSupErrorExperiment:
    def test_deterministic_single_replicate(self):
        p = ModelParams(0.35)
        grid = np.linspace(0, 1, 32)
        rows1, slope1 = sup_error_experiment(p, [0.1], 1, 128, 7, grid)
        rows2, slope2 = sup_error_experiment(p, [0.1], 1, 128, 7, grid)
        assert rows1 == rows2
        assert np.isnan(slope1) and np.isnan(slope2)  # single eps: no fit

    @pytest.mark.parametrize("n_mc", [0, -1, 2.0])
    def test_replicate_count_checked(self, n_mc):
        # 0 replicates returned NaN with numpy's empty-mean warnings, and -1
        # raised numpy's negative-dimensions error
        with pytest.raises(ValueError, match=f"n_mc must be an integer >= 1, got {n_mc}"):
            sup_error_experiment(ModelParams(0.35), [0.1], n_mc, 32, 0, np.linspace(0, 1, 8))

    def test_grid_refinement_non_decreasing(self):
        p = ModelParams(0.35)
        coarse = np.linspace(0, 1, 65)
        fine = np.linspace(0, 1, 129)  # contains the coarse grid
        rc, _ = sup_error_experiment(p, [0.05], 8, 256, 7, coarse)
        rf, _ = sup_error_experiment(p, [0.05], 8, 256, 7, fine)
        assert rf[0][1] >= rc[0][1]

    def test_coupled_error_decreases_with_eps(self):
        # with shared coefficient streams the expected sup error is
        # non-increasing as the shift shrinks
        p = ModelParams(0.35)
        rows, slope = sup_error_experiment(
            p, [0.1, 0.05, 0.025, 0.0125], 200, 1000, 13, np.linspace(0, 1, 128)
        )
        esup = [v for _, v in rows]
        assert all(b < a for a, b in zip(esup, esup[1:]))
        assert abs(slope) >= p.alpha - 0.1

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(DomainError):
            sup_error_experiment(ModelParams(0.35), [0.1, 0.0], 1, 32, 0, np.linspace(0, 1, 33))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_rejected_eps_is_named(self, bad):
        # NaN and inf passed the sign check, and fk_table then blamed a point
        with pytest.raises(DomainError, match=re.escape(f"eps={bad}")):
            sup_error_experiment(ModelParams(0.35), [0.1, bad], 1, 32, 0, np.linspace(0, 1, 33))

    def test_one_table_equals_the_table_of_each_shift(self, monkeypatch):
        # the one table over the grid and every shifted grid holds, column
        # block by column block, each grid's own fk_table bit for bit
        p = ModelParams(0.35)
        grid = np.linspace(0, 1, 33)
        eps_list = [0.1, 0.05, 0.025]
        tables = []

        def recording_fk_table(*args):
            # the experiment overwrites the table it is given, so record a copy
            table = fk_table(*args)
            tables.append(table.copy())
            return table

        monkeypatch.setattr(ea, "fk_table", recording_fk_table)
        sup_error_experiment(p, eps_list, 1, 96, 7, grid)
        (table,) = tables
        blocks = np.split(table, 1 + len(eps_list), axis=1)
        assert blocks[0].tobytes() == fk_table(96, grid.astype(complex), p).tobytes()
        for block, e in zip(blocks[1:], eps_list):
            assert block.tobytes() == fk_table(96, grid + 1j * e, p).tobytes()

    @pytest.mark.parametrize("n_mc", [1, BLOCK - 1, BLOCK, BLOCK + 1, 200])
    def test_matches_per_replicate_oracle(self, n_mc):
        # the replicate blocks reorder only the sums inside each product
        p = ModelParams(0.35)
        grid = np.linspace(0, 1, 33)
        eps_list = [0.1, 0.05, 0.025]
        rows, _ = sup_error_experiment(p, eps_list, n_mc, 96, 7, grid)
        table = fk_table(96, grid.astype(complex), p)
        variants = [(96, fk_table(96, grid + 1j * e, p)) for e in eps_list]
        ref = coupled_sup_by_replicate(p, table, variants, n_mc, 7)
        assert [e for e, _ in rows] == eps_list
        np.testing.assert_allclose([v for _, v in rows], ref, rtol=1e-13, atol=0)


class TestContourKernelIntegral:
    def test_vertical_vertical_closed_form(self):
        for alpha in (0.3, 0.4, 0.45):
            p = ModelParams(alpha)
            a2 = 2 * alpha
            for s in (0.2, 0.7, 1.3):
                expected = (2 ** a2 - 2) / (a2 * (a2 - 1)) * s ** a2
                assert contour_vv_piece(s, p) == pytest.approx(expected, rel=1e-12)
                pieces = contour_kernel_pieces(s, 1.0, p)
                assert pieces[(0, 0)] == pytest.approx(expected, rel=1e-10)
                assert pieces[(2, 2)] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("s", [-0.5, 0.0])
    def test_vertical_piece_rejects_nonpositive_s(self, s):
        # a negative s returned a complex number
        with pytest.raises(DomainError, match=re.escape(f"s={s}")):
            contour_vv_piece(s, ModelParams(0.3))

    def test_smooth_pieces_match_dblquad_oracle(self):
        p = ModelParams(0.3)
        a2 = 2 * p.alpha
        s, t = 0.4, 0.9
        pieces = contour_kernel_pieces(s, t, p)
        ref = dblquad_complex(
            lambda x, y: (y * y + (x + s) ** 2 + 0j) ** (a2 / 2 - 1), 0, s, 0, t
        ).real
        assert pieces[(0, 1)] == pytest.approx(ref, rel=1e-9)
        ref = dblquad_complex(
            lambda x1, x2: ((x1 - x2) ** 2 + 4 * s * s + 0j) ** (a2 / 2 - 1), 0, t, 0, t
        ).real
        assert pieces[(1, 1)] == pytest.approx(ref, rel=1e-9)
        # horizontal x vertical(t): z = x + i s, conj w = t - i(s - y)
        ref = dblquad_complex(
            lambda x, y: ((x - t) ** 2 + (2 * s - y) ** 2 + 0j) ** (a2 / 2 - 1), 0, t, 0, s
        ).real
        assert pieces[(1, 2)] == pytest.approx(ref, rel=1e-9)
        # vertical(0) x vertical(t): z = i x, conj w = t - i(s - y)
        ref = dblquad_complex(
            lambda x, y: (t * t + (x + s - y) ** 2 + 0j) ** (a2 / 2 - 1), 0, s, 0, s
        ).real
        assert pieces[(0, 2)] == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7, 0.9])
    def test_pieces_match_quadpack_oracle(self, alpha):
        # every piece, by the reflections and symmetries of the contour, at
        # shifts and widths three decades below and five times above 1
        p = ModelParams(alpha)
        for s in (1e-3, 0.1, 1.0, 5.0):
            for t in (1e-3, 0.1, 1.0, 5.0):
                pieces = contour_kernel_pieces(s, t, p)
                ref = contour_pieces_by_quadpack(s, t, alpha)
                ref[(0, 0)] = ref[(2, 2)] = contour_vv_piece(s, p)
                for key in ((1, 0), (1, 2), (2, 1)):
                    ref[key] = ref[(0, 1)]
                ref[(2, 0)] = ref[(0, 2)]
                assert sorted(pieces) == sorted(ref)
                for key, value in pieces.items():
                    assert value == pytest.approx(ref[key], rel=1e-11, abs=0), (s, t, key)

    @pytest.mark.parametrize("alpha, s, t", [(0.02, 1000.0, 1e-8), (0.3, 1e-8, 1000.0)])
    def test_extreme_ratios_match_mpmath(self, alpha, s, t):
        # s/t = 1e11 and 1e-11: the opposite verticals' ridge and the
        # horizontal pair's both sit eleven decades below the range
        import mpmath as mp

        pieces = contour_kernel_pieces(s, t, ModelParams(alpha))
        with mp.workdps(30):
            a, s_, t_ = mp.mpf(alpha), mp.mpf(s), mp.mpf(t)
            vv = mp.quad(lambda x: min(x, 2 * s_ - x) * (t_ * t_ + x * x) ** (a - 1),
                         [0] + [t_ * 2 ** j for j in range(40) if t_ * 2 ** j < s_] + [s_, 2 * s_])
            hh = mp.quad(lambda u: 2 * (t_ - u) * (u * u + 4 * s_ * s_) ** (a - 1),
                         [0] + [s_ * 2 ** j for j in range(40) if s_ * 2 ** j < t_] + [t_])
        assert pieces[(0, 2)] == pytest.approx(float(vv), rel=1e-13, abs=0)
        assert pieces[(1, 1)] == pytest.approx(float(hh), rel=1e-13, abs=0)

    def test_guard_raises_when_rules_disagree(self, monkeypatch):
        monkeypatch.setattr(specfun, "_GL_GUARD_ORDER", 2)
        with pytest.raises(NonConvergenceError, match="contour piece"):
            contour_kernel_pieces(0.4, 0.9, ModelParams(0.3))

    def test_every_piece_goes_through_the_guarded_rule(self, monkeypatch):
        seen = []

        def spy(f, edges, what):
            seen.append(what)
            return specfun._graded_quad(f, edges, what)

        monkeypatch.setattr(ea, "_graded_quad", spy)
        contour_kernel_pieces(0.4, 0.9, ModelParams(0.3))
        assert sorted(set(seen)) == [
            "contour piece (0, 1)", "contour piece (0, 1), inner rule",
            "contour piece (0, 2)", "contour piece (1, 1)",
        ]

    def test_piece_bounds(self):
        # horizontal x vertical <= t s^(2a-1); opposite verticals <=
        # t^(2a-2) s^2; horizontal x horizontal <= 2^(2a-2) t^2 s^(2a-2)
        for alpha in (0.3, 0.45):
            p = ModelParams(alpha)
            a2 = 2 * alpha
            for s, t in ((0.3, 1.0), (0.8, 0.5)):
                pieces = contour_kernel_pieces(s, t, p)
                assert pieces[(0, 1)] <= t * s ** (a2 - 1) * (1 + 1e-12)
                assert pieces[(0, 2)] <= t ** (a2 - 2) * s * s * (1 + 1e-12)
                assert pieces[(1, 1)] <= 2 ** (a2 - 2) * t * t * s ** (a2 - 2) * (1 + 1e-12)

    def test_total_bounded_by_max_expression(self):
        # fit the constant on a pilot grid, hold it on a disjoint grid
        p = ModelParams(0.3)
        a2 = 2 * p.alpha

        def max_expr(s, t):
            return max(s ** a2, t * s ** (a2 - 1), t ** (a2 - 2) * s * s, t * t * s ** (a2 - 2))

        pilot = [(s, t) for s in (0.1, 0.35, 0.7, 1.2) for t in (0.15, 0.4, 0.8, 1.3)]
        c_fit = max(contour_kernel_integral(s, t, p) / max_expr(s, t) for s, t in pilot)
        holdout = [(s, t) for s in (0.2, 0.5, 0.95) for t in (0.25, 0.6, 1.05)]
        for s, t in holdout:
            assert contour_kernel_integral(s, t, p) <= 1.3 * c_fit * max_expr(s, t)

    def test_domain(self):
        with pytest.raises(DomainError):
            contour_kernel_integral(0.0, 1.0, ModelParams(0.3))
