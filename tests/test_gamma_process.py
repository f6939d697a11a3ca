import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbm.gamma_process import _REPLICATE_BLOCK as BLOCK
from cfbm.gamma_process import _coupled_sup_experiment, _loglog_slope, _normal_block, _philox
from cfbm.gamma_process import (
    DomainError,
    ModelParams,
    F_k,
    PathSample,
    cayley,
    cov_C,
    cov_fbm,
    f_k,
    fk_table,
    gaussian_draw,
    kernel_closed,
    kernel_partial_sum,
    kernel_terms_needed,
    sample_fbm_series,
    sample_gamma_plus,
    series_truncation_experiment,
)
from cfbm.specfun import BranchCutError, PoleError, SpecFunError

from helpers import (
    coupled_sup_by_complex_products,
    coupled_sup_by_replicate,
    fk_by_quadrature,
    fk_table_by_row_recurrence,
)

ALPHAS = (0.3, 0.45, 0.7)


class TestModelParams:
    def test_half_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(0.5)

    def test_near_half_warns(self):
        with pytest.warns(UserWarning):
            ModelParams(0.5 + 5e-7)

    def test_range(self):
        for bad in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                ModelParams(bad)

    def test_kappa_positive(self):
        for alpha in (0.05, 0.3, 0.49, 0.51, 0.7, 0.95):
            assert ModelParams(alpha).kappa > 0


class TestCayley:
    def test_anchors(self):
        assert cayley(0) == -1
        assert cayley(1j) == 0

    def test_poles(self):
        with pytest.raises(PoleError):
            cayley(-1j)

    def test_unimodular_on_reals(self):
        assert abs(cayley(3.7)) == pytest.approx(1.0, abs=1e-15)

    @given(re=st.floats(-5, 5), im=st.floats(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_maps_closed_uhp_to_disk(self, re, im):
        assert abs(cayley(complex(re, im))) <= 1 + 1e-12


class TestBasisFunctions:
    def test_value_at_i(self):
        for alpha in ALPHAS:
            p = ModelParams(alpha)
            assert f_k(0, 1j, p) == pytest.approx(2 ** (alpha - 1) * math.sqrt(p.kappa))
            for k in (1, 2, 9):
                assert f_k(k, 1j, p) == 0

    def test_domain(self):
        with pytest.raises(BranchCutError):
            f_k(3, 0.2 - 1.5j, ModelParams(0.3))

    def test_geometric_decay_rate(self):
        # after dividing out the Pochhammer prefactor, |f_k| decays exactly
        # like |cayley(z)| per step
        p = ModelParams(0.35)
        z = 0.5 + 0.3j
        r = abs(cayley(z))
        from cfbm.gamma_process import _sqrt_poch_ratio

        vals = {k: abs(f_k(k, z, p)) / _sqrt_poch_ratio(0.35, [k])[0] for k in (10, 20, 40)}
        assert vals[20] / vals[10] == pytest.approx(r ** 10, rel=0.05)
        assert vals[40] / vals[20] == pytest.approx(r ** 20, rel=0.05)

    @pytest.mark.parametrize("alpha", [0.2, 0.35, 0.7, 0.99])
    def test_pochhammer_ratio_matches_mpmath(self, alpha):
        # sqrt((2-2a)_k / k!) to 1e-12 relative out to k = 20000, where the
        # running product has taken 20000 rounded steps
        import mpmath

        from cfbm.gamma_process import _sqrt_poch_ratio

        ks = [0, 1, 10, 100, 1000, 5000, 10000, 20000]
        got = _sqrt_poch_ratio(alpha, ks)
        with mpmath.workdps(40):
            x = 2 - 2 * mpmath.mpf(alpha)
            ref = [float(mpmath.sqrt(mpmath.rf(x, k) / mpmath.factorial(k))) for k in ks]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


class TestKernelIdentity:
    def test_single_term_at_i(self):
        # the Cayley image of i is 0, so only k = 0 contributes
        for alpha in ALPHAS:
            p = ModelParams(alpha)
            err = abs(kernel_partial_sum(1j, 1j, 1, p) - kernel_closed(1j, 1j, p))
            assert err < 1e-15

    def test_closed_real_positive_on_diagonal(self):
        p = ModelParams(0.3)
        for z in (0.4 + 0.2j, -1.0 + 1.5j, 2.0 + 0.01j):
            val = kernel_closed(z, z, p)
            assert abs(val.imag) < 1e-14 * abs(val)
            assert val.real > 0

    def test_domain(self):
        p = ModelParams(0.3)
        with pytest.raises(DomainError):
            kernel_closed(0.4, 0.2 + 0.1j, p)
        with pytest.raises(DomainError):
            kernel_partial_sum(0.2 + 0.1j, 0.4 - 0.1j, 10, p)
        for z in (complex(math.nan, 0.5), complex(0.2, math.inf)):
            with pytest.raises(DomainError, match="finite"):
                kernel_closed(z, 0.2 + 0.1j, p)
            with pytest.raises(DomainError, match="finite"):
                kernel_partial_sum(0.2 + 0.1j, z, 10, p)

    def test_partial_sum_needs_a_term(self):
        with pytest.raises(ValueError, match="N must be >= 1, got 0"):
            kernel_partial_sum(0.2 + 0.1j, 0.4 + 0.1j, 0, ModelParams(0.3))

    def test_convergence_rate_matches_cayley_ratio(self):
        # error shrinks by |cayley(z) cayley(w)| per extra term, times the
        # slowly varying (N2/N1)^(1-2a) Pochhammer factor
        p = ModelParams(0.3)
        z, w = 0.35 + 0.06j, 1.4 + 0.05j
        r = abs(cayley(z) * cayley(w))
        poly = 2.0 ** (1 - 2 * p.alpha)
        closed = kernel_closed(z, w, p)
        errs = {n: abs(kernel_partial_sum(z, w, n, p) - closed) for n in (50, 100, 200)}
        assert errs[100] / errs[50] == pytest.approx(poly * r ** 50, rel=0.25)
        assert errs[200] / errs[100] == pytest.approx(poly * r ** 100, rel=0.25)

    def test_monotone_decrease_until_tolerance(self):
        p = ModelParams(0.45)
        z, w = 0.7 + 0.2j, -0.4 + 0.35j
        closed = kernel_closed(z, w, p)
        errs = [abs(kernel_partial_sum(z, w, n, p) - closed) for n in (8, 16, 32, 64)]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-8

    def test_adaptive_term_count(self):
        p = ModelParams(0.35)
        for z, w in ((0.2 + 0.4j, 1.1 + 0.6j), (2.5 + 0.03j, -2.0 + 0.04j)):
            n = kernel_terms_needed(z, w, p)
            err = abs(kernel_partial_sum(z, w, n, p) - kernel_closed(z, w, p))
            assert err < 1e-9


class TestIntegratedBasis:
    def test_zero_at_origin(self):
        # at alpha 0.25 and 0.9, 2^(1-2a) computed as a power and through
        # exp/log differ in the last bit on common libm builds, so exact
        # zeros there need the recurrence's origin rule
        for alpha in (0.3, 0.25, 0.9):
            p = ModelParams(alpha)
            assert F_k(0, 0.0, p) == 0
            assert F_k(17, 0.0, p) == 0
            assert np.all(fk_table(40, np.array([-0.5, 0.0, 0.5]), p)[:, 1] == 0)

    @pytest.mark.parametrize("fn", [f_k, F_k])
    @pytest.mark.parametrize("k", [-1, 2.7, 3.0])
    def test_rejects_bad_index(self, fn, k):
        # a negative k used to fail with an IndexError, and F_k(2.7) gave F_2
        with pytest.raises(ValueError, match="k must be a non-negative integer"):
            fn(k, 0.5, ModelParams(0.3))

    def test_domain(self):
        # F_k is fk_table's last row, so fk_table's guard names the point
        with pytest.raises(BranchCutError, match=r"z=\(0.2-1.5j\)"):
            F_k(3, 0.2 - 1.5j, ModelParams(0.3))
        with pytest.raises(BranchCutError, match=r"z=\(0.5-2j\)"):
            fk_table(4, [0.5, 0.5 - 2j, -3j], ModelParams(0.3))

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            fk_table(4, [], ModelParams(0.3))

    def test_single_value_is_the_table_row(self):
        p = ModelParams(0.35)
        for k, z in ((0, 0.7), (5, -0.4 + 0.2j), (31, 2.5), (32, 0.1 + 3j), (400, 0.3 - 0.2j)):
            assert F_k(k, z, p) == fk_table(k + 1, [z], p)[-1, 0]

    @pytest.mark.parametrize("z", [
        complex(math.nan, 0.0), complex(0.5, math.nan), complex(math.inf, 0.0),
        complex(-math.inf, 0.3), complex(0.0, math.inf),
    ], ids=["nan", "nan-imag", "inf", "minus-inf", "inf-imag"])
    @pytest.mark.parametrize("call", [
        lambda z, p: fk_table(3, [0.5, z], p),
        lambda z, p: F_k(3, z, p),
        lambda z, p: f_k(3, z, p),
    ], ids=["fk_table", "F_k", "f_k"])
    def test_non_finite_point_raises_naming_it(self, call, z):
        # before the Cayley transform: fk_table and F_k returned NaN with a
        # numpy warning, and f_k blamed an overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"finite.*z={re.escape(str(z))}"):
                call(z, ModelParams(0.35))

    def test_table_rejects_a_cayley_variable_rounded_to_one(self):
        # far up the imaginary axis (z - i)/(z + i) rounds to 1, where the
        # recurrence's power of 1 - cayley(z) is undefined
        with pytest.raises(DomainError, match="cayley"):
            fk_table(3, [0.5, 1e300j], ModelParams(0.7))

    def test_past_the_double_range_raises_naming_z(self):
        # below the real axis |cayley(z)| > 1, so F_k and f_k grow with k;
        # at z = -0.9i, |cayley(z)| = 19 and they pass the double range from
        # k = 241 and k = 240 on: an error, never a NaN, inf or warning
        p = ModelParams(0.35)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpecFunError, match=r"^F_241 at z=\(-0-0.9j\) overflows double"):
                F_k(400, -0.9j, p)
            with pytest.raises(SpecFunError, match=r"^F_241 at z=\(-0-0.9j\) overflows double"):
                fk_table(300, [0.5 + 0.1j, -0.9j, 0.3 - 0.5j], p)
            for k in (240, 500):  # an inf product, and an OverflowError of zeta ** k
                with pytest.raises(SpecFunError, match=rf"^f_{k} at z=\(-0-0.9j\) overflows double"):
                    f_k(k, -0.9j, p)

    def test_a_finite_table_below_the_axis_is_returned_without_warnings(self):
        # one row short of the range; each column as when computed alone, up
        # to the last bits that vectorised and scalar products may round apart
        p = ModelParams(0.35)
        pts = [0.5 + 0.1j, -0.9j, 0.3 - 0.5j]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = fk_table(241, pts, p)
            for j, z in enumerate(pts):
                np.testing.assert_allclose(table[:, j], fk_table(241, [z], p)[:, 0], rtol=1e-14)
            assert np.all(np.isfinite(table)) and np.isfinite(f_k(239, -0.9j, p))

    @pytest.mark.parametrize("n_terms", [0, -3])
    def test_table_rejects_no_terms(self, n_terms):
        with pytest.raises(ValueError, match=f"n_terms must be >= 1, got {n_terms}"):
            fk_table(n_terms, np.array([0.5]), ModelParams(0.3))

    @pytest.mark.parametrize("alpha", [0.05, 0.35, 0.7, 0.99])
    def test_matches_row_recurrence_oracle(self, alpha):
        # the blocked running sum against the row-by-row recurrence, across
        # block edges (31, 32, 33) and out to N = 20000; the worst difference
        # seen was 3.4e-14, at alpha 0.99 and N = 20000 (2.6e-15 at N <= 101)
        p = ModelParams(alpha)
        pts = np.array([-0.5, 0.0, 0.3, 2.5, 0.5 + 0.05j])
        worst = 0.0
        for n_terms in (1, 2, 31, 32, 33, 101, 20000):
            table = fk_table(n_terms, pts, p)
            assert table.shape == (n_terms, len(pts))
            worst = max(worst, np.max(np.abs(table - fk_table_by_row_recurrence(n_terms, pts, p))))
        assert worst < 1e-13, f"worst |difference| {worst:.3g}"

    def test_matches_quadrature_oracle(self):
        # includes a point right at the zero of cayley (z = i) and a long
        # real segment, where the oracle's integrand oscillates fastest
        ks = (0, 1, 7, 64, 500, 2000)
        for alpha in ALPHAS:
            p = ModelParams(alpha)
            for z in (1.0, 0.5 + 0.3j, 2.5, 1.5j, 1e-9 + 1j, 8.0):
                ref = fk_by_quadrature(ks, z, p, panels=512)
                for k, want in zip(ks, ref):
                    assert abs(F_k(k, z, p) - want) < 1e-10

    def test_large_n_stable_above_half(self):
        # for alpha > 1/2 the recurrence's homogeneous solution grows like
        # k^(2a-1); the forward error must stay at rounding level out to
        # N = 20000
        ks = [0, 1000, 10000, 19999]
        pts = np.array([1.0, 0.5 + 0.05j, 2.5])
        for alpha in (0.7, 0.99):
            p = ModelParams(alpha)
            table = fk_table(20000, pts, p)
            for j, z in enumerate(pts):
                ref = fk_by_quadrature(ks, z, p, panels=2048)
                assert np.max(np.abs(table[ks, j] - ref)) < 1e-12

    def test_table_matches_single_evaluations(self):
        p = ModelParams(0.35)
        grid = np.linspace(0.0, 1.0, 9)
        table = fk_table(800, grid.astype(complex), p)
        for j, t in enumerate(grid):
            for k in (0, 3, 77, 600, 799):
                assert abs(table[k, j] - F_k(k, t, p)) < 1e-12

    def test_decay_bound_no_growth_trend(self):
        # (1+k)^(1/2+a) |F_k(1)| stays bounded: its running max must not grow
        p = ModelParams(0.35)
        table = fk_table(2001, np.array([1.0 + 0j]), p)
        scaled = (1 + np.arange(2001)) ** (0.5 + p.alpha) * np.abs(table[:, 0])
        assert scaled[1200:].max() <= 1.1 * scaled[10:400].max()
        ks = np.arange(100, 2001)
        slope = np.polyfit(np.log(ks), np.log(scaled[100:] + 1e-300), 1)[0]
        assert slope <= 0.05

    def test_quadratic_sum_recovers_variance(self):
        # sum_k |F_k(1)|^2 -> |1|^2a / 2, the diagonal of the covariance
        p = ModelParams(0.35)
        table = fk_table(4000, np.array([1.0 + 0j]), p)
        total = float(np.sum(np.abs(table[:, 0]) ** 2))
        assert total == pytest.approx(0.5, abs=2e-3)


class TestCovariance:
    def test_zero_time(self):
        p = ModelParams(0.3)
        assert cov_C(0.0, 1.3, p) == 0
        assert cov_C(0.7, 0.0, p) == 0

    def test_diagonal(self):
        for alpha in ALPHAS:
            p = ModelParams(alpha)
            for t in (0.4, 1.0, -1.7):
                assert cov_C(t, t, p).real == pytest.approx(
                    0.5 * abs(t) ** (2 * alpha), rel=1e-13
                )

    def test_series_converges_at_tail_rate(self):
        # partial sums approach the closed form at the intrinsic N^(-2a)
        # tail rate (the stated example tolerance 1e-4 at N = 2000 is not
        # reachable: the non-oscillating tail is Theta(N^(-2a)), see ledger),
        # at real times and at points above the real axis alike
        p = ModelParams(0.3)
        for s, t in ((0.5, 1.2), (0.4 + 0.5j, 1.1 + 0.3j)):
            closed = cov_C(s, t, p)
            table = fk_table(16000, np.array([s + 0j, t + 0j]), p)
            partial = np.cumsum(table[:, 0] * np.conj(table[:, 1]))
            errs = {n: abs(partial[n - 1] - closed) for n in (2000, 4000, 16000)}
            assert errs[2000] < 2e-3
            assert errs[16000] < errs[4000] < errs[2000]
            rate = (errs[16000] / errs[2000]) / (2000 / 16000) ** (2 * p.alpha)
            assert 0.5 < rate < 2.0

    def test_hermitian_bit_for_bit(self):
        # swapping the points conjugates each power and exchanges the two
        # one-point powers, which the closed form adds before subtracting
        rng = np.random.default_rng(31)
        for alpha in (0.05, 0.3, 0.45, 0.55, 0.7, 0.95):
            p = ModelParams(alpha)
            for _ in range(300):
                z, w = (complex(rng.uniform(-3.0, 3.0), rng.choice((0.0, rng.uniform(0.0, 2.0))))
                        for _ in range(2))
                assert cov_C(z, w, p) == cov_C(w, z, p).conjugate(), (alpha, z, w)

    @pytest.mark.parametrize("s, t", [(0.5 - 1e-12j, 1.0), (0.5, 1.0 - 0.3j)])
    def test_lower_half_plane_rejected(self, s, t):
        # below the real axis the bases reach the cut; the error names the point
        with pytest.raises(DomainError, match=re.escape(f"s={s}, t={t}")):
            cov_C(s, t, ModelParams(0.3))

    @given(
        s=st.floats(-1.5, 1.5),
        t=st.floats(-1.5, 1.5),
        alpha=st.sampled_from(ALPHAS),
    )
    @settings(max_examples=80, deadline=None)
    def test_fbm_covariance_recovery(self, s, t, alpha):
        # 4 Re cov_C = |s|^2a + |t|^2a - |t-s|^2a exactly
        p = ModelParams(alpha)
        a2 = 2 * alpha
        lhs = 4 * cov_C(s, t, p).real
        rhs = abs(s) ** a2 + abs(t) ** a2 - abs(t - s) ** a2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        assert cov_fbm(s, t, p) == pytest.approx(0.5 * rhs, abs=1e-12)

    @given(
        s=st.floats(-1.2, 1.2),
        t=st.floats(-1.2, 1.2),
        lam=st.floats(0.1, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_self_similarity(self, s, t, lam):
        p = ModelParams(0.35)
        lhs = cov_C(lam * s, lam * t, p)
        rhs = lam ** (2 * p.alpha) * cov_C(s, t, p)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    # Multiples of 2^-20 make x + shift exact; with arbitrary floats a tiny x
    # is absorbed by the shift (1e-17 + 1.0 == 1.0) and |x|^0.6 turns that
    # input rounding into ~5e-11 of covariance, over the bound.
    @given(
        ts=st.tuples(*[st.integers(-2**20, 2**20).map(lambda k: k / 2**20)] * 4),
        shift=st.integers(-2**21, 2**21).map(lambda k: k / 2**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_stationary_increments(self, ts, shift):
        p = ModelParams(0.3)
        t, s, u, v = ts

        def incr_cov(a, b, c, d):
            return cov_fbm(b, d, p) - cov_fbm(b, c, p) - cov_fbm(a, d, p) + cov_fbm(a, c, p)

        base = incr_cov(s, t, v, u)
        moved = incr_cov(s + shift, t + shift, v + shift, u + shift)
        assert abs(base - moved) <= 1e-11 * max(1.0, abs(base))


class TestDraws:
    def test_deterministic_and_prefix_stable(self):
        p = ModelParams(0.35)
        d1 = gaussian_draw(123, 400, p)
        d2 = gaussian_draw(123, 400, p)
        d3 = gaussian_draw(123, 700, p)
        assert np.array_equal(d1.xi_plus, d2.xi_plus)
        assert np.array_equal(d1.xi_plus, d3.xi_plus[:400])

    def test_streams_differ(self):
        p = ModelParams(0.35)
        d0 = gaussian_draw(123, 64, p, stream=0)
        d1 = gaussian_draw(123, 64, p, stream=1)
        assert not np.allclose(d0.xi_plus, d1.xi_plus)

    def test_component_variance(self):
        p = ModelParams(0.3)
        d = gaussian_draw(7, 60_000, p)
        assert np.mean(np.abs(d.xi_plus) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_validation(self):
        p = ModelParams(0.3)
        with pytest.raises(ValueError):
            gaussian_draw(5, 0, p)
        with pytest.raises(ValueError):
            gaussian_draw(-3, 10, p)

    @pytest.mark.parametrize("seed, stream", [(1.5, 0), (np.float64(2.0), 0), (3, 2.7),
                                              (2**64, 0), (0, -1), ("1", 0), (True, 0),
                                              (0, False)])
    def test_key_must_be_an_integer_in_range(self, seed, stream):
        # a non-integral key would alias an integral one (1.5 truncates to
        # seed 1, True is the int 1), and 2**64 overflows the uint64 key
        with pytest.raises(ValueError, match="seed and stream must be integers"):
            _philox(seed, stream)
        with pytest.raises(ValueError, match="seed and stream must be integers"):
            gaussian_draw(seed, 4, ModelParams(0.3), stream=stream)

    def test_numpy_integer_key_is_its_value(self):
        a = _philox(np.uint64(2**64 - 1), np.int32(3)).standard_normal(4)
        assert a.tobytes() == _philox(2**64 - 1, 3).standard_normal(4).tobytes()

    @pytest.mark.parametrize("sigma", [0.5])
    def test_coefficients_are_scaled_interleaved_pairs(self, sigma):
        # the complex view of the raw stream, scaled to the component
        # variance sigma, equals the two-halves expression bit for bit (they
        # could differ only at a normal of exactly +-0)
        p = ModelParams(0.35)
        for seed in range(5):
            for n in (1, 7, 2048):
                raw = np.random.Generator(
                    np.random.Philox(key=np.array([seed, 2], dtype=np.uint64))
                ).standard_normal(2 * n)
                expected = math.sqrt(sigma) * (raw[0::2] + 1j * raw[1::2])
                got = gaussian_draw(seed, n, p, stream=2).xi_plus
                assert got.dtype == np.complex128 and got.shape == (n,)
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(17, 3), (5,), (1,)])
    def test_normal_block_matches_fresh_streams(self, shape):
        # one generator reset from stream to stream, each entered after an
        # odd number of normals left the previous stream's buffer part-used,
        # draws exactly what a freshly keyed Philox draws
        for p0 in (0, 5, 2**40):
            got = _normal_block(9, p0, 3, shape)
            assert got.shape == (3, *shape) and got.dtype == np.float64
            for j, block in enumerate(got):
                fresh = np.random.Generator(
                    np.random.Philox(key=np.array([9, p0 + j], dtype=np.uint64))
                )
                assert block.tobytes() == fresh.standard_normal(shape).tobytes()

    @pytest.mark.parametrize("n_replicates", [1, BLOCK, 2 * BLOCK + 5])
    def test_coefficient_blocks_match_gaussian_draw(self, n_replicates):
        # the experiments' blocks of scaled normals, including one after a
        # block boundary and a partial last block, hold each stream's
        # gaussian_draw coefficients bit for bit
        p = ModelParams(0.35)
        for start in range(0, n_replicates, BLOCK):
            m = min(BLOCK, n_replicates - start)
            pairs = _normal_block(11, 3 + start, m, (2 * 96,))
            pairs *= math.sqrt(0.5)
            for i, row in enumerate(pairs.view(complex)):
                want = gaussian_draw(11, 96, p, stream=3 + start + i).xi_plus
                assert row.tobytes() == want.tobytes()


class TestSamplers:
    def test_zero_at_origin_and_determinism(self):
        p = ModelParams(0.4)
        grid = np.linspace(0.0, 1.0, 33)
        d = gaussian_draw(11, 128, p)
        path1 = sample_fbm_series(d, grid, p)
        path2 = sample_fbm_series(d, grid, p)
        assert path1.values[0] == 0.0
        assert np.array_equal(path1.values, path2.values)
        assert path1.provenance == "series"

    def test_unsorted_grid_rejected(self):
        p = ModelParams(0.4)
        with pytest.raises(ValueError, match="sorted"):
            sample_fbm_series(gaussian_draw(11, 16, p), [0.0, 0.5, 0.25], p)

    def test_path_sample_lengths_checked(self):
        with pytest.raises(ValueError, match="equal length"):
            PathSample(grid=np.arange(3.0), values=np.arange(2.0), n_terms=0, provenance="series")

    def test_zero_vertex_exact_even_after_detour(self):
        p = ModelParams(0.4)
        d = gaussian_draw(11, 64, p)
        path = sample_fbm_series(d, np.array([-0.5, 0.0, 0.5]), p)
        assert path.values[1] == 0.0

    def test_boundary_consistency(self):
        p = ModelParams(0.4)
        grid = np.linspace(0.0, 1.0, 17)
        d = gaussian_draw(3, 96, p)
        plus = sample_gamma_plus(d, grid.astype(complex), p)
        series = sample_fbm_series(d, grid, p)
        assert np.array_equal(2 * plus.values.real, series.values)

    def test_gamma_plus_at_origin(self):
        p = ModelParams(0.4)
        d = gaussian_draw(3, 32, p)
        assert sample_gamma_plus(d, np.array([0j]), p).values[0] == 0

    def test_lower_half_plane_rejected(self):
        p = ModelParams(0.4)
        d = gaussian_draw(3, 32, p)
        with pytest.raises(DomainError):
            sample_gamma_plus(d, np.array([0.3 - 0.2j]), p)

    def test_path_order_independence(self):
        # path independence of the integral: permuting the points only
        # permutes the values
        p = ModelParams(0.35)
        d = gaussian_draw(9, 128, p)
        pts = np.array([0.3 + 0.1j, 0.9 + 0.4j, 0.1 + 0.25j])
        v1 = sample_gamma_plus(d, pts, p).values
        v2 = sample_gamma_plus(d, pts[::-1], p).values
        assert np.allclose(v1, v2[::-1], rtol=1e-10, atol=1e-12)

    def test_two_sided_sampling_covariance(self):
        # negative times use the same recurrence as positive ones; the empirical
        # covariance must match the closed form on both sides of 0
        p = ModelParams(0.4)
        grid = np.array([-0.8, -0.3, 0.0, 0.5, 1.0])
        table = fk_table(1200, grid.astype(complex), p)
        draws = np.array(
            [
                2 * (gaussian_draw(55, 1200, p, stream=r).xi_plus @ table).real
                for r in range(4000)
            ]
        )
        emp = np.cov(draws.T, ddof=1)
        # exact covariance of the truncated series (no tail-bias allowance)
        trunc = 2.0 * np.real(table.conj().T @ table)
        for i, s in enumerate(grid):
            for j, t in enumerate(grid):
                se = np.sqrt((trunc[i, i] * trunc[j, j] + trunc[i, j] ** 2) / 4000)
                assert abs(emp[i, j] - trunc[i, j]) <= 3 * se
                # and the truncated covariance itself sits near the closed form
                assert abs(trunc[i, j] - cov_fbm(s, t, p)) <= 0.01

    def test_holder_bound_from_exact_covariance(self):
        # E|Re G(z) - Re G(w)|^2 <= C |z-w|^2a with C fitted once, then held
        from cfbm.eps_approx import cov_eps

        p = ModelParams(0.35)
        a2 = 2 * p.alpha
        rng = np.random.default_rng(21)

        def second_moment(z, w):
            return 0.25 * (
                cov_eps(z.real, z.imag, z.real, z.imag, p)
                - 2 * cov_eps(z.real, z.imag, w.real, w.imag, p)
                + cov_eps(w.real, w.imag, w.real, w.imag, p)
            )

        def draw_pairs(n):
            zs = rng.uniform(-1, 1, n) + 1j * rng.uniform(0, 1, n)
            ws = rng.uniform(-1, 1, n) + 1j * rng.uniform(0, 1, n)
            return zs, ws

        zs, ws = draw_pairs(200)
        c_fit = max(second_moment(z, w) / abs(z - w) ** a2 for z, w in zip(zs, ws))
        zs, ws = draw_pairs(400)
        for z, w in zip(zs, ws):
            assert second_moment(z, w) <= 1.05 * c_fit * abs(z - w) ** a2

    def test_truncation_tail_bound(self):
        # 2 sum_(k>=N) |F_k(t) - F_k(s)|^2 <= min(|t-s|^2a, C N^(-2a))
        p = ModelParams(0.35)
        a2 = 2 * p.alpha
        pts = np.array([0.3 + 0j, 0.8 + 0j, 1.0 + 0j])
        table = fk_table(8192, pts, p)

        def tail(n, i, j):
            d = table[n:, i] - table[n:, j]
            return 2 * float(np.sum(np.abs(d) ** 2))

        c_fit = tail(256, 0, 1) * 256 ** a2
        for n in (512, 1024, 2048):
            for (i, j) in ((0, 1), (1, 2), (0, 2)):
                t_ij = abs(pts[i] - pts[j]) ** a2
                assert tail(n, i, j) <= min(1.02 * t_ij, 1.2 * c_fit * n ** (-a2))


class TestTruncationExperiment:
    def test_deterministic(self):
        p = ModelParams(0.35)
        grid = np.linspace(0, 1, 64)
        r1 = series_truncation_experiment(p, [16, 32], 256, 3, grid, seed=5)
        r2 = series_truncation_experiment(p, [16, 32], 256, 3, grid, seed=5)
        assert r1 == r2

    def test_requires_headroom(self):
        p = ModelParams(0.35)
        with pytest.raises(ValueError):
            series_truncation_experiment(p, [128], 128, 2, np.linspace(0, 1, 8), seed=0)

    @pytest.mark.parametrize("n_mc", [0, -1, 2.0])
    def test_replicate_count_checked(self, n_mc):
        # 0 replicates returned NaN with numpy's empty-mean warnings, and -1
        # raised numpy's negative-dimensions error
        p = ModelParams(0.35)
        with pytest.raises(ValueError, match=f"n_mc must be an integer >= 1, got {n_mc}"):
            series_truncation_experiment(p, [8], 32, n_mc, np.linspace(0, 1, 8), seed=0)

    def test_rejects_empty_level(self):
        # N = 0 used to reach the slope fit and fail there on log(0)
        p = ModelParams(0.35)
        with pytest.raises(ValueError, match="every N must be >= 1, got 0"):
            series_truncation_experiment(p, [0, 16], 128, 2, np.linspace(0, 1, 8), seed=0)

    @pytest.mark.parametrize("ys", [[0.5, 0.0], [0.5, -0.0], [0.5, -1.0], [math.inf, 0.5],
                                    [math.nan, 0.5]])
    def test_slope_of_an_undefined_log_is_nan_without_warnings(self, ys):
        # a zero error or an underflowed moment used to reach np.log with a
        # RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(_loglog_slope([1.0, 2.0], ys))
            assert math.isnan(_loglog_slope([2.0, 2.0], [0.5, 2.0]))  # no two distinct xs
        assert _loglog_slope([1.0, 2.0], [0.5, 2.0]) == pytest.approx(2.0, rel=1e-14)

    def test_real_products_match_complex_products(self):
        # two column blocks, a partial last block of replicates (45 = 32 + 13)
        # and of table rows (100), and cuts that are not multiples of 32
        p = ModelParams(0.35)
        grid = np.linspace(0, 1, 33)
        pts = np.concatenate([grid, grid + 0.05j])
        table = fk_table(100, pts, p).reshape(100, 2, len(grid))
        variants = [(5, 0), (33, 1), (70, 0), (70, 1), (100, 1)]
        labels = [1.0, 2.0, 3.0, 4.0, 5.0]
        ref_rows, ref_slope = coupled_sup_by_complex_products(labels, table, variants, 45, 3)
        rows, slope = _coupled_sup_experiment(labels, table.copy(), variants, 45, 3)
        assert [x for x, _ in rows] == labels
        np.testing.assert_allclose(
            [e for _, e in rows], [e for _, e in ref_rows], rtol=1e-13, atol=0
        )
        assert slope == pytest.approx(ref_slope, rel=1e-12)

    @pytest.mark.parametrize("n_mc", [1, BLOCK - 1, BLOCK, BLOCK + 1, 200])
    def test_matches_per_replicate_oracle(self, n_mc):
        # the replicate blocks reorder only the sums inside each product
        p = ModelParams(0.35)
        grid = np.linspace(0, 1, 33)
        n_list = [16, 32, 64]
        rows, _ = series_truncation_experiment(p, n_list, 128, n_mc, grid, seed=5)
        table = fk_table(128, grid.astype(complex), p)
        ref = coupled_sup_by_replicate(p, table, [(n, table) for n in n_list], n_mc, 5)
        assert [n for n, _ in rows] == n_list
        np.testing.assert_allclose([e for _, e in rows], ref, rtol=1e-13, atol=0)
