"""The eps-regularized process: exact covariances, their Cholesky factors,
the exact grid paths that the sampler and the Monte Carlo both draw, and the
uniform-approximation experiments.

Gamma(eps)_t is the boundary process evaluated after shifting time by
i*eps into the upper half-plane.  Its covariance with any other shifted value
is an explicit four-term power expression, so grids admit exact Gaussian
sampling (the oracle for the series sampler) and exact L2 error laws.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .gamma_process import (
    DomainError,
    PathSample,
    _coupled_sup_experiment,
    _normal_block,
    cov_C,
    fk_table,
)
from .specfun import _graded_edges, _graded_quad, _pow

__all__ = [
    "EpsApproxSpec",
    "cov_eps",
    "covariance_matrix",
    "cholesky_factor",
    "sample_gamma_eps_exact",
    "l2_error_law",
    "sup_error_experiment",
    "contour_vv_piece",
    "contour_kernel_pieces",
    "contour_kernel_integral",
]


@dataclass(frozen=True)
class EpsApproxSpec:
    """Imaginary shift and evaluation grid for the regularized process."""

    alpha: float
    eps: float
    grid: tuple

    def __post_init__(self):
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        g = np.asarray(self.grid, dtype=float)
        if g.ndim != 1 or len(g) == 0:
            raise ValueError("grid must be a non-empty 1-d sequence")
        if not np.isfinite(g).all():
            raise ValueError("grid points must be finite")
        if (np.diff(np.sort(g)) == 0).any():  # np.unique would load numpy.ma
            raise ValueError("grid points must be distinct")


def cov_eps(s, eps1, t, eps2, params):
    """E[Gamma(eps1)_s Gamma(eps2)_t] = 2 Re cov_C(s + i eps1, t + i eps2), exact.

    The path-pair integral of the analytic kernel from 0 to s + i eps1 and
    from 0 to t + i eps2, in `cov_C`'s closed form, so it is exactly
    symmetric under (s, eps1) <-> (t, eps2). At eps1 = eps2 = 0 it is the
    FBM covariance (|s|^2a + |t|^2a - |t-s|^2a)/2.
    """
    if not (0 <= eps1 < np.inf and 0 <= eps2 < np.inf):
        raise DomainError(f"imaginary shifts must be finite and >= 0, got {eps1}, {eps2}")
    if not (math.isfinite(s) and math.isfinite(t)):
        raise DomainError(f"times must be finite, got s={s}, t={t}")
    return 2.0 * cov_C(complex(s, eps1), complex(t, eps2), params).real


def _covariance_lower(spec, params, out):
    # Writes the grid covariance's lower triangle, diagonal included, into the
    # n x n array out, one column at a time, and never touches its strict
    # upper triangle.  Each column j holds v_i + v_j for i >= j, then
    # D - (v_i + v_j) and the one scale, all in place in out itself.
    if spec.alpha != params.alpha:
        raise ValueError(f"spec.alpha={spec.alpha} differs from params.alpha={params.alpha}")
    g = np.asarray(spec.grid, dtype=float)
    n = len(g)
    a2 = 2.0 * params.alpha
    e = spec.eps
    scale = 2.0 * params.kappa / (a2 * (a2 - 1.0))
    # every base has Re >= eps > 0: off the cut and never zero
    v = _pow(e - 1j * g, a2).real
    steps = np.diff(g)
    uniform = n > 1 and np.allclose(steps, steps[0], rtol=1e-12, atol=0.0)
    if uniform:
        # D_ij = half[|i - j|]
        half = _pow(2.0 * e - 1j * np.arange(n) * steps[0], a2).real
    for j in range(n):
        col = out[j:, j]
        np.add(v[j:], v[j], out=col)
        d = half[:n - j] if uniform else _pow(2.0 * e - 1j * np.abs(g[j:] - g[j]), a2).real
        np.subtract(d, col, out=col)
        col *= scale
    return out


def _mirror_lower(a):
    # copies the strict lower triangle of the square array a onto its strict
    # upper one, transposed, one column at a time and in place
    for j in range(1, len(a)):
        a[:j, j] = a[j, :j]
    return a


def covariance_matrix(spec, params):
    """Symmetric covariance matrix of Gamma(eps) on the spec grid.

    Entry (i, j) is 2 Re cov_C(g_i + i eps, g_j + i eps), `cov_eps` on the
    grid. kappa is real and Re(eps + it)^2a = Re(eps - it)^2a, so

        C_ij = 2 kappa (Re(2 eps - i|g_i - g_j|)^2a - (v_i + v_j)) / (2a(2a-1)),

    with v = Re(eps - i g)^2a. The lower triangle is built one column at a
    time, in the result itself: the sum v_i + v_j, then D - (v_i + v_j) and
    the one scale in place; the strict upper triangle is then its transposed
    copy, so the result is exactly symmetric. On uniform grids
    D_ij = half[|i - j|] for the n powers half; other grids evaluate D one
    column at a time. Either way the peak is about one real n x n array, the
    result, which is F-order.
    ValueError if spec.alpha and params.alpha differ.
    """
    n = len(spec.grid)
    return _mirror_lower(_covariance_lower(spec, params, np.empty((n, n), order="F")))


def cholesky_factor(spec, params, out=None):
    """Lower Cholesky factor of the Gamma(eps) covariance on the spec grid.

    The covariance's lower triangle is built into out, an F-order float64
    n x n array, or into a fresh zeroed one when out is None. Grid
    covariances of Gamma(eps) are numerically rank-deficient, so it gets the
    diagonal jitter 1e-12 trace/n and is factored once, with no unjittered
    attempt, by scipy's LAPACK dpotrf (the BLAS build of the Monte Carlo
    path product) in place. The result is that array: its lower triangle is
    the factor, and its strict upper triangle is never touched (zero when
    out is None), so a caller can keep another factor's transpose there.
    The path synthesis applies it as a triangular operator. Its trailing
    columns are rounding noise of size sqrt(jitter), so samples drawn
    through it depend on the BLAS build and thread count.
    numpy.linalg.LinAlgError, naming n, eps, alpha and dpotrf's info, if the
    jittered matrix does not factor: near alpha = 1/2 the covariance's
    cancellation error, about 1e-16/|alpha - 1/2|, can outgrow the jitter.
    ValueError if out is not such an array.
    """
    from scipy.linalg.lapack import dpotrf  # on use: the sampling commands never load scipy

    n = len(spec.grid)
    if out is None:
        out = np.zeros((n, n), order="F")
    elif out.shape != (n, n) or out.dtype != np.float64 or not out.flags.f_contiguous:
        raise ValueError(f"out must be an F-order float64 array of shape ({n}, {n})")
    _covariance_lower(spec, params, out)
    np.fill_diagonal(out, out.diagonal() + 1e-12 * np.trace(out) / n)
    factor, info = dpotrf(out, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"the covariance on {n} points at eps={spec.eps}, alpha={params.alpha} "
            f"does not factor after the jitter (dpotrf info={info})"
        )
    return factor


def _finest_shift(t, grid_n):
    # the smallest shift the Monte Carlo resolves on the uniform grid_n-grid
    # of [0, t]
    return 4.0 * t / grid_n


@cache
def _malloc_trim():
    # the C library's malloc_trim, looked up on first use, or None where it
    # has none (musl, macOS, Windows)
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


@contextmanager
def _grid_paths(specs, params):
    # Exact Gamma(eps) paths on the one grid of specs, for the sampler and the
    # Monte Carlo alike.  Yields paths(seed, p0, m, sets), a generator that
    # draws paths p0 ... p0 + m - 1 once (path p's normals are the (n, k)
    # block of stream (seed, p)) and yields, for each set of k shifts in
    # sets, its k component paths, (n, m) each.  The factors are held two to
    # an F-order n x (n + 1) array a, as in LAPACK's rectangular full packed
    # format: the first of two in the lower triangle of a[:, 1:], copied
    # transposed onto its upper one, diagonal included; the second in the
    # lower triangle of a[:, :n], which `cholesky_factor` fills without
    # touching that upper one.  Each distinct shift of a set is one in-place
    # BLAS dtrmm (half a dense product's flops) on its components' normals,
    # copied into consecutive m-column slices of one F-order path buffer per
    # draw; a path's last bits depend on which components share its factor.
    # On exit the arrays are freed and glibc's free heap is handed back
    # (malloc_trim(0)): freeing a large array raises its mmap threshold, so
    # later buffers land on the heap, which glibc would keep resident.
    from scipy.linalg.blas import dtrmm  # on use: the sampling commands never load scipy

    products = {}
    n = len(specs[0].grid)
    for pair in (specs[k:k + 2] for k in range(0, len(specs), 2)):
        a = np.zeros((n, n + 1), order="F")
        if len(pair) == 2:
            first = cholesky_factor(pair[0], params, out=a[:, 1:])
            products[pair[0].eps] = partial(dtrmm, 1.0, _mirror_lower(first), lower=0, trans_a=1, overwrite_b=1)
        last = cholesky_factor(pair[-1], params, out=a[:, :n])
        products[pair[-1].eps] = partial(dtrmm, 1.0, last, lower=1, overwrite_b=1)

    def paths(seed, p0, m, sets):
        k = len(sets[0])
        w = _normal_block(seed, p0, m, (n, k))
        b = np.empty((n, k * m), order="F")
        for s in sets:
            comps, j = [None] * k, 0
            for e in dict.fromkeys(s):
                cs = [c for c, x in enumerate(s) if x == e]
                for i, c in enumerate(cs, j):
                    b[:, i * m:(i + 1) * m] = w[:, :, c].T
                prod = products[e](b[:, j * m:(j + len(cs)) * m])
                for i, c in enumerate(cs):
                    comps[c] = prod[:, i * m:(i + 1) * m]
                j += len(cs)
            yield comps

    try:
        yield paths
    finally:
        a = first = last = None  # with the products, the last references to the arrays
        products.clear()
        trim = _malloc_trim()
        if trim is not None:
            trim(0)


def sample_gamma_eps_exact(seed, spec, params, stream=0):
    """Exact Gaussian sample of Gamma(eps) on the grid (Cholesky transport)."""
    with _grid_paths([spec], params) as paths:
        (path,) = next(paths(seed, stream, 1, [(spec.eps,)]))
    return PathSample(np.asarray(spec.grid, dtype=float), path[:, 0], n_terms=0, provenance="cholesky")


def l2_error_law(t, eps, params):
    """Exact E|Gamma(eps)_t - Gamma_t|^2, the same at every t.

    Gamma(eps)_t - Gamma_t is the kernel's integral over the vertical segment
    from t to t + i eps, so the law is 2 kappa times its self-pair,
    `contour_vv_piece(eps)`; assembled from `cov_eps`, its t-dependent powers
    would cancel in conjugate pairs.
    """
    if not (0 < eps < np.inf and math.isfinite(t)):
        raise DomainError(f"l2_error_law needs a finite t and eps > 0, got t={t}, eps={eps}")
    return 2.0 * params.kappa * contour_vv_piece(eps, params)


# ---------------------------------------------------------------------------
# sup-norm approximation experiment
# ---------------------------------------------------------------------------

def sup_error_experiment(params, eps_list, n_mc, n_terms, seed, grid):
    """Monte Carlo E[sup_grid |Gamma_t - Gamma(eps)_t|] for each eps.

    Each replicate couples the boundary path and every shifted path through
    one coefficient stream (identical xi arrays evaluated at t and t+i eps).
    One F_k table and one product per block of replicates cover all grids.
    Returns (rows, slope): rows are (eps, e_sup) pairs, slope the fitted
    log-log slope (expected about alpha; nan when unfittable).
    """
    grid = np.asarray(grid, dtype=float)
    eps_list = [float(e) for e in eps_list]
    for e in eps_list:
        if not 0 < e < np.inf:
            raise DomainError(f"every eps must be finite and > 0, got eps={e}")
    # block 0 is the grid, block b the grid + i eps_list[b-1]: columns of one
    # table, equal to their own tables only up to last-bit rounding (`fk_table`)
    pts = np.concatenate([grid] + [grid + 1j * e for e in eps_list])
    table = fk_table(n_terms, pts, params).reshape(n_terms, 1 + len(eps_list), len(grid))
    variants = [(n_terms, b) for b in range(1, 1 + len(eps_list))]
    return _coupled_sup_experiment(eps_list, table, variants, n_mc, seed)


# ---------------------------------------------------------------------------
# contour kernel integral (rectangle contour, absolute kernel)
# ---------------------------------------------------------------------------

def contour_vv_piece(s, params):
    """Vertical x vertical piece (2^2a - 2)/(2a(2a-1)) s^2a, for finite s > 0."""
    if not 0 < s < np.inf:
        raise DomainError(f"contour piece needs a finite s > 0 (s={s})")
    a2 = 2.0 * params.alpha
    return (2.0 ** a2 - 2.0) / (a2 * (a2 - 1.0)) * s ** a2


def contour_kernel_pieces(s, t, params):
    """All nine piecewise double integrals of |z - conj(w)|^(2a-2).

    z and w both run over the three-piece contour
    [0, is] u [is, t+is] u [t+is, t]; the integrand depends on |z - conj w|
    only, so each piece is either elementary (the two vertical self-pairs),
    reducible to one dimension (the horizontal pair and the opposite
    verticals), or, for the four vertical x horizontal pieces, one smooth
    2-d integral (equal for all four by reflection).  The integrals are
    20-point Gauss-Legendre rules on panels graded toward each piece's
    near-singularity, each guarded by a 12-point rule on the same panels:
    NonConvergenceError if the two differ by more than
    max(1e-12, 3e-10 |integral|).

    Returns a dict keyed by (i, j) piece indices, 0 = vertical at 0,
    1 = horizontal, 2 = vertical at t.
    """
    if not (0 < s < np.inf and 0 < t < np.inf):
        raise DomainError(f"contour integral needs finite s, t > 0 (s={s}, t={t})")
    am2 = 2.0 * params.alpha - 2.0
    # horizontal x horizontal: |z - conj w| = sqrt((x1-x2)^2 + 4 s^2), of
    # weight 2(t - u) in u = |x1 - x2|; panels graded from u = 0 at scale s
    hh = _graded_quad(
        lambda u: 2.0 * (t - u) * (u * u + 4.0 * s * s) ** (am2 / 2.0),
        _graded_edges(s, t),
        "contour piece (1, 1)",
    )
    # vertical(0) x horizontal: z = i rho, conj w = rho' - i s; horizontal x
    # vertical(t), z = rho + i s and conj w = t - i(s - rho'), is the same
    # integral after rho -> t - rho, rho' -> s - rho'.  The outer rule runs
    # over rho', graded from 0 at scale s, the inner one over y = rho + s on
    # the one panel [s, 2s], where the kernel is smooth
    vh = _graded_quad(
        lambda rp: _graded_quad(
            lambda y: (rp * rp + y[:, None] ** 2) ** (am2 / 2.0),
            np.array([s, 2.0 * s]),
            "contour piece (0, 1), inner rule",
        ),
        _graded_edges(s, t),
        "contour piece (0, 1)",
    )
    # vertical(0) x vertical(t): z = i rho, conj w = t - i(s - rho'); the
    # integrand depends on x = rho - rho' + s only, of weight min(x, 2s - x) on
    # [0, 2s].  Panels graded from x = 0 (the kernel's ridge, at distance t)
    # at scale min(s, t), and the middle edge at the weight's kink x = s; in x
    # rather than rho - rho' the nodes near the ridge carry no cancellation
    vv = _graded_quad(
        lambda x: np.minimum(x, 2.0 * s - x) * (t * t + x * x) ** (am2 / 2.0),
        _graded_edges(min(s, t), 2.0 * s),
        "contour piece (0, 2)",
    )
    v = contour_vv_piece(s, params)
    hh, vh, vv = float(hh), float(vh), float(vv)
    return {(0, 0): v, (2, 2): v, (1, 1): hh, (0, 1): vh, (1, 0): vh, (1, 2): vh, (2, 1): vh,
            (0, 2): vv, (2, 0): vv}


def contour_kernel_integral(s, t, params):
    """Total double contour integral of |z - conj(w)|^(2a-2) (nine pieces)."""
    return float(sum(contour_kernel_pieces(s, t, params).values()))
