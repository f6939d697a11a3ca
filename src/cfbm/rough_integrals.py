"""Iterated-integral analytics and Monte Carlo for the regularized process.

Covers the closed-form power-integral family (hypergeometric antiderivatives
and the integrals they give), the Levy-area second moment and its small-shift
limit constant, path-level discretized iterated integrals, Monte Carlo
estimators with deterministic per-path random streams, divergence
diagnostics below the 1/4 threshold, and the dyadic q-variation machinery.

The Levy-area second moment is reduced analytically to a one-dimensional
integral of elementary power kernels (the inner time integrals are exact),
then evaluated by composite Gauss-Legendre quadrature on panels graded
geometrically toward both ends of the window, guarded by a lower-order rule
on the same panels; the hypergeometric closed forms are kept as
independently tested operations rather than re-assembled term by term.  The
sign-resolved assembly of the same moment stays on adaptive QUADPACK
quadrature as an independent route.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .eps_approx import EpsApproxSpec, cholesky_factor, covariance_matrix
from .gamma_process import DomainError, ModelParams, _loglog_slope, _philox
from .specfun import NonConvergenceError, _pow, hyp2f1, principal_pow

__all__ = [
    "PowerIntegralParams",
    "LevyAreaSpec",
    "MCEstimate",
    "F1",
    "I1",
    "F2",
    "I2",
    "levy_area_variance",
    "levy_area_sign_sum",
    "levy_const",
    "area_path",
    "mc_levy_area_moment",
    "divergence_slope",
    "volume_path",
    "mc_levy_volume_moment",
    "volume_inner_closed",
    "levy_volume_w1",
    "dyadic_dk",
    "dyadic_increment_blocks",
    "dyadic_level2_blocks",
    "dyadic_scale_sum",
    "dyadic_tail_sum",
]


# ---------------------------------------------------------------------------
# the power-integral family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerIntegralParams:
    """Arguments of the two-kernel power integrals.

    int_s^t (-+ i(u-a) + 2 eps1)^beta1 (-i(u-b) + 2 eps2)^beta2 du
    with real shifts a, b, positive regularizations eps1, eps2 and
    Re beta2 > -1.  The first family (sign -) additionally needs
    eps1 > eps2 for its contour representation to be single-valued.
    """

    a: float
    b: float
    beta1: complex
    beta2: complex
    eps1: float
    eps2: float
    s: float
    t: float

    def __post_init__(self):
        if self.eps1 <= 0 or self.eps2 <= 0:
            raise ValueError("eps1 and eps2 must be > 0")
        if complex(self.beta2).real <= -1:
            raise ValueError(f"Re beta2 must be > -1, got beta2={self.beta2}")

    def require_first_family(self):
        if not self.eps1 > self.eps2:
            raise ValueError(
                f"first-family integral needs eps1 > eps2 "
                f"(got eps1={self.eps1}, eps2={self.eps2})"
            )


def _antiderivative(p, u, v, z):
    # 1j u^(b2+1)/(b2+1) v^b1 2F1(-b1, b2+1; b2+2; z), z = -u/v (F1) or u/v (F2)
    b1, b2 = complex(p.beta1), complex(p.beta2)
    w = 1j * principal_pow(u, b2 + 1) / (b2 + 1) * principal_pow(v, b1)
    return w * hyp2f1(-b1, b2 + 1, b2 + 2, z)


def F1(p, t):
    """Antiderivative of the first family at time t (hypergeometric form)."""
    p.require_first_family()
    u = 2.0 * p.eps2 - 1j * (t - p.b)
    v = 2.0 * (p.eps1 - p.eps2) - 1j * (p.b - p.a)
    return _antiderivative(p, u, v, -u / v)


def I1(p):
    """First-family integral int_s^t (-i(u-a)+2e1)^b1 (-i(u-b)+2e2)^b2 du."""
    return F1(p, p.t) - F1(p, p.s)


def F2(p, t):
    """Antiderivative of the second family at time t."""
    u = 2.0 * p.eps2 - 1j * (t - p.b)
    v = 2.0 * (p.eps1 + p.eps2) + 1j * (p.b - p.a)
    return _antiderivative(p, u, v, u / v)


def I2(p):
    """Second-family integral int_s^t (i(u-a)+2e1)^b1 (-i(u-b)+2e2)^b2 du."""
    return F2(p, p.t) - F2(p, p.s)


# ---------------------------------------------------------------------------
# Levy-area second moment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyAreaSpec:
    """Window and shifts for the Levy-area second moment."""

    alpha: float
    t: float
    eps1: float
    eps2: float

    def __post_init__(self):
        ModelParams(self.alpha)  # the alpha rule of the model
        if self.t <= 0:
            raise ValueError(f"t must be > 0, got {self.t}")
        if self.eps1 <= 0 or self.eps2 <= 0:
            raise ValueError("eps1 and eps2 must be > 0")


# error tolerances of every 1-d quadrature here: the QUADPACK calls of the
# sign-resolved sum, and the guard of the graded Gauss-Legendre rule
_EPSABS = 1e-12
_EPSREL = 3e-10

# Gauss-Legendre orders of the Levy-area variance rule and of its guard rule
_LEVY_ORDER = 20
_LEVY_GUARD_ORDER = 12


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    # nodes and weights on [-1, 1], built on first use: importing cfbm loads
    # no numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    rule = leggauss(n)
    for arr in rule:
        arr.flags.writeable = False  # shared by every call
    return rule


def _graded_edges(h, t):
    # panel edges of [0, t] graded geometrically (ratio 2) toward both ends:
    # 0, h, 2h, 4h, ... below t/2, then t/2 and the mirror images about it
    left = [0.0]
    x = h
    while x < 0.5 * t:
        left.append(x)
        x *= 2.0
    left = np.array(left)
    return np.concatenate((left, [0.5 * t], (t - left)[::-1]))


def levy_area_variance(spec):
    """Second moment of the Levy area of the regularized two-component path.

    kappa^2 * 2 Re(V+ + V-), the two kernel signs' double-kernel integrals
    over the simplex product.  Their inner pair of time integrals is exact,
    which leaves one integral over [0, t] of elementary power kernels; the
    two signs' inner kernels are complex conjugates, so one real integrand
    carries both.  Its branch points lie 2 eps off the real axis above x = 0
    and x = t, so it is integrated by a 20-point Gauss-Legendre rule on
    panels that double in width from both ends, starting at
    min(eps1, eps2), which converges geometrically.  A 12-point rule on the
    same panels is the guard: NonConvergenceError if the two differ by more
    than max(1e-12, 3e-10 |integral|).  Uses the unit normalization
    (Var B_1 = 1), matching the exact samplers.
    """
    a2 = 2.0 * spec.alpha
    e1, e2, t = spec.eps1, spec.eps2, spec.t
    edges = _graded_edges(min(e1, e2), t)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    (xv, wv), (xg, wg) = (_gauss_legendre(n) for n in (_LEVY_ORDER, _LEVY_GUARD_ORDER))
    # both rules' nodes on every panel, one evaluation of the integrand
    x = (mid[:, None] + half[:, None] * np.concatenate((xv, xg))).ravel()
    # the sum over both signs of (term1 - term2 + term4), with
    # A = (-ix + 2e1)^(2a-2), B = 2 Re (-ix + 2e2)^2a (the two signs' inner
    # kernels) and C = (-i(x-t) + 2e1)^(2a-1) - (-ix + 2e1)^(2a-1):
    #   f = 2 [(t - x) Re A (B + 2 (2e2)^2a) - B Im C / (2a-1)]
    # (the factor 2 is applied with the normalization below)
    z1 = -1j * x + 2.0 * e1
    a = _pow(z1, a2 - 2.0).real
    b = 2.0 * _pow(-1j * x + 2.0 * e2, a2).real
    c = (_pow(-1j * (x - t) + 2.0 * e1, a2 - 1.0) - _pow(z1, a2 - 1.0)).imag
    f = (t - x) * a * (b + 2.0 * (2.0 * e2) ** a2) - b * c / (a2 - 1.0)
    sums = half @ f.reshape(len(half), -1)
    val = wv @ sums[: len(wv)]
    guard = wg @ sums[len(wv):]
    if not abs(val - guard) <= max(_EPSABS, _EPSREL * abs(val)):
        raise NonConvergenceError(
            f"Levy-area variance: {_LEVY_ORDER}- and {_LEVY_GUARD_ORDER}-point rules "
            f"differ by {abs(val - guard):.3e} (integral {val:.6e})"
        )
    kappa = ModelParams(spec.alpha).kappa
    return float(kappa * kappa * 4.0 * val / (a2 * (a2 - 1.0)))


def _quad(f, lo, hi, scale=None):
    # breakpoints at multiples of the kernel ridge scale keep the adaptive
    # rule honest when the regularization is many orders below the window
    from scipy import integrate  # on use: the sampling commands never load scipy

    pts = []
    if lo < 0.0 < hi:
        pts.append(0.0)
    if scale is not None and scale > 0:
        for m in (1.0, 1e1, 1e2, 1e3, 1e4, 1e5):
            for p in (m * scale, -m * scale):
                if lo < p < hi:
                    pts.append(p)
    val, _ = integrate.quad(
        f, lo, hi, points=sorted(pts) or None, epsabs=_EPSABS, epsrel=_EPSREL, limit=1500
    )
    return val


def _quad_c(f, lo, hi, scale):
    return _quad(lambda x: f(x).real, lo, hi, scale) + 1j * _quad(
        lambda x: f(x).imag, lo, hi, scale
    )


def levy_area_sign_sum(alpha, eps1, eps2, t):
    """Kernel-sign-resolved assembly of the Levy-area quadruple integral.

    Sums the four (sigma1, sigma2) contributions as explicit complex
    quadratures without the conjugation shortcuts of levy_area_variance;
    kappa^2 times the (real) result reproduces it.  Kept on adaptive
    QUADPACK quadrature (scipy) as the independent route that the
    levy-volume w1 identity gate compares against.
    """
    a2 = 2.0 * alpha
    ridge = 2.0 * (eps1 + eps2)
    total = 0j
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            def t1(x):
                return (t - abs(x)) * _pow(-1j * s1 * x + 2 * eps1, a2 - 2) * _pow(
                    -1j * s2 * x + 2 * eps2, a2
                )

            def t2(x):
                bracket = _pow(-1j * s1 * (x - t) + 2 * eps1, a2 - 1) - _pow(
                    -1j * s1 * x + 2 * eps1, a2 - 1
                )
                return _pow(-1j * s2 * x + 2 * eps2, a2) * bracket / (1j * s1 * (a2 - 1))

            def t3(y):
                bracket = _pow(-1j * s1 * (t - y) + 2 * eps1, a2 - 1) - _pow(
                    1j * s1 * y + 2 * eps1, a2 - 1
                )
                return _pow(1j * s2 * y + 2 * eps2, a2) * bracket / (-1j * s1 * (a2 - 1))

            def t4(x):
                return (t - abs(x)) * _pow(-1j * s1 * x + 2 * eps1, a2 - 2)

            part = (
                _quad_c(t1, -t, t, ridge)
                - _quad_c(t2, 0.0, t, ridge)
                - _quad_c(t3, 0.0, t, ridge)
                + (2.0 * eps2) ** a2 * _quad_c(t4, -t, t, ridge)
            )
            total += part / (a2 * (a2 - 1.0))
    return total


def levy_const(alpha):
    """Small-shift limit V(e, e)_t / t^(4a): the Levy-area limit constant.

    (a(2a-1)/2) [2 Gamma(2a-1) Gamma(2a+1) / Gamma(4a+1) + 1/((2a-1)(4a-1))]
    evaluated through the identity (2a-1) Gamma(2a-1) = Gamma(2a), which
    removes the cancelling pole pair at a = 1/2 exactly, so the a -> 1/2
    limit needs no special-casing.  Defined for 1/4 < alpha <= 1; diverges
    like (1/8)/(4a-1) as a -> 1/4.
    """
    if not 0.25 < alpha <= 1.0:
        raise DomainError(f"levy_const requires 1/4 < alpha <= 1, got {alpha}")
    g = math.gamma
    return 0.5 * alpha * (
        2.0 * g(2.0 * alpha) * g(2.0 * alpha + 1.0) / g(4.0 * alpha + 1.0)
        + 1.0 / (4.0 * alpha - 1.0)
    )


# ---------------------------------------------------------------------------
# discretized iterated integrals of sampled paths
# ---------------------------------------------------------------------------

def area_path(grid, path1, path2):
    """Trapezoid discretization of int (X2_u - X2_start) dX1_u over the grid."""
    grid = np.asarray(grid, dtype=float)
    x1 = np.asarray(path1, dtype=float)
    x2 = np.asarray(path2, dtype=float)
    if not (len(grid) == len(x1) == len(x2)):
        raise ValueError("grid and both paths must have equal length")
    return float(_areas_batch([x1[:, None], x2[:, None]])[0])


def volume_path(grid, path1, path2, path3):
    """Nested trapezoid discretization of the third iterated integral.

    int dX1 int dX2 int dX3 with X1 outermost, via cumulative trapezoid sums.
    """
    grid = np.asarray(grid, dtype=float)
    x1, x2, x3 = (np.asarray(p, dtype=float) for p in (path1, path2, path3))
    if not (len(grid) == len(x1) == len(x2) == len(x3)):
        raise ValueError("grid and all paths must have equal length")
    return float(_volumes_batch([x1[:, None], x2[:, None], x3[:, None]])[0])


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")


_MC_BATCH = 256


def _path_normals(seed, path_index, n, n_components, out=None, gen=None):
    # the stream layout of one MC path: an (n, n_components) C-order block;
    # gen, a generator from _philox, is rewound to the path's stream and reused
    return _philox(seed, path_index, gen).standard_normal((n, n_components), out=out)


def _mc_second_moment(alpha, shifts, t, grid_n, n_paths, seed, n_threads, functional):
    # Second moment of functional(components), component c being an exact
    # Gamma(shifts[c]) path on the uniform grid_n-grid of [0, t]; one factor
    # per distinct shift.  Deterministic Monte Carlo: path p draws its
    # normals from a Philox stream keyed (seed, p), batches are fixed-size
    # and reduced in path order, so the result is independent of n_threads.
    # Each batch rewinds one generator of its own from path to path, and
    # draws path p's normals straight into its (n, n_comp) slot of the batch
    # buffer.  Component c's paths are the triangular product L_c Z_c (BLAS
    # dtrmm, half the flops of a dense product): Z_c, the strided
    # w[:, :, c].T, is copied once to Fortran order and overwritten by the
    # result, and the C-order lower factor is read as its Fortran-order
    # transpose, an upper factor, without a copy.
    from scipy.linalg.blas import dtrmm  # on use: the sampling commands never load scipy

    if grid_n < 2 or grid_n & (grid_n - 1):
        raise ValueError(f"grid_n must be a power of two, got {grid_n}")
    finest = 4.0 * t / grid_n
    for e in shifts:
        if e < finest:
            raise DomainError(
                f"grid too coarse for eps={e}: need eps >= 4 t / grid_n = {finest}"
            )
    params = ModelParams(alpha)
    n = grid_n + 1
    grid = tuple(np.linspace(0.0, t, n))
    distinct = {
        e: cholesky_factor(covariance_matrix(EpsApproxSpec(alpha, e, grid), params))
        for e in dict.fromkeys(shifts)
    }
    factors = [distinct[e] for e in shifts]
    n_comp = len(factors)
    starts = list(range(0, n_paths, _MC_BATCH))

    def run_batch(p0):
        p1 = min(p0 + _MC_BATCH, n_paths)
        w = np.empty((p1 - p0, n, n_comp))
        gen = _philox(seed, p0)
        for j, p in enumerate(range(p0, p1)):
            _path_normals(seed, p, n, n_comp, out=w[j], gen=gen)
        return functional([
            dtrmm(1.0, factors[c].T, np.asfortranarray(w[:, :, c].T),
                  lower=0, trans_a=1, overwrite_b=1)
            for c in range(n_comp)
        ])

    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            chunks = list(pool.map(run_batch, starts))
    else:
        chunks = [run_batch(p0) for p0 in starts]
    values = np.concatenate(chunks)
    sq = values * values
    mean = float(np.mean(sq))
    stderr = float(np.std(sq, ddof=1) / math.sqrt(n_paths))
    return MCEstimate(mean=mean, stderr=stderr, n_samples=n_paths, seed=seed)


def _areas_batch(comps):
    x1, x2 = comps
    y = x2 - x2[0]
    return np.sum(0.5 * (y[:-1] + y[1:]) * np.diff(x1, axis=0), axis=0)


def _volumes_batch(comps):
    x1, x2, x3 = comps
    inner = x3 - x3[0]
    steps = 0.5 * (inner[:-1] + inner[1:]) * np.diff(x2, axis=0)
    mid = np.vstack([np.zeros(steps.shape[1]), np.cumsum(steps, axis=0)])
    return np.sum(0.5 * (mid[:-1] + mid[1:]) * np.diff(x1, axis=0), axis=0)


def mc_levy_area_moment(alpha, eps, t, n_paths, grid_n, seed, n_threads=1):
    """Sample second moment of the Levy area over exact Gamma(eps) pairs.

    Two independent components are drawn from the exact grid covariance.
    For a given numpy/scipy/BLAS set-up the estimate is deterministic in
    (seed, n_paths, grid_n) and does not change with n_threads. It does
    change with the BLAS builds and the BLAS thread count, by about 1e-5
    relative, because each covariance is factored once with a diagonal
    jitter (see `cholesky_factor`) and the factor's trailing columns carry
    rounding noise into every path. The factor runs on numpy's BLAS and the
    path product on scipy's.
    """
    return _mc_second_moment(
        alpha, (eps, eps), t, grid_n, n_paths, seed, n_threads, _areas_batch
    )


def mc_levy_volume_moment(alpha, eps1, eps2, eps3, t, n_paths, grid_n, seed, n_threads=1):
    """Sample second moment of the third iterated integral (Levy volume).

    Three independent components, component c an exact Gamma(eps_c) path.
    Deterministic and n_threads-invariant with the same BLAS caveat as
    `mc_levy_area_moment`.
    """
    return _mc_second_moment(
        alpha, (eps1, eps2, eps3), t, grid_n, n_paths, seed, n_threads, _volumes_batch
    )


# ---------------------------------------------------------------------------
# divergence diagnostics and volume sub-terms
# ---------------------------------------------------------------------------

def divergence_slope(alpha, eps_list, t):
    """Least-squares slope of log V(eps, eps)_t against log eps.

    Below alpha = 1/4 the second moment diverges like eps^(4a-1), so the
    slope approaches 4 alpha - 1; above 1/4 it flattens toward 0.  The fit is
    order-independent in eps_list.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 2:
        raise ValueError("need at least two eps values to fit a slope")
    v = [levy_area_variance(LevyAreaSpec(alpha, t, e, e)) for e in eps_list]
    return _loglog_slope(eps_list, v)


def volume_inner_closed(x2, y2, sigma3, eps3, alpha):
    """Closed form of the innermost volume kernel integral.

    int_0^x2 int_0^y2 (-i sigma3 (x3-y3) + 2 eps3)^(2a-2) dx3 dy3
      = [(2e3)^2a - (-i s3 x2 + 2e3)^2a - (i s3 y2 + 2e3)^2a
         + (-i s3 (x2-y2) + 2e3)^2a] / (2a(2a-1)).
    """
    if sigma3 not in (1, -1, 1.0, -1.0):
        raise ValueError(f"sigma3 must be +-1, got {sigma3}")
    if eps3 <= 0:
        raise DomainError("eps3 must be > 0")
    a2 = 2.0 * alpha
    e = 2.0 * eps3
    return (
        e ** a2
        - _pow(-1j * sigma3 * x2 + e, a2)
        - _pow(1j * sigma3 * y2 + e, a2)
        + _pow(-1j * sigma3 * (x2 - y2) + e, a2)
    ) / (a2 * (a2 - 1.0))


def levy_volume_w1(alpha, eps1, eps2, eps3, t):
    """The volume-moment sub-term produced by the constant part of the inner kernel.

    Equals 2 kappa (2 eps3)^2a / (2a(2a-1)) times the Levy-area second
    moment at (eps1, eps2); finite for every positive shift.
    """
    a2 = 2.0 * alpha
    kappa = ModelParams(alpha).kappa
    v = levy_area_variance(LevyAreaSpec(alpha, t, eps1, eps2))
    return 2.0 * kappa * (2.0 * eps3) ** a2 / (a2 * (a2 - 1.0)) * v


# ---------------------------------------------------------------------------
# dyadic q-variation machinery
# ---------------------------------------------------------------------------

def _block_norms(arr):
    arr = np.asarray(arr)
    if arr.ndim == 1:
        return np.abs(arr)
    return np.sqrt(np.sum(np.abs(arr) ** 2, axis=tuple(range(1, arr.ndim))))


def dyadic_dk(w_tables, v_tables, q, k, level):
    """Dyadic-partition q-variation distance between level-k block tables.

    (sum_blocks ||w_block - v_block||^(q/k))^(k/q) over the 2^level blocks.
    Tables map level -> array whose leading axis enumerates blocks.
    """
    if q <= 1:
        raise ValueError(f"q must be > 1, got {q}")
    try:
        bw = np.asarray(w_tables[level])
        bv = np.asarray(v_tables[level])
    except KeyError as exc:
        raise LookupError(f"level {level} not available in the tables") from exc
    if bw.shape != bv.shape:
        raise ValueError("block tables must have matching shapes")
    norms = _block_norms(bw - bv)
    return float(np.sum(norms ** (q / k)) ** (k / q))


def _dyadic_blocks(n_points, level):
    # (block count, points per block - 1) of a grid split into 2^level blocks
    n_blocks = 2 ** level
    if (n_points - 1) % n_blocks:
        raise ValueError(
            f"grid with {n_points} points cannot be split into {n_blocks} blocks"
        )
    return n_blocks, (n_points - 1) // n_blocks


def dyadic_increment_blocks(values, level):
    """First-level block table: the increment over each of 2^level blocks."""
    values = np.asarray(values, dtype=float)
    n_blocks, m = _dyadic_blocks(len(values), level)
    idx = np.arange(n_blocks + 1) * m
    return np.diff(values[idx])


def dyadic_level2_blocks(grid, x, y, level):
    """Second-level block table of a two-component path.

    For each dyadic block, the 2x2 matrix of discretized second iterated
    integrals int dX^(i) int dX^(j) (trapezoid); the diagonal entries equal
    half the squared block increments exactly.
    """
    grid = np.asarray(grid, dtype=float)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (len(grid) == len(x) == len(y)):
        raise ValueError("grid and both paths must have equal length")
    n_blocks, m = _dyadic_blocks(len(grid), level)
    # column l holds the m+1 points of block l (neighbours share an endpoint)
    idx = np.arange(m + 1)[:, None] + m * np.arange(n_blocks)[None, :]
    cols = (x[idx], y[idx])
    out = np.empty((n_blocks, 2, 2))
    for i in range(2):
        for j in range(2):
            out[:, i, j] = _areas_batch([cols[i], cols[j]])
    return out


def dyadic_scale_sum(kappa, eps, alpha1, alpha2, q):
    """Finite dyadic-scale sum controlling level-1 block differences.

    [sum_(n=0)^(E(|log2 eps|)) n^kappa 2^n (eps^alpha1 2^(-n alpha2))^(q/2)]^(2/q).
    """
    if eps <= 0 or eps >= 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if q <= 1:
        raise ValueError(f"q must be > 1, got {q}")
    n_max = int(math.floor(abs(math.log2(eps))))
    total = 0.0
    for n in range(n_max + 1):
        total += n ** kappa * 2.0 ** n * (eps ** alpha1 * 2.0 ** (-n * alpha2)) ** (q / 2.0)
    return total ** (2.0 / q)


def dyadic_tail_sum(kappa, d, eps, eta, q, level_norms, rel_tol=1e-14, max_levels=400):
    """Tail sum over fine dyadic levels of block-difference norms.

    [sum_(n >= E(|log2 eta|)) n^kappa sum_blocks ||.||^(q/d)]^(d/q), with the
    level loop truncated once a level contributes less than rel_tol of the
    running total.  ``level_norms(n)`` must return the block norms at level n.
    """
    if not eps > eta > 0:
        raise ValueError(f"need eps > eta > 0, got eps={eps}, eta={eta}")
    if q <= 1:
        raise ValueError(f"q must be > 1, got {q}")
    n0 = int(math.floor(abs(math.log2(eta))))
    total = 0.0
    for n in range(n0, n0 + max_levels):
        contrib = n ** kappa * float(np.sum(np.asarray(level_norms(n)) ** (q / d)))
        total += contrib
        if total > 0.0 and contrib <= rel_tol * total:
            return total ** (d / q)
    raise NonConvergenceError(
        f"dyadic tail sum did not settle within {max_levels} levels"
    )
