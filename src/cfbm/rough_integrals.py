"""Iterated-integral analytics and Monte Carlo for the regularized process.

Covers the closed-form power-integral family (hypergeometric antiderivatives
and the integrals they give), the Levy-area second moment and its small-shift
limit constant, Monte Carlo estimators with deterministic per-path random
streams, and divergence diagnostics below the 1/4 threshold.  The path
area and volume and the Monte Carlo share one nested-trapezoid
discretization of the iterated integrals (`_iterated_trapezoid`).

The Levy-area second moment is reduced analytically to a one-dimensional
integral of elementary power kernels (the inner time integrals are exact,
the inner kernels enter less their ridge value), folded onto the first half
of the window and evaluated by the guarded graded Gauss-Legendre rule of
``specfun``; the hypergeometric closed forms are kept as independently
tested operations rather than re-assembled term by term.  The sign-resolved
assembly of the same moment, an independent route, shares both devices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .eps_approx import EpsApproxSpec, _finest_shift, _grid_paths
from .gamma_process import DomainError, ModelParams, _is_integer, _loglog_slope, _philox, _philox_key
from .specfun import _graded_edges, _graded_quad, _pow, hyp2f1, principal_pow

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
    "mc_levy_area_moments",
    "divergence_slope",
    "volume_path",
    "mc_levy_volume_moment",
    "volume_inner_closed",
    "levy_volume_w1",
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
        for name in ("a", "b", "beta1", "beta2", "s", "t"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0 < self.eps1 < math.inf and 0 < self.eps2 < math.inf):
            raise ValueError(f"eps1 and eps2 must be finite and > 0, got {self.eps1}, {self.eps2}")
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
        if not 0 < self.t < math.inf:
            raise ValueError(f"t must be finite and > 0, got {self.t}")
        if not (0 < self.eps1 < math.inf and 0 < self.eps2 < math.inf):
            raise ValueError(f"eps1 and eps2 must be finite and > 0, got {self.eps1}, {self.eps2}")


def levy_area_variance(spec):
    """Second moment of the Levy area of the regularized two-component path.

    kappa^2 * 2 Re(V+ + V-), the two kernel signs' double-kernel integrals
    over the simplex product.  Their inner pair of time integrals is exact,
    which leaves one integral over [0, t] of elementary power kernels; the
    two signs' inner kernels are complex conjugates, so one real integrand
    carries both.  They enter less their ridge value (2 eps2)^2a, whose
    share of the integral is exactly zero (`_ridge_step`).  The branch
    points lie 2 eps off the real axis above x = 0 and x = t, so the window
    is folded onto [0, t/2] (`_folded_quad`) and integrated by a 20-point
    Gauss-Legendre rule on panels that double in width from 0, starting at
    min(eps1, eps2); NonConvergenceError if the 12-point guard rule differs
    by more than max(1e-12, 3e-10 |integral|).  Uses the unit normalization
    (Var B_1 = 1), matching the exact samplers.
    """
    a2 = 2.0 * spec.alpha
    e1, e2, t = spec.eps1, spec.eps2, spec.t

    def f(x, r):
        # the sum over both signs of (term1 - term2 + term4), r = t - x, with
        # A = (-ix + 2e1)^(2a-2), B = 2 Re (-ix + 2e2)^2a - 2 (2e2)^2a and
        # C = (ir + 2e1)^(2a-1) - (-ix + 2e1)^(2a-1): f = 2 B [r Re A - Im C / (2a-1)]
        # (the factor 2 is applied with the normalization below)
        z1 = -1j * x + 2.0 * e1
        a = _pow(z1, a2 - 2.0).real
        b = 2.0 * _ridge_step(2.0 * e2, x, a2).real
        c = (_pow(1j * r + 2.0 * e1, a2 - 1.0) - _pow(z1, a2 - 1.0)).imag
        return b * (r * a - c / (a2 - 1.0))

    val = _folded_quad(f, min(e1, e2), t, "Levy-area variance")
    kappa = ModelParams(spec.alpha).kappa
    return float(kappa * kappa * 4.0 * val / (a2 * (a2 - 1.0)))


def _ridge_step(c, u, p):
    # (c - i u)^p - c^p for c > 0 and real u, as c^p expm1(p Log(1 - i u/c)):
    # it keeps its relative accuracy where |u| << c, where the two powers
    # would cancel
    v = u / c
    return c ** p * np.expm1(p * (0.5 * np.log1p(v * v) - 1j * np.arctan(v)))


def _folded_quad(f, h, t, what):
    # the integral over [0, t] of f(x, r), r = t - x, by the guarded graded
    # rule on [0, t/2], graded from 0 at scale h: node u stands for x = u and
    # x = t - u, so its distance from the nearer end of the window is exact
    edges = _graded_edges(h, t)
    return _graded_quad(lambda u: f(u, t - u) + f(t - u, u), edges[edges <= 0.5 * t], what)


def levy_area_sign_sum(alpha, eps1, eps2, t):
    """Kernel-sign-resolved assembly of the Levy-area quadruple integral.

    Sums the four (sigma1, sigma2) contributions as four explicit complex
    integrals, with none of the conjugation shortcuts of levy_area_variance;
    kappa^2 times the (real) result reproduces it, as the levy-volume w1
    gate checks.  A pair's terms t1 - t2 - t3 + (2 eps2)^2a t4 integrate
    the outer kernel (-i sigma1 x + 2 eps1)^(2a-2) against the inner one,
    k(x) = (-i sigma2 x + 2 eps2)^2a.  k(0) puts k(0) t4 into each of t1, t2
    and t3, which with their signs cancel the fourth term exactly, so k
    enters as k - k(0) (`_ridge_step`): t1 and t4 would otherwise each cancel
    a lump of size (2 eps1)^(2a-1) at the ridge x = 0, losing digits for
    small alpha and eps1 << t.  The twelve terms are integrated on the fold
    of levy_area_variance (`_folded_quad`), which raises
    NonConvergenceError where its guard fails.  The arguments are checked
    as `LevyAreaSpec` checks them, with a ValueError naming the bad one.
    The QUADPACK version is in ``tests/helpers``.
    """
    LevyAreaSpec(alpha, t, eps1, eps2)
    a2 = 2.0 * alpha
    c1, c2 = 2.0 * eps1, 2.0 * eps2
    s1 = np.array([1.0, 1.0, -1.0, -1.0])
    s2 = np.array([1.0, -1.0, 1.0, -1.0])

    def terms_at(x, r):
        # the columns t1, -t2, -t3 of the four pairs at the nodes x, where
        # r = t - x; k_pos and k_neg are k - k(0) at x and -x
        x, r = x[:, None], r[:, None]
        k_pos, k_neg = _ridge_step(c2, s2 * x, a2), _ridge_step(c2, -s2 * x, a2)
        z_pos, z_neg, w = -1j * s1 * x + c1, 1j * s1 * x + c1, 1j * s1 * (a2 - 1.0)
        t1 = r * (_pow(z_pos, a2 - 2.0) * k_pos + _pow(z_neg, a2 - 2.0) * k_neg)
        t2 = k_pos * (_pow(1j * s1 * r + c1, a2 - 1.0) - _pow(z_pos, a2 - 1.0)) / w
        t3 = k_neg * (_pow(-1j * s1 * r + c1, a2 - 1.0) - _pow(z_neg, a2 - 1.0)) / -w
        return np.concatenate((t1, -t2, -t3), axis=1)

    terms = _folded_quad(terms_at, min(eps1, eps2), t, "Levy-area sign sum")
    return complex(np.sum(terms)) / (a2 * (a2 - 1.0))


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
    return float(_iterated_trapezoid([x[:, None] for x in _equal_length(grid, path1, path2)])[0])


def volume_path(grid, path1, path2, path3):
    """Nested trapezoid discretization of the third iterated integral.

    int dX1 int dX2 int dX3 with X1 outermost, via cumulative trapezoid sums.
    """
    paths = _equal_length(grid, path1, path2, path3)
    return float(_iterated_trapezoid([x[:, None] for x in paths])[0])


def _equal_length(grid, *paths):
    # the paths as float arrays, checked to be non-empty, 1-d and as long as
    # the grid
    grid, *paths = (np.asarray(x, dtype=float) for x in (grid, *paths))
    if any(x.ndim != 1 for x in (grid, *paths)) or len(grid) == 0:
        raise ValueError("grid and every path must be non-empty 1-d sequences")
    if any(len(x) != len(grid) for x in paths):
        raise ValueError("grid and every path must have equal length")
    return paths


_TRAPEZOID_COLS = 16  # columns per block of `_iterated_trapezoid`


def _iterated_trapezoid(comps):
    # The nested trapezoid discretization of int dX1 int dX2 ... int dXk over
    # (n, m) batches, X1 = comps[0] outermost: the innermost component less
    # its start value, a running trapezoid sum from 0 at each inner level and
    # one sum at the outermost, on blocks of _TRAPEZOID_COLS columns, so its
    # temporaries are about n x _TRAPEZOID_COLS.  The columns are independent,
    # so each has the bits of the whole-batch expressions; the last block has
    # two or more columns unless m = 1, as numpy sums a one-column block
    # pairwise and a wider C-order one row by row.  A sum past the double
    # range is left inf or NaN, without numpy's warnings, for its caller's
    # gate to report.
    m = comps[0].shape[1]
    out = np.empty(m)
    bounds = [*range(0, max(m - 1, 1), _TRAPEZOID_COLS), m]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(bounds, bounds[1:]):
            x0, *inner, y = (x[:, lo:hi] for x in comps)
            y = y - y[0]
            for x in inner[::-1]:
                steps = 0.5 * (y[:-1] + y[1:]) * np.diff(x, axis=0)
                y = np.vstack([np.zeros(steps.shape[1]), np.cumsum(steps, axis=0)])
            out[lo:hi] = np.sum(0.5 * (y[:-1] + y[1:]) * np.diff(x0, axis=0), axis=0)
    return out


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
        if not (_is_integer(self.n_samples) and self.n_samples >= 2):
            raise ValueError("n_samples must be >= 2")


_MC_BATCH = 128  # paths per batch


def _mc_second_moment(alpha, shift_sets, t, grid_n, n_paths, seed, n_threads):
    # Second moments of `_iterated_trapezoid` of the components, one MCEstimate
    # per shift set: component c of set s is an exact Gamma(s[c]) path on the
    # uniform grid_n-grid of [0, t] (`eps_approx._grid_paths`, path p from
    # stream (seed, p) for every set); all sets have one length, the order.
    # Sets run two at a time (levy-area's sets have one shift each;
    # levy-volume passes one set), in fixed-size batches on n_threads,
    # reduced in path order: the result is independent of n_threads, and of
    # the batch size up to the BLAS product's rounding.
    if not 0 < t < math.inf:
        raise DomainError(f"t must be finite and > 0, got {t}")
    if not (_is_integer(grid_n) and grid_n >= 2 and not grid_n & (grid_n - 1)):
        raise ValueError(f"grid_n must be a power of two, got {grid_n!r}")
    if not (_is_integer(n_paths) and n_paths >= 2):
        raise ValueError(f"n_paths must be an integer >= 2, got {n_paths!r}")
    if not (_is_integer(n_threads) and n_threads >= 1):
        raise ValueError(f"n_threads must be an integer >= 1, got {n_threads!r}")
    _philox_key(seed, 0)  # a bad seed raises here, before any covariance is built
    finest = _finest_shift(t, grid_n)
    for e in (e for s in shift_sets for e in s):
        if not finest <= e < math.inf:  # NaN and inf shifts fail here too
            raise DomainError(
                f"grid too coarse for eps={e}: need finite eps >= 4 t / grid_n = {finest}"
            )
    params = ModelParams(alpha)
    n = grid_n + 1
    grid = tuple(np.linspace(0.0, t, n))
    starts = list(range(0, n_paths, _MC_BATCH))
    values = np.empty((len(shift_sets), n_paths))

    for lo in range(0, len(shift_sets), 2):
        sets, out = shift_sets[lo:lo + 2], values[lo:lo + 2]
        shifts = dict.fromkeys(e for s in sets for e in s)
        with _grid_paths([EpsApproxSpec(alpha, e, grid) for e in shifts], params) as paths:

            def run_batch(p0):
                m = min(p0 + _MC_BATCH, n_paths) - p0
                for v, comps in zip(out, paths(seed, p0, m, sets)):
                    v[p0:p0 + m] = _iterated_trapezoid(comps)

            if n_threads > 1:
                from concurrent.futures import ThreadPoolExecutor  # on use: it loads logging

                with ThreadPoolExecutor(max_workers=n_threads) as pool:
                    list(pool.map(run_batch, starts))
            else:
                for p0 in starts:
                    run_batch(p0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the caller's gate
        sq = values * values
        se = np.std(sq, axis=1, ddof=1) / math.sqrt(n_paths)
    return [MCEstimate(float(m), float(e), n_paths, seed) for m, e in zip(np.mean(sq, axis=1), se)]


def mc_levy_area_moments(alpha, eps_list, t, n_paths, grid_n, seed, n_threads=1):
    """Sample second moments of the Levy area, one MCEstimate per shift.

    For each eps, two independent components are drawn from the exact
    Gamma(eps) grid covariance; the two components' paths are one
    triangular product with the shift's factor.  Path p of every shift
    reads the Philox stream (seed, p), drawn once per pair of shifts, whose
    two factors share one n x (n + 1) array (one in each of two disjoint
    triangles, read by every thread), so the estimates of different shifts
    have correlated errors (common random numbers), and each equals
    `mc_levy_area_moment` for its shift alone.  For a given set of numpy and
    BLAS builds the estimates are deterministic in (seed, n_paths, grid_n)
    and do not change with n_threads; the batch size moves them only as far
    as OpenBLAS rounds a path's last entries differently in products of
    different widths (about 4e-16 relative).  They change with the BLAS
    builds and the BLAS thread count, by about 1e-5 relative (up to 6e-5
    seen), because each covariance is factored once with a diagonal jitter
    (see `eps_approx.cholesky_factor`) and the factor's trailing columns
    carry rounding noise into every path.  The factor and the path product
    run on one BLAS build, the one `eps_approx` factors with.
    """
    sets = [(e, e) for e in eps_list]
    if not sets:
        raise ValueError("eps_list must hold at least one shift")
    return _mc_second_moment(alpha, sets, t, grid_n, n_paths, seed, n_threads)


def mc_levy_area_moment(alpha, eps, t, n_paths, grid_n, seed, n_threads=1):
    """Sample second moment of the Levy area over exact Gamma(eps) pairs.

    The one-shift case of `mc_levy_area_moments`, with its determinism,
    thread and batch invariance, and BLAS caveat.
    """
    return mc_levy_area_moments(alpha, [eps], t, n_paths, grid_n, seed, n_threads)[0]


def mc_levy_volume_moment(alpha, eps1, eps2, eps3, t, n_paths, grid_n, seed, n_threads=1):
    """Sample second moment of the third iterated integral (Levy volume).

    Three independent components, component c an exact Gamma(eps_c) path.
    One factor is held per distinct shift, two to an n x (n + 1) array (so up
    to two arrays), and the components with equal shifts share it in one
    triangular product, so the estimate's last bits depend on which
    components share a factor.
    Deterministic, thread and batch invariant, with the BLAS caveat of
    `mc_levy_area_moments`; the third-order functional carries the factor's
    rounding noise further, up to about 3e-4 relative.
    """
    return _mc_second_moment(alpha, [(eps1, eps2, eps3)], t, grid_n, n_paths, seed, n_threads)[0]


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
         + (-i s3 (x2-y2) + 2e3)^2a] / (2a(2a-1)),
    summed as R(s3 (x2-y2)) - R(s3 x2) - R(-s3 y2) with the ridge steps
    R(u) = (2e3 - iu)^2a - (2e3)^2a, into which the constant cancels exactly.
    The steps' linear terms, -i 2a (2e3)^(2a-1) u, cancel exactly too, so
    each step enters less its linear term (`_ridge_curvature`): where
    eps3 >> x2, y2 they would otherwise cancel a lump of size x2/eps3 times
    the steps, losing digits.
    """
    if sigma3 not in (1, -1, 1.0, -1.0):
        raise ValueError(f"sigma3 must be +-1, got {sigma3}")
    if not (math.isfinite(x2) and math.isfinite(y2)):
        raise DomainError(f"x2 and y2 must be finite, got {x2}, {y2}")
    if not 0 < eps3 < math.inf:
        raise DomainError(f"eps3 must be finite and > 0, got {eps3}")
    ModelParams(alpha)  # the alpha rule of the model
    a2 = 2.0 * alpha
    e = 2.0 * eps3
    return (
        _ridge_curvature(e, sigma3 * (x2 - y2), a2)
        - _ridge_curvature(e, sigma3 * x2, a2)
        - _ridge_curvature(e, -sigma3 * y2, a2)
    ) / (a2 * (a2 - 1.0))


def _ridge_curvature(c, u, p):
    # (c - i u)^p - c^p + i p c^(p-1) u, the ridge step less its linear term,
    # for c > 0 and real u.  Where |u| <= c/4 it is c^p times the binomial
    # series sum_(k>=2) C(p, k) (-i u/c)^k, each term at most |u|/c times the
    # last for 0 < p < 2; beyond, the ridge step plus the linear term loses
    # at most about 8 / |p - 1| ulps to their cancellation
    v = u / c
    if abs(v) > 0.25:
        return _ridge_step(c, u, p) + 1j * p * c ** p * v
    term = -1j * p * v
    total = 0j
    for k in range(1, 64):
        term *= (p - k) / (k + 1) * -1j * v
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return c ** p * total


def _volume_inner_max_error(alpha, eps3, seed):
    # The levy-volume check of volume_inner_closed: its largest deviation from
    # the guarded graded rule over 20 rectangles [0, x2] x [0, y2] and kernel
    # signs drawn from the Philox stream (seed, 0).
    rng = _philox(seed, 0)
    worst = 0.0
    for _ in range(20):
        x2, y2 = rng.uniform(0.05, 1.0, 2)
        sigma3 = 1 if rng.random() < 0.5 else -1
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN fails the caller's gate
            closed = volume_inner_closed(x2, y2, sigma3, eps3, alpha)
        # the kernel depends on d = x3 - y3 only, of weight min(x2, y2 + d) - max(0, d)
        # on [-y2, x2]: panels graded toward its branch point 2 eps3 off d = 0, and an
        # edge at the weight's kink x2 - y2
        quad = _graded_quad(
            lambda d: (np.minimum(x2, y2 + d) - np.maximum(0.0, d))
            * _pow(-1j * sigma3 * d + 2.0 * eps3, 2.0 * alpha - 2.0),
            np.union1d(np.union1d(-_graded_edges(eps3, y2), _graded_edges(eps3, x2)), x2 - y2),
            "levy-volume inner integral",
        )
        worst = np.maximum(worst, abs(closed - quad))  # NaN-propagating
    return worst


def levy_volume_w1(alpha, eps1, eps2, eps3, t):
    """The volume-moment sub-term produced by the constant part of the inner kernel.

    Equals 2 kappa (2 eps3)^2a / (2a(2a-1)) times the Levy-area second
    moment at (eps1, eps2); finite for every positive shift.
    """
    if not 0 < eps3 < math.inf:
        raise DomainError(f"eps3 must be finite and > 0, got {eps3}")
    a2 = 2.0 * alpha
    kappa = ModelParams(alpha).kappa
    v = levy_area_variance(LevyAreaSpec(alpha, t, eps1, eps2))
    return 2.0 * kappa * (2.0 * eps3) ** a2 / (a2 * (a2 - 1.0)) * v
