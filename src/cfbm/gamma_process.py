"""The analytic Gamma-process whose boundary value is fractional Brownian motion.

Builds the upper-half-plane basis functions f_k, their integrals F_k, the
covariance kernel (partial sums and closed form), the boundary covariance
function, and the seeded series samplers.  The engine behind everything is a
Karhunen-Loeve-type expansion in the Cayley variable zeta = (z-i)/(z+i): on
the unit disk the basis is a weighted power basis, so partial sums and
kernels reduce to geometric-type series, and the integrals F_k to an
integration-by-parts recurrence summed as a running sum, plus
principal-branch power prefactors.

Normalization: the coefficient components xi_k^1, xi_k^2 have the fixed
variance 1/2 (E|xi_k^+|^2 = 1), which makes the boundary process match the
standard FBM covariance (|s|^2a + |t|^2a - |t-s|^2a)/2 with Var B_1 = 1.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .specfun import BranchCutError, PoleError, SpecFunError, _pow, principal_pow

__all__ = [
    "DomainError",
    "ModelParams",
    "GaussianDraw",
    "PathSample",
    "gaussian_draw",
    "cayley",
    "f_k",
    "F_k",
    "fk_table",
    "kernel_closed",
    "kernel_partial_sum",
    "kernel_terms_needed",
    "cov_C",
    "cov_fbm",
    "sample_gamma_plus",
    "sample_fbm_series",
    "series_truncation_experiment",
]


class DomainError(ValueError):
    """Input outside the half-plane / grid domain of an operation."""


# ---------------------------------------------------------------------------
# parameters and draws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Hurst exponent; the coefficient components have the fixed variance 1/2.

    alpha must lie in (0,1) and differ from 1/2 exactly (the kernel prefactor
    degenerates to 0/0 there).  Near 1/2 every closed form divides by
    2 alpha - 1 and loses about 1e-16/|alpha - 1/2| of its relative accuracy
    (about 1e-12 at alpha = 0.4999); values within 1e-6 of 1/2 trigger a
    warning.  A grid covariance can fail to factor farther out, as at 0.4999.
    """

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.alpha == 0.5:
            raise ValueError("alpha = 1/2 is rejected: the kernel prefactor is 0/0")
        if abs(self.alpha - 0.5) < 1e-6:
            warnings.warn(
                f"alpha={self.alpha} is within 1e-6 of 1/2; the closed forms divide "
                "by 2*alpha - 1 and lose about 1e-16/|alpha - 1/2| relative accuracy",
                stacklevel=2,
            )

    @property
    def kappa(self):
        """Kernel prefactor alpha(1-2 alpha) / (2 cos(pi alpha)); positive on (0,1)\\{1/2}."""
        return self.alpha * (1.0 - 2.0 * self.alpha) / (2.0 * math.cos(math.pi * self.alpha))


@dataclass(frozen=True, eq=False)
class GaussianDraw:
    """Seeded coefficient array xi_k^+ = xi_k^1 + i xi_k^2, k < n_terms."""

    seed: int
    n_terms: int
    xi_plus: np.ndarray = field(repr=False)


def _philox_key(seed, stream):
    # the uint64 key (seed, stream); each must be an integer in [0, 2**64),
    # and not a bool, which would alias 0 or 1
    for k in (seed, stream):
        if isinstance(k, bool) or not (isinstance(k, (int, np.integer)) and 0 <= k < 2 ** 64):
            raise ValueError(f"seed and stream must be integers in [0, 2**64), got {k!r}")
    return np.array([seed, stream], dtype=np.uint64)


def _philox(seed, stream):
    # the one random source: a counter-based generator keyed (seed, stream)
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, stream)))


def _normal_block(seed, p0, m, shape):
    # an (m, *shape) array whose block j holds the standard normals of the
    # stream (seed, p0 + j), bit for bit what a fresh _philox(seed, p0 + j)
    # draws.  One generator serves every block, reset per stream to that
    # stream's fresh state (zero counter, empty buffers, its key): a new
    # generator per stream draws OS entropy for a seed sequence that the key
    # overrides, about 7 us per stream against 2 us for the reset
    gen = _philox(seed, p0)
    fresh = gen.bit_generator.state
    out = np.empty((m, *shape))
    for j, block in enumerate(out):
        fresh["state"]["key"] = _philox_key(seed, p0 + j)
        gen.bit_generator.state = fresh
        gen.standard_normal(out=block)
    return out


# replicates per block of the coupled experiments: one matrix-matrix product
# per block and row cut, without holding every replicate's paths at once
_REPLICATE_BLOCK = 32


def gaussian_draw(seed, n_terms, params, stream=0):
    """Draw the first ``n_terms`` complex coefficients of a seeded stream.

    Counter-based (Philox keyed by (seed, stream)), so identical (seed, n)
    reproduce bit-identical arrays, extending n keeps the leading
    coefficients unchanged, and distinct streams are independent.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    xi = _normal_block(seed, stream, 1, (2 * n_terms,))[0].view(complex)
    xi *= math.sqrt(0.5)
    return GaussianDraw(seed=int(seed), n_terms=int(n_terms), xi_plus=xi)


@dataclass(frozen=True, eq=False)
class PathSample:
    """Process values on a grid, with the sampler that produced them."""

    grid: np.ndarray
    values: np.ndarray
    n_terms: int
    provenance: str  # "series" | "cholesky"

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ValueError("grid and values must have equal length")


# ---------------------------------------------------------------------------
# Cayley transform and basis functions
# ---------------------------------------------------------------------------

def cayley(t):
    """Moebius map t -> (t-i)/(t+i); upper half-plane onto the unit disk.

    DomainError at a NaN or infinite t; PoleError at t = -i.
    """
    t = complex(t)
    if not cmath.isfinite(t):
        raise DomainError(f"cayley requires a finite t, got t={t}")
    if t == -1j:
        raise PoleError("cayley has a pole at t = -i")
    return (t - 1j) / (t + 1j)


def _poch_ratio(alpha, n):
    # (2-2a)_k / k! for k < n by the forward recurrence
    # (2-2a)_(k+1)/(k+1)! = (2-2a)_k/k! * (2-2a+k)/(1+k); the values behave
    # like k^(1-2a) / Gamma(2-2a), so the running product stays in range
    ks = np.arange(n - 1)
    ratios = np.ones(n)
    ratios[1:] = (2.0 - 2.0 * alpha + ks) / (1.0 + ks)
    return np.cumprod(ratios)


def _sqrt_poch_ratio(alpha, ks):
    # sqrt((2-2a)_k / k!) for an integer array ks
    ks = np.asarray(ks, dtype=np.intp)
    return np.sqrt(_poch_ratio(alpha, int(ks.max(initial=-1)) + 1)[ks])


def _term_index(k):
    # the index k of f_k or F_k, as a Python int; rejects negative and
    # non-integer values rather than truncating them
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    return int(k)


def _fk_prefactor(params):
    return 2.0 ** (params.alpha - 1.0) * math.sqrt(params.kappa)


def f_k(k, z, params):
    """Basis function f_k(z), analytic for Im z > -1.

    2^(a-1) sqrt(kappa) sqrt((2-2a)_k/k!) ((z+i)/(2i))^(2a-2) ((z-i)/(z+i))^k
    with every fractional power on the principal branch.  DomainError at a
    non-finite z; SpecFunError where the value is past the double range, at
    large k below the real axis.
    """
    k = _term_index(k)
    z = complex(z)
    if not np.isfinite(z):
        raise DomainError(f"f_k requires a finite z, got z={z}")
    if z.imag <= -1.0:
        raise BranchCutError(
            f"f_k prefactor hits the branch cut for Im z <= -1 (z={z})"
        )
    base = (z + 1j) / (2j)  # Re = (1 + Im z)/2 > 0, off the cut
    pref = principal_pow(base, 2.0 * params.alpha - 2.0)
    zeta = (z - 1j) / (z + 1j)
    spr = float(_sqrt_poch_ratio(params.alpha, [k])[0])
    try:
        value = _fk_prefactor(params) * spr * pref * zeta ** k
    except OverflowError:  # |zeta| > 1 below the real axis, so zeta ** k grows with k
        value = complex("inf")
    if not np.isfinite(value):
        raise SpecFunError(f"f_{k} at z={z} overflows double precision")
    return value


# ---------------------------------------------------------------------------
# kernel identity
# ---------------------------------------------------------------------------

def _kernel_args(z, w):
    # z and w as complex numbers, checked to be finite points of the open UHP
    z, w = complex(z), complex(w)
    if not (np.isfinite(z) and np.isfinite(w) and z.imag > 0 and w.imag > 0):
        raise DomainError(
            f"kernel requires finite z, w with Im z > 0 and Im w > 0 (z={z}, w={w})"
        )
    return z, w


def kernel_closed(z, w, params):
    """Closed-form kernel kappa * (-i(z - conj w))^(2a-2) on the open UHP."""
    z, w = _kernel_args(z, w)
    return params.kappa * principal_pow(-1j * (z - w.conjugate()), 2.0 * params.alpha - 2.0)


def kernel_partial_sum(z, w, N, params):
    """Partial sum sum_(k<N) f_k(z) conj(f_k(w)); converges to kernel_closed."""
    z, w = _kernel_args(z, w)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    a = params.alpha
    pref = (
        _fk_prefactor(params) ** 2
        * principal_pow((z + 1j) / 2j, 2 * a - 2)
        * np.conj(principal_pow((w + 1j) / 2j, 2 * a - 2))
    )
    r = cayley(z) * np.conj(cayley(w))
    return pref * np.sum(_poch_ratio(a, N) * r ** np.arange(N))


def kernel_terms_needed(z, w, params):
    """Number of series terms for a partial-sum error below 1e-9.

    Geometric-tail estimate at ratio r = |cayley(z) cayley(w)| with a safety
    factor absorbing the polynomial Pochhammer growth.
    """
    r = abs(cayley(z) * cayley(w))
    if r >= 1.0:
        raise DomainError(f"series does not converge at |cayley(z)cayley(w)|={r}")
    if r == 0.0:
        return 8
    lead = abs(kernel_closed(z, w, params)) + 1.0
    n = math.log(1e-9 * (1.0 - r) / (500.0 * lead)) / math.log(r)
    return max(8, int(math.ceil(n)) + 64)


# ---------------------------------------------------------------------------
# integrated basis functions F_k
# ---------------------------------------------------------------------------

# rows per block of the F_k table: the recurrence advances a block by a few
# passes over a (block, points) array, and the coupled experiments rewrite
# the table into real rows a block at a time.  From 32 rows on, the per-block
# call overhead no longer shows in the table's time at 256-2560 points;
# larger blocks only grow the work arrays
_ROW_BLOCK = 32


def _fk_columns(n_terms, pts, params):
    # F_k(z) for k < n_terms at every point, by integration by parts in the
    # disk variable: with w = cayley(z) and J_k = int_(-1)^w u^k (1-u)^(-2a) du,
    #   (k+2-2a) J_(k+1) = (k+1) J_k - w^(k+1) (1-w)^(1-2a) + (-1)^(k+1) 2^(1-2a).
    # With r_k = (2-2a)_k/k! and r_(k+1)/(k+2-2a) = r_k/(k+1), the scaled
    # S_k = r_k J_k is a running sum,
    #   S_(k+1) = S_k + r_k/(k+1) (-w^(k+1) (1-w)^(1-2a) + (-1)^(k+1) 2^(1-2a)),
    # taken a block of rows at a time by cumsum, and
    # F_k = prefactor * sqrt(r_k) * 2i * J_k = 2i prefactor S_k / sqrt(r_k).
    # Every step is elementwise or a cumsum along k, so each point's column
    # is mathematically independent of the other points; its last bits are
    # not, because numpy's complex multiply tail *= powers[-1] rounds by the
    # array's length: done one point at a time, a column of a three-point
    # table equals the one-point table's bit for bit.
    # 1 - w = 2i/(z+i) has positive real part for Im z > -1, so the power
    # stays off its cut.
    a = params.alpha
    w = (pts - 1j) / (pts + 1j)
    if np.any(w == 1.0):
        raise DomainError(f"fk_table: cayley(z) rounds to 1 at z={pts[w == 1.0][0]}, "
                          "where (1 - cayley(z))^(1-2a) is undefined")
    tail = _pow(1.0 - w, 1.0 - 2.0 * a)  # w^k0 (1-w)^(1-2a) at each block's start
    head = 2.0 ** (1.0 - 2.0 * a)
    r = _poch_ratio(a, n_terms)
    g = r[:-1] / np.arange(1, n_terms)  # r_k/(k+1) for k < n_terms - 1
    neg_g = -g[:, None]
    heads = (head * g * np.resize([-1.0, 1.0], n_terms - 1))[:, None]
    S = np.empty((n_terms, len(pts)), dtype=complex)
    S[0] = (tail - head) / (2.0 * a - 1.0)
    # below the real axis |w| > 1, so w^k grows with k and may pass the double
    # range: every table is built without warnings and checked once built.
    # Each block continues the running sum from the last row of the one
    # before, so a value past the range stays non-finite down its column;
    # |F_k| grows with k there, so the last row shows every column past it
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.cumprod(np.broadcast_to(w, (min(_ROW_BLOCK, n_terms), len(pts))), axis=0)
        for k0 in range(0, n_terms - 1, _ROW_BLOCK):
            k1 = min(k0 + _ROW_BLOCK, n_terms - 1)
            blk = np.multiply(powers[:k1 - k0], tail, out=S[k0 + 1:k1 + 1])
            blk *= neg_g[k0:k1]
            blk += heads[k0:k1]
            blk[0] += S[k0]
            np.cumsum(blk, axis=0, out=blk)
            tail *= powers[-1]
        # in place: a second table would double peak memory
        S *= (2j * _fk_prefactor(params) / np.sqrt(r))[:, None]
    if not np.all(np.isfinite(S[-1])):
        k, i = np.argwhere(~np.isfinite(S))[0]
        raise SpecFunError(f"F_{k} at z={pts[i]} overflows double precision")
    # the two powers of 2 can differ in the last bit, so z = 0 would leave
    # rounding residue instead of F_k(0) = 0
    S[:, pts == 0] = 0.0
    return S


def F_k(k, z, params):
    """F_k(z) = integral of f_k from 0 to z, for Im z > -1.

    The last row of ``fk_table(k + 1, [z], params)``.  Near z = 0 the
    recurrence cancels, so the accuracy there is absolute (about 1e-16 per
    term), not relative.  k must be a non-negative integer.
    """
    return complex(fk_table(_term_index(k) + 1, [complex(z)], params)[-1, 0])


def fk_table(n_terms, points, params):
    """F_k(z) for every k < n_terms at every point z (Im z > -1).

    The closed-form integration-by-parts recurrence over k, taken as a
    running sum 32 rows at a time (a few elementwise passes and a cumsum
    along k per block), vectorised across the points.  Each point's column
    is mathematically independent of the others, but not bit for bit: its
    last bits depend on the other points of the call (a column of a
    three-point table differs from the one-point table by up to about 1e-18
    relative).  F_k(0) = 0 exactly.  Near z = 0 the recurrence cancels, so
    the accuracy there is absolute (about 1e-16 per term), not relative.

    Returns a complex array of shape (n_terms, len(points)); n_terms >= 1.
    DomainError, naming the point, at a NaN or infinite z, and where
    cayley(z) rounds to 1, far up the imaginary axis (Im z beyond about
    1e16).  SpecFunError, naming k and z, where a value
    is past the double range: below the real axis |cayley(z)| > 1, and F_k
    grows with k.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 1 or len(pts) == 0:
        raise ValueError("points must be a non-empty 1-d sequence")
    bad = ~np.isfinite(pts)
    if np.any(bad):
        raise DomainError(f"fk_table requires finite points (z={pts[bad][0]})")
    cut = pts.imag <= -1.0
    if np.any(cut):
        raise BranchCutError(f"fk_table requires Im z > -1 at every point (z={pts[cut][0]})")
    return _fk_columns(n_terms, pts, params)


# ---------------------------------------------------------------------------
# covariance function of the boundary process
# ---------------------------------------------------------------------------

def cov_C(s, t, params):
    """Complex covariance sum_k F_k(s) conj(F_k(t)) in closed form.

    s and t lie in the closed upper half-plane: real times are the boundary
    case, and `cov_eps` is 2 Re cov_C(s + i eps1, t + i eps2). With a2 = 2a,

        kappa [(-i(s - conj t))^a2 - (-is)^a2 - (i conj t)^a2] / (a2 (a2 - 1))

    in principal powers; every base has Re >= 0, and a zero base gives 0.
    The swap s <-> t conjugates each power and exchanges the last two, so
    cov_C(t, s) == conj(cov_C(s, t)) bit for bit. DomainError at a NaN,
    infinite or Im < 0 point.
    """
    z, w = complex(s), complex(t)
    if not (cmath.isfinite(z) and cmath.isfinite(w) and z.imag >= 0 and w.imag >= 0):
        raise DomainError(f"cov_C: points must be finite with Im >= 0, got s={s}, t={t}")
    a2 = 2.0 * params.alpha
    # bases built from real parts, so that the swap conjugates each exactly
    bracket = principal_pow(complex(z.imag + w.imag, w.real - z.real), a2) - (
        principal_pow(complex(z.imag, -z.real), a2) + principal_pow(complex(w.imag, w.real), a2))
    return params.kappa * bracket / (a2 * (a2 - 1.0))


def cov_fbm(s, t, params):
    """Boundary covariance E[B_s B_t] = 2 Re cov_C(s, t)."""
    return 2.0 * cov_C(s, t, params).real


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_gamma_plus(draw, points, params):
    """Integrated process sum_k F_k(z) xi_k^+ at points of the closed UHP.

    The value at each point is mathematically independent of the other
    points, but its last bits depend on them, through `fk_table` and the
    product with the coefficients.  Near z = 0 the accuracy is absolute
    (about 1e-16 per term times |xi_k|), not relative; see `fk_table`.
    """
    pts = np.asarray(points, dtype=complex)
    if np.any(pts.imag < 0):
        raise DomainError("sample_gamma_plus requires Im z >= 0 at every point")
    table = fk_table(draw.n_terms, pts, params)
    values = draw.xi_plus @ table
    return PathSample(grid=pts, values=values, n_terms=draw.n_terms, provenance="series")


def sample_fbm_series(draw, grid, params):
    """Real FBM path 2 Re sum_(k<N) F_k(t) xi_k^+ on a sorted real grid."""
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be sorted ascending")
    plus = sample_gamma_plus(draw, grid.astype(complex), params)
    return PathSample(
        grid=grid,
        values=2.0 * plus.values.real,
        n_terms=draw.n_terms,
        provenance="series",
    )


# ---------------------------------------------------------------------------
# coupled sup-error experiments
# ---------------------------------------------------------------------------

def _loglog_slope(xs, ys):
    # least-squares slope of log ys against log xs; nan below two distinct xs,
    # or where a value is not finite and > 0 (its log is not finite)
    both = np.array([xs, ys], dtype=float)
    if both.shape[1] < 2 or not np.all((both > 0) & (both < np.inf)) or np.ptp(both[0]) == 0:
        return float("nan")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _stack_real_rows(flat):
    # rewrites the complex (n, m) table in place, a block of rows at a time,
    # into the real (2n, m) rows (Re F_0; -Im F_0; Re F_1; ...), so that
    # Re(xi @ flat) = xi.view(float) @ rows: one real product of half the flops
    rows = flat.view(float).reshape(2 * len(flat), -1)
    for lo in range(0, len(flat), _ROW_BLOCK):
        chunk = flat[lo:lo + _ROW_BLOCK].copy()
        pairs = rows[2 * lo:2 * (lo + len(chunk))].reshape(len(chunk), 2, -1)
        pairs[:, 0] = chunk.real
        np.negative(chunk.imag, out=pairs[:, 1])
    return rows


def _coupled_sup_experiment(labels, table, variants, n_mc, seed):
    # Monte Carlo E[sup_grid |B_variant - B_ref|] per variant (n, b): paths
    # 2 Re(xi[:n] @ table[:n, b]) against 2 Re(xi @ table[:, 0]), one stream
    # per replicate for all, so the differences isolate what the variants
    # change.  Per replicate block, the products over the row ranges between
    # cuts are summed cut by cut, reading each row of the (n_ref, n_blocks,
    # n_points) table once.  The table is the caller's to give up: it is
    # overwritten by its real rows.  Returns ([(label, e_sup)], log-log slope).
    if not (isinstance(n_mc, (int, np.integer)) and n_mc >= 1):
        raise ValueError(f"n_mc must be an integer >= 1, got {n_mc!r}")
    n_ref, *path_shape = table.shape
    rows = _stack_real_rows(table.reshape(n_ref, -1))
    cuts = sorted({n for n, _ in variants} | {n_ref})
    sups = np.empty((len(variants), n_mc))
    for start in range(0, n_mc, _REPLICATE_BLOCK):
        m = min(_REPLICATE_BLOCK, n_mc - start)
        pairs = _normal_block(seed, start, m, (2 * n_ref,))  # (Re xi_k, Im xi_k) along each row
        pairs *= math.sqrt(0.5)
        acc = np.zeros((m, rows.shape[1]))
        paths = {}
        for lo, hi in zip([0] + cuts, cuts):
            acc += pairs[:, 2 * lo:2 * hi] @ rows[2 * lo:2 * hi]
            paths[hi] = 2.0 * acc.reshape(m, *path_shape)
        del pairs  # freed before the next block is drawn
        ref = paths[n_ref][:, 0]
        for i, (n, b) in enumerate(variants):
            sups[i, start:start + m] = np.abs(paths[n][:, b] - ref).max(axis=1)
    esup = sups.mean(axis=1)
    return list(zip(labels, esup)), _loglog_slope(labels, esup)


def series_truncation_experiment(params, n_list, n_ref, n_mc, grid, seed):
    """Monte Carlo E[sup_grid |B^(N) - B^(n_ref)|] for each N in n_list.

    Coupled estimates: every replicate reuses one coefficient stream for all
    truncation levels, so the differences isolate the tail sum.  Returns
    (rows, slope) where rows are (N, e_sup) pairs and slope is the
    least-squares slope of log e_sup against log N (nan if unfittable).
    """
    n_list = [int(n) for n in n_list]
    if any(n >= n_ref for n in n_list):
        raise ValueError("every N must be < n_ref")
    if any(n < 1 for n in n_list):
        raise ValueError(f"every N must be >= 1, got {min(n_list)}")
    grid = np.asarray(grid, dtype=float)
    table = fk_table(n_ref, grid.astype(complex), params)
    variants = [(n, 0) for n in n_list]
    return _coupled_sup_experiment(n_list, table[:, None], variants, n_mc, seed)
