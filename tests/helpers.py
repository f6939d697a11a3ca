"""Shared test oracles: brute-force and quadrature routes kept independent
of the library code paths they check."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import integrate

import cfbm
from cfbm.gamma_process import DomainError
from cfbm.specfun import (
    _EPSABS,
    _EPSREL,
    _SERIES_MAX_TERMS,
    _SERIES_TOL,
    BranchCutError,
    NonConvergenceError,
    hyp2f1,
    principal_pow,
)

# The child interpreter imports the same cfbm as this process, whatever the
# working directory and whether or not cfbm is installed.
_CFBM_ROOT = str(Path(cfbm.__file__).resolve().parent.parent)


def run_python(args, cwd=None, env=None):
    """Run a fresh interpreter on args, with cfbm's root ahead of any
    inherited PYTHONPATH."""
    pythonpath = [_CFBM_ROOT]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(pythonpath)},
    )


def quad_complex(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=500):
    re, _ = integrate.quad(lambda u: f(u).real, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=limit)
    im, _ = integrate.quad(lambda u: f(u).imag, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=limit)
    return re + 1j * im


def dblquad_complex(f, x_lo, x_hi, y_lo, y_hi, epsabs=1e-12):
    re, _ = integrate.dblquad(lambda y, x: f(x, y).real, x_lo, x_hi, y_lo, y_hi, epsabs=epsabs)
    im, _ = integrate.dblquad(lambda y, x: f(x, y).imag, x_lo, x_hi, y_lo, y_hi, epsabs=epsabs)
    return re + 1j * im


def i1_integrand(p):
    return lambda u: (
        np.exp(p.beta1 * np.log(-1j * (u - p.a) + 2 * p.eps1))
        * np.exp(p.beta2 * np.log(-1j * (u - p.b) + 2 * p.eps2))
    )


def i2_integrand(p):
    return lambda u: (
        np.exp(p.beta1 * np.log(1j * (u - p.a) + 2 * p.eps1))
        * np.exp(p.beta2 * np.log(-1j * (u - p.b) + 2 * p.eps2))
    )


def Phi1(p, t):
    """Alternative antiderivative of the first family; F1 - Phi1 is constant in t."""
    p.require_first_family()
    b1, b2 = complex(p.beta1), complex(p.beta2)
    u = 2.0 * p.eps2 - 1j * (t - p.b)
    v = 2.0 * (p.eps1 - p.eps2) - 1j * (p.b - p.a)
    g = b1 + b2 + 1
    return (
        1j
        * principal_pow(u, g)
        / g
        * hyp2f1(-b1, -g, -b1 - b2, -v / u)
    )


def Phi2(p, t):
    """Second-family antiderivative with the explicit phase factor.

    Only valid for a = b = 0 and t > 0, where the connection step that
    produces it keeps the hypergeometric argument off the cut.
    """
    if p.a != 0 or p.b != 0:
        raise DomainError("Phi2 requires a = b = 0")
    if t <= 0:
        raise DomainError("Phi2 requires t > 0")
    b1, b2 = complex(p.beta1), complex(p.beta2)
    g = b1 + b2 + 1
    u = 2.0 * p.eps2 - 1j * t
    return (
        1j
        * np.exp(1j * math.pi * b1)
        * principal_pow(u, g)
        / g
        * hyp2f1(-b1, -g, -b1 - b2, 2.0 * (p.eps1 + p.eps2) / u)
    )


def fk_by_quadrature(ks, z, params, panels):
    """F_k(z) for the requested ks by composite 64-node Gauss-Legendre on [0, z].

    ``panels`` equal panels, no adaptivity, and direct powers exp(k log zeta)
    of the Cayley variable for each requested k.  Independent of the
    integration-by-parts recurrence used by the library.
    """
    from cfbm.gamma_process import _fk_prefactor, _sqrt_poch_ratio

    x, wts = np.polynomial.legendre.leggauss(64)
    edges = complex(z) * np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    u = (mid + half * x).ravel()
    weights = (half * wts).ravel()
    a = params.alpha
    base = np.exp((2 * a - 2) * np.log((u + 1j) / 2j))
    ks = np.asarray(ks)
    powers = np.exp(np.outer(ks, np.log((u - 1j) / (u + 1j))))
    return _fk_prefactor(params) * _sqrt_poch_ratio(a, ks) * (powers @ (weights * base))


def fk_table_by_row_recurrence(n_terms, pts, params):
    """F_k(z) for k < n_terms at every point by the row-by-row recurrence.

    The library's former ``_fk_columns``, kept verbatim as the oracle for
    the blocked running sum: one step of the recurrence per row k, dividing
    by (k + 2 - 2a) as it goes, then one scale pass.
    """
    from cfbm.gamma_process import _fk_prefactor, _pow, _sqrt_poch_ratio

    # F_k(z) for k < n_terms at every point, by integration by parts in the
    # disk variable: with w = cayley(z) and J_k = int_(-1)^w u^k (1-u)^(-2a) du,
    #   (k+2-2a) J_(k+1) = (k+1) J_k - w^(k+1) (1-w)^(1-2a) + (-1)^(k+1) 2^(1-2a)
    # and F_k = prefactor * sqrt((2-2a)_k/k!) * 2i * J_k.  1 - w = 2i/(z+i) has
    # positive real part for Im z > -1, so the power stays off its cut.
    a = params.alpha
    w = (pts - 1j) / (pts + 1j)
    tail = _pow(1.0 - w, 1.0 - 2.0 * a)  # w^k (1-w)^(1-2a), advanced per row
    head = 2.0 ** (1.0 - 2.0 * a)
    J = np.empty((n_terms, len(pts)), dtype=complex)
    J[0] = (tail - head) / (2.0 * a - 1.0)
    for k in range(n_terms - 1):
        tail *= w
        row = np.multiply(J[k], k + 1, out=J[k + 1])  # the recurrence, in place
        row -= tail
        row += (-1) ** (k + 1) * head
        row /= k + 2 - 2.0 * a
    scale = 2j * _fk_prefactor(params) * _sqrt_poch_ratio(a, np.arange(n_terms))
    J *= scale[:, None]  # in place: a second table would double peak memory
    # the two powers of 2 can differ in the last bit, so z = 0 would leave
    # rounding residue instead of F_k(0) = 0
    J[:, pts == 0] = 0.0
    return J


def coupled_sup_by_complex_products(labels, table, variants, n_mc, seed):
    """The coupled sup-error experiment by complex products of the table.

    The library's former ``_coupled_sup_experiment``, kept as the oracle for
    the real-row products (only its blocks are now drawn by
    ``_normal_block``): each cut's product is the complex ``xi @ table`` of
    which only the real part is used.  Leaves ``table`` unchanged.
    """
    from cfbm.gamma_process import _REPLICATE_BLOCK, _loglog_slope, _normal_block

    # Monte Carlo E[sup_grid |B_variant - B_ref|] per variant (n, b): paths
    # 2 Re(xi[:n] @ table[:n, b]) against 2 Re(xi @ table[:, 0]), one stream
    # per replicate for all, so the differences isolate what the variants
    # change.  Per replicate block, the products over the row ranges between
    # cuts are summed cut by cut, reading each row of the (n_ref, n_blocks,
    # n_points) table once.  Returns ([(label, e_sup)], log-log slope).
    n_ref = table.shape[0]
    flat = table.reshape(n_ref, -1)
    cuts = sorted({n for n, _ in variants} | {n_ref})
    sups = np.empty((len(variants), n_mc))
    for start in range(0, n_mc, _REPLICATE_BLOCK):
        m = min(_REPLICATE_BLOCK, n_mc - start)
        xi = _normal_block(seed, start, m, (2 * n_ref,)).view(complex)
        xi *= math.sqrt(0.5)
        acc = np.zeros((len(xi), flat.shape[1]), dtype=complex)
        paths = {}
        for lo, hi in zip([0] + cuts, cuts):
            acc += xi[:, lo:hi] @ flat[lo:hi]
            paths[hi] = 2.0 * acc.real.reshape(len(xi), *table.shape[1:])
        ref = paths[n_ref][:, 0]
        for i, (n, b) in enumerate(variants):
            sups[i, start:start + len(xi)] = np.abs(paths[n][:, b] - ref).max(axis=1)
    esup = sups.mean(axis=1)
    return list(zip(labels, esup)), _loglog_slope(labels, esup)


def coupled_sup_by_replicate(params, ref_table, variants, n_mc, seed):
    """The coupled sup-error experiment one replicate at a time.

    Replicate r draws stream r, forms the reference path and every variant
    path by vector-matrix products, and records sup |path - ref|; the
    e_sup of a variant is the mean over replicates.  The library does the
    same in blocks of replicates by matrix-matrix products.  Returns the
    e_sup list in variant order.
    """
    from cfbm.gamma_process import gaussian_draw

    sups = np.zeros((len(variants), n_mc))
    for r in range(n_mc):
        xi = gaussian_draw(seed, ref_table.shape[0], params, stream=r).xi_plus
        ref = 2.0 * (xi @ ref_table).real
        for i, (n, table) in enumerate(variants):
            path = 2.0 * (xi[:n] @ table[:n]).real
            sups[i, r] = np.max(np.abs(path - ref))
    return list(sups.mean(axis=1))


def covariance_by_complex_broadcast(spec, params):
    """Grid covariance of Gamma(eps) by complex broadcasting of the formula.

    Every entry 2 Re(kappa I) with I evaluated in complex arithmetic on
    n x n arrays; Toeplitz difference powers are gathered through an index
    array. The library builds the same matrix in real
    arithmetic with no n x n complex temporaries.
    """
    from cfbm.specfun import _pow

    g = np.asarray(spec.grid, dtype=float)
    n = len(g)
    a2 = 2.0 * params.alpha
    denom = a2 * (a2 - 1.0)
    e = spec.eps
    v_s = _pow(e - 1j * g, a2)
    v_t = _pow(e + 1j * g, a2)
    steps = np.diff(g)
    if n > 1 and np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
        d = np.arange(-(n - 1), n) * steps[0]
        pv = _pow(2.0 * e - 1j * d, a2)
        idx = np.arange(n)[:, None] - np.arange(n)[None, :] + (n - 1)
        diff_term = pv[idx]
    else:
        diff_term = _pow(2.0 * e - 1j * np.subtract.outer(g, g), a2)
    i_val = (diff_term - v_s[:, None] - v_t[None, :]) / denom
    cov = 2.0 * (params.kappa * i_val).real
    return 0.5 * (cov + cov.T)


def levy_area_variance_dblquad(alpha, e1, e2, t):
    """Second Levy-area moment by 2-d quadrature of the inner-integrated forms."""
    a2 = 2 * alpha
    kappa = alpha * (1 - 2 * alpha) / (2 * math.cos(math.pi * alpha))

    def pw(b, e):
        return np.exp(e * np.log(b))

    def v1(y, x):
        outer = pw(-1j * (x - y) + 2 * e1, a2 - 2)
        inner = (
            pw(-1j * (x - y) + 2 * e2, a2)
            - pw(-1j * x + 2 * e2, a2)
            - pw(1j * y + 2 * e2, a2)
            + (2 * e2) ** a2
        )
        return (outer * inner).real

    def v2(y, x):
        outer = pw(-1j * (x - y) + 2 * e1, a2 - 2)
        inner = (
            pw(1j * (x - y) + 2 * e2, a2)
            - pw(1j * x + 2 * e2, a2)
            - pw(-1j * y + 2 * e2, a2)
            + (2 * e2) ** a2
        )
        return (outer * inner).real

    r1, _ = integrate.dblquad(v1, 0, t, 0, t, epsabs=1e-10)
    r2, _ = integrate.dblquad(v2, 0, t, 0, t, epsabs=1e-10)
    return kappa ** 2 * 2 * (r1 + r2) / (a2 * (a2 - 1))


def _quad(f, lo, hi, scale=None):
    # breakpoints at multiples of the kernel ridge scale keep the adaptive
    # rule honest when the regularization is many orders below the window
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


def levy_area_sign_sum_by_quadpack(alpha, eps1, eps2, t):
    """The sign-resolved Levy-area sum by adaptive QUADPACK quadrature.

    The four (sigma1, sigma2) pairs' terms t1 - t2 - t3 + (2 eps2)^2a t4 as
    written, each the real and imaginary parts of its own adaptive integral
    (t1 and t4 over [-t, t]) with breakpoints at multiples of the kernel
    ridge scale.  The library integrates the same sum, the inner kernel less
    its ridge value, by the guarded graded Gauss-Legendre rule.  At extreme
    shift/window ratios QUADPACK stops short of its tolerance with only an
    IntegrationWarning.
    """
    from cfbm.specfun import _pow

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


def levy_area_variance_by_quadpack(alpha, e1, e2, t):
    """Second Levy-area moment by six adaptive QUADPACK calls.

    The one-dimensional reduction of the library, integrated sign by sign
    and term by term: for each conjugation sign2 of the inner kernel,
    (term1 - term2 + (2 e2)^2a term4) / (2a(2a-1)), each term its own
    adaptive integral over [0, t] with breakpoints at multiples of the
    kernel ridge scale.  The library integrates the same reduction, both
    signs at once, by a fixed graded Gauss-Legendre rule.  At extreme
    shift/window ratios QUADPACK stops short of its tolerance with only an
    IntegrationWarning.
    """
    from cfbm.gamma_process import ModelParams
    from cfbm.specfun import _pow

    a2 = 2.0 * alpha
    ridge = 2.0 * (e1 + e2)

    def sign_term(sign2):
        def term1(x):
            g = _pow(-1j * x + 2.0 * e1, a2 - 2.0) * _pow(-1j * sign2 * x + 2.0 * e2, a2)
            return (t - x) * 2.0 * g.real

        def term2(x):
            bracket = _pow(-1j * (x - t) + 2.0 * e1, a2 - 1.0) - _pow(-1j * x + 2.0 * e1, a2 - 1.0)
            g = _pow(-1j * sign2 * x + 2.0 * e2, a2) * (-1j / (a2 - 1.0)) * bracket
            return 2.0 * g.real

        def term4(x):
            return (t - x) * 2.0 * _pow(-1j * x + 2.0 * e1, a2 - 2.0).real

        t1 = _quad(term1, 0.0, t, scale=ridge)
        t2 = _quad(term2, 0.0, t, scale=ridge)
        t4 = (2.0 * e2) ** a2 * _quad(term4, 0.0, t, scale=ridge)
        return (t1 - t2 + t4) / (a2 * (a2 - 1.0))

    kappa = ModelParams(alpha).kappa
    return kappa * kappa * 2.0 * (sign_term(1.0) + sign_term(-1.0))


def levy_area_variance_by_mpmath(alpha, e1, e2, t, dps=20):
    """Second Levy-area moment by mpmath tanh-sinh quadrature.

    The same one-dimensional reduction as ``levy_area_variance_by_quadpack``,
    its terms and both signs summed under one integral, in dps-digit
    arithmetic with breakpoints at 4^k min(e1, e2) from both ends of
    [0, t].  Slow; for a handful of pinned points.
    """
    import mpmath

    from cfbm.gamma_process import ModelParams

    with mpmath.workdps(dps):
        a2 = 2 * mpmath.mpf(alpha)
        e1, e2, t = mpmath.mpf(e1), mpmath.mpf(e2), mpmath.mpf(t)
        j = mpmath.mpc(0, 1)

        def f(x):
            total = 0
            for s in (1, -1):
                b = mpmath.power(-j * s * x + 2 * e2, a2)
                term1 = (t - x) * 2 * mpmath.re(mpmath.power(-j * x + 2 * e1, a2 - 2) * b)
                bracket = mpmath.power(-j * (x - t) + 2 * e1, a2 - 1) - mpmath.power(
                    -j * x + 2 * e1, a2 - 1
                )
                term2 = 2 * mpmath.re(b * (-j / (a2 - 1)) * bracket)
                term4 = (t - x) * 2 * mpmath.re(mpmath.power(-j * x + 2 * e1, a2 - 2))
                total += term1 - term2 + (2 * e2) ** a2 * term4
            return total

        left = [mpmath.mpf(0)]
        x = min(e1, e2)
        while x < t / 2:
            left.append(x)
            x *= 4
        pts = left + [t / 2] + [t - p for p in reversed(left)]
        val = mpmath.quad(f, pts) / (a2 * (a2 - 1))
        kappa = ModelParams(alpha).kappa
        return float(kappa * kappa * 2 * val)


def contour_pieces_by_quadpack(s, t, alpha):
    """The three non-elementary contour-kernel pieces by adaptive QUADPACK.

    Returns the horizontal pair (1, 1), vertical x horizontal (0, 1) and
    opposite verticals (0, 2) with the integrands and ranges of
    `contour_kernel_pieces`, by `quad`, `dblquad` and `quad`.  `dblquad`
    calls its integrand as f(y, x) with x over the first range: here rho'
    over [0, t] is the inner variable and rho over [0, s] the outer one.
    """
    am2 = 2.0 * alpha - 2.0
    hh, _ = integrate.quad(
        lambda u: 2.0 * (t - u) * (u * u + 4.0 * s * s) ** (am2 / 2.0),
        0.0,
        t,
        epsabs=1e-13,
        epsrel=1e-11,
        limit=200,
    )
    vh, _ = integrate.dblquad(
        lambda rp, rho: (rp * rp + (rho + s) ** 2) ** (am2 / 2.0),
        0.0,
        s,
        0.0,
        t,
        epsabs=1e-12,
        epsrel=1e-10,
    )
    vv, _ = integrate.quad(
        lambda d: (s - abs(d)) * (t * t + (d + s) ** 2) ** (am2 / 2.0),
        -s,
        s,
        points=(0.0,),
        epsabs=1e-13,
        epsrel=1e-11,
        limit=200,
    )
    return {(1, 1): hh, (0, 1): vh, (0, 2): vv}


def volume_inner_by_mpmath(x2, y2, sigma3, eps3, alpha, dps=50):
    """The four-power closed form of `volume_inner_closed` in dps-digit arithmetic."""
    import mpmath

    with mpmath.workdps(dps):
        a2, e, s = 2 * mpmath.mpf(alpha), 2 * mpmath.mpf(eps3), int(sigma3)
        x2, y2, j = mpmath.mpf(x2), mpmath.mpf(y2), mpmath.mpc(0, 1)
        val = (
            mpmath.power(e, a2)
            - mpmath.power(-j * s * x2 + e, a2)
            - mpmath.power(j * s * y2 + e, a2)
            + mpmath.power(-j * s * (x2 - y2) + e, a2)
        ) / (a2 * (a2 - 1))
        return complex(val)


def l2_error_by_mpmath(t, eps, alpha, dps=60):
    """E|Gamma(eps)_t - Gamma_t|^2 as the `cov_eps` assembly
    cov(t,eps; t,eps) - 2 cov(t,eps; t,0) + cov(t,0; t,0) in dps-digit
    arithmetic."""
    import mpmath

    from cfbm.gamma_process import ModelParams

    with mpmath.workdps(dps):
        a2, j = 2 * mpmath.mpf(alpha), mpmath.mpc(0, 1)
        t, eps = mpmath.mpf(t), mpmath.mpf(eps)
        kappa = ModelParams(alpha).kappa

        def cov(e1, e2):
            # cov_eps(t, e1, t, e2) for a base that is never 0
            i_val = (
                mpmath.power(e1 + e2, a2)
                - mpmath.power(e1 - j * t, a2)
                - mpmath.power(e2 + j * t, a2)
            ) / (a2 * (a2 - 1))
            return 2 * mpmath.re(kappa * i_val)

        return float(cov(eps, eps) - 2 * cov(eps, 0) + cov(0, 0))


def hyp2f1_euler_integral(a, b, c, z, dps=25):
    """Independent 2F1 evaluation by quadrature of the Euler integral.

    Gamma(c)/(Gamma(b)Gamma(c-b)) * int_0^1 t^(b-1) (1-t)^(c-b-1) (1-tz)^(-a) dt,
    valid for Re c > Re b > 0 and z off [1, oo), and at z = 1 when
    Re(c-a-b) > 0, where the integrand t^(b-1) (1-t)^(c-a-b-1) is integrable.
    Uses tanh-sinh quadrature in extended precision.
    """
    import mpmath

    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if not (c.real > b.real > 0):
        raise ValueError(f"Euler integral needs Re c > Re b > 0 (b={b}, c={c})")
    if z.imag == 0 and z.real >= 1.0 and not (z.real == 1.0 and (c - a - b).real > 0):
        raise BranchCutError(f"Euler integral undefined at z={z} (c-a-b={c - a - b})")
    with mpmath.workdps(dps):
        ma, mb, mc, mz = (mpmath.mpmathify(w) for w in (a, b, c, z))

        def integrand(t):
            return (
                mpmath.power(t, mb - 1)
                * mpmath.power(1 - t, mc - mb - 1)
                * mpmath.power(1 - t * mz, -ma)
            )

        val = mpmath.quad(integrand, [0, 1])
        val *= mpmath.gamma(mc) / (mpmath.gamma(mb) * mpmath.gamma(mc - mb))
        return complex(val)


def series_2f1_by_integer_index(a, b, c, z, max_terms=_SERIES_MAX_TERMS):
    """The 2F1 power series with the term index an int.

    The library's former ``_series_2f1``, kept verbatim as the oracle for
    the float-indexed loop: ``a + n`` with an int n converts n exactly, so
    the two give every term, and the sum, the same bits.
    """
    # plain hypergeometric power series with a term-count guard; terminates
    # exactly when a or b is a non-positive integer.  With real parameters
    # the term ratio is formed in float arithmetic.
    if a.imag == 0 and b.imag == 0 and c.imag == 0:
        a, b, c = a.real, b.real, c.real
    term = 1.0 + 0j
    total = 1.0 + 0j
    small = 0
    for n in range(max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
        if abs(term) <= _SERIES_TOL * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise NonConvergenceError(
        f"2F1 series guard tripped after {max_terms} terms at z={z}"
    )


def cheapest_route_by_route_list(a, b, c, z):
    """The 2F1 route of least estimated cost, from a list built route by route.

    The library's former ``_cheapest_route``, kept verbatim as the oracle for
    the one tuple literal of the seven routes: the same moduli, charges and
    order, so the same (expansion, pfaff), ties included.  The expansions are
    looked up in ``cfbm.specfun`` at call time.
    """
    from cfbm import specfun as sf

    # the convergent, non-degenerate route of least estimated cost, as
    # (expansion, pfaff).  A Pfaff route sums the expansion in w = z/(z-1)
    # with (a, c-b, c), where |w| = |z|/|1-z|, |1-w| = 1/|1-z| and the pole
    # differences b-a and c-a-b swap.  Off the cut some route always has
    # modulus <= 0.8, so when none is left every convergent one was a
    # degenerate connection.
    az, a1 = abs(z), abs(1.0 - z)
    charge_ba, charge_cab = sf._connection_charge(b - a), sf._connection_charge(c - a - b)
    routes = []
    for pfaff, m, m_1m, charge_1m, charge_inv in (
        (False, az, a1, charge_cab, charge_ba),
        (True, az / a1, 1.0 / a1, charge_ba, charge_cab),
    ):
        routes += [
            (sf._series_2f1, pfaff, m, 1.0, 0.0),
            (sf._connection_one_minus_z, pfaff, m_1m, 2.0, charge_1m),
            (sf._connection_inv_z, pfaff, 1.0 / m, 2.0, charge_inv),
        ]
    z0 = sf._TAYLOR_RADIUS * z / az
    m_taylor = abs(az - sf._TAYLOR_RADIUS) / min(sf._TAYLOR_RADIUS, abs(1.0 - z0))
    routes.append(
        (sf._taylor_2f1, False, m_taylor, sf._TAYLOR_TERM_WEIGHT, sf._TAYLOR_START_CHARGE)
    )
    best, best_cost = None, math.inf
    for expansion, pfaff, m, n_series, charge in routes:
        if m >= 1.0:
            continue
        cost = charge + (n_series * sf._LOG_TOL / math.log(m) if m > 0 else 0.0)
        if cost < best_cost:
            best, best_cost = (expansion, pfaff), cost
    if best is None:
        raise sf.DegenerateParameterError(
            f"2F1 at z={z}: every convergent route is a connection whose Gamma "
            f"coefficients hit a pole (b-a={b - a}, c-a-b={c - a - b})"
        )
    return best


def areas_batch(comps):
    """Trapezoid area int (X2 - X2_0) dX1 of (n, m) batches, written out."""
    x1, x2 = comps
    y = x2 - x2[0]
    return np.sum(0.5 * (y[:-1] + y[1:]) * np.diff(x1, axis=0), axis=0)


def volumes_batch(comps):
    """Nested trapezoid volume int dX1 int dX2 int dX3 of (n, m) batches, written out."""
    x1, x2, x3 = comps
    inner = x3 - x3[0]
    steps = 0.5 * (inner[:-1] + inner[1:]) * np.diff(x2, axis=0)
    mid = np.vstack([np.zeros(steps.shape[1]), np.cumsum(steps, axis=0)])
    return np.sum(0.5 * (mid[:-1] + mid[1:]) * np.diff(x1, axis=0), axis=0)


def environment_invariants(out_dir):
    """Outputs that must not depend on the BLAS kernels or numpy's SIMD dispatch.

    The bits of one grid covariance and of one Levy-area second moment, and
    the SHA-256 digests of the kernel-check and cov-check CSVs (written into
    ``out_dir``), as a dict of strings.
    """
    import hashlib
    from pathlib import Path

    from cfbm.cli import main
    from cfbm.eps_approx import EpsApproxSpec, covariance_matrix
    from cfbm.gamma_process import ModelParams
    from cfbm.rough_integrals import LevyAreaSpec, levy_area_variance

    grid = tuple(np.linspace(0.0, 1.0, 257))
    cov = covariance_matrix(EpsApproxSpec(0.4, 0.1, grid), ModelParams(0.4))
    out = {
        "covariance_matrix": hashlib.sha256(np.ascontiguousarray(cov).tobytes()).hexdigest(),
        "levy_area_variance": levy_area_variance(LevyAreaSpec(0.4, 1.0, 0.1, 0.1)).hex(),
    }
    for argv in (["kernel-check", "--alpha", "0.3"], ["cov-check", "--alpha", "0.35"]):
        path = Path(out_dir) / f"{argv[0]}.csv"
        if main([*argv, "--out", str(path)]) != 0:
            raise RuntimeError(f"{argv[0]} failed its gate")
        out[argv[0]] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out
