"""Shared test oracles: brute-force and quadrature routes kept independent
of the library code paths they check."""

import numpy as np
from scipy import integrate


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

    Every entry normalization * 2 Re(kappa I) with I evaluated in complex
    arithmetic on n x n arrays; Toeplitz difference powers are gathered
    through an index array. The library builds the same matrix in real
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
    cov = params.normalization * 2.0 * (params.kappa * i_val).real
    return 0.5 * (cov + cov.T)


def levy_area_variance_dblquad(alpha, e1, e2, t):
    """Second Levy-area moment by 2-d quadrature of the inner-integrated forms."""
    import math

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
