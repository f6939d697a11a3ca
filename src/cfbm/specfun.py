"""Complex special functions for the analytic-FBM toolkit.

Self-contained principal-branch powers, a Lanczos Gamma function, Pochhammer
symbols, and a Gauss 2F1 engine built on the classical connection formulas.
The 2F1 dispatch is tuned for the power-integral family driving the Levy-area
analytics: power series near 0, the 1/z connection at large modulus, the 1-z
connection near 1, and a Pfaff-transformed (or guarded) series on the
remaining annulus.

All functions are pure and stateless.  Domain violations raise SpecFunError
subclasses instead of returning NaN, so callers cannot silently continue
across a branch cut or a Gamma pole.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "SpecFunError",
    "BranchCutError",
    "PoleError",
    "NonConvergenceError",
    "DegenerateParameterError",
    "EULER_GAMMA",
    "principal_pow",
    "gamma_fn",
    "log_pochhammer",
    "pochhammer",
    "hyp2f1",
    "hyp2f1_at_one",
    "hyp2f1_euler_integral",
]

EULER_GAMMA = 0.57721566490153286


class SpecFunError(ValueError):
    """Base class for special-function domain and convergence failures."""


class BranchCutError(SpecFunError):
    """Evaluation requested on (or across) a principal branch cut."""


class PoleError(SpecFunError):
    """Evaluation requested at a pole."""


class NonConvergenceError(SpecFunError):
    """A guarded series or quadrature failed to converge."""


class DegenerateParameterError(SpecFunError):
    """A connection formula hits a Gamma pole (integer parameter difference)."""


# ---------------------------------------------------------------------------
# principal-branch powers
# ---------------------------------------------------------------------------

def principal_pow(z, beta):
    """z**beta = exp(beta * Log z) with Im Log z in (-pi, pi).

    The closed negative real axis is rejected (BranchCutError); z = 0 is only
    allowed for Re beta > 0, where the limit value 0 is returned.
    """
    z = complex(z)
    beta = complex(beta)
    if z == 0:
        if beta.real <= 0:
            raise BranchCutError(f"0**beta undefined for Re beta <= 0 (beta={beta})")
        return 0j
    if z.imag == 0 and z.real < 0:
        raise BranchCutError(f"principal power evaluated on the cut at z={z}")
    return cmath.exp(beta * cmath.log(z))


def _pow(z, beta):
    # principal power without domain checks; callers guarantee z is off the
    # cut and nonzero (typically Re z > 0).  Works on numpy arrays as well as
    # scalars.
    return np.exp(beta * np.log(z))


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

# Lanczos approximation, g = 7, 9 coefficients.  Relative accuracy is a few
# ulps times 1e-15 over the right half-plane, comfortably inside the 1e-12
# target on |z| <= 50.
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def _is_nonpositive_integer(z, tol=1e-12):
    z = complex(z)
    if abs(z.imag) > tol:
        return False
    n = round(z.real)
    return n <= 0 and abs(z.real - n) <= tol


def gamma_fn(z):
    """Complex Gamma function (Lanczos, reflection for Re z < 0.5).

    Raises PoleError at the non-positive integers.
    """
    z = complex(z)
    if _is_nonpositive_integer(z, tol=0.0):
        raise PoleError(f"Gamma pole at z={z}")
    if z.real < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * gamma_fn(1.0 - z))
    zz = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += coeff / (zz + i)
    t = zz + 7.5
    return _SQRT_TWO_PI * t ** (zz + 0.5) * cmath.exp(-t) * acc


def _rgamma(z):
    # 1/Gamma, with the value 0 at the poles.  Used for connection-formula
    # coefficients whose denominator Gamma may legitimately blow up.
    if _is_nonpositive_integer(z, tol=0.0):
        return 0j
    return 1.0 / gamma_fn(z)


# ---------------------------------------------------------------------------
# Pochhammer
# ---------------------------------------------------------------------------

_POCH_PRODUCT_MAX = 128


def log_pochhammer(x, k):
    """log (x)_k for real x > 0, via log-Gamma (no overflow)."""
    if x <= 0:
        raise ValueError(f"log_pochhammer requires x > 0, got x={x}")
    if k < 0 or k != int(k):
        raise ValueError(f"k must be a non-negative integer, got {k}")
    if k == 0:
        return 0.0
    return math.lgamma(x + k) - math.lgamma(x)


def pochhammer(x, k):
    """Rising factorial (x)_k = x (x+1) ... (x+k-1).

    Uses the literal product for small k (and whenever x <= 0, where the
    result may be an exact 0); for large k with x > 0 it switches to the
    Gamma-ratio form through log-Gamma so intermediate factors cannot
    overflow before the final exponentiation.
    """
    if k < 0 or k != int(k):
        raise ValueError(f"k must be a non-negative integer, got {k}")
    k = int(k)
    if k == 0:
        return 1.0
    if k <= _POCH_PRODUCT_MAX or x <= 0:
        out = 1.0
        for j in range(k):
            out *= x + j
        return out
    return math.exp(log_pochhammer(x, k))


# ---------------------------------------------------------------------------
# Gauss 2F1
# ---------------------------------------------------------------------------

_SERIES_MAX_TERMS = 6000
_ANNULUS_MAX_TERMS = 40000
_DEGENERACY_TOL = 1e-9


def _near_integer(w, tol=_DEGENERACY_TOL):
    w = complex(w)
    return abs(w.imag) <= tol and abs(w.real - round(w.real)) <= tol


def _series_2f1(a, b, c, z, max_terms=_SERIES_MAX_TERMS):
    # plain hypergeometric power series with a term-count guard; terminates
    # exactly when a or b is a non-positive integer.
    term = 1.0 + 0j
    total = 1.0 + 0j
    small = 0
    for n in range(max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
        if abs(term) <= 1e-17 * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise NonConvergenceError(
        f"2F1 series guard tripped after {max_terms} terms at z={z}"
    )


def hyp2f1_at_one(a, b, c):
    """Limit of 2F1(a, b; c; z) as z -> 1, finite iff Re(c-a-b) > 0."""
    a, b, c = complex(a), complex(b), complex(c)
    if (c - a - b).real <= 0:
        raise BranchCutError(
            f"2F1 divergent at z=1 for Re(c-a-b)={ (c-a-b).real } <= 0"
        )
    return gamma_fn(c) * gamma_fn(c - a - b) * _rgamma(c - a) * _rgamma(c - b)


def _connection_inv_z(a, b, c, z, max_terms=_SERIES_MAX_TERMS):
    # z -> 1/z connection; needs b - a non-integer.
    if _near_integer(b - a):
        raise DegenerateParameterError(
            f"1/z connection degenerate: b-a={b - a} is (near-)integer"
        )
    coeff_a = gamma_fn(c) * gamma_fn(b - a) * _rgamma(b) * _rgamma(c - a)
    coeff_b = gamma_fn(c) * gamma_fn(a - b) * _rgamma(a) * _rgamma(c - b)
    inv = 1.0 / z
    out = 0j
    if coeff_a != 0:
        out += coeff_a * principal_pow(-z, -a) * _series_2f1(
            a, 1 - c + a, 1 - b + a, inv, max_terms
        )
    if coeff_b != 0:
        out += coeff_b * principal_pow(-z, -b) * _series_2f1(
            b, 1 - c + b, 1 - a + b, inv, max_terms
        )
    return out


def _connection_one_minus_z(a, b, c, z):
    # z -> 1-z connection; needs c - a - b non-integer.
    if _near_integer(c - a - b):
        raise DegenerateParameterError(
            f"1-z connection degenerate: c-a-b={c - a - b} is (near-)integer"
        )
    u = 1.0 - z
    coeff_1 = gamma_fn(c) * gamma_fn(c - a - b) * _rgamma(c - a) * _rgamma(c - b)
    coeff_2 = gamma_fn(c) * gamma_fn(a + b - c) * _rgamma(a) * _rgamma(b)
    out = 0j
    if coeff_1 != 0:
        out += coeff_1 * _series_2f1(a, b, a + b - c + 1, u)
    if coeff_2 != 0:
        out += coeff_2 * principal_pow(u, c - a - b) * _series_2f1(
            c - a, c - b, c - a - b + 1, u
        )
    return out


def _pfaff_series(a, b, c, z, max_terms=_SERIES_MAX_TERMS):
    # Pfaff transformation: 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1))
    w = z / (z - 1.0)
    return principal_pow(1.0 - z, -a) * _series_2f1(a, c - b, c, w, max_terms)


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric function 2F1(a, b; c; z), principal branch.

    Dispatch: direct series for |z| <= 0.7; the 1/z connection for |z| >= 1.4
    off the cut; the 1-z connection for |1-z| <= 0.3; on the remaining
    annulus a Pfaff-transformed series when its argument is small, otherwise
    a term-count-guarded series (in z or 1/z, whichever converges).

    Raises BranchCutError on [1, oo) (except the z -> 1 limit when
    Re(c-a-b) > 0), DegenerateParameterError when a connection formula hits a
    Gamma pole, and NonConvergenceError when the series guard trips.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if _is_nonpositive_integer(c):
        raise PoleError(f"2F1 undefined for non-positive integer c={c}")
    if a == 0 or b == 0:
        return 1.0 + 0j
    if z == 0:
        return 1.0 + 0j
    if z.imag == 0 and z.real >= 1.0:
        if z.real == 1.0:
            return hyp2f1_at_one(a, b, c)
        raise BranchCutError(f"2F1 evaluated on the cut [1, oo) at z={z}")
    # terminating polynomial (a or b a non-positive integer) converges for
    # every admissible z
    if _is_nonpositive_integer(a):
        return _series_2f1(a, b, c, z, max_terms=int(-a.real) + 4)
    if _is_nonpositive_integer(b):
        return _series_2f1(b, a, c, z, max_terms=int(-b.real) + 4)

    az = abs(z)
    if az <= 0.7:
        return _series_2f1(a, b, c, z)
    if abs(1.0 - z) <= 0.3:
        return _connection_one_minus_z(a, b, c, z)
    if az >= 1.4:
        return _connection_inv_z(a, b, c, z)
    # remaining annulus
    if abs(z / (z - 1.0)) <= 0.7:
        return _pfaff_series(a, b, c, z)
    if az < 1.0:
        return _series_2f1(a, b, c, z, max_terms=_ANNULUS_MAX_TERMS)
    return _connection_inv_z(a, b, c, z, max_terms=_ANNULUS_MAX_TERMS)


def hyp2f1_euler_integral(a, b, c, z, dps=25):
    """Independent 2F1 evaluation by quadrature of the Euler integral.

    Gamma(c)/(Gamma(b)Gamma(c-b)) * int_0^1 t^(b-1) (1-t)^(c-b-1) (1-tz)^(-a) dt,
    valid for Re c > Re b > 0 and z off [1, oo).  Uses tanh-sinh quadrature in
    extended precision; intended as a test oracle, not a fast path.
    """
    import mpmath  # only this oracle needs it; keeps it off the import path

    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if not (c.real > b.real > 0):
        raise ValueError(f"Euler integral needs Re c > Re b > 0 (b={b}, c={c})")
    if z.imag == 0 and z.real >= 1.0:
        raise BranchCutError(f"Euler integral undefined on [1, oo) at z={z}")
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
