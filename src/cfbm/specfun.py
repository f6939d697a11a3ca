"""Complex special functions and the quadrature rule of the analytic-FBM toolkit.

Principal-branch powers, a Gamma function (``math.gamma`` on the real axis,
``scipy.special.gamma`` off it), a Gauss 2F1 engine that evaluates whichever
of seven convergent expansions is cheapest at its argument (see ``hyp2f1``),
and the guarded graded Gauss-Legendre rule behind every runtime quadrature
(the Levy-area variance and its sign-resolved sum, the contour-kernel pieces
and the ``levy-volume`` inner check): 20-point panels, checked against the
12-point rule on the same panels.

All functions are pure and stateless.  Domain violations raise SpecFunError
subclasses instead of returning NaN, so callers cannot silently continue
across a branch cut or a Gamma pole: BranchCutError on [1, oo) unless 2F1 is
a polynomial, PoleError at non-positive integer c, DegenerateParameterError
when every convergent route is a connection with an integer b-a or c-a-b, and
NonConvergenceError when a series trips its 6000-term guard or overflows, or
the two quadrature rules disagree.  A Gamma, power or 2F1 value past the
double range raises SpecFunError itself.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

__all__ = [
    "SpecFunError",
    "BranchCutError",
    "PoleError",
    "NonConvergenceError",
    "DegenerateParameterError",
    "principal_pow",
    "gamma_fn",
    "hyp2f1",
    "hyp2f1_at_one",
]


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
    allowed for Re beta > 0, where the limit value 0 is returned.  A value
    past the double range raises SpecFunError.
    """
    z = complex(z)
    beta = complex(beta)
    if z == 0:
        if beta.real <= 0:
            raise BranchCutError(f"0**beta undefined for Re beta <= 0 (beta={beta})")
        return 0j
    if z.imag == 0 and z.real < 0:
        raise BranchCutError(f"principal power evaluated on the cut at z={z}")
    try:
        return cmath.exp(beta * cmath.log(z))
    except OverflowError:
        raise SpecFunError(f"z**beta at z={z}, beta={beta} overflows double precision") from None


def _pow(z, beta):
    # principal power without domain checks; callers guarantee z is off the
    # cut and nonzero (typically Re z > 0).  Works on numpy arrays as well as
    # scalars.
    return np.exp(beta * np.log(z))


# ---------------------------------------------------------------------------
# guarded graded Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

# Gauss-Legendre orders of the graded rule and of its guard, and the guard's
# tolerances
_GL_ORDER, _GL_GUARD_ORDER = 20, 12
_EPSABS, _EPSREL = 1e-12, 3e-10


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
    while h < 0.5 * t:
        left.append(h)
        h *= 2.0
    left = np.array(left)
    return np.concatenate((left, [0.5 * t], (t - left)[::-1]))


def _graded_quad(f, edges, what):
    # Integral of f over [edges[0], edges[-1]]: the 20-point Gauss-Legendre
    # rule on each panel between consecutive edges.  f maps the 1-d array of
    # nodes to their values, or to a 2-d array whose columns are integrated
    # one by one, so a vectorised inner rule nests inside an outer one.  The
    # 12-point rule on the same panels, from the same call of f, is the guard:
    # NonConvergenceError, naming `what`, where the two differ by more than
    # max(1e-12, 3e-10 |integral|) in any column.  A node value or sum that
    # overflows or is undefined leaves a NaN gap, so the guard raises for it,
    # and numpy's floating-point warnings are off while it is computed.
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    (xv, wv), (xg, wg) = (_gauss_legendre(n) for n in (_GL_ORDER, _GL_GUARD_ORDER))
    with np.errstate(all="ignore"):
        fx = f((mid[:, None] + half[:, None] * np.concatenate((xv, xg))).ravel())
        # panel sums first, then the node weights
        sums = (half @ fx.reshape(len(half), -1)).reshape(len(xv) + len(xg), *fx.shape[1:])
        val = wv @ sums[: len(wv)]
        gap = np.abs(val - wg @ sums[len(wv):])
    if not np.all(gap <= np.maximum(_EPSABS, _EPSREL * np.abs(val))):
        raise NonConvergenceError(
            f"{what}: {_GL_ORDER}- and {_GL_GUARD_ORDER}-point rules differ by "
            f"{np.max(gap):.3e} (integral {np.ravel(val)[np.argmax(gap)]:.6e})"
        )
    return val


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

def _is_nonpositive_integer(z, tol=1e-12):
    z = complex(z)
    if abs(z.imag) > tol:
        return False
    n = round(z.real)
    return n <= 0 and abs(z.real - n) <= tol


def gamma_fn(z):
    """Gamma function: ``math.gamma`` on the real axis, scipy's complex one off it.

    Raises PoleError at the non-positive integers, and SpecFunError where
    Gamma overflows; where it underflows, the value is 0.
    """
    z = complex(z)
    if z.imag == 0:
        x = z.real
        if x <= 0 and x.is_integer():
            raise PoleError(f"Gamma pole at z={z}")
        try:
            return math.gamma(x)
        except OverflowError:
            raise SpecFunError(f"Gamma({x}) overflows double precision") from None
    g = complex(_complex_gamma()(z))
    if not cmath.isfinite(g):
        raise SpecFunError(f"Gamma({z}) overflows double precision")
    return g


@functools.cache
def _complex_gamma():
    # scipy's complex Gamma, bound on first use: importing cfbm loads no scipy
    from scipy.special import gamma

    return gamma


def _rgamma(z):
    # 1/Gamma, with the value 0 at the poles.  Used for connection-formula
    # coefficients whose denominator Gamma may legitimately blow up.  Where
    # Gamma underflows to 0 off a pole, 1/Gamma overflows.
    try:
        return 1.0 / gamma_fn(z)
    except PoleError:
        return 0j
    except ZeroDivisionError:
        raise SpecFunError(f"1/Gamma({z}) overflows double precision") from None


# ---------------------------------------------------------------------------
# Gauss 2F1
# ---------------------------------------------------------------------------

_SERIES_MAX_TERMS = 6000
_SERIES_TOL = 1e-17
_DEGENERACY_TOL = 1e-9
_TAYLOR_RADIUS = 0.7
# Route costs are in series terms: a series in a variable of modulus m needs
# about ln(_SERIES_TOL)/ln(m) terms.  A connection also pays a fixed charge
# for its Gamma coefficients, and the Taylor re-expansion for the two series
# at |z0| = 0.7 that give its start values; a Taylor term costs about two
# series terms.  When a connection's pole difference lies within
# delta < _NEAR_POLE of an integer, its two terms cancel and lose about
# log10(1/delta) digits, so it pays _DIGIT_CHARGE terms per digit of
# log10(_NEAR_POLE/delta) as well.
_LOG_TOL = math.log(_SERIES_TOL)
_GAMMA_CHARGE = 40.0
_NEAR_POLE = 1e-2
_DIGIT_CHARGE = 1000.0
_TAYLOR_TERM_WEIGHT = 2.0
_TAYLOR_START_CHARGE = 2.0 * _LOG_TOL / math.log(_TAYLOR_RADIUS)


def _overflow(error, what, z, value):
    # a value past the double range is an error, not a result: an overflowed
    # series passes its stop test (inf <= inf), abs() of a term past the
    # range raises OverflowError, and a product of finite Gamma coefficients,
    # powers and series may overflow
    return error(f"{what} at z={z} overflows double precision ({value})")


def _series_2f1(a, b, c, z, max_terms=_SERIES_MAX_TERMS):
    # plain hypergeometric power series with a term-count guard; terminates
    # exactly when a or b is a non-positive integer.  With real parameters
    # the term ratio is formed in float arithmetic.  The index n is carried
    # as a float: below 2**53 it is the integer exactly, so each term has
    # the bits that integer n would give.
    if a.imag == 0 and b.imag == 0 and c.imag == 0:
        a, b, c = a.real, b.real, c.real
    tol = _SERIES_TOL
    term = 1.0 + 0j
    total = 1.0 + 0j
    small = 0
    n = 0.0
    try:
        for _ in range(max_terms):
            n1 = n + 1.0
            term *= (a + n) * (b + n) / ((c + n) * n1) * z
            total += term
            if abs(term) <= tol * abs(total):
                small += 1
                if small >= 2:
                    if cmath.isfinite(total):
                        return total
                    raise _overflow(NonConvergenceError, "2F1 series", z, total)
            else:
                small = 0
            n = n1
    except OverflowError:
        raise _overflow(NonConvergenceError, "2F1 series", z, total) from None
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
    value = complex(gamma_fn(c) * gamma_fn(c - a - b) * _rgamma(c - a) * _rgamma(c - b))
    if not cmath.isfinite(value):
        raise _overflow(SpecFunError, "2F1", 1.0, value)
    return value


def _connection_inv_z(a, b, c, z):
    # DLMF 15.8.2: series in 1/z, two terms that swap a and b (b - a
    # non-integer); a term whose coefficient has 1/Gamma at a pole is 0
    gc = gamma_fn(c)
    inv = 1.0 / z
    out = 0j
    for p, q in ((a, b), (b, a)):
        coeff = gc * gamma_fn(q - p) * _rgamma(q) * _rgamma(c - p)
        if coeff != 0:
            out += coeff * principal_pow(-z, -p) * _series_2f1(p, 1 - c + p, 1 - q + p, inv)
    return out


def _connection_one_minus_z(a, b, c, z):
    # DLMF 15.8.4: series in 1-z (c - a - b non-integer)
    gc = gamma_fn(c)
    u = 1.0 - z
    out = 0j
    coeff_1 = gc * gamma_fn(c - a - b) * _rgamma(c - a) * _rgamma(c - b)
    if coeff_1 != 0:
        out += coeff_1 * _series_2f1(a, b, a + b - c + 1, u)
    coeff_2 = gc * gamma_fn(a + b - c) * _rgamma(a) * _rgamma(b)
    if coeff_2 != 0:
        out += coeff_2 * principal_pow(u, c - a - b) * _series_2f1(
            c - a, c - b, c - a - b + 1, u
        )
    return out


def _taylor_2f1(a, b, c, z):
    # Taylor re-expansion about z0 = 0.7 z/|z| (Pearson, Olver & Porter,
    # Numer. Algorithms 74, 2017).  With t = z - z0 the hypergeometric ODE
    # z(1-z) F'' + (c - (a+b+1) z) F' - ab F = 0 gives the coefficients d_k
    # of F(z0 + t) = sum d_k t^k the three-term recurrence
    #   p0 (k+2)(k+1) d_{k+2} = -(p1 k + q0)(k+1) d_{k+1} - (q1 k - k(k-1) - ab) d_k
    # with p0 = z0(1-z0), p1 = 1-2 z0, q0 = c-(a+b+1) z0, q1 = -(a+b+1); it
    # runs on the terms e_k = d_k t^k.
    z0 = _TAYLOR_RADIUS * z / abs(z)
    t = z - z0
    ab = a * b
    p0 = z0 * (1.0 - z0)
    p1 = 1.0 - 2.0 * z0
    q1 = -(a + b + 1.0)
    q0 = c + q1 * z0
    t1 = t / p0
    t2 = t * t1
    e_prev = _series_2f1(a, b, c, z0)
    e = ab / c * _series_2f1(a + 1, b + 1, c + 1, z0) * t
    total = e_prev + e
    small = 0
    what = "2F1 Taylor re-expansion"
    try:
        for k in range(_SERIES_MAX_TERMS):
            e_prev, e = e, -(
                (p1 * k + q0) * (k + 1) * t1 * e + (q1 * k - k * (k - 1) - ab) * t2 * e_prev
            ) / ((k + 2) * (k + 1))
            total += e
            if abs(e) <= _SERIES_TOL * abs(total):
                small += 1
                if small >= 2:
                    if cmath.isfinite(total):
                        return total
                    raise _overflow(NonConvergenceError, what, z, total)
            else:
                small = 0
    except OverflowError:
        raise _overflow(NonConvergenceError, what, z, total) from None
    raise NonConvergenceError(f"{what} guard tripped after {_SERIES_MAX_TERMS} terms at z={z}")


def _connection_charge(w):
    # fixed charge of a connection whose pole difference is w: infinite
    # (skip) on a pole, plus the digit charge near one
    delta = abs(w - round(w.real))
    if delta <= _DEGENERACY_TOL:
        return math.inf
    return _GAMMA_CHARGE + _DIGIT_CHARGE * max(0.0, math.log10(_NEAR_POLE / delta))


def _cheapest_route(a, b, c, z):
    # the convergent, non-degenerate route of least estimated cost, as
    # (expansion, pfaff).  A Pfaff route sums the expansion in w = z/(z-1)
    # with (a, c-b, c), where |w| = |z|/|1-z|, |1-w| = 1/|1-z| and the pole
    # differences b-a and c-a-b swap.  Off the cut some route always has
    # modulus <= 0.8, so when none is left every convergent one was a
    # degenerate connection.
    az, a1 = abs(z), abs(1.0 - z)
    w = az / a1
    charge_ba, charge_cab = _connection_charge(b - a), _connection_charge(c - a - b)
    z0 = _TAYLOR_RADIUS * z / az
    m_taylor = abs(az - _TAYLOR_RADIUS) / min(_TAYLOR_RADIUS, abs(1.0 - z0))
    best, best_cost = None, math.inf
    for expansion, pfaff, m, n_series, charge in (
        (_series_2f1, False, az, 1.0, 0.0),
        (_connection_one_minus_z, False, a1, 2.0, charge_cab),
        (_connection_inv_z, False, 1.0 / az, 2.0, charge_ba),
        (_series_2f1, True, w, 1.0, 0.0),
        (_connection_one_minus_z, True, 1.0 / a1, 2.0, charge_ba),
        (_connection_inv_z, True, 1.0 / w, 2.0, charge_cab),
        (_taylor_2f1, False, m_taylor, _TAYLOR_TERM_WEIGHT, _TAYLOR_START_CHARGE),
    ):
        if m >= 1.0:
            continue
        cost = charge + (n_series * _LOG_TOL / math.log(m) if m > 0 else 0.0)
        if cost < best_cost:
            best, best_cost = (expansion, pfaff), cost
    if best is None:
        raise DegenerateParameterError(
            f"2F1 at z={z}: every convergent route is a connection whose Gamma "
            f"coefficients hit a pole (b-a={b - a}, c-a-b={c - a - b})"
        )
    return best


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric function 2F1(a, b; c; z), principal branch.

    Seven routes, each a convergent expansion in its own variable:

    - three expansions: the power series, the connection formula in 1-v
      (DLMF 15.8.4) and the one in 1/v (15.8.2), the connections being two
      series with Gamma-function coefficients;
    - each summed in v = z with (a, b, c), and in v = z/(z-1) with
      (a, c-b, c) times (1-z)^(-a) (the Pfaff transformation, 15.8.1), which
      gives the series in z/(z-1) and the connections in 1/(1-z) and 1-1/z;
    - a Taylor re-expansion of the hypergeometric ODE about
      z0 = 0.7 z/|z|, with modulus |z - z0| / min(|z0|, |1 - z0|), which
      covers the neighbourhood of exp(+-i pi/3) where all six Kummer
      variables have modulus near 1.

    The route evaluated is the one of least estimated cost: the series it
    sums times ln(1e-17)/ln(modulus), plus a fixed charge for the Gamma
    coefficients of a connection and for the two start-value series of the
    Taylor route.  Routes whose modulus is >= 1 are skipped.  A connection
    in 1/v has its Gamma poles at integer b-a (c-a-b after Pfaff), one in
    1-v at integer c-a-b (b-a after Pfaff): within 1e-9 of an integer it is
    skipped, and within delta < 1e-2 it pays 1000 terms per digit of
    log10(1e-2/delta), the digits its cancelling terms lose.

    It raises SpecFunError, naming the argument, when a, b, c or z is not
    finite.  When a or b is exactly a non-positive integer, 2F1 is a polynomial,
    summed as its terminating series at every z.  Otherwise it raises
    BranchCutError on [1, oo) (except the z -> 1 limit when
    Re(c-a-b) > 0).  It raises PoleError for non-positive integer c,
    DegenerateParameterError when every convergent route is a connection on
    a Gamma pole, and NonConvergenceError when the chosen series trips its
    6000-term guard or overflows.  Where a Gamma coefficient, 1/Gamma
    coefficient, power or the value itself is past the double range, it
    raises SpecFunError, so every value it returns is finite.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    isfinite = cmath.isfinite
    if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(z)):
        name, value = next(p for p in zip("abcz", (a, b, c, z)) if not isfinite(p[1]))
        raise SpecFunError(f"2F1 argument {name}={value} is not finite")
    if _is_nonpositive_integer(c):
        raise PoleError(f"2F1 undefined for non-positive integer c={c}")
    # a terminating polynomial has one value at every z, on [1, oo) too;
    # a or b merely near a non-positive integer does not terminate
    for p, q in ((a, b), (b, a)):
        if _is_nonpositive_integer(p, tol=0.0):
            return _series_2f1(p, q, c, z, max_terms=int(-p.real) + 4)
    if z == 0:
        return 1.0 + 0j
    if z.imag == 0 and z.real >= 1.0:
        if z.real == 1.0:
            return hyp2f1_at_one(a, b, c)
        raise BranchCutError(f"2F1 evaluated on the cut [1, oo) at z={z}")
    expansion, pfaff = _cheapest_route(a, b, c, z)
    if pfaff:
        value = principal_pow(1.0 - z, -a) * expansion(a, c - b, c, z / (z - 1.0))
    else:
        value = expansion(a, b, c, z)
    if not isfinite(value):
        raise _overflow(SpecFunError, "2F1", z, value)
    return value
