"""Independent reference evaluations, kept off the runtime path.

Slow, extended-precision routes that check the fast engines: the test suite
uses them, nothing else does (``specfun-test`` takes its reference from
``mpmath.hyp2f1`` itself).  They import
mpmath (the ``oracle`` extra) on use, so importing this module loads nothing
beyond cfbm.
"""

from __future__ import annotations

from .specfun import BranchCutError

__all__ = ["hyp2f1_euler_integral"]


def hyp2f1_euler_integral(a, b, c, z, dps=25):
    """Independent 2F1 evaluation by quadrature of the Euler integral.

    Gamma(c)/(Gamma(b)Gamma(c-b)) * int_0^1 t^(b-1) (1-t)^(c-b-1) (1-tz)^(-a) dt,
    valid for Re c > Re b > 0 and z off [1, oo), and at z = 1 when
    Re(c-a-b) > 0, where the integrand t^(b-1) (1-t)^(c-a-b-1) is integrable.
    Uses tanh-sinh quadrature in extended precision; a test oracle, not a
    fast path.
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
