"""Complex-analytic fractional Brownian motion toolkit.

A numerical library and experiment CLI around an analytic Gaussian process on
the upper half-plane whose boundary value is fractional Brownian motion:
seeded series samplers, exact covariances of the imaginary-shift
regularization, special-function machinery for closed-form iterated-integral
moments, and Monte Carlo cross-checks.

The package re-exports the documented entry points and the exception
classes; everything else is imported from its module (``cfbm.specfun``,
``cfbm.gamma_process``, ``cfbm.eps_approx`` and ``cfbm.rough_integrals``).
The iterated-integral entry points (``LevyAreaSpec``, ``levy_area_variance``
and ``levy_const``) are imported from ``cfbm.rough_integrals`` on first
access, so ``import cfbm`` and the sampling commands do not load that module.
"""

from .specfun import (
    BranchCutError,
    DegenerateParameterError,
    NonConvergenceError,
    PoleError,
    SpecFunError,
)
from .gamma_process import DomainError, ModelParams, gaussian_draw, sample_fbm_series

__version__ = "0.1.0"

_ROUGH_INTEGRALS_NAMES = ("LevyAreaSpec", "levy_area_variance", "levy_const")


def __getattr__(name):
    # PEP 562: called only for names the module does not define
    if name in _ROUGH_INTEGRALS_NAMES:
        from . import rough_integrals

        return getattr(rough_integrals, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
