"""Complex-analytic fractional Brownian motion toolkit.

A numerical library and experiment CLI around an analytic Gaussian process on
the upper half-plane whose boundary value is fractional Brownian motion:
seeded series samplers, exact covariances of the imaginary-shift
regularization, special-function machinery for closed-form iterated-integral
moments, and Monte Carlo cross-checks.

The package re-exports the documented entry points and the exception
classes; everything else is imported from its module (``cfbm.specfun``,
``cfbm.gamma_process``, ``cfbm.eps_approx`` and ``cfbm.rough_integrals``).
"""

from .specfun import (
    BranchCutError,
    DegenerateParameterError,
    NonConvergenceError,
    PoleError,
    SpecFunError,
)
from .gamma_process import DomainError, ModelParams, gaussian_draw, sample_fbm_series
from .rough_integrals import LevyAreaSpec, levy_area_variance, levy_const

__version__ = "0.1.0"
