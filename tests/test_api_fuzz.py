"""Seeded fuzz of the public analytic API at the input edges.

Each function is called on draws with alpha in 0.01 ... 0.99 and arguments
of magnitude 1e-12 ... 1e12 (and 0, points on and below the real axis, and
one time in twenty a NaN or infinite alpha, real argument or point).
The contract: a finite value (every entry of an array), or a ValueError,
which covers SpecFunError, DomainError and the argument checks; never
another exception or a numpy RuntimeWarning.
"""

import re
import warnings

import numpy as np
import pytest

from cfbm import eps_approx as ea
from cfbm import gamma_process as gp
from cfbm import rough_integrals as ri

DRAWS = 200  # per function


_NON_FINITE = (np.nan, np.inf, -np.inf)


def _or_non_finite(rng, draw):
    # draw(rng), or one time in twenty NaN or an infinity
    return _NON_FINITE[rng.integers(3)] if rng.random() < 0.05 else draw(rng)


def _finite_mag(rng):
    return 10.0 ** rng.uniform(-12.0, 12.0)


def _finite_real(rng):
    return 0.0 if rng.random() < 0.1 else _finite_mag(rng) * rng.choice((-1.0, 1.0))


def _alpha(rng):
    return _or_non_finite(rng, lambda r: r.uniform(0.01, 0.99))


def _params(rng):
    return gp.ModelParams(_alpha(rng))


def _mag(rng):
    return _or_non_finite(rng, _finite_mag)


def _real(rng):
    return _or_non_finite(rng, _finite_real)


def _upper(rng):
    return complex(_finite_real(rng), _finite_mag(rng))


_NON_FINITE_POINTS = (
    complex(np.nan, 0.5), complex(0.5, np.nan), complex(np.inf, 0.5),
    complex(-np.inf, 0.5), complex(0.5, np.inf),
)


def _point(rng):
    # above the real axis, on it, or in the strip -1 < Im z < 0 below it,
    # 1e-12 ... 1 from either edge; one draw in twenty NaN or infinite
    if rng.random() < 0.05:
        return _NON_FINITE_POINTS[rng.integers(len(_NON_FINITE_POINTS))]
    im = (_finite_mag(rng), 0.0, 10.0 ** rng.uniform(-12.0, 0.0) - 1.0)[rng.integers(3)]
    return complex(_finite_real(rng), im)


def _time_or_point(rng):
    # a real time, or one draw in two a point on, above or below the real axis
    return _real(rng) if rng.random() < 0.5 else _point(rng)


def _grid(rng):
    n = int(rng.integers(1, 41))
    if rng.random() < 0.5:
        return tuple(np.linspace(0.0, _finite_mag(rng), n))
    return tuple(sorted({_finite_real(rng) for _ in range(n)}))


def _power_params(rng):
    betas = [2.0 * _alpha(rng) - d for d in (2.0, 1.0, 0.0)]
    return ri.PowerIntegralParams(
        a=_real(rng), b=_real(rng), beta1=rng.choice(betas), beta2=rng.choice(betas),
        eps1=_mag(rng), eps2=_mag(rng), s=_real(rng), t=_real(rng),
    )


def _covariance_matrix(rng):
    alpha = _alpha(rng)
    return ea.covariance_matrix(ea.EpsApproxSpec(alpha, _mag(rng), _grid(rng)), gp.ModelParams(alpha))


CASES = {
    "fk_table": lambda r: gp.fk_table(
        int(r.integers(1, 300)), [_point(r) for _ in range(r.integers(1, 5))], _params(r)),
    "f_k": lambda r: gp.f_k(int(r.integers(0, 600)), _point(r), _params(r)),
    "kernel_closed": lambda r: gp.kernel_closed(_upper(r), _point(r), _params(r)),
    "kernel_partial_sum": lambda r: gp.kernel_partial_sum(
        _upper(r), _point(r), int(r.integers(1, 300)), _params(r)),
    "cov_C": lambda r: gp.cov_C(_time_or_point(r), _time_or_point(r), _params(r)),
    "cov_eps": lambda r: ea.cov_eps(_real(r), _mag(r), _real(r), _mag(r), _params(r)),
    "l2_error_law": lambda r: ea.l2_error_law(_real(r), _mag(r), _params(r)),
    "covariance_matrix": _covariance_matrix,
    "volume_inner_closed": lambda r: ri.volume_inner_closed(
        _real(r), _real(r), r.choice((1, -1)), _mag(r), _alpha(r)),
    "contour_vv_piece": lambda r: ea.contour_vv_piece(_real(r), _params(r)),
    "contour_kernel_integral": lambda r: ea.contour_kernel_integral(_mag(r), _mag(r), _params(r)),
    "I1": lambda r: ri.I1(_power_params(r)),
    "I2": lambda r: ri.I2(_power_params(r)),
    "levy_volume_w1": lambda r: ri.levy_volume_w1(_alpha(r), _mag(r), _mag(r), _mag(r), _mag(r)),
    "levy_area_sign_sum": lambda r: ri.levy_area_sign_sum(_alpha(r), _mag(r), _mag(r), _mag(r)),
    "levy_area_variance": lambda r: ri.levy_area_variance(
        ri.LevyAreaSpec(_alpha(r), _mag(r), _mag(r), _mag(r))),
    "levy_const": lambda r: ri.levy_const(_alpha(r)),
    "divergence_slope": lambda r: ri.divergence_slope(
        _alpha(r), [_mag(r) for _ in range(r.integers(2, 5))], _mag(r)),
    "kernel_terms_needed": lambda r: gp.kernel_terms_needed(_upper(r), _point(r), _params(r)),
    "F_k": lambda r: gp.F_k(int(r.integers(0, 600)), _point(r), _params(r)),
    "cayley": lambda r: gp.cayley(_point(r)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_finite_value_or_a_value_error(name):
    rng = np.random.default_rng([28, sorted(CASES).index(name)])
    outcomes = {"finite": 0, "raised": 0}
    for draw in range(DRAWS):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                value = CASES[name](rng)
            except ValueError:
                outcomes["raised"] += 1
                continue
        assert np.all(np.isfinite(value)), f"{name}, draw {draw}: {value}"
        outcomes["finite"] += 1
    # the draws reach past the error paths into finite values
    assert outcomes["finite"] >= DRAWS // 4, outcomes


_P = gp.ModelParams(0.3)
_POWER_ARGS = dict(a=0.1, b=0.2, beta1=-0.4, beta2=-0.4, eps1=0.2, eps2=0.1, s=0.0, t=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call, message", [
    (lambda x: gp.cov_C(x, 0.5, _P), "s={}"),
    (lambda x: gp.cov_C(0.5, x, _P), "t={}"),
    (lambda x: ea.l2_error_law(0.5, x, _P), "eps={}"),
    (lambda x: ea.l2_error_law(x, 0.5, _P), "t={}"),
    (lambda x: ri.volume_inner_closed(x, 0.5, 1, 0.1, 0.3), "x2 and y2 must be finite, got {}, 0.5"),
    (lambda x: ri.volume_inner_closed(0.5, x, 1, 0.1, 0.3), "x2 and y2 must be finite, got 0.5, {}"),
    (lambda x: ri.volume_inner_closed(0.5, 0.5, 1, x, 0.3), "eps3 must be finite and > 0, got {}"),
    (lambda x: ri.volume_inner_closed(0.5, 0.5, 1, 0.1, x), "alpha must be in (0, 1), got {}"),
    (lambda x: ri.levy_volume_w1(0.3, 0.1, 0.1, x, 1.0), "eps3 must be finite and > 0, got {}"),
    (lambda x: ri.PowerIntegralParams(**{**_POWER_ARGS, "eps1": x}), "eps1 and eps2 must be finite and > 0, got {}"),
    (lambda x: ri.PowerIntegralParams(**{**_POWER_ARGS, "beta2": x}), "beta2 must be finite, got {}"),
    (lambda x: ri.PowerIntegralParams(**{**_POWER_ARGS, "s": x}), "s must be finite, got {}"),
    (lambda x: ea.contour_kernel_integral(x, 1.0, _P), "s={}"),
    (lambda x: ea.contour_kernel_integral(1.0, x, _P), "t={}"),
    (lambda x: ea.contour_vv_piece(x, _P), "s={}"),
    (lambda x: ri.levy_area_sign_sum(x, 0.1, 0.1, 1.0), "alpha must be in (0, 1), got {}"),
    (lambda x: ri.levy_area_sign_sum(0.3, x, 0.1, 1.0), "eps1 and eps2 must be finite and > 0, got {}, 0.1"),
    (lambda x: ri.levy_area_sign_sum(0.3, 0.1, x, 1.0), "eps1 and eps2 must be finite and > 0, got 0.1, {}"),
    (lambda x: ri.levy_area_sign_sum(0.3, 0.1, 0.1, x), "t must be finite and > 0, got {}"),
    (lambda x: gp.cayley(complex(0.5, x)), "cayley requires a finite t, got t=(0.5+{}j)"),
    (lambda x: gp.cayley(complex(x, 0.5)), "cayley requires a finite t, got t=({}+0.5j)"),
], ids=["cov_C-s", "cov_C-t", "l2_error_law-eps", "l2_error_law-t", "volume_inner_closed-x2",
        "volume_inner_closed-y2", "volume_inner_closed-eps3", "volume_inner_closed-alpha",
        "levy_volume_w1-eps3", "PowerIntegralParams-eps1", "PowerIntegralParams-beta2",
        "PowerIntegralParams-s", "contour_kernel_integral-s", "contour_kernel_integral-t",
        "contour_vv_piece-s", "levy_area_sign_sum-alpha", "levy_area_sign_sum-eps1",
        "levy_area_sign_sum-eps2", "levy_area_sign_sum-t", "cayley-im", "cayley-re"])
def test_non_finite_argument_raises_naming_it(call, message, bad):
    # at entry, before any arithmetic: these returned NaN, an infinity or 0j,
    # or blamed the quadrature
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message.format(bad))):
            call(bad)
