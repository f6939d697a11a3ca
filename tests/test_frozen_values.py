"""Regression pins: oracle-verified values frozen at build time.

Each number below was computed and cross-checked with an independent route
(adaptive quadrature, the integration-by-parts recursion, 2-d quadrature,
or Monte Carlo) before being frozen; these tests guard against silent
drift, not correctness (the oracle comparisons live in the module tests).
"""

import numpy as np
import pytest

from cfbm.eps_approx import contour_kernel_integral, cov_eps, l2_error_law
from cfbm.gamma_process import F_k, ModelParams, cov_C, fk_table, gaussian_draw
from cfbm.rough_integrals import (
    I1,
    I2,
    LevyAreaSpec,
    PowerIntegralParams,
    levy_area_variance,
    levy_const,
    levy_volume_w1,
    mc_levy_area_moment,
)
from cfbm.specfun import gamma_fn, hyp2f1


def test_levy_constants():
    assert levy_const(0.4) == pytest.approx(0.6367261798919179, rel=1e-13)
    assert levy_const(0.3) == pytest.approx(1.1123016312003708, rel=1e-13)


def test_levy_area_variance_values():
    # cross-checked against 2-d quadrature and exact-sampler Monte Carlo
    assert levy_area_variance(LevyAreaSpec(0.4, 1.0, 0.1, 0.1)) == pytest.approx(
        0.14559260490422604, rel=1e-8
    )
    assert levy_area_variance(LevyAreaSpec(0.2, 1.0, 0.05, 0.05)) == pytest.approx(
        0.1775407323924432, rel=1e-8
    )


def test_power_integral_values():
    p = PowerIntegralParams(0, 0, 2 * 0.4 - 2, 2 * 0.4, 0.02, 0.01, 0.0, 1.0)
    assert I1(p) == pytest.approx(1.3021098064007224 + 0.6559706051140213j, rel=1e-10)
    assert I2(p) == pytest.approx(-1.261171739350589 - 0.42021760187395096j, rel=1e-10)


def test_volume_subterm_value():
    assert levy_volume_w1(0.3, 0.05, 0.05, 0.05, 1.0) == pytest.approx(
        -0.048702123874093957, rel=1e-8
    )


def test_hypergeometric_point():
    assert hyp2f1(0.3, 0.7, 1.1, 0.4 + 0.2j) == pytest.approx(
        1.0880690043307724 + 0.06263339417940358j, rel=1e-10
    )


def test_gamma_point():
    assert gamma_fn(3 + 4j) == pytest.approx(
        0.005225538471369792 - 0.17254707929430055j, rel=1e-12
    )


def test_basis_integral_points():
    # verified against the integration-by-parts recursion
    p = ModelParams(0.3)
    assert abs(F_k(0, 1.0, p)) == pytest.approx(0.41435183975388334, rel=1e-10)
    assert abs(F_k(2000, 1.0, p)) == pytest.approx(0.0007446777154282258, rel=1e-8)


def test_covariance_points():
    assert cov_C(0.5, 1.2, ModelParams(0.3)) == pytest.approx(
        0.24200255041724433 - 0.12094877297441667j, rel=1e-12
    )
    assert cov_eps(1.0, 0.05, 1.0, 0.05, ModelParams(0.4)) == pytest.approx(
        0.8668538263012275, rel=1e-12
    )
    assert l2_error_law(1.0, 0.05, ModelParams(0.35)) == pytest.approx(
        0.0507933246981257, rel=1e-10
    )


def test_contour_total():
    assert contour_kernel_integral(0.5, 1.0, ModelParams(0.3)) == pytest.approx(
        6.373563445253704, rel=1e-8
    )


def test_sampled_path_values():
    # pins the seeded coefficient stream and the F_k table together
    p = ModelParams(0.4)
    draw = gaussian_draw(42, 64, p)
    table = fk_table(64, np.array([0.5 + 0j, 1.0 + 0j]), p)
    vals = 2 * (draw.xi_plus @ table).real
    assert vals == pytest.approx(
        [-0.69989751533561584, -1.4780358170832786], rel=1e-12
    )


def test_mc_estimate_pinned():
    est = mc_levy_area_moment(0.4, 0.1, 1.0, 300, 256, seed=5)
    assert est.mean == pytest.approx(0.13411069655231647, rel=1e-12)
    assert est.stderr == pytest.approx(0.015862875682411175, rel=1e-12)
