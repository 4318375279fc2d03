"""The memory layout of the exact solution's tables and derived fields.

``default_case`` forms its derivative tables in component-major storage and
returns strided views of it, ``constant_stress_case`` returns C-ordered
arrays, and ``materials._gradient_stress`` reads any layout by component.
Here the stress law is held against ``c0_apply`` on both layouts, the tables
against finite differences on the (n, q, 3) point arrays that the norms and
loads pass, and every returned field against its documented shape.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bodyplate.manufactured import constant_stress_case, default_case
from bodyplate.materials import _gradient_stress, c0_apply, default_params
from test_manufactured import FD_STEP, FD_TOL, fd_gradient

#: Elements and points per element of the (n, q, 3) point arrays.
N, Q = 6, 5


def sym(g):
    return 0.5 * (g + np.swapaxes(g, -1, -2))


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(27)
    return rng.uniform([-0.45, -0.45, 0.05], [0.45, 0.45, 0.95],
                       size=(N, Q, 3))


@pytest.fixture(scope="module")
def plate_points():
    return np.random.default_rng(28).uniform(-0.95, 0.95, size=(N, Q, 2))


# ---------------------------------------------------------------------------
# The stress of a displacement gradient.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu", [0.3, 0.49])
@pytest.mark.parametrize("layout", ["C", "component-major"])
def test_gradient_stress_is_c0_of_the_strain(nu, layout):
    params = replace(default_params(), nu_alpha=nu)
    g = np.random.default_rng(4).standard_normal((50, 4, 3, 3))
    if layout == "component-major":
        g = np.moveaxis(np.ascontiguousarray(np.moveaxis(g, (-2, -1), (0, 1))),
                        (0, 1), (-2, -1))
        assert not g.flags.c_contiguous
    sigma = _gradient_stress(g, params)
    assert sigma.shape == g.shape
    # Bit for bit: the helper keeps c0_apply's order of operations, so the
    # norms and loads do not move.
    assert np.array_equal(sigma, c0_apply(sym(g), params))
    assert np.array_equal(sigma, np.swapaxes(sigma, -1, -2))


# ---------------------------------------------------------------------------
# Finite-difference checks on (n, q, 3) points.
# ---------------------------------------------------------------------------

def test_grad_u_body_on_element_points(points):
    case = default_case()
    fd = fd_gradient(lambda x: case.u_grad_body(x)[0], points)
    assert_allclose(case.u_grad_body(points)[1], fd, atol=FD_TOL)


def test_hess_u_body_on_element_points(points):
    case = default_case()
    fd = fd_gradient(lambda x: case.u_grad_body(x)[1], points)
    assert_allclose(case.hess_u_body(points), fd, atol=FD_TOL)


def test_f_body_on_element_points(points):
    case = default_case()
    div = np.zeros(points.shape)
    for j in range(3):
        step = np.zeros(3)
        step[j] = FD_STEP
        div += (case.sigma_body(points + step)[..., :, j]
                - case.sigma_body(points - step)[..., :, j]) / (2 * FD_STEP)
    assert_allclose(case.f_body(points), -div, atol=1e-4)


# ---------------------------------------------------------------------------
# Shapes of every returned field, for both layouts of the tables.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [default_case, constant_stress_case])
@pytest.mark.parametrize("ndim", [0, 1, 2])
def test_field_shapes(make, ndim, points, plate_points):
    # One point, a (q, 3) array and an (n, q, 3) array.
    case = make()
    x = points[(0,) * (2 - ndim)]
    p = plate_points[(0,) * (2 - ndim)]
    lead = x.shape[:-1]
    assert len(lead) == ndim and p.shape == lead + (2,)
    u, g = case.u_grad_body(x)
    assert u.shape == lead + (3,) and g.shape == lead + (3, 3)
    assert case.hess_u_body(x).shape == lead + (3, 3, 3)
    u_b, sigma = case.body_fields(x)
    assert u_b.shape == lead + (3,) and sigma.shape == lead + (3, 3)
    assert case.sigma_body(x).shape == lead + (3, 3)
    assert case.f_body(x).shape == lead + (3,)
    assert case.traction(x, np.array([0.0, 0.6, 0.8])).shape == lead + (3,)
    assert case.traction(x, np.ones(lead + (3,))).shape == lead + (3,)
    u_mem, grad_mem, u3, grad3 = case.plate_fields(p)
    assert u_mem.shape == lead + (2,) and grad_mem.shape == lead + (2, 2)
    assert u3.shape == lead and grad3.shape == lead + (2,)
    assert case.f_jump(p).shape == lead + (3,)
    assert case.f_membrane(p).shape == lead + (2,)
    assert case.f_bending(p).shape == lead
    assert case.hess_u3(p).shape == lead + (2, 2)


def test_traction_is_sigma_n(points):
    # sigma n by components against the matrix product of C-ordered copies.
    case = default_case()
    n = np.random.default_rng(9).standard_normal(points.shape)
    sigma = np.ascontiguousarray(case.sigma_body(points))
    assert_allclose(case.traction(points, n), (sigma @ n[..., None])[..., 0],
                    rtol=1e-14, atol=1e-13)
