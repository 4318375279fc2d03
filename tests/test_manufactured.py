"""Finite-difference validation of the closed-form benchmark cases.

Every hand-coded derivative table (gradient, Hessian, bilaplacian) is checked
against central finite differences of the corresponding function, and the
induced data (volume load, interface jump, plate loads) against their
defining formulas.  Also pins down a handful of exact point values so a silent
sign or scaling change cannot slip through.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bodyplate.manufactured import (
    INTERFACE_NORMAL,
    constant_stress_case,
    default_case,
)
from bodyplate.materials import c0_apply

FD_STEP = 1e-5
FD_TOL = 1e-6


def fd_gradient(f, x, is_vector=True):
    """Central-difference Jacobian d f_i / d x_j at a batch of points."""
    x = np.asarray(x, dtype=float)
    probes = []
    for j in range(x.shape[-1]):
        step = np.zeros(x.shape[-1])
        step[j] = FD_STEP
        probes.append((f(x + step) - f(x - step)) / (2 * FD_STEP))
    out = np.stack(probes, axis=-1)
    return out if is_vector else out


@pytest.fixture(scope="module")
def case():
    return default_case()


@pytest.fixture(scope="module")
def body_points():
    rng = np.random.default_rng(12)
    pts = rng.uniform([-0.45, -0.45, 0.05], [0.45, 0.45, 0.95], size=(40, 3))
    return pts


@pytest.fixture(scope="module")
def plate_points():
    rng = np.random.default_rng(21)
    return rng.uniform(-0.95, 0.95, size=(40, 2))


@pytest.fixture(scope="module")
def beta_points():
    """Points across all of beta = (-1, 1)^2, corners and centre included,
    with their lift (p, 0) to the body's coordinates."""
    rng = np.random.default_rng(18)
    p = np.vstack([rng.uniform(-1.0, 1.0, size=(60, 2)),
                   [[-1.0, -1.0], [1.0, 1.0], [0.0, 0.0]]])
    return p, np.column_stack([p, np.zeros(len(p))])


def u_body(case):
    return lambda x: case.u_grad_body(x)[0]


def grad_u_body(case):
    return lambda x: case.u_grad_body(x)[1]


class TestDerivativeTables:
    def test_grad_u_body(self, case, body_points):
        fd = fd_gradient(u_body(case), body_points)
        assert_allclose(grad_u_body(case)(body_points), fd, atol=FD_TOL)

    def test_hess_u_body(self, case, body_points):
        fd = fd_gradient(grad_u_body(case), body_points)
        assert_allclose(case.hess_u_body(body_points), fd, atol=FD_TOL)

    # The in-plane derivatives of the plate values are the plate gradients:
    # plate_fields slices the right rows and columns of the body's trace.
    def test_grad_u_membrane(self, case, plate_points):
        fd = fd_gradient(lambda p: case.plate_fields(p)[0], plate_points)
        assert_allclose(case.plate_fields(plate_points)[1], fd, atol=FD_TOL)

    def test_grad_u3(self, case, plate_points):
        fd = fd_gradient(lambda p: case.plate_fields(p)[2], plate_points)
        assert_allclose(case.plate_fields(plate_points)[3], fd, atol=FD_TOL)

    def test_hess_u3(self, case, plate_points):
        fd = fd_gradient(lambda p: case.plate_fields(p)[3], plate_points)
        assert_allclose(case.hess_u3(plate_points), fd, atol=FD_TOL)

    def test_bilap_u3(self, case, plate_points):
        # Laplacian of the Laplacian via the Hessian table, which is itself
        # FD-verified above.
        def lap(p):
            H = case.hess_u3(p)
            return H[..., 0, 0] + H[..., 1, 1]

        fd2 = fd_gradient(lambda p: fd_gradient(lap, p), plate_points)
        fd_bilap = fd2[..., 0, 0] + fd2[..., 1, 1]
        assert_allclose(case.bilap_u3(plate_points), fd_bilap, atol=1e-3)


class TestInducedData:
    def test_f_body_equals_minus_div_sigma(self, case, body_points):
        # -div sigma via finite differences of the closed-form stress.
        div = np.zeros((body_points.shape[0], 3))
        for j in range(3):
            step = np.zeros(3)
            step[j] = FD_STEP
            div += (
                case.sigma_body(body_points + step)[:, :, j]
                - case.sigma_body(body_points - step)[:, :, j]
            ) / (2 * FD_STEP)
        assert_allclose(case.f_body(body_points), -div, atol=1e-4)

    def test_sigma_is_c0_of_strain(self, case, body_points):
        sig = case.sigma_body(body_points)
        g = grad_u_body(case)(body_points)
        eps = 0.5 * (g + np.swapaxes(g, -1, -2))
        assert_allclose(sig, c0_apply(eps, case.params), atol=1e-12)
        assert_allclose(sig, np.swapaxes(sig, -1, -2), atol=1e-12)

    def test_f_jump_is_interface_traction(self, beta_points):
        # f_jump = sigma(p, 0) n = -sigma(p, 0) e3 on all of beta, not only
        # on Gamma, for both cases.
        p, x = beta_points
        for make in (default_case, constant_stress_case):
            case = make()
            assert np.array_equal(case.f_jump(p),
                                  -case.sigma_body(x)[:, :, 2])

    def test_f_bending_formula(self, case, plate_points):
        assert_allclose(
            case.f_bending(plate_points),
            case.params.d_beta * case.bilap_u3(plate_points),
            atol=1e-12,
        )

    def test_f_membrane_matches_fd_divergence(self, case):
        # -div(C1 eps(u*)) via finite differences.
        prm = case.params

        def n_stress(p):
            g = case.plate_fields(p)[1]
            eps = 0.5 * (g + np.swapaxes(g, -1, -2))
            c = prm.e_beta * prm.t_beta / (1.0 - prm.nu_beta**2)
            tr = eps[..., 0, 0] + eps[..., 1, 1]
            out = c * (1.0 - prm.nu_beta) * eps
            out[..., 0, 0] += c * prm.nu_beta * tr
            out[..., 1, 1] += c * prm.nu_beta * tr
            return out

        rng = np.random.default_rng(5)
        p = rng.uniform(-0.9, 0.9, size=(20, 2))
        div = np.zeros((20, 2))
        for j in range(2):
            step = np.zeros(2)
            step[j] = FD_STEP
            div += (n_stress(p + step)[:, :, j] - n_stress(p - step)[:, :, j]) / (
                2 * FD_STEP
            )
        assert_allclose(case.f_membrane(p), -div, atol=1e-3)


class TestCompatibility:
    def test_plate_fields_are_body_trace(self, beta_points):
        # The plate's values and gradients are the body's at (p, 0) on all
        # of beta, for both cases.
        p, x = beta_points
        n = len(p)
        for make in (default_case, constant_stress_case):
            case = make()
            u, g = case.u_grad_body(x)
            u_mem, grad_mem, u3, grad3 = case.plate_fields(p)
            assert u_mem.shape == (n, 2) and grad_mem.shape == (n, 2, 2)
            assert u3.shape == (n,) and grad3.shape == (n, 2)
            assert np.array_equal(u_mem, u[:, :2])
            assert np.array_equal(grad_mem, g[:, :2, :2])
            assert np.array_equal(u3, u[:, 2])
            assert np.array_equal(grad3, g[:, 2, :2])

    def test_hess_u3_is_body_hessian(self, beta_points):
        # The one plate table kept beside the body's cannot drift from it.
        p, x = beta_points
        for make in (default_case, constant_stress_case):
            case = make()
            assert np.array_equal(case.hess_u3(p),
                                  case.hess_u_body(x)[:, 2, :2, :2])

    def test_clamped_plate_boundary(self, case):
        # u* and u3 and grad u3 vanish on the boundary of (-1,1)^2.
        s = np.linspace(-1.0, 1.0, 17)
        for edge in (
            np.column_stack([s, np.full_like(s, -1.0)]),
            np.column_stack([s, np.full_like(s, 1.0)]),
            np.column_stack([np.full_like(s, -1.0), s]),
            np.column_stack([np.full_like(s, 1.0), s]),
        ):
            u_mem, _, u3, grad3 = case.plate_fields(edge)
            assert_allclose(u_mem, 0.0, atol=1e-13)
            assert_allclose(u3, 0.0, atol=1e-13)
            assert_allclose(grad3, 0.0, atol=1e-13)

    def test_point_values(self, case):
        # u^alpha(0, 0, 0) = (0, 0, 1): S(0,0) = 0, P(0) Q(0) R(0) = 1.
        val = case.u_grad_body(np.array([[0.0, 0.0, 0.0]]))[0]
        assert_allclose(val, [[0.0, 0.0, 1.0]], atol=1e-14)
        # In-plane shear stresses vanish at the origin by symmetry.
        sig = case.sigma_body(np.array([[0.0, 0.0, 0.0]]))[0]
        assert sig[0, 1] == pytest.approx(0.0, abs=1e-13)

    def test_interface_normal_convention(self):
        assert_allclose(INTERFACE_NORMAL, [0.0, 0.0, -1.0], atol=0)

    def test_exact_deflection_l2_norm(self, case):
        # ||u3||_{0,Gamma'}^2 over (-1,1)^2 = (int (1-x^2)^4 dx)^2 = (256/315)^2
        # since R(0) = 1; a dense tensor-product Gauss rule reproduces it.
        from numpy.polynomial.legendre import leggauss

        xg, wg = leggauss(20)
        P = np.column_stack([np.repeat(xg, 20), np.tile(xg, 20)])
        W = np.outer(wg, wg).ravel()
        val = float(np.sum(W * case.plate_fields(P)[2] ** 2))
        assert val == pytest.approx((256.0 / 315.0) ** 2, rel=1e-12)


class TestConstantStressCase:
    def test_stress_is_constant_and_correct(self):
        c = np.array([0.3, -0.2, 0.5])
        case = constant_stress_case(c)
        prm = case.params
        mu, lam = prm.lame_mu_alpha, prm.lame_lambda_alpha
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.4, 0.4, size=(10, 3))
        x[:, 2] = rng.uniform(0.1, 0.9, size=10)
        sig = case.sigma_body(x)
        expected = np.zeros((3, 3))
        expected[0, 0] = expected[1, 1] = lam * c[2]
        expected[2, 2] = (2 * mu + lam) * c[2]
        expected[0, 2] = expected[2, 0] = mu * c[0]
        expected[1, 2] = expected[2, 1] = mu * c[1]
        assert_allclose(sig, np.broadcast_to(expected, sig.shape), atol=1e-12)

    def test_zero_volume_load(self):
        case = constant_stress_case()
        x = np.random.default_rng(1).uniform(0.1, 0.4, size=(5, 3))
        assert_allclose(case.f_body(x), 0.0, atol=1e-14)

    def test_plate_fields_vanish(self):
        case = constant_stress_case()
        p = np.random.default_rng(2).uniform(-0.9, 0.9, size=(5, 2))
        for field in case.plate_fields(p):
            assert_allclose(field, 0.0, atol=0)
        assert_allclose(case.f_bending(p), 0.0, atol=0)

    def test_jump_equals_minus_stress_column(self):
        c = np.array([0.1, 0.2, -0.4])
        case = constant_stress_case(c)
        p = np.zeros((1, 2))
        sig = case.sigma_body(np.array([[0.0, 0.0, 0.0]]))[0]
        assert_allclose(case.f_jump(p)[0], -sig[:, 2], atol=1e-13)


class TestBodyFields:
    @pytest.mark.parametrize("make", [default_case, constant_stress_case])
    def test_one_evaluation_equals_the_separate_fields(self, make,
                                                       body_points):
        # The error norms take u and sigma from one evaluation of the exact
        # body solution; they must be the value of u_grad_body and
        # sigma_body, bit for bit.
        case = make()
        calls = []

        def counted(x):
            calls.append(x)
            return case.u_grad_body(x)

        one = replace(case, u_grad_body=counted)
        x = body_points.reshape(4, 10, 3)
        u, sigma = one.body_fields(x)
        assert len(calls) == 1
        assert u.shape == (4, 10, 3) and sigma.shape == (4, 10, 3, 3)
        assert np.array_equal(u, case.u_grad_body(x)[0])
        assert np.array_equal(sigma, case.sigma_body(x))

