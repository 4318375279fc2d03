"""Oracles for the constitutive maps.

Hand-computed reference values (E = 100, nu = 0.3):

* 3D stiffness applied to the identity strain: each diagonal entry is
  E/(1+nu) + 3 E nu / ((1+nu)(1-2nu)) = 76.923... + 3*57.692... = 250.
* Lame constants: mu = E/(2(1+nu)) = 38.4615..., lambda = E nu/((1+nu)(1-2nu))
  = 57.6923...
* Bending law with D = 1, nu = 0.3 applied to the identity curvature:
  (1-nu) + 2 nu = 1.3 on the diagonal.

The stiffness/compliance pair must compose to the identity, and every map
must broadcast over leading array dimensions.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bodyplate.materials import (
    MaterialParams,
    c0_apply,
    c0_inv_apply,
    c1_apply,
    c2_apply,
    default_params,
)


@pytest.fixture
def params():
    return default_params()


class TestMaterialParams:
    def test_default_values(self, params):
        assert params.e_alpha == 100.0
        assert params.nu_alpha == 0.3
        assert params.nu_beta == 0.3
        assert params.t_beta == 0.02

    def test_default_bending_stiffness_is_one(self, params):
        assert params.d_beta == pytest.approx(1.0, rel=1e-14)

    def test_lame_constants(self, params):
        assert params.lame_mu_alpha == pytest.approx(100.0 / 2.6, rel=1e-14)
        assert params.lame_lambda_alpha == pytest.approx(
            100.0 * 0.3 / (1.3 * 0.4), rel=1e-14
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            MaterialParams(-1.0, 0.3, 1.0, 0.3, 0.02)
        with pytest.raises(ValueError):
            MaterialParams(1.0, 0.5, 1.0, 0.3, 0.02)
        with pytest.raises(ValueError):
            MaterialParams(1.0, 0.3, 1.0, 0.3, 0.0)


class TestBodyLaw:
    def test_identity_strain_oracle(self, params):
        sigma = c0_apply(np.eye(3), params)
        assert_allclose(sigma, 250.0 * np.eye(3), rtol=1e-13)

    def test_shear_strain_oracle(self, params):
        # Pure shear picks up only the 2 mu factor: sigma_12 = E/(1+nu) * eps_12.
        eps = np.zeros((3, 3))
        eps[0, 1] = eps[1, 0] = 0.5
        sigma = c0_apply(eps, params)
        assert sigma[0, 1] == pytest.approx(100.0 / 1.3 * 0.5, rel=1e-14)
        assert sigma[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_lame_form(self, params):
        # sigma = 2 mu eps + lambda tr(eps) I on a random symmetric strain.
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 3))
        eps = 0.5 * (a + a.T)
        mu, lam = params.lame_mu_alpha, params.lame_lambda_alpha
        expected = 2.0 * mu * eps + lam * np.trace(eps) * np.eye(3)
        assert_allclose(c0_apply(eps, params), expected, rtol=1e-13)

    def test_inverse_composition(self, params):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 3, 3))
        eps = 0.5 * (a + np.swapaxes(a, -1, -2))
        assert_allclose(c0_inv_apply(c0_apply(eps, params), params), eps, atol=1e-13)
        assert_allclose(c0_apply(c0_inv_apply(eps, params), params), eps, atol=1e-11)

    def test_broadcasting(self, params):
        eps = np.broadcast_to(np.eye(3), (4, 2, 3, 3)).copy()
        sigma = c0_apply(eps, params)
        assert sigma.shape == (4, 2, 3, 3)
        assert_allclose(sigma[2, 1], 250.0 * np.eye(3), rtol=1e-13)


class TestPlateLaws:
    def test_bending_identity_oracle(self, params):
        # D = 1, nu = 0.3: C2(I) = (1-nu) I + 2 nu I = 1.3 I.
        m = c2_apply(np.eye(2), params)
        assert_allclose(m, 1.3 * np.eye(2), rtol=1e-13)

    def test_bending_pure_twist(self, params):
        k = np.array([[0.0, 1.0], [1.0, 0.0]])
        m = c2_apply(k, params)
        assert_allclose(m, 0.7 * k, rtol=1e-13)

    def test_membrane_identity(self, params):
        # C1(I) = E t/(1-nu^2) ((1-nu) + 2 nu) I = E t (1+nu)/(1-nu^2) I
        #       = E t/(1-nu) I.
        coef = params.e_beta * params.t_beta / (1.0 - params.nu_beta)
        assert_allclose(c1_apply(np.eye(2), params), coef * np.eye(2), rtol=1e-13)

    def test_maps_are_linear(self, params):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        a, b = 0.5 * (a + a.T), 0.5 * (b + b.T)
        for f in (c1_apply, c2_apply):
            assert_allclose(
                f(2.0 * a + 3.0 * b, params),
                2.0 * f(a, params) + 3.0 * f(b, params),
                atol=1e-12,
            )

    def test_symmetry_of_output(self, params):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((2, 2))
        k = 0.5 * (a + a.T)
        m = c2_apply(k, params)
        assert_allclose(m, m.T, atol=1e-14)

    def test_bending_energy_positive(self, params):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = rng.standard_normal((2, 2))
            k = 0.5 * (a + a.T)
            if np.abs(k).max() < 1e-10:
                continue
            energy = float(np.tensordot(c2_apply(k, params), k))
            assert energy > 0
