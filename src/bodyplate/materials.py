"""Material parameters and the four constitutive maps of the coupled model.

The 3D body is isotropic linear elastic; the plate carries a membrane law
(plane stress, integrated through the thickness) and a Kirchhoff bending law.
All maps act on arrays of symmetric matrices with shape (..., d, d) and
broadcast over leading dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MaterialParams",
    "default_params",
    "c0_apply",
    "c0_inv_apply",
    "c1_apply",
    "c2_apply",
]


@dataclass(frozen=True)
class MaterialParams:
    """Elastic constants of the body and the plate.

    Attributes
    ----------
    e_alpha, nu_alpha : float
        Young's modulus and Poisson ratio of the 3D body.
    e_beta, nu_beta : float
        Young's modulus and Poisson ratio of the plate.
    t_beta : float
        Plate thickness.
    """

    e_alpha: float
    nu_alpha: float
    e_beta: float
    nu_beta: float
    t_beta: float

    def __post_init__(self):
        for name in ("e_alpha", "e_beta", "t_beta"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if not (-1.0 < self.nu_alpha < 0.5):
            raise ValueError(f"nu_alpha must lie in (-1, 1/2), got {self.nu_alpha}")
        if not (-1.0 < self.nu_beta < 0.5):
            raise ValueError(f"nu_beta must lie in (-1, 1/2), got {self.nu_beta}")

    @property
    def d_beta(self) -> float:
        """Plate bending stiffness E t^3 / (12 (1 - nu^2))."""
        return self.e_beta * self.t_beta**3 / (12.0 * (1.0 - self.nu_beta**2))

    @property
    def lame_mu_alpha(self) -> float:
        return self.e_alpha / (2.0 * (1.0 + self.nu_alpha))

    @property
    def lame_lambda_alpha(self) -> float:
        return (
            self.e_alpha
            * self.nu_alpha
            / ((1.0 + self.nu_alpha) * (1.0 - 2.0 * self.nu_alpha))
        )


def default_params() -> MaterialParams:
    """Benchmark constants: E_a = 100, nu = 0.3 for both, t = 0.02, and the
    plate modulus chosen so that the bending stiffness equals one."""
    nu_beta = 0.3
    t_beta = 0.02
    e_beta = 12.0 * (1.0 - nu_beta**2) / t_beta**3
    return MaterialParams(
        e_alpha=100.0, nu_alpha=0.3, e_beta=e_beta, nu_beta=nu_beta, t_beta=t_beta
    )


def _trace(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=-2, axis2=-1)


def _add_tr_identity(out: np.ndarray, coef: float, d: int) -> np.ndarray:
    """Adds coef tr(out) I to the (..., d, d) array ``out`` in place (each
    caller's own fresh array), one diagonal entry at a time: a fancy-indexed
    add on all d at once measured three times slower."""
    tr = coef * _trace(out)
    for i in range(d):
        out[..., i, i] += tr
    return out


def c0_apply(eps: np.ndarray, params: MaterialParams) -> np.ndarray:
    """3D stiffness: sigma = E/(1+nu) eps + E nu /((1+nu)(1-2nu)) tr(eps) I."""
    e, nu = params.e_alpha, params.nu_alpha
    out = (e / (1.0 + nu)) * np.asarray(eps, dtype=float)
    return _add_tr_identity(out, nu / (1.0 - 2.0 * nu), 3)


def _gradient_stress(g: np.ndarray, params: MaterialParams) -> np.ndarray:
    """The stress C0 sym(g) = mu (g + g^T) + lambda tr(g) I of displacement
    gradients g (..., 3, 3) in any memory layout, read by component.  Each
    of the six distinct components is formed once into component-major
    storage (3, 3, ...); the result is its (..., 3, 3) view.  The trace
    term is lambda / (2 mu) times the trace of 2 mu g, the order of
    operations of ``c0_apply``, which this matches bit for bit."""
    nu, mu = params.nu_alpha, params.lame_mu_alpha
    out = np.empty((3, 3) + g.shape[:-2])
    for i in range(3):
        out[i, i] = 2.0 * mu * g[..., i, i]
    tr = (nu / (1.0 - 2.0 * nu)) * (out[0, 0] + out[1, 1] + out[2, 2])
    for i in range(3):
        out[i, i] += tr
        for j in range(i + 1, 3):
            out[i, j] = out[j, i] = mu * (g[..., i, j] + g[..., j, i])
    return np.moveaxis(out, (0, 1), (-2, -1))


def c0_inv_apply(sigma: np.ndarray, params: MaterialParams) -> np.ndarray:
    """3D compliance: eps = (1+nu)/E sigma - nu/E tr(sigma) I."""
    e, nu = params.e_alpha, params.nu_alpha
    out = ((1.0 + nu) / e) * np.asarray(sigma, dtype=float)
    return _add_tr_identity(out, -nu / (1.0 + nu), 3)


def c1_apply(eps: np.ndarray, params: MaterialParams) -> np.ndarray:
    """Membrane law: sigma = E t/(1-nu^2) ((1-nu) eps + nu tr(eps) I)."""
    e, nu, t = params.e_beta, params.nu_beta, params.t_beta
    out = (e * t / (1.0 - nu**2)) * (1.0 - nu) * np.asarray(eps, dtype=float)
    return _add_tr_identity(out, nu / (1.0 - nu), 2)


def c2_apply(curv: np.ndarray, params: MaterialParams) -> np.ndarray:
    """Bending law: M = D ((1-nu) K + nu tr(K) I) with D the bending
    stiffness; K is the curvature tensor (negative Hessian of the deflection).
    """
    nu = params.nu_beta
    out = params.d_beta * (1.0 - nu) * np.asarray(curv, dtype=float)
    return _add_tr_identity(out, nu / (1.0 - nu), 2)
