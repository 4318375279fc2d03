"""Closed-form benchmark solutions for the coupled body-plate model.

Each case packages the exact body displacement (with first and second
derivative tables), the exact plate fields, and the induced data: body volume
load, boundary traction, plate membrane/bending loads, and the interface jump
load transmitted from the body.  The hard-coded derivative tables are validated
against finite differences in the test suite.

Conventions (fixed domain): body alpha = (-1/2,1/2)^2 x (0,1); plate
beta = (-1,1)^2; interface Gamma = (-1/2,1/2)^2 x {0}; the body's outward
normal on Gamma is (0, 0, -1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .materials import MaterialParams, c0_apply, default_params

__all__ = ["ManufacturedCase", "default_case", "constant_stress_case"]

#: Body outward normal on the interface.
INTERFACE_NORMAL = np.array([0.0, 0.0, -1.0])


@dataclass
class ManufacturedCase:
    """Exact solution bundle.

    Function signatures (all vectorized over leading axes):
      u_body(x): (...,3) -> (...,3)          grad_u_body: -> (...,3,3) [i,j]=d u_i/d x_j
      hess_u_body: -> (...,3,3,3)            [i,j,k] = d2 u_i / dx_j dx_k
      u_membrane(p): (...,2) -> (...,2)      grad/hess analogous in 2D
      u3(p): (...,2) -> (...)                with grad_u3, hess_u3, bilap_u3
    """

    name: str
    params: MaterialParams
    u_body: Callable
    grad_u_body: Callable
    hess_u_body: Callable
    u_membrane: Callable
    grad_u_membrane: Callable
    hess_u_membrane: Callable
    u3: Callable
    grad_u3: Callable
    hess_u3: Callable
    bilap_u3: Callable

    # -- derived body data ---------------------------------------------------

    def strain_body(self, x: np.ndarray) -> np.ndarray:
        g = self.grad_u_body(x)
        return 0.5 * (g + np.swapaxes(g, -1, -2))

    def sigma_body(self, x: np.ndarray) -> np.ndarray:
        return c0_apply(self.strain_body(x), self.params)

    def f_body(self, x: np.ndarray) -> np.ndarray:
        """Volume load -div sigma = -mu lap(u) - (mu+lambda) grad(div u)."""
        mu = self.params.lame_mu_alpha
        lam = self.params.lame_lambda_alpha
        H = self.hess_u_body(x)
        lap_u = H[..., 0, 0] + H[..., 1, 1] + H[..., 2, 2]
        # grad(div u)_k = sum_j H[j, j, k]
        grad_div = np.einsum("...jjk->...k", H)
        return -mu * lap_u - (mu + lam) * grad_div

    def traction(self, x: np.ndarray, normal: np.ndarray) -> np.ndarray:
        """sigma n for unit normals broadcastable against the points."""
        return np.einsum("...ab,...b->...a", self.sigma_body(x), normal)

    # -- derived plate data ----------------------------------------------------

    def f_jump(self, p: np.ndarray) -> np.ndarray:
        """Interface load transmitted to the plate: sigma n^alpha at x3 = 0,
        i.e. -(sigma_13, sigma_23, sigma_33)."""
        p = np.asarray(p, dtype=float)
        x = np.concatenate([p, np.zeros(p.shape[:-1] + (1,))], axis=-1)
        return self.traction(x, INTERFACE_NORMAL)

    def f_membrane(self, p: np.ndarray) -> np.ndarray:
        """Smooth membrane load -div sigma^beta(u*)."""
        prm = self.params
        c = prm.e_beta * prm.t_beta / (1.0 - prm.nu_beta**2)
        H = self.hess_u_membrane(p)
        lap = H[..., 0, 0] + H[..., 1, 1]
        grad_div = np.einsum("...jjk->...k", H)
        return -c * (
            0.5 * (1.0 - prm.nu_beta) * lap
            + 0.5 * (1.0 + prm.nu_beta) * grad_div
        )

    def f_bending(self, p: np.ndarray) -> np.ndarray:
        """Smooth bending load D lap^2 u3."""
        return self.params.d_beta * self.bilap_u3(p)


# ---------------------------------------------------------------------------
# Smooth benchmark case: trigonometric in-plane components, bi-quartic
# deflection, compatible with the clamped plate boundary and with the
# trace/lowering structure of the coupling.
# ---------------------------------------------------------------------------

def default_case(params: MaterialParams | None = None) -> ManufacturedCase:
    """u^alpha = (S R, S R, P Q R) with S = sin(pi x) sin(pi y),
    P = (1-x^2)^2, Q = (1-y^2)^2, R = 1 + z^2; u^beta is the trace at z = 0."""
    if params is None:
        params = default_params()
    pi = np.pi

    def _parts(x):
        sx, cx = np.sin(pi * x[..., 0]), np.cos(pi * x[..., 0])
        sy, cy = np.sin(pi * x[..., 1]), np.cos(pi * x[..., 1])
        return sx, cx, sy, cy

    def _pq(x):
        xx, yy = x[..., 0], x[..., 1]
        P = (1.0 - xx * xx) ** 2
        dP = 4.0 * xx**3 - 4.0 * xx
        ddP = 12.0 * xx * xx - 4.0
        Q = (1.0 - yy * yy) ** 2
        dQ = 4.0 * yy**3 - 4.0 * yy
        ddQ = 12.0 * yy * yy - 4.0
        return P, dP, ddP, Q, dQ, ddQ

    def u_body(x):
        x = np.asarray(x, dtype=float)
        sx, cx, sy, cy = _parts(x)
        P, dP, ddP, Q, dQ, ddQ = _pq(x)
        z = x[..., 2]
        R = 1.0 + z * z
        s = sx * sy
        return np.stack([s * R, s * R, P * Q * R], axis=-1)

    def grad_u_body(x):
        x = np.asarray(x, dtype=float)
        sx, cx, sy, cy = _parts(x)
        P, dP, ddP, Q, dQ, ddQ = _pq(x)
        z = x[..., 2]
        R = 1.0 + z * z
        g = np.zeros(x.shape[:-1] + (3, 3))
        g[..., 0, 0] = pi * cx * sy * R
        g[..., 0, 1] = pi * sx * cy * R
        g[..., 0, 2] = sx * sy * 2.0 * z
        g[..., 1, :] = g[..., 0, :]
        g[..., 2, 0] = dP * Q * R
        g[..., 2, 1] = P * dQ * R
        g[..., 2, 2] = P * Q * 2.0 * z
        return g

    def hess_u_body(x):
        x = np.asarray(x, dtype=float)
        sx, cx, sy, cy = _parts(x)
        P, dP, ddP, Q, dQ, ddQ = _pq(x)
        z = x[..., 2]
        R = 1.0 + z * z
        H = np.zeros(x.shape[:-1] + (3, 3, 3))
        s = sx * sy
        # components 1 and 2 share the same scalar field
        for i in (0, 1):
            H[..., i, 0, 0] = -pi * pi * s * R
            H[..., i, 1, 1] = -pi * pi * s * R
            H[..., i, 2, 2] = 2.0 * s
            H[..., i, 0, 1] = H[..., i, 1, 0] = pi * pi * cx * cy * R
            H[..., i, 0, 2] = H[..., i, 2, 0] = 2.0 * z * pi * cx * sy
            H[..., i, 1, 2] = H[..., i, 2, 1] = 2.0 * z * pi * sx * cy
        H[..., 2, 0, 0] = ddP * Q * R
        H[..., 2, 1, 1] = P * ddQ * R
        H[..., 2, 2, 2] = 2.0 * P * Q
        H[..., 2, 0, 1] = H[..., 2, 1, 0] = dP * dQ * R
        H[..., 2, 0, 2] = H[..., 2, 2, 0] = 2.0 * z * dP * Q
        H[..., 2, 1, 2] = H[..., 2, 2, 1] = 2.0 * z * P * dQ
        return H

    def u_membrane(p):
        p = np.asarray(p, dtype=float)
        sx, cx, sy, cy = _parts(p)
        s = sx * sy
        return np.stack([s, s], axis=-1)

    def grad_u_membrane(p):
        p = np.asarray(p, dtype=float)
        sx, cx, sy, cy = _parts(p)
        g = np.zeros(p.shape[:-1] + (2, 2))
        g[..., 0, 0] = pi * cx * sy
        g[..., 0, 1] = pi * sx * cy
        g[..., 1, :] = g[..., 0, :]
        return g

    def hess_u_membrane(p):
        p = np.asarray(p, dtype=float)
        sx, cx, sy, cy = _parts(p)
        H = np.zeros(p.shape[:-1] + (2, 2, 2))
        for i in (0, 1):
            H[..., i, 0, 0] = -pi * pi * sx * sy
            H[..., i, 1, 1] = -pi * pi * sx * sy
            H[..., i, 0, 1] = H[..., i, 1, 0] = pi * pi * cx * cy
        return H

    def u3(p):
        p = np.asarray(p, dtype=float)
        P, dP, ddP, Q, dQ, ddQ = _pq(p)
        return P * Q

    def grad_u3(p):
        p = np.asarray(p, dtype=float)
        P, dP, ddP, Q, dQ, ddQ = _pq(p)
        return np.stack([dP * Q, P * dQ], axis=-1)

    def hess_u3(p):
        p = np.asarray(p, dtype=float)
        P, dP, ddP, Q, dQ, ddQ = _pq(p)
        H = np.zeros(p.shape[:-1] + (2, 2))
        H[..., 0, 0] = ddP * Q
        H[..., 1, 1] = P * ddQ
        H[..., 0, 1] = H[..., 1, 0] = dP * dQ
        return H

    def bilap_u3(p):
        p = np.asarray(p, dtype=float)
        P, dP, ddP, Q, dQ, ddQ = _pq(p)
        return 24.0 * Q + 2.0 * ddP * ddQ + 24.0 * P

    return ManufacturedCase(
        name="smooth-benchmark",
        params=params,
        u_body=u_body,
        grad_u_body=grad_u_body,
        hess_u_body=hess_u_body,
        u_membrane=u_membrane,
        grad_u_membrane=grad_u_membrane,
        hess_u_membrane=hess_u_membrane,
        u3=u3,
        grad_u3=grad_u3,
        hess_u3=hess_u3,
        bilap_u3=bilap_u3,
    )


# ---------------------------------------------------------------------------
# Constant-stress patch case: u^alpha = z c, u^beta = 0.  The stress is the
# constant C0 sym(c e3^T); the body load vanishes, the traction and interface
# jump loads are nonzero, and the exact solution lies in every discrete space.
# ---------------------------------------------------------------------------

def constant_stress_case(
    c: np.ndarray | tuple = (0.3, -0.2, 0.5),
    params: MaterialParams | None = None,
) -> ManufacturedCase:
    if params is None:
        params = default_params()
    c = np.asarray(c, dtype=float)

    def u_body(x):
        x = np.asarray(x, dtype=float)
        return x[..., 2:3] * c

    def grad_u_body(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (3, 3))
        g[..., :, 2] = c
        return g

    def hess_u_body(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (3, 3, 3))

    def _zeros2(p, shape):
        p = np.asarray(p, dtype=float)
        return np.zeros(p.shape[:-1] + shape)

    return ManufacturedCase(
        name="constant-stress-patch",
        params=params,
        u_body=u_body,
        grad_u_body=grad_u_body,
        hess_u_body=hess_u_body,
        u_membrane=lambda p: _zeros2(p, (2,)),
        grad_u_membrane=lambda p: _zeros2(p, (2, 2)),
        hess_u_membrane=lambda p: _zeros2(p, (2, 2, 2)),
        u3=lambda p: _zeros2(p, ()),
        grad_u3=lambda p: _zeros2(p, (2,)),
        hess_u3=lambda p: _zeros2(p, (2, 2)),
        bilap_u3=lambda p: _zeros2(p, ()),
    )
