"""Closed-form benchmark solutions for the coupled body-plate model.

Each case states its exact solution once: the body displacement with its
first and second derivative tables, and the two plate tables the body's
cannot give (the deflection's Hessian and bilaplacian).  The plate fields are
the body's trace at x3 = 0 on all of beta, u^beta = u^alpha(., ., 0).  The
induced data follow: body volume load, boundary traction, plate
membrane/bending loads, and the interface jump load transmitted from the
body.  The hand-coded tables are validated against finite differences in the
test suite.

Where the clamped data hold: a case is stated on all of space, with Gamma in
the plane x3 = 0 and the body's outward normal (0, 0, -1) there, but the
plate is clamped (w = 0 and grad w3 = 0 on its boundary edges).
``default_case``'s plate fields meet that only on |x1| = 1 or |x2| = 1, the
edge of the built plate (-1, 1)^2; ``constant_stress_case``'s vanish
everywhere.  On a plate moved or scaled off (-1, 1)^2, and the case not moved
with it, the discrete problem is not the case's: there a comparison of
solves checks the solve, and the error norms do not measure it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .materials import MaterialParams, _gradient_stress, default_params

__all__ = ["ManufacturedCase", "default_case", "constant_stress_case"]

#: Body outward normal on the interface.
INTERFACE_NORMAL = np.array([0.0, 0.0, -1.0])


def _lift(p: np.ndarray) -> np.ndarray:
    """Plate points p as the body points (p, 0)."""
    p = np.asarray(p, dtype=float)
    return np.concatenate([p, np.zeros(p.shape[:-1] + (1,))], axis=-1)


@dataclass
class ManufacturedCase:
    """Exact solution bundle, each field stated once.

    The plate's membrane displacement and deflection are the body's trace
    at x3 = 0 (``plate_fields``), and the membrane load takes its Hessian
    from ``hess_u_body``.  Two plate tables stay: ``bilap_u3``, because the
    body tables carry no fourth derivatives, and ``hess_u3``, because the
    norms need it at every plate point, where ``hess_u_body`` costs about
    2.5 times as much (measured at the 32,768 norm points of a 32 x 32
    plate).  ``hess_u3`` is the body Hessian's ``[..., 2, :2, :2]`` at
    (p, 0), which the tests hold bit for bit.

    Function signatures (all vectorized over leading axes):
      u_grad_body(x): (...,3) -> (u, grad u), (...,3) and (...,3,3) with
                      [i,j] = d u_i/d x_j, from one evaluation
      hess_u_body(x): (...,3) -> (...,3,3,3)  [i,j,k] = d2 u_i / dx_j dx_k
      hess_u3(p): (...,2) -> (...,2,2)        Hessian of u_3(p, 0)
      bilap_u3(p): (...,2) -> (...)           bilaplacian of u_3(p, 0)

    Layout: a table may return strided views, as ``default_case``'s are
    views of component-major storage, or C-ordered arrays, as
    ``constant_stress_case``'s are.  The derived fields read the
    tables by component (``g[..., i, j]``) and so take either; their own
    results may be views too (``body_fields``' stress is one of (3, 3, ...)
    storage).  Callers index components and assume no memory order.
    """

    name: str
    params: MaterialParams
    u_grad_body: Callable
    hess_u_body: Callable
    hess_u3: Callable
    bilap_u3: Callable

    # -- derived body data ---------------------------------------------------

    def body_fields(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Displacement and stress from one evaluation of the exact body
        solution."""
        u, g = self.u_grad_body(x)
        return u, _gradient_stress(g, self.params)

    def sigma_body(self, x: np.ndarray) -> np.ndarray:
        return self.body_fields(x)[1]

    def f_body(self, x: np.ndarray) -> np.ndarray:
        """Volume load -div sigma = -mu lap(u) - (mu+lambda) grad(div u)."""
        mu = self.params.lame_mu_alpha
        lam = self.params.lame_lambda_alpha
        H = self.hess_u_body(x)
        lap_u = H[..., 0, 0] + H[..., 1, 1] + H[..., 2, 2]
        grad_div = H[..., 0, 0, :] + H[..., 1, 1, :] + H[..., 2, 2, :]
        return -mu * lap_u - (mu + lam) * grad_div

    def traction(self, x: np.ndarray, normal: np.ndarray) -> np.ndarray:
        """sigma n for unit normals broadcastable against the points."""
        sigma = self.sigma_body(x)
        normal = np.asarray(normal, dtype=float)
        return (sigma[..., 0] * normal[..., 0, None]
                + sigma[..., 1] * normal[..., 1, None]
                + sigma[..., 2] * normal[..., 2, None])

    # -- derived plate data ----------------------------------------------------

    def plate_fields(self, p: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Membrane displacement and its gradient, (...,2) and (...,2,2),
        and deflection and its gradient, (...) and (...,2): the body's value
        and gradient at (p, 0), from one evaluation."""
        u, g = self.u_grad_body(_lift(p))
        return u[..., :2], g[..., :2, :2], u[..., 2], g[..., 2, :2]

    def f_jump(self, p: np.ndarray) -> np.ndarray:
        """Interface load transmitted to the plate: sigma n^alpha at x3 = 0
        with n^alpha = ``INTERFACE_NORMAL``, i.e. -(sigma_13, sigma_23,
        sigma_33)."""
        return -self.sigma_body(_lift(p))[..., 2]

    def f_membrane(self, p: np.ndarray) -> np.ndarray:
        """Smooth membrane load -div sigma^beta(u*)."""
        prm = self.params
        c = prm.e_beta * prm.t_beta / (1.0 - prm.nu_beta**2)
        H = self.hess_u_body(_lift(p))
        lap = H[..., :2, 0, 0] + H[..., :2, 1, 1]
        grad_div = H[..., 0, 0, :2] + H[..., 1, 1, :2]
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
        dP = 4.0 * xx * xx * xx - 4.0 * xx
        Q = (1.0 - yy * yy) ** 2
        dQ = 4.0 * yy * yy * yy - 4.0 * yy
        return P, dP, Q, dQ

    def _ddpq(x):
        xx, yy = x[..., 0], x[..., 1]
        return 12.0 * xx * xx - 4.0, 12.0 * yy * yy - 4.0

    # The tables are formed in component-major storage, (3, ...) for u,
    # (3, 3, ...) for its gradient and (3, 3, 3, ...) for its Hessian, and
    # returned as (..., 3, ...) views of it.  u_1 = u_2, so the first two
    # rows of each are one row, formed once.

    def u_grad_body(x):
        x = np.asarray(x, dtype=float)
        sx, cx, sy, cy = _parts(x)
        P, dP, Q, dQ = _pq(x)
        z = x[..., 2]
        R = 1.0 + z * z
        s = sx * sy
        PQ = P * Q
        u = np.empty((3,) + x.shape[:-1])
        u[0] = u[1] = s * R
        u[2] = PQ * R
        g = np.empty((3, 3) + x.shape[:-1])
        g[0, 0] = pi * cx * sy * R
        g[0, 1] = pi * sx * cy * R
        g[0, 2] = s * 2.0 * z
        g[1] = g[0]
        g[2, 0] = dP * Q * R
        g[2, 1] = P * dQ * R
        g[2, 2] = PQ * 2.0 * z
        return np.moveaxis(u, 0, -1), np.moveaxis(g, (0, 1), (-2, -1))

    def hess_u_body(x):
        x = np.asarray(x, dtype=float)
        sx, cx, sy, cy = _parts(x)
        P, dP, Q, dQ = _pq(x)
        ddP, ddQ = _ddpq(x)
        z = x[..., 2]
        R = 1.0 + z * z
        H = np.empty((3, 3, 3) + x.shape[:-1])
        s = sx * sy
        H[0, 0, 0] = H[0, 1, 1] = -pi * pi * s * R
        H[0, 2, 2] = 2.0 * s
        H[0, 0, 1] = H[0, 1, 0] = pi * pi * cx * cy * R
        H[0, 0, 2] = H[0, 2, 0] = 2.0 * z * pi * cx * sy
        H[0, 1, 2] = H[0, 2, 1] = 2.0 * z * pi * sx * cy
        H[1] = H[0]
        H[2, 0, 0] = ddP * Q * R
        H[2, 1, 1] = P * ddQ * R
        H[2, 2, 2] = 2.0 * P * Q
        H[2, 0, 1] = H[2, 1, 0] = dP * dQ * R
        H[2, 0, 2] = H[2, 2, 0] = 2.0 * z * dP * Q
        H[2, 1, 2] = H[2, 2, 1] = 2.0 * z * P * dQ
        return np.moveaxis(H, (0, 1, 2), (-3, -2, -1))

    def hess_u3(p):
        p = np.asarray(p, dtype=float)
        P, dP, Q, dQ = _pq(p)
        ddP, ddQ = _ddpq(p)
        H = np.zeros(p.shape[:-1] + (2, 2))
        H[..., 0, 0] = ddP * Q
        H[..., 1, 1] = P * ddQ
        H[..., 0, 1] = H[..., 1, 0] = dP * dQ
        return H

    def bilap_u3(p):
        p = np.asarray(p, dtype=float)
        P, _, Q, _ = _pq(p)
        ddP, ddQ = _ddpq(p)
        return 24.0 * Q + 2.0 * ddP * ddQ + 24.0 * P

    return ManufacturedCase(
        name="smooth-benchmark",
        params=params,
        u_grad_body=u_grad_body,
        hess_u_body=hess_u_body,
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

    def u_grad_body(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (3, 3))
        g[..., :, 2] = c
        return x[..., 2:3] * c, g

    def hess_u_body(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (3, 3, 3))

    def _zeros2(p, shape):
        p = np.asarray(p, dtype=float)
        return np.zeros(p.shape[:-1] + shape)

    return ManufacturedCase(
        name="constant-stress-patch",
        params=params,
        u_grad_body=u_grad_body,
        hess_u_body=hess_u_body,
        hess_u3=lambda p: _zeros2(p, (2, 2)),
        bilap_u3=lambda p: _zeros2(p, ()),
    )
