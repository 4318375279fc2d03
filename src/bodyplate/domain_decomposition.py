"""Interface solver: conjugate gradients on the coupled interface equation.

The monolithic system is reduced to the plate DOFs on the interface closure.
Eliminating the body unknowns (sigma, u) and the plate interior gives, for the
interface correction x,

    (S_K + E) x = -(l_tilde + E u_tilde_Gamma),

where S_K is the plate Schur complement onto the interface DOF set, E the body
interface operator E = R G Asad^-1 G^T R^T (symmetric positive semidefinite;
each apply is one hybridized body solve, i.e. one solve with the factored SPD
face-multiplier system plus local back-substitution, see ``hybrid``),
l_tilde = R G sigma_tilde the interface load of the decoupled body solve, and
u_tilde_Gamma = R w_tilde the interface trace of the decoupled plate solve.
The operator T = I + S_K^-1 E is self-adjoint and positive in the energy
inner product <a, b>_U = a^T S_K b, so conjugate gradients in that metric
converge; implemented as preconditioned CG on (S_K + E) with preconditioner
S_K^-1, whose r^T z scalar equals the squared U-norm of the T-equation
residual.

The S_K metric uses the full plate stiffness; the variant restricted to
triangles outside the interface region ('omit_interface') is available for
the Schur product but is only positive semidefinite (interface-interior DOFs
carry no outside energy), so it is not used as the CG metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import (
    BodyBlocks,
    assemble_interface_coupling,
    assemble_loads,
    assemble_plate_stiffness,
    impose_traction_bc,
)
from .fe_elements import BodyDGDofMap, PlateDofMap, StressBatch, StressDofMap
from .geometry_mesh import GAMMA_HALF_WIDTH, TetMesh, TriMesh
from .hybrid import HybridBody
from .interface_overlay import extract_interface_triangulation, intersect_triangulations
from .manufactured import ManufacturedCase
from .materials import MaterialParams
from .solvers import SparseFactor

__all__ = [
    "build_interface_dof_set",
    "SchurProduct",
    "BodyOperator",
    "PlateOperator",
    "DDReport",
    "DDSolution",
    "cg_interface_solve",
    "solve_dd",
]

CG_TOL = 1e-6
CG_MAX_IT = 200


def build_interface_dof_set(plate: TriMesh, pmap: PlateDofMap) -> np.ndarray:
    """Plate DOFs attached to the closure of the interface: membrane and
    Morley vertex DOFs of vertices inside it, Morley edge DOFs of edges whose
    endpoints both lie inside it.  Sorted global plate DOF ids."""
    tol = GAMMA_HALF_WIDTH + 1e-9
    on_gamma = np.max(np.abs(plate.vertices), axis=1) <= tol
    v = np.flatnonzero(on_gamma)
    e = np.flatnonzero(np.all(on_gamma[pmap.edges], axis=1))
    nv = plate.n_vertices
    return np.sort(np.concatenate([2 * v, 2 * v + 1, 2 * nv + v, 3 * nv + e]))


class SchurProduct:
    """Matrix-vector products with the plate Schur complement onto the
    interface DOF set: S x = (K_GG - K_GI K_II^-1 K_IG) x.

    ``region='all'`` uses the full plate stiffness (positive definite);
    ``region='omit_interface'`` drops the triangles covering the interface
    (positive semidefinite only).
    """

    def __init__(self, plate: TriMesh, pmap: PlateDofMap,
                 params: MaterialParams, gamma_dofs: np.ndarray,
                 region: str = "all"):
        K = assemble_plate_stiffness(plate, pmap, params, region=region)
        self._setup(K, pmap, gamma_dofs, region)

    @classmethod
    def from_stiffness(cls, K: sp.spmatrix, pmap: PlateDofMap,
                       gamma_dofs: np.ndarray) -> "SchurProduct":
        """The Schur product of an assembled full-plate stiffness."""
        self = cls.__new__(cls)
        self._setup(K, pmap, gamma_dofs, "all")
        return self

    def _setup(self, K, pmap, gamma_dofs, region):
        free = np.flatnonzero(~pmap.constrained)
        pos = -np.ones(pmap.n_dofs, dtype=np.int64)
        pos[free] = np.arange(free.size)
        gamma_local = pos[gamma_dofs]
        if np.any(gamma_local < 0):
            raise ValueError("interface DOF set intersects the clamped boundary")
        mask = np.zeros(free.size, dtype=bool)
        mask[gamma_local] = True
        interior_local = np.flatnonzero(~mask)
        Kf = K.tocsr()[free][:, free].tocsc()
        self.gamma_dofs = gamma_dofs
        self._g = gamma_local
        self._i = interior_local
        self.K_gg = Kf[gamma_local][:, gamma_local]
        self.K_gi = Kf[gamma_local][:, interior_local]
        self.K_ii = Kf[interior_local][:, interior_local]
        self._lu_ii = SparseFactor(self.K_ii)
        self.region = region

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self.K_gg @ x
        t = self.K_gi.T @ x
        if t.size:
            y -= self.K_gi @ self._lu_ii.solve(t)
        return y

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Energy inner product <a, b> = a^T S b."""
        return float(a @ self.apply(b))

    def norm(self, a: np.ndarray) -> float:
        return float(np.sqrt(max(self.dot(a, a), 0.0)))


class BodyOperator:
    """The body saddle problem [[A, B^T], [B, 0]] with traction data, solved
    by hybridization (``hybrid.HybridBody`` without plate rows).

    One condensed face-multiplier factorization is shared by the decoupled
    solve, every application of the interface operator E, and the
    reconstruction solve.
    """

    def __init__(self, body: TetMesh, smap: StressDofMap, vmap: BodyDGDofMap,
                 params: MaterialParams, traction_fn, quad_volume: int = 4,
                 quad_interface: int = 6):
        self.smap = smap
        self.vmap = vmap
        k = StressBatch(body.vertices[body.tets])
        blocks = BodyBlocks.build(k, params, quad_volume)
        ess_idx, ess_vals = impose_traction_bc(body, smap, traction_fn,
                                               quad_degree=quad_interface)
        self.hybrid = HybridBody(smap, blocks, ess_idx)
        self.essential_data = np.zeros(smap.n_dofs)
        self.essential_data[ess_idx] = ess_vals

    def solve(self, rhs_sigma: np.ndarray, rhs_v: np.ndarray,
              with_data: bool) -> tuple[np.ndarray, np.ndarray]:
        """Solve the body saddle problem; ``with_data`` switches on the
        inhomogeneous traction values.  Returns (sigma, u) full vectors."""
        sigma, x_u, _, _, _ = self.hybrid.solve(
            rhs_sigma, rhs_v[self.vmap.ltg],
            sigma_data=self.essential_data if with_data else None)
        u = np.zeros(self.vmap.n_dofs)
        u[self.vmap.ltg] = x_u
        return sigma, u


class PlateOperator:
    """Full-plate solves (clamped boundary) in full DOF coordinates."""

    def __init__(self, plate: TriMesh, pmap: PlateDofMap,
                 params: MaterialParams):
        self.pmap = pmap
        self.K = assemble_plate_stiffness(plate, pmap, params, region="all")
        self.free = np.flatnonzero(~pmap.constrained)
        self.factor = SparseFactor(
            self.K.tocsr()[self.free][:, self.free].tocsc()
        )

    def solve(self, f: np.ndarray) -> np.ndarray:
        w = np.zeros(self.pmap.n_dofs)
        w[self.free] = self.factor.solve(f[self.free])
        return w


@dataclass
class DDReport:
    """Interface CG history."""

    iterations: int
    converged: bool
    rho_avg: float
    history_u: list[float] = field(default_factory=list)
    history_euclid: list[float] = field(default_factory=list)


@dataclass
class DDSolution:
    sigma: np.ndarray
    u: np.ndarray
    w: np.ndarray
    x_gamma: np.ndarray
    report: DDReport
    junction_residual: float


def cg_interface_solve(apply_op, apply_prec, b: np.ndarray,
                       tol: float = CG_TOL, max_it: int = CG_MAX_IT
                       ) -> tuple[np.ndarray, DDReport]:
    """Preconditioned CG on (S_K + E) x = b with preconditioner S_K^-1.

    The reported residual history is the relative U-norm of the residual of
    the equivalent fixed-point equation (I + S_K^-1 E) x = S_K^-1 b, which is
    sqrt(r^T z) of standard PCG; the Euclidean relative residual of the
    (S_K + E) equation is logged alongside.
    """
    x = np.zeros_like(b)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return x, DDReport(0, True, 0.0, [0.0], [0.0])
    r = b.copy()
    z = apply_prec(r)
    rz = float(r @ z)
    u0 = np.sqrt(max(rz, 0.0))
    hist_u = [1.0]
    hist_e = [1.0]
    p = z.copy()
    converged = False
    it = 0
    for it in range(1, max_it + 1):
        q = apply_op(p)
        pq = float(p @ q)
        if not (np.isfinite(pq) and pq > 0.0):
            raise RuntimeError(
                f"interface CG breakdown at iteration {it}: p.Ap = {pq:.3e} "
                "is not positive; the interface operator is not SPD"
            )
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = apply_prec(r)
        rz_new = float(r @ z)
        rel_u = np.sqrt(max(rz_new, 0.0)) / u0
        hist_u.append(rel_u)
        hist_e.append(float(np.linalg.norm(r) / nb))
        if rel_u <= tol:
            converged = True
            break
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    rho = (hist_u[-1]) ** (1.0 / it) if it > 0 else 0.0
    return x, DDReport(it, converged, rho, hist_u, hist_e)


def solve_dd(body: TetMesh, plate: TriMesh, case: ManufacturedCase,
             params: MaterialParams | None = None,
             quad_volume: int = 4, quad_interface: int = 6,
             tol: float = CG_TOL, max_it: int = CG_MAX_IT) -> DDSolution:
    """Solve the coupled problem by the interface CG method.

    Pipeline: decoupled body and plate solves, interface CG for the trace
    correction, then one body and one plate reconstruction solve.  All body
    solves share a single factorization, as do the plate solves; the plate
    stiffness is assembled once for the Schur product and the plate solves.
    """
    if params is None:
        params = case.params
    smap = StressDofMap(body)
    vmap = BodyDGDofMap(body)
    pmap = PlateDofMap(plate)
    faces = extract_interface_triangulation(body)
    cells = intersect_triangulations(faces, plate, quad_degree=quad_interface)
    G = assemble_interface_coupling(body, smap, plate, pmap, faces, cells)
    f_V, f_W = assemble_loads(body, vmap, plate, pmap, case,
                              quad_volume=quad_volume,
                              quad_interface=quad_interface)

    gamma = build_interface_dof_set(plate, pmap)
    plate_op = PlateOperator(plate, pmap, params)
    schur = SchurProduct.from_stiffness(plate_op.K, pmap, gamma)
    body_op = BodyOperator(body, smap, vmap, params, case.traction,
                           quad_volume=quad_volume,
                           quad_interface=quad_interface)

    def op_E(lam: np.ndarray) -> np.ndarray:
        w = np.zeros(pmap.n_dofs)
        w[gamma] = lam
        sig, _ = body_op.solve(G.T @ w, np.zeros(vmap.n_dofs), with_data=False)
        return (G @ sig)[gamma]

    # Decoupled solves.
    sigma_t, u_t = body_op.solve(np.zeros(smap.n_dofs), f_V, with_data=True)
    w_t = plate_op.solve(f_W)
    ell_t = (G @ sigma_t)[gamma]
    u_gamma_t = w_t[gamma]

    b = -(ell_t + op_E(u_gamma_t))

    def apply_op(xv):
        return schur.apply(xv) + op_E(xv)

    def apply_prec(rv):
        w = np.zeros(pmap.n_dofs)
        w[gamma] = rv
        return plate_op.solve(w)[gamma]

    x, report = cg_interface_solve(apply_op, apply_prec, b,
                                   tol=tol, max_it=max_it)

    # Reconstruction.
    x_total = u_gamma_t + x
    w_rhs = np.zeros(pmap.n_dofs)
    w_rhs[gamma] = x_total
    sigma_b, u_b = body_op.solve(G.T @ w_rhs, np.zeros(vmap.n_dofs),
                                 with_data=False)
    sigma = sigma_t + sigma_b
    u = u_t + u_b
    w = plate_op.solve(f_W - G @ sigma)
    junction = float(np.linalg.norm(w[gamma] - x_total))
    return DDSolution(sigma=sigma, u=u, w=w, x_gamma=x_total,
                      report=report, junction_residual=junction)
