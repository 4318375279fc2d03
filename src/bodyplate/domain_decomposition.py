"""Interface solver: conjugate gradients on the plate Schur complement of
the hybridized system.

``hybrid`` condenses the coupled problem onto Y = (lambda, w) with the SPD
matrix S.  Eliminating the multipliers by blocks leaves, for the free plate
DOFs w, the system (S_ww - S_w,lambda S_lambda,lambda^-1 S_lambda,w) w =
r_w - S_w,lambda S_lambda,lambda^-1 r_lambda, whose matrix is K + E: the
free plate stiffness K plus the body interface operator E (symmetric
positive semidefinite: G W G^T, the plate block of sum_T C_T M_T^-1 C_T^T,
minus S_w,lambda S_lambda,lambda^-1 S_lambda,w).  So DD is block
elimination of the S that ``solve_mixed`` solves whole.

CG runs on it preconditioned by K^-1, from the decoupled plate solve
w0 = K^-1 f_w.  G reaches only the interface set Gamma (the plate DOFs on
the closure of the coupling region), so E vanishes off Gamma and r_w = f_w
on the plate interior I: the residual of w0 is zero on I, every search
direction (K^-1 of such residuals) is discrete harmonic, K p = 0 on I, and
so the next residual is zero on I again.  On K-harmonic extensions of
Gamma traces K acts as the plate Schur complement S_K = K_GammaGamma -
K_Gamma,I K_II^-1 K_I,Gamma and K^-1 as S_K^-1, so the iterates are those
of CG on (S_K + E) x = b_Gamma preconditioned by S_K^-1, extended
K-harmonically into I (Toselli & Widlund 2005, Domain Decomposition
Methods), with the same r^T z and Euclidean residuals.  T = I + S_K^-1 E is
self-adjoint and positive in <a, b>_U = a^T S_K b, and r^T z is the squared
U-norm of the T-equation residual.  The solve never reads Gamma: it only
reports the CG trace there and the junction residual.

``SchurProduct``, ``BodyOperator`` and ``PlateOperator`` build S_K, E and
the plate solves from their own assembly, for checking the operator
identities; ``solve_dd`` does not use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    BodyBlocks,
    assemble_plate_stiffness,
    build_mixed_system,
    impose_traction_bc,
)
from .fe_elements import BodyDGDofMap, PlateDofMap, StressDofMap
from .geometry_mesh import GAMMA_HALF_WIDTH, TetMesh, TriMesh
from .hybrid import HybridBody, condense
from .manufactured import ManufacturedCase
from .materials import MaterialParams
from .solvers import SparseFactor, pcg

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
        free = np.flatnonzero(~pmap.constrained)
        pos = -np.ones(pmap.n_dofs, dtype=np.int64)
        pos[free] = np.arange(free.size)
        g = pos[gamma_dofs]
        if np.any(g < 0):
            raise ValueError("interface DOF set intersects the clamped "
                             "boundary")
        i = np.setdiff1d(np.arange(free.size), g)
        Kf = K.tocsr()[free][:, free].tocsc()
        self.K_gg = Kf[g][:, g]
        self.K_gi = Kf[g][:, i]
        self.K_ii = Kf[i][:, i]
        self._lu_ii = SparseFactor(self.K_ii)

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self.K_gg @ x
        t = self.K_gi.T @ x
        if t.size:
            y -= self.K_gi @ self._lu_ii.solve(t)
        return y

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Energy inner product <a, b> = a^T S b."""
        return float(a @ self.apply(b))


class BodyOperator:
    """The body saddle problem [[A, B^T], [B, 0]] with traction data, solved
    by hybridization (``hybrid.HybridBody`` without plate rows); one
    preconditioner of S, or the factor of S it gave way to, serves every
    solve.
    """

    def __init__(self, body: TetMesh, smap: StressDofMap, vmap: BodyDGDofMap,
                 params: MaterialParams, traction_fn):
        self.vmap = vmap
        blocks = BodyBlocks.build(body, params)
        ess_idx, ess_vals = impose_traction_bc(body, smap, traction_fn)
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
    """The fields of a ``solve_dd`` with its interface CG report.
    ``l_inv`` holds the blocks of L_T^-1 of every tet that the solve built
    and checked (``BodyBlocks`` ``face_inv`` and ``interior_inv``), for
    ``verification_cli.SolutionFields.l_inv``."""

    sigma: np.ndarray
    u: np.ndarray
    w: np.ndarray
    x_gamma: np.ndarray
    report: DDReport
    junction_residual: float
    l_inv: tuple[np.ndarray, np.ndarray]


def cg_interface_solve(apply_op, apply_prec, b: np.ndarray,
                       tol: float = CG_TOL, max_it: int = CG_MAX_IT
                       ) -> tuple[np.ndarray, DDReport]:
    """Preconditioned CG (the shared ``solvers.pcg`` loop) on the interface
    system: in ``solve_dd`` the plate Schur complement of S, K + E = S_ww -
    S_w,lambda S_lambda,lambda^-1 S_lambda,w, with preconditioner K^-1,
    which from a residual zero off Gamma is CG on (S_K + E) x = b with
    preconditioner S_K^-1.

    The reported residual history is the relative U-norm of the residual of
    the equivalent fixed-point equation (I + S_K^-1 E) x = S_K^-1 b, which is
    sqrt(r^T z) of standard PCG; the Euclidean relative residual is logged
    alongside.
    """
    x, converged, hist_u, hist_e = pcg(apply_op, apply_prec, b, tol, max_it,
                                       label="interface CG")
    it = len(hist_u) - 1
    rho = (hist_u[-1]) ** (1.0 / it) if it > 0 else 0.0
    return x, DDReport(it, converged, rho, hist_u, hist_e)


def solve_dd(body: TetMesh, plate: TriMesh, case: ManufacturedCase,
             params: MaterialParams | None = None,
             tol: float = CG_TOL, max_it: int = CG_MAX_IT) -> DDSolution:
    """Solve the coupled problem by the interface CG method.

    Pipeline: one assembly (``build_mixed_system``) and one condensation
    (``hybrid.condense``) shared with ``solve_mixed``; two factors, of the
    multiplier block S_lambda,lambda and of the free plate stiffness K_ff;
    CG on the plate Schur complement S_ww - S_w,lambda S_lambda,lambda^-1
    S_lambda,w with preconditioner K_ff^-1, both applying these factors
    unchecked; then the multipliers, the local back-substitution and one
    plate solve, each checked against its residual contract.  The coupled
    S itself is never solved or preconditioned.  The interface DOF set only
    reports: ``x_gamma`` is the CG plate solution there, and the junction
    residual its distance from the final w.
    """
    system = build_mixed_system(body, plate, case, params)
    hb, free, load = condense(system)
    n = hb.n_lam
    # Only the blocks of S are kept, and S_lambda,lambda as CSC for its
    # factor: hb gives S up, so that the face blocks are freed before
    # S_lambda,lambda is factored.
    S, hb.S = hb.S, None
    S_lw, S_ww, S_ll = S.lw, S.ww, S.ll.tocsc()
    del S
    lu_l, lu_k = SparseFactor(S_ll), SparseFactor(hb.K)
    r_l, r_w = load.r[:n], load.r[n:]

    def multipliers(w):
        return lu_l.solve(r_l - S_lw @ w)

    # Inside CG the inverse is an operator: one unchecked solve.
    def apply_op(w):
        return S_ww @ w - S_lw.T @ lu_l.apply(S_lw @ w)

    # CG corrects the decoupled plate solve w0; b is the residual of w0.
    w0 = lu_k.solve(load.f_w)
    b = r_w - S_ww @ w0 - S_lw.T @ multipliers(w0)
    dw, report = cg_interface_solve(apply_op, lu_k.apply, b,
                                    tol=tol, max_it=max_it)
    w_cg = w0 + dw

    # Reconstruction, the CG plate solution as data of the body rows.
    y = np.concatenate([multipliers(w_cg), w_cg])
    sigma, x_u, _ = hb.back_substitute(y, load, plate_rows=False)
    u = np.zeros(system.vmap.n_dofs)
    u[system.vmap.ltg] = x_u
    w = np.zeros(system.pmap.n_dofs)
    w[free] = lu_k.solve(load.f_w - hb.plate_load(sigma))
    gamma = build_interface_dof_set(plate, system.pmap)
    trace = np.zeros(system.pmap.n_dofs)
    trace[free] = w_cg
    x = trace[gamma]
    junction = float(np.linalg.norm(w[gamma] - x))
    return DDSolution(sigma=sigma, u=u, w=w, x_gamma=x,
                      report=report, junction_residual=junction,
                      l_inv=(system.blocks.face_inv,
                             system.blocks.interior_inv))
