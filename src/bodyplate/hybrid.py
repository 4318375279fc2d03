"""Hybridized body solves: static condensation onto face multipliers.

The stress is broken per tet: every tet keeps its own 42 local coefficients
(its own basis, without the -1 sign a non-owner tet sees on a shared face).
The face DOFs are traction moments against P1, so stress continuity across
an interior face says exactly that the two neighbours' local face
coefficients sum to zero.  A P1 vector multiplier lambda per interior face
(nine DOFs) enforces it and enters both neighbours' local equations with +1.
On the interface Gamma the local stress couples to the plate through -G_T.
With C_T the map from tet T's local stress to Y = (lambda, w), the broken
system is

    M_T x_T + C_T^T Y = F_T                  (every tet T)
    sum_T C_T x_T - D Y = H,                 D = diag(0, K),  H = (0, -f_W)

with M_T = [[A_T, B_T^T], [B_T, 0]] the 54 x 54 local saddle block, its
essential free-face stress DOFs eliminated symmetrically.  All blocks are
inverted at once, which leaves the symmetric positive definite system

    S Y = sum_T C_T M_T^-1 F_T - H,          S = sum_T C_T M_T^-1 C_T^T + D.

S is factored once; each tet's (sigma_T, u_T) then follows by local back-
substitution x_T = M_T^-1 (F_T - C_T^T Y).  Its solution is that of the
monolithic system: the owner copy of sigma_T is the global stress.

Building the blocks refuses any tet whose local saddle block is
ill-conditioned.  Every solve then checks, in this order: the face-
continuity defect of the back-substituted local stresses, relative to the
stress norm; and the relative residual of the coupled system in
(sigma, u, w), evaluated tet by tet from the local blocks with the owner
copy of sigma in every tet (the multipliers drop out), against the residual
contract.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from .assembly import BlockSystem, BodyBlocks
from .fe_elements import CONDITION_LIMIT, StressDofMap
from .solvers import RESIDUAL_CONTRACT, SolveReport, SparseFactor

__all__ = ["HybridBody", "solve_hybrid", "CONTINUITY_LIMIT"]

#: Largest face-continuity defect ||sum_T C_T sigma_T|| of the back-
#: substituted local stresses, relative to the larger of their norm and the
#: norm of the broken stresses M_T^-1 F_T (without multipliers): the data
#: set the scale when the stress itself vanishes, as under a rigid motion.
CONTINUITY_LIMIT = 1e-10


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Batched products (n, r, c) @ (n, c) -> (n, r)."""
    return np.einsum("nij,nj->ni", M, x)


def _local_saddle_inverses(blocks: BodyBlocks, essential: np.ndarray
                           ) -> np.ndarray:
    """Inverses (n, 54, 54) of the local saddle blocks with the essential
    stress DOFs eliminated symmetrically (their row and column zeroed, the
    diagonal kept at its compliance value).  Fails on the first tet whose
    block has a 1-norm condition number above CONDITION_LIMIT."""
    A, B = blocks.A, blocks.B
    n = A.shape[0]
    M = np.zeros((n, 54, 54))
    M[:, :42, :42] = A
    M[:, 42:, :42] = B
    M[:, :42, 42:] = np.swapaxes(B, 1, 2)
    keep = np.concatenate([~essential, np.ones((n, 12), dtype=bool)], axis=1)
    M *= keep[:, :, None] & keep[:, None, :]
    t, i = np.nonzero(essential)
    M[t, i, i] = A[t, i, i]
    try:
        M_inv = np.linalg.inv(M)
        cond = (np.abs(M).sum(axis=1).max(axis=1)
                * np.abs(M_inv).sum(axis=1).max(axis=1))
    except np.linalg.LinAlgError:
        M_inv, cond = None, np.linalg.cond(M, 1)
    bad = np.flatnonzero(~(cond <= CONDITION_LIMIT))
    if bad.size:
        raise RuntimeError(
            f"local saddle block of tet {bad[0]} is ill-conditioned "
            f"(cond_1 = {cond[bad[0]]:.3e} > {CONDITION_LIMIT:.0e})"
        )
    return M_inv


def _multiplier_numbering(smap: StressDofMap) -> tuple[np.ndarray, int]:
    """Multiplier index of each local stress DOF (n_tets, 42): nine per
    interior face, in the face's global DOF order; -1 for DOFs on boundary
    faces and for interior DOFs."""
    interior = np.flatnonzero(smap.face_neighbor >= 0)
    of_face = np.full(smap.n_faces, -1, dtype=np.int64)
    of_face[interior] = np.arange(interior.size)
    lam = np.full(smap.ltg.shape, -1, dtype=np.int64)
    face_dofs = smap.ltg[:, :36]
    f = of_face[face_dofs // 9]
    lam[:, :36] = np.where(f >= 0, 9 * f + face_dofs % 9, -1)
    return lam, 9 * interior.size


class HybridBody:
    """The broken body system of a mesh, condensed onto its face multipliers
    and, when coupled, the free plate DOFs.

    ``blocks`` are the unsigned local blocks and ``essential_idx`` the global
    stress DOFs that carry traction data.  ``coupling`` is None for the body
    alone (Gamma then carries natural stress DOFs), or (G_loc, K): the
    interface coupling in local columns (n_w, 42 n_tets) and the plate
    stiffness, both restricted to the free plate DOFs.
    """

    def __init__(self, smap: StressDofMap, blocks: BodyBlocks,
                 essential_idx: np.ndarray, coupling=None):
        self.smap = smap
        nt = smap.ltg.shape[0]
        ess = np.zeros(smap.n_dofs, dtype=bool)
        ess[essential_idx] = True
        self.free_sigma = ~ess
        self.essential = ess[smap.ltg]
        self.owned = smap.sign > 0
        self.blocks = blocks
        self.M_inv = _local_saddle_inverses(blocks, self.essential)
        lam, self.n_lam = _multiplier_numbering(smap)
        self._on_face = lam >= 0
        self._lam = lam[self._on_face]
        if coupling is None:
            coupling = (sp.csr_matrix((0, 42 * nt)), sp.csr_matrix((0, 0)))
        self.G, self.K = (sp.csr_matrix(m) for m in coupling)
        self.factor = SparseFactor(self._condensed(lam))

    def _condensed(self, lam: np.ndarray) -> sp.csr_matrix:
        """S = sum_T C_T M_T^-1 C_T^T + diag(0, K).  Tets off Gamma touch
        multipliers only: their dense blocks are scattered at once.  The few
        tets on Gamma also touch plate DOFs through G; theirs is a sparse
        product."""
        nt = lam.shape[0]
        n_y = self.n_lam + self.K.shape[0]
        W = self.M_inv[:, :42, :42]
        on_gamma = np.unique(self.G.indices // 42)
        off = np.ones(nt, dtype=bool)
        off[on_gamma] = False
        r, w = lam[off, :36], W[off, :36, :36]
        pair = (r[:, :, None] >= 0) & (r[:, None, :] >= 0)
        S = sp.coo_matrix(
            (w[pair], (np.broadcast_to(r[:, :, None], w.shape)[pair],
                       np.broadcast_to(r[:, None, :], w.shape)[pair])),
            shape=(n_y, n_y)).tocsr()
        if on_gamma.size:
            ng = on_gamma.size
            cols = (42 * on_gamma[:, None] + np.arange(42)).ravel()
            r = lam[on_gamma].ravel()
            on = np.flatnonzero(r >= 0)
            C_lam = sp.csr_matrix((np.ones(on.size), (r[on], on)),
                                  shape=(self.n_lam, 42 * ng))
            C = sp.vstack([C_lam, -self.G[:, cols]]).tocsr()
            loc = np.arange(42 * ng).reshape(ng, 42)
            # The essential DOFs of a tet on Gamma carry data, not unknowns:
            # their decoupled 1/diagonal entries stay out of S.
            W_gamma = W[on_gamma] * ~(self.essential[on_gamma][:, :, None]
                                      & np.eye(42, dtype=bool))
            W_gamma = sp.coo_matrix(
                (W_gamma.ravel(),
                 (np.broadcast_to(loc[:, :, None], (ng, 42, 42)).ravel(),
                  np.broadcast_to(loc[:, None, :], (ng, 42, 42)).ravel())),
                shape=(42 * ng, 42 * ng)).tocsr()
            S = S + C @ W_gamma @ C.T
        if self.K.shape[0]:
            S = S + sp.block_diag((sp.csr_matrix((self.n_lam, self.n_lam)),
                                   self.K))
        return S.tocsc()

    # --- the maps C_T and their transposes, on all tets at once -----------

    def _apply_C(self, x_sigma: np.ndarray) -> np.ndarray:
        """sum_T C_T x_T: multiplier rows, then plate rows."""
        lam = np.bincount(self._lam, weights=x_sigma[self._on_face],
                          minlength=self.n_lam)
        return np.concatenate([lam, -(self.G @ x_sigma.ravel())])

    def _apply_Ct(self, y: np.ndarray) -> np.ndarray:
        """C_T^T Y for every tet, (n_tets, 42)."""
        g = -(self.G.T @ y[self.n_lam:]).reshape(self.essential.shape)
        g[self._on_face] += y[self._lam]
        return g

    # --- solve --------------------------------------------------------------

    def solve(self, rhs_sigma: np.ndarray, f_u: np.ndarray,
              f_w: np.ndarray | None = None,
              sigma_data: np.ndarray | None = None):
        """Solve for the global stress right-hand side ``rhs_sigma``, the
        local displacement right-hand sides ``f_u`` (n_tets, 12), the plate
        load ``f_w`` on the free plate DOFs (coupled only) and the global
        essential stress values ``sigma_data`` (None for zero).  A global
        stress row goes to the owner tet's local copy.

        Returns the global stress, the local displacements (n_tets, 12), the
        free plate DOFs, the relative residual of the coupled system and the
        number of refinement passes of the S solve.
        """
        ltg, owned = self.smap.ltg, self.owned
        f_sigma = np.where(owned, rhs_sigma[ltg], 0.0)
        v = (np.zeros(ltg.shape) if sigma_data is None
             else np.where(self.essential, sigma_data[ltg], 0.0))
        f_w = np.zeros(self.K.shape[0]) if f_w is None else f_w
        A, B = self.blocks.A, self.blocks.B
        F = np.concatenate([f_sigma - _matvec(A, v), f_u - _matvec(B, v)],
                           axis=1)
        # The right-hand side of the coupled system, essential data moved over.
        b = (F[:, :42].copy(), F[:, 42:].copy(), f_w + self.G @ v.ravel())
        F[:, :42][self.essential] = (np.diagonal(A, axis1=1, axis2=2) * v
                                     )[self.essential]
        broken = _matvec(self.M_inv, F)[:, :42]
        rhs = self._apply_C(broken)
        rhs[self.n_lam:] += f_w
        y, _, passes = self.factor.refined_solve(rhs)
        F[:, :42] -= self._apply_Ct(y)
        x = _matvec(self.M_inv, F)
        x[:, :42][self.essential] = v[self.essential]
        self._check_continuity(x[:, :42], np.linalg.norm(broken))
        sigma = np.zeros(self.smap.n_dofs)
        sigma[ltg[owned]] = x[:, :42][owned]
        w = y[self.n_lam:]
        rel = self._residual(sigma, x[:, 42:], w, f_sigma, f_u, f_w, b)
        return sigma, x[:, 42:], w, rel, passes

    def _check_continuity(self, x_sigma: np.ndarray, norm_broken: float):
        """Fail if the local stresses of neighbouring tets disagree on a
        shared face (see CONTINUITY_LIMIT)."""
        defect = np.linalg.norm(self._apply_C(x_sigma)[:self.n_lam])
        scale = max(np.linalg.norm(x_sigma), norm_broken)
        if defect > CONTINUITY_LIMIT * scale:
            raise RuntimeError(
                f"face continuity defect {defect / scale:.3e} of the "
                f"back-substituted stresses exceeds {CONTINUITY_LIMIT:.0e} "
                "relative to the stress norm"
            )

    def _residual(self, sigma, u, w, f_sigma, f_u, f_w, b) -> float:
        """Relative residual of the coupled system in (sigma, u, w) over its
        free rows, tet by tet from the local blocks: every tet sees the owner
        copy of sigma, so the multipliers drop out.  ``b`` is the right-hand
        side with the essential data moved over (local stress rows, local
        displacement rows, plate rows).  Fails above the residual
        contract."""
        ltg, sign = self.smap.ltg, self.smap.sign
        s = sign * sigma[ltg]
        A, B = self.blocks.A, self.blocks.B
        g = (self.G.T @ w).reshape(ltg.shape)
        r_sigma = _matvec(A, s) + np.einsum("nji,nj->ni", B, u) - g - f_sigma

        def rows(loc):
            """Global free stress rows of signed local rows."""
            return np.bincount(ltg.ravel(), weights=(sign * loc).ravel(),
                               minlength=self.smap.n_dofs)[self.free_sigma]

        r_sigma, b_sigma = rows(r_sigma), rows(b[0])
        r_u = _matvec(B, s) - f_u
        r_w = -(self.G @ s.ravel()) - self.K @ w + f_w
        nb = np.linalg.norm(np.concatenate([b_sigma, b[1].ravel(), b[2]]))
        if nb == 0.0:
            return 0.0
        rel = np.linalg.norm(np.concatenate([r_sigma, r_u.ravel(), r_w])) / nb
        if not rel <= RESIDUAL_CONTRACT:
            raise RuntimeError(
                f"hybrid solve residual {rel:.3e} of the coupled system "
                f"exceeds {RESIDUAL_CONTRACT:.1e}"
            )
        return float(rel)


def solve_hybrid(system: BlockSystem
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, SolveReport]:
    """Hybridized solve of the coupled mixed system: global (sigma, u, w)
    and a report on the condensed system S (its size and nnz) with the
    relative residual of the coupled system."""
    t0 = time.perf_counter()
    smap, vmap, pmap = system.smap, system.vmap, system.pmap
    free = np.flatnonzero(~pmap.constrained)
    G_loc = system.coupling.local(smap.ltg.shape[0], pmap.n_dofs)[free]
    hb = HybridBody(smap, system.blocks, system.sigma_essential_idx,
                    coupling=(G_loc, system.K.tocsr()[free][:, free]))
    data = np.zeros(smap.n_dofs)
    data[system.sigma_essential_idx] = system.sigma_essential_values
    sigma, x_u, w_free, rel, passes = hb.solve(
        np.zeros(smap.n_dofs), system.f_V[vmap.ltg], system.f_W[free], data)
    u = np.zeros(vmap.n_dofs)
    u[vmap.ltg] = x_u
    w = np.zeros(pmap.n_dofs)
    w[free] = w_free
    S = hb.factor.M
    report = SolveReport(S.shape[0], S.nnz, rel, time.perf_counter() - t0,
                         passes)
    return sigma, u, w, report
