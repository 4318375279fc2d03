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
essential free-face stress DOFs eliminated symmetrically.  Inverting the
blocks leaves the symmetric positive definite system

    S Y = sum_T C_T M_T^-1 F_T - H,          S = sum_T C_T M_T^-1 C_T^T + D.

The blocks are built and inverted, and S is summed, one
``fe_elements.local_chunks`` slice of tets at a time, so that only the
inverses and S reach the size of the mesh.  S is kept by its blocks
(``CondensedSystem``).  A multiplier row of S reaches only the faces of the
one or two tets of its face, so the multiplier block is made of dense 9 x 9
face blocks: it is stored as such (BSR, one block row per interior face,
one index per block), its layout follows from the tet-face adjacency, and
each tet's blocks are added to it whole (``_face_blocks``).  The rows and
columns of the plate DOFs are a small sparse product over the tets on
Gamma, kept in CSR.

A solve has two halves: the right-hand side of S Y = r (``load``) and the
local back-substitution x_T = M_T^-1 (F_T - C_T^T Y) of a given Y
(``back_substitute``).  ``solve_hybrid`` and ``HybridBody.solve`` join them
by ``solve_condensed``, preconditioned CG on S (the one CG loop,
``solvers.pcg``), which gives way to a direct factor of S only where CG
would cost more than that factor.  ``domain_decomposition.solve_dd``
eliminates the blocks of S instead and never builds the preconditioner.
The solution is that of the monolithic system: the owner copy of sigma_T is
the global stress.

The preconditioner is two-level, auxiliary-space (Hiptmair & Xu 2007) in
the form given for hybridized methods by Cockburn, Dubois, Gopalakrishnan &
Tan (2014).  Its coarse space is P1 vertex displacements v at every vertex
of the same mesh, Gamma included, with all plate DOFs added as they are:
P = diag(P_body, I), where lambda[f, 3 a + c] = |F| v[vertex a of f, c] on
every interior face f.  The multipliers are traction moments against P1
normalised by 1/|F|, so only with the |F| scale does a rigid motion go to
multipliers that S maps to zero on every face away from Gamma.  S P is
kept, and the coarse matrix P^T (S P) is factored once.  The smoother is
block Jacobi on the diagonal 9 x 9 face blocks of S and the diagonal of the
plate rows, damped by 1/2, and one cycle (``TwoLevelCycle``) is symmetric
multiplicative: smooth, coarse solve, smooth.  The residual after the
coarse correction comes from the kept products, S (x + P e) = S x +
(S P) e, so a CG iteration costs two products with S and one with S P.
CG then takes about 50 iterations at every mesh size for a compressible
body.  The coarse space locks as nu -> 1/2: at nu = 0.4999 the count grows
with the mesh, 92, 664 and 987 at body n = 2, 4 and 8, and at nu = 0.49999
CG does not converge in 1000.  There a direct factor of S is the cheaper
solve, so CG watches its own rate: once the rate over the last PCG_WINDOW
iterations forecasts more iterations than the factor would cost, CG stops
and S is factored (``solve_condensed``), from one CSC copy of S.

The blocks are inverted by block elimination, without forming them: a
Cholesky factor of A_T and one of the 12 x 12 Schur complement give every
block of M_T^-1 by BLAS products (``_local_saddle_inverses``).  The one
rule of ``fe_elements._refuse_ill_conditioned`` refuses any tet whose block
has a 1-norm condition number above CONDITION_LIMIT, and one whose A_T or
Schur complement has no Cholesky factor.  Every solve then checks, in this
order: the face-continuity defect of the back-substituted local stresses,
relative to the stress norm; and the relative residual of the coupled
system in (sigma, u, w), evaluated tet by tet from the local blocks with
the owner copy of sigma in every tet (the multipliers drop out), against
the residual contract; over the body rows only, with w as data, when the
plate rows are not part of the solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import BlockSystem, BodyBlocks, _scatter
from .fe_elements import (
    StressDofMap,
    _refuse_ill_conditioned,
    _stacked,
    local_chunks,
)
from .solvers import RESIDUAL_CONTRACT, SolveReport, SparseFactor, pcg

__all__ = ["HybridBody", "HybridLoad", "CondensedSystem", "TwoLevelCycle",
           "condense", "solve_hybrid", "CONTINUITY_LIMIT"]

#: Largest face-continuity defect ||sum_T C_T sigma_T|| of the back-
#: substituted local stresses, relative to the larger of their norm and the
#: norm of the broken stresses M_T^-1 F_T (without multipliers): the data
#: set the scale when the stress itself vanishes, as under a rigid motion.
CONTINUITY_LIMIT = 1e-10


#: Relative U-norm residual at which the CG on S stops.  The continuity
#: defect checked after back-substitution is the multiplier rows of the S
#: residual, so this sits two digits below CONTINUITY_LIMIT.
PCG_TOL = 1e-13

#: The iteration budget of the CG on S, past which a direct factor of S is
#: the cheaper solve: max(PCG_MIN_IT, n // PCG_UNKNOWNS_PER_IT) for S of
#: size n.  On one core the factor and solve of S cost as much as about 100
#: and 1000 CG iterations at body n = 4 and 8 (n = 6,371 and 53,251),
#: so about one iteration per 64 unknowns; the floor is twice the flat
#: count near 50 of a compressible body.
PCG_MIN_IT = 100
PCG_UNKNOWNS_PER_IT = 64

#: The number of iterations over which CG measures its rate to forecast
#: the iterations it still needs.
PCG_WINDOW = 10

#: Damping of the face-block Jacobi smoother of the S preconditioner.
SMOOTHER_DAMPING = 0.5


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Batched products (n, r, c) @ (n, c) -> (n, r)."""
    return np.einsum("nij,nj->ni", M, x)


def _inverse_cholesky_factors(M: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factors M = L L^T of a stack of symmetric
    positive definite matrices (m, k, k), all NaN for each one that is not
    positive definite or has NaN entries.  Each step acts on each matrix
    alone, so the result does not depend on the stack."""
    def invert(M):
        L = np.linalg.cholesky(M)
        if np.isnan(L).any():  # NaN in M gives a NaN factor, not an error
            raise np.linalg.LinAlgError("NaN Cholesky factor")
        return scipy.linalg.inv(L, assume_a="lower triangular",
                                check_finite=False)
    return _stacked(invert, M)


def _local_saddle_inverses(blocks: BodyBlocks, essential: np.ndarray
                           ) -> np.ndarray:
    """Inverses (n, 54, 54) of the local saddle blocks M_T = [[A, B^T],
    [B, 0]], their essential stress DOFs ``essential`` (n, 42) eliminated
    symmetrically: in A their rows and columns zeroed and the diagonal
    kept, in B their columns zeroed.

    By block elimination, one ``local_chunks`` slice at a time, from the
    Cholesky factors A = L L^T and Sigma = L_S L_S^T of A and of the 12 x 12
    Schur complement Sigma = B A^-1 B^T = Y^T Y, Y = L^-1 B^T.  Z = Y L_S^-T
    has orthonormal columns and P = I - Z Z^T projects onto the complement
    of its range, so that

        M_T^-1 = [[(P L^-1)^T (P L^-1),  L^-T Z L_S^-1    ],
                  [(L^-T Z L_S^-1)^T,    -L_S^-T L_S^-1]].

    The stress block A^-1 - A^-1 B^T Sigma^-1 B A^-1 is taken as a product
    of P L^-1 with itself, not as that difference: as nu -> 1/2, A^-1 grows
    like 1 / (1 - 2 nu), and the difference loses digits in proportion.

    Checked by the rule of ``_refuse_ill_conditioned`` on the whole M_T,
    its 1-norm from the column sums of |A| and |B|: a block whose A or
    Sigma is not positive definite has a NaN inverse, so cond_1 = inf."""
    n = len(essential)
    M_inv = np.empty((n, 54, 54))
    for c in local_chunks(n):
        keep = ~essential[c]
        A = blocks.A[c] * (keep[:, :, None] & keep[:, None, :])
        t, i = np.nonzero(essential[c])
        A[t, i, i] = blocks.A[c][t, i, i]
        B = blocks.B[c] * keep[:, None, :]
        norm = np.maximum(
            (np.abs(A).sum(axis=1) + np.abs(B).sum(axis=1)).max(axis=1),
            np.abs(B).sum(axis=2).max(axis=1))
        L_inv = _inverse_cholesky_factors(A)
        Y = L_inv @ np.swapaxes(B, 1, 2)
        LS_inv = _inverse_cholesky_factors(np.swapaxes(Y, 1, 2) @ Y)
        Z = Y @ np.swapaxes(LS_inv, 1, 2)
        out = M_inv[c]
        out[:, :42, 42:] = np.swapaxes(L_inv, 1, 2) @ (Z @ LS_inv)
        out[:, 42:, :42] = np.swapaxes(out[:, :42, 42:], 1, 2)
        out[:, 42:, 42:] = -(np.swapaxes(LS_inv, 1, 2) @ LS_inv)
        L_inv -= Z @ (np.swapaxes(Z, 1, 2) @ L_inv)  # now P L^-1
        np.matmul(np.swapaxes(L_inv, 1, 2), L_inv, out=out[:, :42, :42])
        _refuse_ill_conditioned(norm, out, "local saddle block of tet",
                                c.start)
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


def _face_blocks(lam: np.ndarray, n: int, W: np.ndarray) -> sp.bsr_matrix:
    """The n x n multiplier block sum_T C_T W_T C_T^T of S in 9 x 9 face
    blocks, one block row per interior face, for the multiplier numbering
    ``lam`` and the stress blocks W (n_tets, 42, 42) of the local inverses.

    Tet T adds the block (f, g) for each pair of its interior faces, so the
    layout follows from the tet-face adjacency.  A diagonal block sums the
    two tets of its face and every other block comes from one tet, so the
    result does not depend on the order of the sums: a block is added once
    from its first tet and once more, on a second pass, from the second.
    Each tet's local face DOFs are permuted into the faces' multiplier
    order and its blocks added one ``local_chunks`` slice at a time."""
    nt, n_f = len(lam), n // 9
    face = lam[:, :36:9] // 9  # interior face of each face group, or -1
    pair = (face[:, :, None] >= 0) & (face[:, None, :] >= 0)
    key = (face[:, :, None] * n_f + face[:, None, :])[pair]
    key, first, slot_of_pair = np.unique(key, return_index=True,
                                         return_inverse=True)
    slot = np.full(pair.shape, -1, dtype=np.int64)
    slot[pair] = slot_of_pair
    second = np.zeros(pair.shape, dtype=bool)  # the second tet of a block
    second[pair] = np.isin(np.arange(slot_of_pair.size), first, invert=True)
    indptr = np.zeros(n_f + 1, dtype=np.int32)
    np.cumsum(np.bincount(key // n_f, minlength=n_f), out=indptr[1:])
    data = np.zeros((key.size, 9, 9))
    for c in local_chunks(nt):
        # The local DOF of each multiplier of the tet's four face groups.
        q = (np.argsort(lam[c, :36].reshape(-1, 4, 9), axis=2, kind="stable")
             + 9 * np.arange(4)[:, None]).reshape(-1, 36)
        t = np.arange(len(q))[:, None, None]
        blocks = W[c][t, q[:, :, None], q[:, None, :]].reshape(
            -1, 4, 9, 4, 9).transpose(0, 1, 3, 2, 4)
        for side in (pair[c] & ~second[c], second[c]):
            data[slot[c][side]] += blocks[side]
    return sp.bsr_matrix((data, (key % n_f).astype(np.int32), indptr),
                         shape=(n, n))


@dataclass
class CondensedSystem:
    """The condensed system S by its blocks: the multiplier block ``ll`` in
    9 x 9 face blocks, one block row per interior face, and the multiplier-
    plate block ``lw`` and plate block ``ww`` in CSR.  S is symmetric, so
    lw^T stands for its plate-multiplier block."""

    ll: sp.bsr_matrix
    lw: sp.csr_matrix
    ww: sp.csr_matrix

    @property
    def shape(self) -> tuple[int, int]:
        n = self.ll.shape[0] + self.ww.shape[0]
        return n, n

    @property
    def nnz(self) -> int:
        return self.ll.nnz + 2 * self.lw.nnz + self.ww.nnz

    @cached_property
    def _wl(self) -> sp.csr_matrix:
        """The plate-multiplier block lw^T."""
        return self.lw.T.tocsr()

    def __matmul__(self, x):
        """S x, for a vector or a sparse matrix x (as CSR)."""
        n = self.ll.shape[0]
        top = self.ll @ x[:n] + self.lw @ x[n:]
        bottom = self._wl @ x[:n] + self.ww @ x[n:]
        if sp.issparse(x):
            return sp.vstack([top.tocsr(), bottom.tocsr()], format="csr")
        return np.concatenate([top, bottom])

    def tocsc(self) -> sp.csc_matrix:
        """S as one CSC matrix, for a direct factor."""
        return sp.bmat([[self.ll, self.lw], [self._wl, self.ww]],
                       format="csc")


class TwoLevelCycle:
    """One symmetric multiplicative cycle of the two-level preconditioner of
    S for the coarse transfer P: smooth, coarse solve, smooth.

    The coarse matrix P^T (S P) is factored once.  The smoother is damped
    block Jacobi on the diagonal face blocks of S, read from its face-block
    storage, and the diagonal of the plate rows.  S P is kept, so the
    residual after the coarse correction x_2 = x_1 + P e needs no second
    product with S: S x_2 = S x_1 + (S P) e."""

    def __init__(self, S: CondensedSystem, P: sp.csr_matrix):
        self.S, self.P, self.PT = S, P, P.T.tocsr()
        self.SP = S @ P
        self.coarse = SparseFactor(self.PT @ self.SP)
        ll = S.ll
        rows = np.repeat(np.arange(len(ll.indptr) - 1), np.diff(ll.indptr))
        D = ll.data[ll.indices == rows]
        ptr = np.arange(len(D) + 1)
        self.smoother = SMOOTHER_DAMPING * sp.block_diag(
            (sp.bsr_matrix((np.linalg.inv(D), ptr[:-1], ptr)),
             sp.diags(1.0 / S.ww.diagonal())), format="csr")

    def __call__(self, r: np.ndarray) -> np.ndarray:
        x = self.smoother @ r
        Sx = self.S @ x
        e = self.coarse.apply(self.PT @ (r - Sx))
        x += self.P @ e
        Sx += self.SP @ e
        return x + self.smoother @ (r - Sx)


@dataclass
class HybridLoad:
    """The data of one solve: the local stress and displacement right-hand
    sides, the free plate load, the local essential values v, the local
    right-hand sides F with v moved over, the norm of the broken stresses
    M_T^-1 F_T and the right-hand side r of S Y = r."""

    f_sigma: np.ndarray
    f_u: np.ndarray
    f_w: np.ndarray
    v: np.ndarray
    F: np.ndarray
    norm_broken: float
    r: np.ndarray


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
        self.S = self._condensed(lam)
        self._direct = None  # the factor of S, once CG has given way to it

    @cached_property
    def _preconditioner(self) -> TwoLevelCycle:
        """The two-level preconditioner of S, built on the first use."""
        return TwoLevelCycle(self.S, self._coarse_transfer())

    def _coarse_transfer(self) -> sp.csr_matrix:
        """P = diag(P_body, I_plate) from P1 vertex displacements v and the
        free plate DOFs: lambda[f, 3 a + c] = |F| v[vertex a of f, c] on every
        interior face f.  The multipliers are traction moments normalised by
        1/|F|, so the |F| scale makes P carry a rigid motion to the
        multipliers that S maps to zero on every face away from Gamma.  A
        vertex on no interior face (a corner in one tet only) would give
        three zero columns and a singular P^T S P: v leaves it out."""
        smap = self.smap
        verts = smap.face_vertices[smap.face_neighbor >= 0]
        xyz = smap.mesh.vertices[verts]
        area = 0.5 * np.linalg.norm(
            np.cross(xyz[:, 1] - xyz[:, 0], xyz[:, 2] - xyz[:, 0]), axis=1)
        used, vert = np.unique(verts, return_inverse=True)
        cols = (3 * vert.reshape(verts.shape)[:, :, None]
                + np.arange(3)).ravel()
        P_body = sp.csr_matrix(
            (np.repeat(area, 9), (np.arange(self.n_lam), cols)),
            shape=(self.n_lam, 3 * used.size))
        return sp.block_diag((P_body, sp.identity(self.K.shape[0])),
                             format="csr")

    def solve_condensed(self, r: np.ndarray
                        ) -> tuple[np.ndarray, list[float], bool]:
        """Y with S Y = r, the relative U-norm residual history of the CG
        and whether the solve gave way to a direct factor of S.

        Two-level preconditioned CG from zero, within the budget of
        max(PCG_MIN_IT, n // PCG_UNKNOWNS_PER_IT) iterations for S of size
        n.  When CG stops short of PCG_TOL, because it reached the budget or
        its rate forecasts more, S is factored; that factor then serves this
        and every later solve, with no CG."""
        history: list[float] = []
        if self._direct is None:
            budget = max(PCG_MIN_IT, self.S.shape[0] // PCG_UNKNOWNS_PER_IT)
            y, converged, history, _ = pcg(
                lambda p: self.S @ p, self._preconditioner, r, PCG_TOL,
                budget, label="condensed-system CG", window=PCG_WINDOW)
            if converged:
                return y, history, False
            S = self.S.tocsc()
            # No later solve runs the cycle.  Freeing S P and the coarse
            # factor after the copy of S lets the factor reuse their memory;
            # freed before the copy, they raised the peak RSS (glibc malloc).
            del self._preconditioner
            self._direct = SparseFactor(S)
        return self._direct.solve(r), history, True

    def _condensed(self, lam: np.ndarray) -> CondensedSystem:
        """S = sum_T C_T W_T C_T^T + diag(0, K) by its blocks, with W_T the
        stress block of M_T^-1: the multiplier block summed face block by
        face block (``_face_blocks``), and the plate rows and columns, which
        only the tets on Gamma reach (through G), a small sparse product
        over those tets plus K."""
        n = self.n_lam
        W = self.M_inv[:, :42, :42]
        on_gamma = np.unique(self.G.indices // 42)
        ng = on_gamma.size
        cols = (42 * on_gamma[:, None] + np.arange(42)).ravel()
        r = lam[on_gamma].ravel()
        on = np.flatnonzero(r >= 0)
        C_lam = sp.csr_matrix((np.ones(on.size), (r[on], on)),
                              shape=(n, 42 * ng))
        loc = np.arange(42 * ng).reshape(ng, 42)
        # The essential DOFs of a tet on Gamma carry data, not unknowns:
        # their decoupled 1/diagonal entries stay out of S.
        W_gamma = _scatter(
            loc, loc, W[on_gamma] * ~(self.essential[on_gamma][:, :, None]
                                      & np.eye(42, dtype=bool)),
            (42 * ng, 42 * ng))
        G = self.G[:, cols]
        WG = W_gamma @ G.T
        return CondensedSystem(_face_blocks(lam, n, W), -(C_lam @ WG).tocsr(),
                               (G @ WG + self.K).tocsr())

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

    # --- solve ---------------------------------------------------------------

    def load(self, rhs_sigma: np.ndarray, f_u: np.ndarray,
             f_w: np.ndarray | None = None,
             sigma_data: np.ndarray | None = None) -> HybridLoad:
        """The data of a solve for the global stress right-hand side
        ``rhs_sigma``, the local displacement right-hand sides ``f_u``
        (n_tets, 12), the plate load ``f_w`` on the free plate DOFs (coupled
        only) and the global essential stress values ``sigma_data`` (None
        for zero).  A global stress row goes to the owner tet's local copy.
        """
        ltg, owned = self.smap.ltg, self.owned
        f_sigma = np.where(owned, rhs_sigma[ltg], 0.0)
        v = (np.zeros(ltg.shape) if sigma_data is None
             else np.where(self.essential, sigma_data[ltg], 0.0))
        f_w = np.zeros(self.K.shape[0]) if f_w is None else f_w
        A, B = self.blocks.A, self.blocks.B
        F = np.concatenate([f_sigma - _matvec(A, v), f_u - _matvec(B, v)],
                           axis=1)
        F[:, :42][self.essential] = (np.diagonal(A, axis1=1, axis2=2) * v
                                     )[self.essential]
        broken = _matvec(self.M_inv, F)[:, :42]
        r = self._apply_C(broken)
        r[self.n_lam:] += f_w
        return HybridLoad(f_sigma, f_u, f_w, v, F, np.linalg.norm(broken), r)

    def back_substitute(self, y: np.ndarray, load: HybridLoad,
                        plate_rows: bool = True):
        """The global stress, the local displacements (n_tets, 12) and the
        relative residual of the coupled system for a given Y, by
        x_T = M_T^-1 (F_T - C_T^T Y).  Without ``plate_rows`` the residual
        covers the body rows, with the plate values of Y as data."""
        F = load.F.copy()
        F[:, :42] -= self._apply_Ct(y)
        x = _matvec(self.M_inv, F)
        x[:, :42][self.essential] = load.v[self.essential]
        self._check_continuity(x[:, :42], load.norm_broken)
        sigma = np.zeros(self.smap.n_dofs)
        sigma[self.smap.ltg[self.owned]] = x[:, :42][self.owned]
        rel = self._residual(sigma, x[:, 42:], y[self.n_lam:], load,
                             plate_rows)
        return sigma, x[:, 42:], rel

    def solve(self, rhs_sigma: np.ndarray, f_u: np.ndarray,
              f_w: np.ndarray | None = None,
              sigma_data: np.ndarray | None = None):
        """Solve S Y = r for the data of ``load`` and back-substitute.
        Returns the global stress, the local displacements (n_tets, 12), the
        free plate DOFs, the relative residual of the coupled system and the
        number of CG iterations of the S solve."""
        load = self.load(rhs_sigma, f_u, f_w, sigma_data)
        y, history, _ = self.solve_condensed(load.r)
        sigma, u, rel = self.back_substitute(y, load)
        return sigma, u, y[self.n_lam:], rel, max(len(history) - 1, 0)

    def plate_load(self, sigma: np.ndarray) -> np.ndarray:
        """G sigma on the free plate DOFs, by the owner copies of sigma."""
        return self.G @ (self.smap.sign * sigma[self.smap.ltg]).ravel()

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

    def _residual(self, sigma, u, w, load: HybridLoad,
                  plate_rows: bool) -> float:
        """Relative residual of the coupled system in (sigma, u, w) over its
        free rows, tet by tet from the local blocks: every tet sees the owner
        copy of sigma, so the multipliers drop out.  The right-hand side has
        the essential data moved over, and without ``plate_rows`` also w.
        Fails above the residual contract."""
        ltg, sign = self.smap.ltg, self.smap.sign
        s = sign * sigma[ltg]
        A, B = self.blocks.A, self.blocks.B
        g = (self.G.T @ w).reshape(ltg.shape)
        r_sigma = (_matvec(A, s) + np.einsum("nji,nj->ni", B, u) - g
                   - load.f_sigma)
        b_sigma = load.f_sigma - _matvec(A, load.v)

        def rows(loc):
            """Global free stress rows of signed local rows."""
            return np.bincount(ltg.ravel(), weights=(sign * loc).ravel(),
                               minlength=self.smap.n_dofs)[self.free_sigma]

        r = [rows(r_sigma), (_matvec(B, s) - load.f_u).ravel()]
        b = [rows(b_sigma if plate_rows else b_sigma + g),
             (load.f_u - _matvec(B, load.v)).ravel()]
        if plate_rows:
            r.append(-self.plate_load(sigma) - self.K @ w + load.f_w)
            b.append(load.f_w + self.G @ load.v.ravel())
        nb = np.linalg.norm(np.concatenate(b))
        if nb == 0.0:
            return 0.0
        rel = np.linalg.norm(np.concatenate(r)) / nb
        if not rel <= RESIDUAL_CONTRACT:
            raise RuntimeError(
                f"hybrid solve residual {rel:.3e} of the coupled system "
                f"exceeds {RESIDUAL_CONTRACT:.1e}"
            )
        return float(rel)


def condense(system: BlockSystem
             ) -> tuple[HybridBody, np.ndarray, HybridLoad]:
    """The coupled HybridBody of an assembled mixed system, its free plate
    DOFs and the load of the system's data."""
    smap, pmap = system.smap, system.pmap
    free = np.flatnonzero(~pmap.constrained)
    G_loc = system.coupling.local(smap.ltg.shape[0], pmap.n_dofs)[free]
    hb = HybridBody(smap, system.blocks, system.sigma_essential_idx,
                    coupling=(G_loc, system.K.tocsr()[free][:, free]))
    data = np.zeros(smap.n_dofs)
    data[system.sigma_essential_idx] = system.sigma_essential_values
    load = hb.load(np.zeros(smap.n_dofs), system.f_V[system.vmap.ltg],
                   system.f_W[free], data)
    return hb, free, load


def solve_hybrid(system: BlockSystem
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, SolveReport]:
    """Hybridized solve of the coupled mixed system: global (sigma, u, w)
    and a report on the condensed system S (its size and nnz) with the
    relative residual of the coupled system."""
    t0 = time.perf_counter()
    hb, free, load = condense(system)
    y, history, direct = hb.solve_condensed(load.r)
    sigma, x_u, rel = hb.back_substitute(y, load)
    u = np.zeros(system.vmap.n_dofs)
    u[system.vmap.ltg] = x_u
    w = np.zeros(system.pmap.n_dofs)
    w[free] = y[hb.n_lam:]
    report = SolveReport(hb.S.shape[0], hb.S.nnz, rel,
                         time.perf_counter() - t0,
                         iterations=max(len(history) - 1, 0), history=history,
                         direct_fallback=direct)
    return sigma, u, w, report
