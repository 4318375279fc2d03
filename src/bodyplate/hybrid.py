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

The blocks are formed from the body's ``fe_elements.StressBatch``, which
its stress map holds (``StressDofMap.stress``), as
``assembly.compliance_blocks`` and ``divergence_blocks`` give them (both from
one ``assembly._local_blocks`` call per chunk), and eliminated, and
S is summed, in one pass over ``fe_elements.local_chunks`` slices of tets
(``HybridBody._condensed``), so that only the factors of the elimination
and S reach the size of the mesh: L^-1 and L_S^-1 with their triangles
packed, and Z (see below), 1,485 doubles per tet.  No block A_T, B_T or
M_T^-1 is kept; later solves apply M_T^-1 by the factors (``_local_solve``)
and A_T and B_T by their structure (``assembly.apply_A``, ``apply_B``,
``apply_Bt``), with the diagonal of A_T at the essential DOFs kept from
the elimination, so no solve forms a dense block.  S is kept by its
blocks (``CondensedSystem``).  A multiplier row of S reaches only the
faces of the one or two tets of its face, so the multiplier block is made
of dense 9 x 9 face blocks: it is stored as such (BSR, one block row per
interior face, one index per block), its layout follows from the tet-face
adjacency, and each tet's blocks are added to it whole (``_FaceBlocks``).
The rows and columns of the plate DOFs are a small sparse product over the
tets on Gamma, kept in CSR.

A solve has two halves: the right-hand side of S Y = r (``load``) and the
local back-substitution x_T = M_T^-1 (F_T - C_T^T Y) of a given Y
(``back_substitute``).  ``verification_cli.solve_mixed`` and
``domain_decomposition.BodyOperator`` join them by ``solve_condensed``,
preconditioned CG on S (the one CG loop, ``solvers.pcg``), which gives way
to a direct factor of S only where CG would cost more than that factor.
``domain_decomposition.solve_dd`` eliminates the blocks of S instead and
never builds the preconditioner.  The solution is that of the monolithic
system: the owner copy of sigma_T is the global stress.

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

The saddle blocks are eliminated without forming them: a Cholesky factor
L of A_T and one, L_S, of the 12 x 12 Schur complement give every block of
M_T^-1 by BLAS products (``_local_saddle_factors``), the inverse factors
by LAPACK ``dtrtri``.  Each chunk forms its M_T^-1 once, for the stress
block W_T that S sums and for the one rule of
``fe_elements._refuse_ill_conditioned``, which refuses any tet whose block
has a 1-norm condition number above CONDITION_LIMIT, and one whose A_T or
Schur complement has no Cholesky factor; then drops it.  Every solve then
checks, in this order: the face-continuity defect of the back-substituted
local stresses, relative to the stress norm; and the relative residual of
the coupled system in (sigma, u, w), evaluated tet by tet from the
structured local blocks with the owner copy of sigma in every tet (the
multipliers drop out), against the residual contract; over the body rows
only, with w as data, when the plate rows are not part of the solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dtrtri

from .assembly import (BlockSystem, _local_blocks, _scatter, apply_A,
                       apply_B, apply_Bt)
from .fe_elements import (
    StressDofMap,
    _refuse_ill_conditioned,
    _stacked,
    local_chunks,
)
from .materials import MaterialParams
from .solvers import (RESIDUAL_CONTRACT, SolutionFields, SolveReport,
                      SparseFactor, pcg)

__all__ = ["HybridBody", "HybridLoad", "CondensedSystem", "TwoLevelCycle",
           "condense", "mixed_solution", "CONTINUITY_LIMIT"]

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


#: The lower triangles of L_T^-1 (42 x 42) and L_S^-1 (12 x 12), packed
#: row by row.
_TRIL = {k: np.tril_indices(k) for k in (42, 12)}


def _packed(L: np.ndarray) -> np.ndarray:
    """The lower triangles (m, k (k + 1) / 2) of matrices L (m, k, k)."""
    rows, cols = _TRIL[L.shape[1]]
    return L[:, rows, cols]


def _unpacked(packed: np.ndarray, k: int) -> np.ndarray:
    """The lower triangular matrices (m, k, k) of their packed triangles
    (m, k (k + 1) / 2)."""
    out = np.zeros((len(packed), k, k))
    out[:, _TRIL[k][0], _TRIL[k][1]] = packed
    return out


def _inverse_cholesky_factors(M: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factors M = L L^T of a stack of symmetric
    positive definite matrices (m, k, k), all NaN for each one that is not
    positive definite or has NaN entries.  One LAPACK ``dtrtri`` per
    matrix, so the result does not depend on the stack."""
    L = _stacked(np.linalg.cholesky, M)  # NaN in M gives a NaN factor
    for i, Li in enumerate(L):
        L[i], info = dtrtri(Li, lower=1)
        if info != 0:
            L[i] = np.nan
    return L


def _saddle_inverses(L_inv: np.ndarray, LS_inv: np.ndarray, Z: np.ndarray
                     ) -> np.ndarray:
    """The inverses (m, 54, 54) of local saddle blocks from the factors of
    their block elimination (``_local_saddle_factors``)."""
    out = np.empty((len(Z), 54, 54))
    out[:, :42, 42:] = np.swapaxes(L_inv, 1, 2) @ (Z @ LS_inv)
    out[:, 42:, :42] = np.swapaxes(out[:, :42, 42:], 1, 2)
    out[:, 42:, 42:] = -(np.swapaxes(LS_inv, 1, 2) @ LS_inv)
    PL = Z @ (np.swapaxes(Z, 1, 2) @ L_inv)
    np.subtract(L_inv, PL, out=PL)
    np.matmul(np.swapaxes(PL, 1, 2), PL, out=out[:, :42, :42])
    return out


def _local_saddle_factors(blocks: tuple[np.ndarray, np.ndarray],
                          essential: np.ndarray, first: int):
    """The block elimination of the local saddle blocks M_T = [[A, B^T],
    [B, 0]] of a few tets, from the pair ``blocks`` of their compliance
    blocks A (m, 42, 42) and divergence blocks B (m, 12, 42), as
    ``assembly._local_blocks`` returns it, with their essential stress DOFs
    ``essential`` (m, 42) eliminated symmetrically, in place, so that no
    copy of a chunk's blocks is held: in A their rows and columns zeroed
    and the diagonal kept, in B their columns zeroed.

    From the Cholesky factors A = L L^T and Sigma = L_S L_S^T of A and of
    the 12 x 12 Schur complement Sigma = B A^-1 B^T = Y^T Y, Y = L^-1 B^T,
    Z = Y L_S^-T has orthonormal columns and P = I - Z Z^T projects onto
    the complement of its range, so that

        M_T^-1 = [[(P L^-1)^T (P L^-1),  L^-T Z L_S^-1    ],
                  [(L^-T Z L_S^-1)^T,    -L_S^-T L_S^-1]].

    The stress block A^-1 - A^-1 B^T Sigma^-1 B A^-1 is taken as a product
    of P L^-1 with itself, not as that difference: as nu -> 1/2, A^-1 grows
    like 1 / (1 - 2 nu), and the difference loses digits in proportion.

    Checked, with tets named from ``first``, by the rule of
    ``_refuse_ill_conditioned`` on the whole M_T, its 1-norm from the column
    sums of |A| and |B| and that of M_T^-1 from the formed inverse: a block
    whose A or Sigma is not positive definite has a NaN inverse, so
    cond_1 = inf.  Returns L^-1, L_S^-1, Z, the stress block W of M_T^-1
    (m, 42, 42) and the kept diagonal entries of A at the essential DOFs,
    in the order of ``essential``'s nonzeros."""
    A, B = blocks
    del blocks  # the pair would hold the blocks past the del below
    keep = ~essential
    t, i = np.nonzero(essential)
    diagonal = A[t, i, i]
    A *= keep[:, :, None] & keep[:, None, :]
    A[t, i, i] = diagonal
    B *= keep[:, None, :]
    norm = np.maximum(
        (np.abs(A).sum(axis=1) + np.abs(B).sum(axis=1)).max(axis=1),
        np.abs(B).sum(axis=2).max(axis=1))
    L_inv = _inverse_cholesky_factors(A)
    Y = L_inv @ np.swapaxes(B, 1, 2)
    del A, B  # unless the caller holds them, the blocks go before M_T^-1
    LS_inv = _inverse_cholesky_factors(np.swapaxes(Y, 1, 2) @ Y)
    Z = Y @ np.swapaxes(LS_inv, 1, 2)
    M_inv = _saddle_inverses(L_inv, LS_inv, Z)
    _refuse_ill_conditioned(norm, M_inv, "local saddle block of tet", first)
    return L_inv, LS_inv, Z, M_inv[:, :42, :42], diagonal


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


class _FaceBlocks:
    """The n x n multiplier block sum_T C_T W_T C_T^T of S in 9 x 9 face
    blocks, one block row per interior face, for the multiplier numbering
    ``lam``, summed from the stress blocks W_T of the local inverses one
    ``local_chunks`` slice at a time (``add``).

    Tet T adds the block (f, g) for each pair of its interior faces, so the
    layout follows from the tet-face adjacency.  A diagonal block sums the
    two tets of its face and every other block comes from one tet, so the
    result does not depend on the order of the sums: a block is added once
    from its first tet and once more, on a second pass, from the second.
    Each tet's local face DOFs are permuted into the faces' multiplier
    order and its blocks added whole."""

    def __init__(self, lam: np.ndarray, n: int):
        self.lam, self.n, n_f = lam, n, n // 9
        face = lam[:, :36:9] // 9  # interior face of each face group, or -1
        self.pair = (face[:, :, None] >= 0) & (face[:, None, :] >= 0)
        key = (face[:, :, None] * n_f + face[:, None, :])[self.pair]
        key, first, slot_of_pair = np.unique(key, return_index=True,
                                             return_inverse=True)
        self.slot = np.full(self.pair.shape, -1, dtype=np.int64)
        self.slot[self.pair] = slot_of_pair
        self.second = np.zeros(self.pair.shape, dtype=bool)
        self.second[self.pair] = np.isin(np.arange(slot_of_pair.size), first,
                                         invert=True)
        self.indptr = np.zeros(n_f + 1, dtype=np.int32)
        np.cumsum(np.bincount(key // n_f, minlength=n_f), out=self.indptr[1:])
        self.indices = (key % n_f).astype(np.int32)
        self.data = np.zeros((key.size, 9, 9))

    def add(self, c: slice, W: np.ndarray) -> None:
        """Add the stress blocks W (m, 42, 42) of the tets of slice c."""
        # The local DOF of each multiplier of the tet's four face groups.
        q = (np.argsort(self.lam[c, :36].reshape(-1, 4, 9), axis=2,
                        kind="stable")
             + 9 * np.arange(4)[:, None]).reshape(-1, 36)
        t = np.arange(len(q))[:, None, None]
        blocks = W[t, q[:, :, None], q[:, None, :]].reshape(
            -1, 4, 9, 4, 9).transpose(0, 1, 3, 2, 4)
        for side in (self.pair[c] & ~self.second[c], self.second[c]):
            self.data[self.slot[c][side]] += blocks[side]

    def matrix(self) -> sp.bsr_matrix:
        """The summed multiplier block."""
        return sp.bsr_matrix((self.data, self.indices, self.indptr),
                             shape=(self.n, self.n))


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

    The unsigned local blocks are formed and applied from the stress
    element of ``smap`` (``smap.stress``) and ``params``, the material of
    its compliance; ``essential_idx`` are the global stress DOFs that carry
    traction data.  ``coupling`` is None for the body alone (Gamma then
    carries natural stress DOFs), or (G_loc, K): the interface
    coupling in local columns (n_w, 42 n_tets) and the plate stiffness,
    both restricted to the free plate DOFs.  The factors of each tet's
    elimination are kept for later solves: ``L_inv`` (n_tets, 903) and
    ``LS_inv`` (n_tets, 78), the lower triangles of L^-1 and L_S^-1 packed
    row by row, and ``Z`` (n_tets, 42, 12); and ``essential_diagonal``,
    the diagonal entry of A_T at each essential local DOF, in the order of
    ``essential``'s nonzeros, which the load puts on the eliminated rows.
    """

    def __init__(self, smap: StressDofMap, params: MaterialParams,
                 essential_idx: np.ndarray, coupling=None):
        self.smap = smap
        nt = smap.ltg.shape[0]
        ess = np.zeros(smap.n_dofs, dtype=bool)
        ess[essential_idx] = True
        self.free_sigma = ~ess
        self.essential = ess[smap.ltg]
        self.owned = smap.sign > 0
        self.params = params
        self.L_inv = np.empty((nt, 42 * 43 // 2))
        self.LS_inv = np.empty((nt, 12 * 13 // 2))
        self.Z = np.empty((nt, 42, 12))
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
                        ) -> tuple[np.ndarray, SolveReport]:
        """Y with S Y = r and the report of its solve: the relative residual
        of S Y = r (Euclidean), the CG iterations and histories, and whether
        the solve gave way to a direct factor of S.

        Two-level preconditioned CG from zero, within the budget of
        max(PCG_MIN_IT, n // PCG_UNKNOWNS_PER_IT) iterations for S of size
        n.  When CG stops short of PCG_TOL, because it reached the budget or
        its rate forecasts more, S is factored; that factor then serves this
        and every later solve, with no CG."""
        t0 = time.perf_counter()
        history, euclid = [], []
        if self._direct is None:
            budget = max(PCG_MIN_IT, self.S.shape[0] // PCG_UNKNOWNS_PER_IT)
            y, converged, history, euclid = pcg(
                lambda p: self.S @ p, self._preconditioner, r, PCG_TOL,
                budget, label="condensed-system CG", window=PCG_WINDOW)
            rel = euclid[-1]
            if not converged:
                S = self.S.tocsc()
                # No later solve runs the cycle.  Freeing S P and the coarse
                # factor after the copy of S lets the factor reuse their
                # memory; freed before the copy, they raised the peak RSS
                # (glibc malloc).
                del self._preconditioner
                self._direct = SparseFactor(S)
        if self._direct is not None:
            y, rel = self._direct.checked_solve(r)
        return y, SolveReport(self.S.shape[0], self.S.nnz, rel,
                              time.perf_counter() - t0,
                              max(len(history) - 1, 0), history, euclid,
                              direct_fallback=self._direct is not None)

    def _condensed(self, lam: np.ndarray) -> CondensedSystem:
        """S = sum_T C_T W_T C_T^T + diag(0, K) by its blocks, with W_T the
        stress block of M_T^-1, in one pass over ``local_chunks`` slices of
        tets: each forms its blocks A_T and B_T, eliminates them
        (``_local_saddle_factors``), keeps the factors and the diagonal of
        A_T at the essential DOFs (``essential_diagonal``), and adds W_T to
        the multiplier block (``_FaceBlocks``) and, for the tets on Gamma,
        to the plate rows and columns, which only those tets reach (through
        G): a small sparse product over them plus K."""
        n, nt = self.n_lam, len(lam)
        on_gamma = np.unique(self.G.indices // 42)
        ng = on_gamma.size
        face_blocks = _FaceBlocks(lam, n)
        W_gamma = np.empty((ng, 42, 42))
        diagonal = []
        k = self.smap.stress
        for c in local_chunks(nt):
            L_inv, LS_inv, Z, W, d = _local_saddle_factors(
                _local_blocks(k, self.params, c), self.essential[c], c.start)
            diagonal.append(d)
            self.L_inv[c], self.LS_inv[c] = _packed(L_inv), _packed(LS_inv)
            self.Z[c] = Z
            face_blocks.add(c, W)
            g = slice(*np.searchsorted(on_gamma, (c.start, c.stop)))
            W_gamma[g] = W[on_gamma[g] - c.start]
        self.essential_diagonal = np.concatenate(diagonal)
        cols = (42 * on_gamma[:, None] + np.arange(42)).ravel()
        r = lam[on_gamma].ravel()
        on = np.flatnonzero(r >= 0)
        C_lam = sp.csr_matrix((np.ones(on.size), (r[on], on)),
                              shape=(n, 42 * ng))
        loc = np.arange(42 * ng).reshape(ng, 42)
        # The essential DOFs of a tet on Gamma carry data, not unknowns:
        # their decoupled 1/diagonal entries stay out of S.
        W_gamma *= ~(self.essential[on_gamma][:, :, None]
                     & np.eye(42, dtype=bool))
        W_gamma = _scatter(loc, loc, W_gamma, (42 * ng, 42 * ng))
        G = self.G[:, cols]
        WG = W_gamma @ G.T
        return CondensedSystem(face_blocks.matrix(), -(C_lam @ WG).tocsr(),
                               (G @ WG + self.K).tocsr())

    def _local_solve(self, F: np.ndarray) -> np.ndarray:
        """x_T = M_T^-1 F_T (n_tets, 54) for every tet, from the kept
        factors, one ``local_chunks`` slice at a time: with g and h the
        stress and displacement rows of F_T,

            x_sigma = L^-T [P^T P (L^-1 g) + Z (L_S^-1 h)],
            x_u = L_S^-T [Z^T (L^-1 g) - L_S^-1 h].

        P is applied twice, as in the stress block (P L^-1)^T (P L^-1) that
        S sums: Z is orthonormal only to roundoff times the condition of
        the Schur complement, and with P once the stresses disagree with S
        by that much (on a Delaunay body-8 mesh, a ``solve_dd`` residual of
        1.3e-9 in place of 3.5e-11)."""
        x = np.empty_like(F)
        for c in local_chunks(len(F)):
            L_inv = _unpacked(self.L_inv[c], 42)
            LS_inv = _unpacked(self.LS_inv[c], 12)
            Z, Zt = self.Z[c], np.swapaxes(self.Z[c], 1, 2)
            y = L_inv @ F[c, :42, None]
            k = LS_inv @ F[c, 42:, None]
            t = Zt @ y
            p = y - Z @ t
            p -= Z @ (Zt @ p)
            x[c, :42] = (np.swapaxes(L_inv, 1, 2) @ (p + Z @ k))[..., 0]
            x[c, 42:] = (np.swapaxes(LS_inv, 1, 2) @ (t - k))[..., 0]
        return x

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
        F = np.concatenate([f_sigma, f_u], axis=1)
        # The essential data moved over, A_T v and B_T v applied by their
        # structure: both are exactly 0 on the tets without data.
        F[:, :42] -= apply_A(self.smap.stress, self.params, v)
        F[:, 42:] -= apply_B(self.smap.stress, v)
        F[:, :42][self.essential] = self.essential_diagonal * v[self.essential]
        broken = self._local_solve(F)[:, :42]
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
        x = self._local_solve(F)
        x[:, :42][self.essential] = load.v[self.essential]
        self._check_continuity(x[:, :42], load.norm_broken)
        sigma = np.zeros(self.smap.n_dofs)
        sigma[self.smap.ltg[self.owned]] = x[:, :42][self.owned]
        rel = self._residual(sigma, x[:, 42:], y[self.n_lam:], load,
                             plate_rows)
        return sigma, x[:, 42:], rel

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
        free rows, tet by tet from the local blocks applied by their
        structure: every tet sees the owner copy of sigma, so the
        multipliers drop out.  The right-hand side has
        the essential data moved over, and without ``plate_rows`` also w.
        Fails above the residual contract."""
        ltg, sign = self.smap.ltg, self.smap.sign
        s = sign * sigma[ltg]
        k = self.smap.stress
        g = (self.G.T @ w).reshape(ltg.shape)
        r_sigma = (apply_A(k, self.params, s) + apply_Bt(k, u) - g
                   - load.f_sigma)
        # F holds f_sigma - A v on the free rows and f_u - B v.
        b_sigma = load.F[:, :42]

        def rows(loc):
            """Global free stress rows of signed local rows."""
            return np.bincount(ltg.ravel(), weights=(sign * loc).ravel(),
                               minlength=self.smap.n_dofs)[self.free_sigma]

        r = [rows(r_sigma), (apply_B(k, s) - load.f_u).ravel()]
        b = [rows(b_sigma if plate_rows else b_sigma + g),
             load.F[:, 42:].ravel()]
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
    hb = HybridBody(smap, system.params, system.sigma_essential_idx,
                    coupling=(G_loc, system.K.tocsr()[free][:, free]))
    data = np.zeros(smap.n_dofs)
    data[system.sigma_essential_idx] = system.sigma_essential_values
    load = hb.load(np.zeros(smap.n_dofs), system.f_V[system.vmap.ltg],
                   system.f_W[free], data)
    return hb, free, load


def mixed_solution(system: BlockSystem, sigma: np.ndarray, x_u: np.ndarray,
                   w: np.ndarray, report: SolveReport,
                   junction_residual: float | None = None) -> SolutionFields:
    """The ``SolutionFields`` of a hybridized solve of ``system``, from its
    local displacements (n_tets, 12), with the system's DOF maps."""
    u = np.zeros(system.vmap.n_dofs)
    u[system.vmap.ltg] = x_u
    return SolutionFields(
        method="mixed-nc", body=system.smap.mesh, plate=system.pmap.mesh,
        params=system.params, u=u, w=w, pmap=system.pmap, sigma=sigma,
        smap=system.smap, vmap=system.vmap, report=report,
        junction_residual=junction_residual)
