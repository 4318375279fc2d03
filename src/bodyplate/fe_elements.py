"""Local finite elements and global degree-of-freedom maps.

Spaces
------
* Stress: a 42-dimensional nonconforming symmetric-matrix-valued element on
  tetrahedra with H(div)-type continuity imposed weakly through face traction
  moments.  The local space is sum_{i<j} P_ij t_ij t_ij^T over the six edges,
  with P_ij = P1 + (lam_i - lam_j) span{lam_l, lam_m} + lam_i lam_j P0 (l, m
  the complementary vertices).  Degrees of freedom: per face the nine moments
  (1/|F|) int_F (tau n) . (lam_a e_c) against the face's P1 basis and the three
  Cartesian directions, plus six interior mean values (1/|K|) int_K tau_ij.
  Its divergence lies in the discontinuous vector P1 space.
* Body displacement: vector P1 on tetrahedra, discontinuous (mixed method) or
  continuous (baseline).
* Plate: vector P1 (membrane) and the Morley element (deflection): quadratic,
  with vertex values and edge-midpoint normal derivatives as DOFs.

Shared-entity sign conventions live in the DOF maps: stress face DOFs use the
owner tet's outward normal and the face's P1 basis ordered by sorted global
vertex ids; Morley edge DOFs use the low-to-high global edge direction with
right-hand normal.

Assembly and the error norms use the batched kernel (``StressBatch``,
``MorleyBatch``, ``simplex_geometry``): fixed tables of the spanning
functions, barycentric quadratics and P1 hats at the quadrature points,
combined with per-element geometry and dual-basis coefficients computed for a
batch of elements at once, so the cost does not depend on the mesh being
structured.  The body's batches are ``LOCAL_CHUNK`` tets (``local_chunks``),
so that only the arrays that are kept reach the size of the mesh.  The
per-element classes (``HuMaElement``, ``MorleyElement``) are the reference
the kernel is tested against.

Contraction rule: a batched product goes through ``@``, so that BLAS runs
it, one product per element or one for the whole batch; ``np.einsum``
without ``optimize`` never calls BLAS and runs a contraction as a plain C
loop.  ``einsum`` stays where no matmul form exists (an elementwise product
summed over an axis, as in ``div_scalars`` and the squared sums of the error
norms) and where ``@`` measured slower (the one 4 x 3 product per point of
``simplex_barycentric``); the per-element reference classes, the import-time
tables and the construction of ``StressBatch`` and ``MorleyBatch`` keep
theirs.  A product per element has the same operands whatever the batch, so
the kernel's per-element results (``StressBatch``, ``MorleyBatch.values``
and ``hessians``, the plate stiffness, the loads) do not depend on how the
elements are batched.  The error norms also make products for the whole
batch (``MorleyBatch.fields``, the body's edge scalars), which are
batch-invariant only up to roundoff.

The stress DOF matrix factors as M_T = L_T M_ref, with M_ref one constant
42 x 42 matrix (``_STRESS_DOF_REF``, tabulated at import with its inverse)
and L_T block diagonal.  The traction s_k (t_e . n_f) t_e of a spanning
function vanishes on face f (opposite vertex f) for the three edges in f,
so the rows of face f are E_f diag(t_e . n_f) times reference rows, E_f
holding the tangents of the three edges at vertex f as columns, one 3 x 3
block for all three P1 moments of the face; the six interior rows are
Q_T[m, e] = t_e[i] t_e[j] ((i, j) = SYM_INDEX_PAIRS[m], 6 x 6) times
reference rows.  ``StressBatch`` takes M_T^-1 = M_ref^-1 L_T^-1 from four
3 x 3 and one 6 x 6 inverse per tet and keeps those blocks of L_T^-1 (72
doubles per tet); ``HuMaElement`` inverts its dense quadrature-built matrix,
the reference.  ``stress_span_coefficients`` maps local stress DOF values x
to spanning coefficients through the kept blocks, M_T^-1 x = M_ref^-1
(L_T^-1 x), and ``stress_span_adjoint`` maps back by the transpose,
M_T^-T c = L_T^-T (M_ref^-T c); ``stress_dual_coefficients`` forms M_T^-T
from them where a dense block is needed.  Beside the blocks a
``StressBatch`` keeps only the volumes, the edge tangents and the
tangent-gradient table of ``div_scalars``, 115 doubles per tet.  The body's
``StressBatch`` belongs to its ``StressDofMap`` (``stress``, built and
checked on first use): it is the one per-tet record of the body's stress,
from which ``assembly`` applies the compliance and divergence blocks
through the maps or forms them for a few tets, the interface coupling takes
the basis of the owner tets, ``hybrid`` eliminates the local blocks, and
the error norms of a solution take sigma_h with neither M_T^-1 nor a second
check.  The plate's ``MorleyBatch`` belongs to its ``PlateDofMap`` the same
way (``morley``): the plate stiffness, the plate load and the plate norms
read it.

Every local inverse (the DOF matrices here, the saddle blocks of ``hybrid``)
is checked by one rule, ``_refuse_ill_conditioned``: it refuses an element
whose 1-norm condition number ||M||_1 ||M^-1||_1 of the whole matrix is
above ``CONDITION_LIMIT``, a singular one as cond_1 = inf.  It takes the
1-norms of the matrices and their inverses, so a caller that never forms
the matrix passes its norm.  ``checked_inverses`` applies it to dense
inverses; ``StressBatch`` to the block inverses of M_T, where a singular
block of L_T reads as inf; ``hybrid`` to the local saddle blocks inverted
by elimination, where a compliance block or Schur complement with no
Cholesky factor reads as inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry_mesh import (
    TET_LOCAL_FACES,
    FaceTag,
    TetMesh,
    TriMesh,
    _match_rows,
    _number_rows,
)
from .quadrature import tet_rule, triangle_rule

__all__ = [
    "HuMaElement",
    "MorleyElement",
    "StressBatch",
    "MorleyBatch",
    "simplex_geometry",
    "simplex_barycentric",
    "span_scalars",
    "span_dlam",
    "stress_span_coefficients",
    "stress_span_adjoint",
    "stress_dual_coefficients",
    "div_scalars",
    "edge_tangents",
    "face_normals",
    "SPAN_EDGE",
    "StressDofMap",
    "BodyDGDofMap",
    "BodyCGDofMap",
    "PlateDofMap",
    "check_own_mesh",
    "tet_barycentric",
    "EDGE_PAIRS",
    "SYM_INDEX_PAIRS",
    "CONDITION_LIMIT",
    "checked_inverses",
    "local_chunks",
]

#: The six tet edges (local vertex pairs, i < j).
EDGE_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

#: Complementary vertex pairs for each edge.
_COMPLEMENT = [tuple(sorted(set(range(4)) - set(p))) for p in EDGE_PAIRS]

#: Component order of the interior moments / symmetric-matrix entries.
SYM_INDEX_PAIRS = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]

#: Largest 1-norm condition number ||M||_1 ||M^-1||_1 of an inverted local
#: matrix (see ``_refuse_ill_conditioned``); a larger one, or NaN, fails.
CONDITION_LIMIT = 1e12

#: Elements whose local work runs together (``local_chunks``): the local
#: inverses (``checked_inverses``, ``StressBatch``), in ``hybrid`` the
#: formed blocks, their elimination and the sums of the stress blocks into
#: the condensed system, and the local solves by the kept factors, and the
#: body's error norms take their elements this many at a time, so that only
#: the arrays they keep reach the size of the mesh.
LOCAL_CHUNK = 128

_FACE_RULE = triangle_rule(4)
_INTERIOR_RULE = tet_rule(4)


# ---------------------------------------------------------------------------
# Reference tables and batched geometry.
#
# Each element kind is one reference element mapped by its vertices, so all
# element work splits into fixed tables (functions of the barycentric
# coordinates, evaluated once per quadrature rule and shared by every
# element) and per-element geometry with a leading element axis.
# ---------------------------------------------------------------------------

_EDGE_I, _EDGE_J = np.array(EDGE_PAIRS).T
_EDGE_L, _EDGE_M = np.array(_COMPLEMENT).T

#: Edge of each of the 42 stress spanning functions (seven per edge).
SPAN_EDGE = np.repeat(np.arange(6), 7)

#: Barycentric quadratics lam_a lam_b spanning P2 on a triangle.
_P2_A, _P2_B = np.array([[0, 0], [1, 1], [2, 2], [1, 2], [2, 0], [0, 1]]).T

#: Barycentric coordinates of the triangle edge midpoints (edge e opposite
#: vertex e).
_MIDPOINTS = 0.5 * (1.0 - np.eye(3))


def _edge_matrices(verts: np.ndarray) -> np.ndarray:
    """(n, d, d) matrices whose columns are the edges from vertex 0 of a
    batch of simplices (n, d+1, d)."""
    return np.swapaxes(verts[:, 1:] - verts[:, :1], 1, 2)


def simplex_geometry(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric gradients (n, d+1, d) and signed measures (n,) of a batch
    of simplices with vertex coordinates (n, d+1, d)."""
    d = verts.shape[-1]
    T = _edge_matrices(verts)
    Tinv = np.linalg.inv(T)  # rows: gradients of lam_1..lam_d
    grad = np.concatenate([-Tinv.sum(axis=1, keepdims=True), Tinv], axis=1)
    return grad, np.linalg.det(T) / (2.0 if d == 2 else 6.0)


def edge_tangents(verts: np.ndarray) -> np.ndarray:
    """Unit tangents (n, 6, 3) of the ``EDGE_PAIRS`` edges, from the lower
    local vertex to the higher, of a batch of tets (n, 4, 3)."""
    t = verts[:, _EDGE_J] - verts[:, _EDGE_I]
    return t / np.linalg.norm(t, axis=-1, keepdims=True)


def simplex_barycentric(grad: np.ndarray, v0: np.ndarray,
                        points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (..., d+1) of points (..., d) in simplices with
    barycentric gradients (..., d+1, d) and first vertices (..., d)."""
    bary = np.einsum("...bd,...d->...b", grad, points - v0)
    bary[..., 0] += 1.0
    return bary


def span_scalars(bary: np.ndarray) -> np.ndarray:
    """(..., 42) scalar factors of the stress spanning functions at
    barycentric points (..., 4).  Edge e = (i, j) with complement (l, m)
    owns columns 7 e .. 7 e + 6: lam_0..lam_3, (lam_i - lam_j) lam_l,
    (lam_i - lam_j) lam_m and lam_i lam_j."""
    li, lj = bary[..., _EDGE_I], bary[..., _EDGE_J]
    diff = li - lj
    own = np.stack([diff * bary[..., _EDGE_L], diff * bary[..., _EDGE_M],
                    li * lj], axis=-1)
    rep = np.broadcast_to(bary[..., None, :], own.shape[:-1] + (4,))
    return np.concatenate([rep, own], axis=-1).reshape(bary.shape[:-1] + (42,))


def span_dlam(bary: np.ndarray) -> np.ndarray:
    """(..., 42, 4) derivatives of ``span_scalars`` with respect to the
    barycentric coordinates."""
    eye = np.eye(4)
    li, lj, ll, lm = (bary[..., k, None] for k in (_EDGE_I, _EDGE_J, _EDGE_L, _EDGE_M))
    ei, ej, el, em = (eye[k] for k in (_EDGE_I, _EDGE_J, _EDGE_L, _EDGE_M))
    diff = li - lj
    own = np.stack([ll * (ei - ej) + diff * el, lm * (ei - ej) + diff * em,
                    lj * ei + li * ej], axis=-2)
    rep = np.broadcast_to(eye, own.shape[:-2] + (4, 4))
    return np.concatenate([rep, own], axis=-2).reshape(bary.shape[:-1] + (42, 4))


def _p2_scalars(bary: np.ndarray) -> np.ndarray:
    """(..., 6) barycentric quadratics lam_a lam_b at points (..., 3)."""
    return bary[..., _P2_A] * bary[..., _P2_B]


def _p2_dlam(bary: np.ndarray) -> np.ndarray:
    """(..., 6, 3) derivatives of ``_p2_scalars`` with respect to the
    barycentric coordinates."""
    eye = np.eye(3)
    return (bary[..., _P2_B, None] * eye[_P2_A]
            + bary[..., _P2_A, None] * eye[_P2_B])


#: (6, 3, 3) second derivatives of ``_p2_scalars`` (constant).
_P2_D2 = np.eye(3)[_P2_A][:, :, None] * np.eye(3)[_P2_B][:, None, :]
_P2_D2 = _P2_D2 + np.swapaxes(_P2_D2, 1, 2)


def local_chunks(n: int):
    """Slices of LOCAL_CHUNK consecutive elements covering n elements (one
    empty slice for n = 0)."""
    for lo in range(0, max(n, 1), LOCAL_CHUNK):
        yield slice(lo, min(lo + LOCAL_CHUNK, n))


def _stacked(f, M: np.ndarray) -> np.ndarray:
    """f of a stack of matrices (..., k, k) by one call, or, where that
    raises ``LinAlgError``, by one call per matrix, all NaN for each matrix
    on which it raises."""
    try:
        return f(M)
    except np.linalg.LinAlgError:
        out = np.full(M.shape, np.nan)
        for i in np.ndindex(M.shape[:-2]):
            try:
                out[i] = f(M[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _inverses(M: np.ndarray) -> np.ndarray:
    """Inverses of a stack of matrices (..., k, k), all NaN for each
    singular one."""
    return _stacked(np.linalg.inv, M)


def _norm_1(M: np.ndarray) -> np.ndarray:
    """The 1-norms ||M||_1 (the largest column sums of |M|) of a stack of
    matrices (m, k, k)."""
    return np.abs(M).sum(axis=1).max(axis=1)


def _refuse_ill_conditioned(norm: np.ndarray, inv: np.ndarray, what: str,
                            first: int) -> None:
    """The one rule for local inverses: fails on the first of the matrices
    M, named by ``what`` and its index (counted from ``first``), whose
    condition number ||M||_1 ||M^-1||_1 is not at most CONDITION_LIMIT,
    given their 1-norms ``norm`` (m,) (``_norm_1``) and inverses ``inv``
    (m, k, k).  A singular M, whose ``inv`` is NaN (``_inverses``), reads
    as cond_1 = inf; an M with NaN entries, whose norm is NaN, as NaN."""
    cond = norm * _norm_1(inv)
    cond[np.isnan(cond) & ~np.isnan(norm)] = np.inf
    bad = np.flatnonzero(~(cond <= CONDITION_LIMIT))
    if bad.size:
        raise ValueError(
            f"{what} {first + bad[0]} is ill-conditioned "
            f"(cond_1 = {cond[bad[0]]:.3e} > {CONDITION_LIMIT:.0e})"
        )


def checked_inverses(n: int, build, what: str) -> np.ndarray:
    """Inverses (n, k, k) of n local matrices, ``build(c)`` giving those
    (m, k, k) of the elements in slice c, one ``local_chunks`` slice at a
    time, each chunk checked by ``_refuse_ill_conditioned``."""
    for c in local_chunks(n):
        M = build(c)
        if c.start == 0:
            inv = np.empty((n,) + M.shape[1:])
        inv[c] = _inverses(M)
        _refuse_ill_conditioned(_norm_1(M), inv[c], what, c.start)
    return inv


def _simplex_geometry_one(verts: np.ndarray) -> tuple[np.ndarray, float]:
    """Barycentric gradients and signed measure of one simplex."""
    grad, measure = simplex_geometry(verts[None])
    return grad[0], float(measure[0])


def tet_barycentric(verts: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of 3D points with respect to a tetrahedron."""
    grad, _ = _simplex_geometry_one(verts)
    return simplex_barycentric(grad, verts[0], np.atleast_2d(points))


# ---------------------------------------------------------------------------
# Morley element.
# ---------------------------------------------------------------------------

class MorleyElement:
    """Morley element on a physical triangle.

    Local DOFs (order): values at the three vertices, then normal derivatives
    at the three edge midpoints, edge e opposite vertex e running from local
    vertex e+1 to e+2 with outward (right-hand) unit normal.
    """

    n_dofs = 6

    def __init__(self, verts: np.ndarray):
        self.verts = np.asarray(verts, dtype=float)
        mids = np.array([
            0.5 * (self.verts[1] + self.verts[2]),
            0.5 * (self.verts[2] + self.verts[0]),
            0.5 * (self.verts[0] + self.verts[1]),
        ])
        normals = []
        for e in range(3):
            t = self.verts[(e + 2) % 3] - self.verts[(e + 1) % 3]
            nrm = np.array([t[1], -t[0]])
            normals.append(nrm / np.linalg.norm(nrm))
        self.edge_normals = np.asarray(normals)
        self.edge_midpoints = mids

        D = np.zeros((6, 6))
        D[:3, :] = _mono_val(self.verts)
        grads = _mono_grad(mids)  # (3, 6, 2)
        for e in range(3):
            D[3 + e, :] = grads[e] @ self.edge_normals[e]
        self.coeffs = checked_inverses(  # (basis, monomial)
            1, lambda c: D[None], "Morley DOF matrix of triangle")[0].T

    def value(self, points: np.ndarray) -> np.ndarray:
        """(np, 6) basis values at physical points."""
        return _mono_val(np.atleast_2d(points)) @ self.coeffs.T

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """(np, 6, 2) basis gradients at physical points."""
        g = _mono_grad(np.atleast_2d(points))  # (np, 6, 2)
        return np.einsum("ik,pkd->pid", self.coeffs, g)

    def hessian(self) -> np.ndarray:
        """(6, 2, 2) constant basis Hessians."""
        H = np.zeros((6, 2, 2))
        for i in range(6):
            c = self.coeffs[i]
            H[i] = np.array([[2.0 * c[3], c[4]], [c[4], 2.0 * c[5]]])
        return H


def _mono_val(pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([np.ones_like(x), x, y, x * x, x * y, y * y])


def _mono_grad(pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    n = pts.shape[0]
    g = np.zeros((n, 6, 2))
    g[:, 1, 0] = 1.0
    g[:, 2, 1] = 1.0
    g[:, 3, 0] = 2.0 * x
    g[:, 4, 0] = y
    g[:, 4, 1] = x
    g[:, 5, 1] = 2.0 * y
    return g


# ---------------------------------------------------------------------------
# Stress element.
# ---------------------------------------------------------------------------

class HuMaElement:
    """Nonconforming H(div)-type symmetric stress element on a tetrahedron."""

    n_dofs = 42

    def __init__(self, verts: np.ndarray):
        self.verts = np.asarray(verts, dtype=float)
        self.grad_lambda, self.volume = _simplex_geometry_one(self.verts)
        if self.volume <= 0:
            raise ValueError("tet is degenerate or negatively oriented")
        tangents = []
        for (i, j) in EDGE_PAIRS:
            t = self.verts[j] - self.verts[i]
            tangents.append(t / np.linalg.norm(t))
        self.tangents = np.asarray(tangents)  # (6, 3)
        self.T = np.einsum("ea,eb->eab", self.tangents, self.tangents)  # (6,3,3)

        self.face_normals = np.zeros((4, 3))
        centroid = self.verts.mean(axis=0)
        for f in range(4):
            fv = self.verts[TET_LOCAL_FACES[f]]
            nrm = np.cross(fv[1] - fv[0], fv[2] - fv[0])
            nrm = nrm / np.linalg.norm(nrm)
            if np.dot(nrm, fv.mean(axis=0) - centroid) < 0:
                nrm = -nrm
            self.face_normals[f] = nrm

        D = self._dof_matrix()
        self.coeffs = checked_inverses(  # (basis, spanning)
            1, lambda c: D[None], "stress DOF matrix of tet")[0].T

    # -- spanning set ------------------------------------------------------

    def span_values(self, bary: np.ndarray) -> np.ndarray:
        """(nq, 42, 3, 3) spanning-function values."""
        s = span_scalars(np.atleast_2d(bary))
        return s[:, :, None, None] * self.T[SPAN_EDGE][None, :, :, :]

    def span_divergence(self, bary: np.ndarray) -> np.ndarray:
        """(nq, 42, 3) divergences of the spanning functions."""
        dlam = span_dlam(np.atleast_2d(bary))
        grads = np.einsum("qkl,ld->qkd", dlam, self.grad_lambda)
        return np.einsum("kab,qkb->qka", self.T[SPAN_EDGE], grads)

    # -- dual basis --------------------------------------------------------

    def _embed_face_bary(self, f: int, face_bary: np.ndarray) -> np.ndarray:
        nq = face_bary.shape[0]
        bary = np.zeros((nq, 4))
        bary[:, TET_LOCAL_FACES[f]] = face_bary
        return bary

    def _dof_matrix(self) -> np.ndarray:
        D = np.zeros((42, 42))
        fb = _FACE_RULE.points
        fw = _FACE_RULE.weights  # sum 1/2
        for f in range(4):
            bary = self._embed_face_bary(f, fb)
            tr = np.einsum("qkab,b->qka", self.span_values(bary),
                           self.face_normals[f])
            # moment[a, c, k] = (1/|F|) int_F (span_k n) . (lam_a e_c)
            mom = 2.0 * np.einsum("q,qa,qkc->ack", fw, fb, tr)
            for a in range(3):
                for c in range(3):
                    D[9 * f + 3 * a + c, :] = mom[a, c, :]
        tb = _INTERIOR_RULE.points
        tw = _INTERIOR_RULE.weights  # sum 1/6
        vals = self.span_values(tb)
        for m, (i, j) in enumerate(SYM_INDEX_PAIRS):
            D[36 + m, :] = 6.0 * np.einsum("q,qk->k", tw, vals[:, :, i, j])
        return D

    # -- dual-basis evaluation --------------------------------------------

    def values(self, bary: np.ndarray) -> np.ndarray:
        """(nq, 42, 3, 3) basis values at barycentric points."""
        return np.einsum("ik,qkab->qiab", self.coeffs, self.span_values(bary))

    def divergence(self, bary: np.ndarray) -> np.ndarray:
        """(nq, 42, 3) basis divergences at barycentric points."""
        return np.einsum("ik,qkb->qib", self.coeffs, self.span_divergence(bary))

    def traction(self, f: int, face_bary: np.ndarray) -> np.ndarray:
        """(nq, 42, 3) tractions (basis . outward normal) on local face f at
        face-barycentric points."""
        bary = self._embed_face_bary(f, np.atleast_2d(face_bary))
        return np.einsum("qiab,b->qia", self.values(bary), self.face_normals[f])


# ---------------------------------------------------------------------------
# Batched element kernel: one batched construction per element kind.
# ---------------------------------------------------------------------------

def _stress_dof_tables() -> tuple[np.ndarray, np.ndarray]:
    """Reference parts of the stress DOF functionals applied to the spanning
    scalars: face moments (4, 3, 42) and interior means (42,)."""
    fb = _FACE_RULE.points
    bary = np.zeros((4, fb.shape[0], 4))
    for f in range(4):
        bary[f][:, TET_LOCAL_FACES[f]] = fb
    face = 2.0 * np.einsum("q,qa,fqk->fak", _FACE_RULE.weights, fb,
                           span_scalars(bary))
    interior = 6.0 * _INTERIOR_RULE.weights @ span_scalars(_INTERIOR_RULE.points)
    return face, interior


_FACE_MOMENTS, _INTERIOR_MEANS = _stress_dof_tables()

#: The three edges at vertex f: the only ones whose spanning functions have
#: a traction on face f, the face opposite f.
_VERTEX_EDGES = np.array([[e for e, p in enumerate(EDGE_PAIRS) if f in p]
                          for f in range(4)])


def _stress_dof_reference() -> np.ndarray:
    """M_ref (42, 42), the stress DOF matrix less its geometry: row
    9 f + 3 a + j holds face moment a of the spanning functions of edge
    ``_VERTEX_EDGES[f, j]`` and row 36 + e the interior means of those of
    edge e, all other entries zero."""
    ref = np.zeros((42, 42))
    own = SPAN_EDGE == _VERTEX_EDGES[:, None, :, None]  # (4, 1, 3, 42)
    ref[:36] = (_FACE_MOMENTS[:, :, None] * own).reshape(36, 42)
    ref[36:] = _INTERIOR_MEANS * (SPAN_EDGE == np.arange(6)[:, None])
    return ref


_STRESS_DOF_REF = _stress_dof_reference()
_STRESS_DOF_REF_INV = np.linalg.inv(_STRESS_DOF_REF)


def _stress_dof_blocks(tangents: np.ndarray, normals: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of L_T with M_T = L_T M_ref: per face f the 3 x 3 block
    E_f diag(t_e . n_f) (n, 4, 3, 3), E_f with the tangents of the edges
    at vertex f as columns, and the 6 x 6 block Q_T[m, e] = t_e[i] t_e[j]
    for (i, j) = SYM_INDEX_PAIRS[m] (n, 6, 6)."""
    t = tangents[:, _VERTEX_EDGES]  # (n, 4, 3, 3): face, edge, component
    tn = np.einsum("nfec,nfc->nfe", t, normals)
    i, j = np.array(SYM_INDEX_PAIRS).T
    return (np.swapaxes(t, 2, 3) * tn[:, :, None, :],
            np.swapaxes(tangents[:, :, i] * tangents[:, :, j], 1, 2))


def _block_rows(face: np.ndarray, interior: np.ndarray,
                ref: np.ndarray) -> np.ndarray:
    """(n, 42, 42) products L ref for the block-diagonal L of the 3 x 3
    blocks ``face`` (n, 4, 3, 3), one per face acting on each of that face's
    three moment row triples, and the 6 x 6 block ``interior`` (n, 6, 6)."""
    out = np.empty((len(face), 42, 42))
    out[:, :36] = (face[:, :, None] @ ref[:36].reshape(4, 3, 3, 42)
                   ).reshape(-1, 36, 42)
    out[:, 36:] = interior @ ref[36:]
    return out


def _stress_dof_inverses(tangents: np.ndarray, normals: np.ndarray,
                         first: int) -> tuple[np.ndarray, np.ndarray]:
    """The inverses of the blocks of L_T, face blocks (n, 4, 3, 3) and
    interior block (n, 6, 6), of the tets with these tangents and outward
    normals.  Checked, with tets named from ``first``, by the rule of
    ``_refuse_ill_conditioned`` on the whole M_T, whose inverse is formed
    for it as M_T^-1 = M_ref^-1 L_T^-1 and dropped."""
    face, interior = _stress_dof_blocks(tangents, normals)
    face_inv, interior_inv = _inverses(face), _inverses(interior)
    _refuse_ill_conditioned(
        _norm_1(_block_rows(face, interior, _STRESS_DOF_REF)),
        np.swapaxes(stress_dual_coefficients(face_inv, interior_inv), 1, 2),
        "stress DOF matrix of tet", first)
    return face_inv, interior_inv


def stress_dual_coefficients(face_inv: np.ndarray,
                             interior_inv: np.ndarray) -> np.ndarray:
    """(n, 42, 42) dual-basis coefficients M_T^-T = L_T^-T M_ref^-T from
    the blocks of L_T^-1 (``StressBatch.face_inv``, ``interior_inv``)."""
    return _block_rows(np.swapaxes(face_inv, 2, 3),
                       np.swapaxes(interior_inv, 1, 2), _STRESS_DOF_REF_INV.T)


def stress_span_coefficients(x: np.ndarray, face_inv: np.ndarray,
                             interior_inv: np.ndarray) -> np.ndarray:
    """Spanning-function coefficients M_T^-1 x = M_ref^-1 (L_T^-1 x) (n, 42)
    of the stress fields with local (signed) DOF values x (n, 42), from the
    kept blocks of L_T^-1 (``StressBatch.face_inv``, ``interior_inv``): the
    field is sum_k c[n, k] s_k t_e t_e^T, e = ``SPAN_EDGE[k]``, as x times
    ``stress_dual_coefficients`` gives it.  Face block f acts on each of the
    face's three moment triples; M_ref^-1 is one product for the whole
    batch."""
    y = np.empty_like(x)
    y[:, :36] = (x[:, :36].reshape(-1, 4, 3, 3)
                 @ np.swapaxes(face_inv, 2, 3)).reshape(-1, 36)
    y[:, 36:] = (interior_inv @ x[:, 36:, None])[..., 0]
    return y @ _STRESS_DOF_REF_INV.T


def stress_span_adjoint(c: np.ndarray, face_inv: np.ndarray,
                        interior_inv: np.ndarray) -> np.ndarray:
    """M_T^-T c = L_T^-T (M_ref^-T c) (n, 42) for spanning-function
    values c (n, 42), the transpose of ``stress_span_coefficients``: it
    takes a form on the spanning functions to the basis functions."""
    y = c @ _STRESS_DOF_REF_INV
    out = np.empty_like(y)
    out[:, :36] = (y[:, :36].reshape(-1, 4, 3, 3) @ face_inv).reshape(-1, 36)
    out[:, 36:] = (y[:, None, 36:] @ interior_inv)[:, 0]
    return out


def face_normals(grad_lambda: np.ndarray) -> np.ndarray:
    """Outward unit normals (n, 4, 3) of the faces of a batch of tets from
    their barycentric gradients (n, 4, 3): grad lam_f is normal to face f
    (opposite vertex f) and points into the tet."""
    return -grad_lambda / np.linalg.norm(grad_lambda, axis=-1, keepdims=True)


class StressBatch:
    """The stress element on a batch of tets (vertex coordinates (n, 4, 3)):
    the per-tet data from which the body's forms, the interface coupling
    and the error norms take its basis, 115 doubles per tet.

    Basis function i of element n is sum_k C[n, i, k] s_k(lam) t_e t_e^T
    with s = ``span_scalars``, e = ``SPAN_EDGE[k]``, t_e the unit tangent of
    edge e and C = M_T^-T the dual-basis coefficients, which
    ``stress_dual_coefficients`` forms from the kept blocks of L_T^-1.
    Arrays: the checked blocks ``face_inv`` (n, 4, 3, 3) and
    ``interior_inv`` (n, 6, 6), the ``volume`` (n,), the ``tangents``
    (n, 6, 3) and the table ``tangent_gradients`` (n, 6, 4) of
    ``div_scalars``.  The blocks are inverted and checked one
    ``local_chunks`` slice at a time (``_stress_dof_inverses``), so only the
    kept arrays reach the size of the batch.  A refused tet is named by its
    index in the batch, which is its index in the mesh: the one batch of a
    body covers all its tets (``StressDofMap.stress``).
    """

    def __init__(self, verts: np.ndarray):
        verts = np.asarray(verts, dtype=float)
        n = len(verts)
        self.face_inv = np.empty((n, 4, 3, 3))
        self.interior_inv = np.empty((n, 6, 6))
        self.volume = np.empty(n)
        self.tangents = np.empty((n, 6, 3))
        self.tangent_gradients = np.empty((n, 6, 4))
        for c in local_chunks(n):
            v = verts[c]
            # Checked before the inverses of simplex_geometry, which fail
            # unnamed on an exactly flat tet.
            bad = np.flatnonzero(~(np.linalg.det(_edge_matrices(v)) > 0))
            if bad.size:
                raise ValueError(f"tet {c.start + bad[0]} is "
                                 "degenerate or negatively oriented")
            grad, self.volume[c] = simplex_geometry(v)
            t = self.tangents[c] = edge_tangents(v)
            self.tangent_gradients[c] = t @ np.swapaxes(grad, 1, 2)
            self.face_inv[c], self.interior_inv[c] = _stress_dof_inverses(
                t, face_normals(grad), c.start)


def div_scalars(dlam: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """(n, ..., 42) scalars d with div(span_k) = d_k t_{e_k}, from a
    ``span_dlam`` table (..., 42, 4) and the tangent-gradient table
    tau[n, e, b] = t_e . grad lam_b (n, 6, 4)."""
    return np.einsum("...kb,nkb->n...k", dlam, tau[:, SPAN_EDGE])


def _morley_dof_matrices(grad_lambda: np.ndarray,
                         edge_normals: np.ndarray) -> np.ndarray:
    """(n, 6, 6) Morley DOF functionals applied to the barycentric
    quadratics: vertex values, then edge-midpoint normal derivatives."""
    gn = np.einsum("nbx,nex->neb", grad_lambda, edge_normals)
    D = np.empty((len(gn), 6, 6))
    D[:, :3] = _p2_scalars(np.eye(3))
    D[:, 3:] = np.einsum("ekb,neb->nek", _p2_dlam(_MIDPOINTS), gn)
    return D


class MorleyBatch:
    """The Morley element on a batch of triangles (vertex coordinates
    (n, 3, 2)), with the DOFs of ``MorleyElement``.

    Basis function i of element n is sum_k coeffs[n, i, k] lam_a lam_b over
    the six barycentric quadratics of ``_p2_scalars``.  Arrays:
    ``grad_lambda`` (n, 3, 2), ``area`` (n,), ``edge_normals`` (n, 3, 2) and
    ``coeffs`` (n, 6, 6).
    """

    def __init__(self, verts: np.ndarray):
        verts = np.asarray(verts, dtype=float)
        self.grad_lambda, self.area = simplex_geometry(verts)
        t = verts[:, [2, 0, 1]] - verts[:, [1, 2, 0]]
        nrm = np.stack([t[..., 1], -t[..., 0]], axis=-1)
        self.edge_normals = nrm / np.linalg.norm(nrm, axis=-1, keepdims=True)
        self.coeffs = np.swapaxes(checked_inverses(
            len(verts), lambda c: _morley_dof_matrices(
                self.grad_lambda[c], self.edge_normals[c]),
            "Morley DOF matrix of triangle"), 1, 2)

    def values(self, bary: np.ndarray) -> np.ndarray:
        """(n, nq, 6) basis values at barycentric points (nq, 3)."""
        return _p2_scalars(bary) @ np.swapaxes(self.coeffs, 1, 2)

    def hessians(self) -> np.ndarray:
        """(n, 6, 2, 2) constant basis Hessians."""
        g = self.grad_lambda[:, None]
        h = np.swapaxes(g, 2, 3) @ _P2_D2 @ g  # (n, 6, 2, 2)
        return (self.coeffs @ h.reshape(-1, 6, 4)).reshape(h.shape)

    def fields(self, dofs: np.ndarray, bary: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value (n, nq), gradient (n, nq, 2) and constant Hessian (n, 2, 2)
        at barycentric points (nq, 3) of the function with DOF values
        ``dofs`` (n, 6).  The DOF values are contracted first, onto the six
        quadratics, so value and gradient are one product for the batch."""
        dofs = dofs[:, None]
        p = (dofs @ self.coeffs)[:, 0]
        dlam = np.moveaxis(_p2_dlam(bary), 0, 1).reshape(6, -1)
        grad = (p @ dlam).reshape(len(p), -1, 3) @ self.grad_lambda
        hess = dofs @ self.hessians().reshape(-1, 6, 4)
        return p @ _p2_scalars(bary).T, grad, hess.reshape(-1, 2, 2)


# ---------------------------------------------------------------------------
# DOF maps.
# ---------------------------------------------------------------------------

@dataclass
class _FaceRecord:
    vertices: tuple[int, int, int]  # sorted global ids
    owner: int
    owner_local: int
    neighbor: int  # -1 on the boundary
    tag: int  # -1 interior, else FaceTag


class StressDofMap:
    """Global numbering of the stress space: nine DOFs per mesh face (ordered
    by the face's sorted global vertex ids and Cartesian component, with the
    owner tet's outward normal defining the sign) plus six interior DOFs per
    tet.  Non-owner tets see their shared-face DOFs with a -1 sign.

    Faces are numbered in the order the tets first see them (tet by tet,
    local face by local face); the first tet to see a face owns it.  Per-face
    arrays: ``face_vertices`` (sorted global ids), ``face_owner``,
    ``face_owner_local``, ``face_neighbor`` (-1 on the boundary) and
    ``face_tag`` (-1 inside, else the ``FaceTag``)."""

    def __init__(self, mesh: TetMesh):
        self.mesh = mesh
        nt = mesh.n_tets
        local = mesh.tets[:, TET_LOCAL_FACES]  # (nt, 4, 3)
        keys = np.sort(local, axis=2).reshape(-1, 3)
        fid, first, last, count = _number_rows(keys)
        fid = fid.reshape(nt, 4)
        self.face_vertices = keys[first]
        self.face_owner = first // 4
        self.face_owner_local = first % 4
        self.face_neighbor = np.where(count > 1, last // 4, -1)
        self.n_faces = first.size
        self.n_face_dofs = 9 * self.n_faces
        self.n_dofs = self.n_face_dofs + 6 * nt

        boundary = np.flatnonzero(self.face_neighbor < 0)
        row = _match_rows(self.face_vertices[boundary],
                          np.sort(mesh.boundary_faces, axis=1))
        if np.any(row < 0):
            raise ValueError(
                f"{np.sum(row < 0)} boundary faces of the tets are missing "
                "from the mesh's boundary face table"
            )
        self.face_tag = np.full(self.n_faces, -1, dtype=np.int64)
        self.face_tag[boundary] = mesh.boundary_tags[row]

        ranks = np.argsort(np.argsort(local, axis=2), axis=2)
        ltg = np.empty((nt, 42), dtype=np.int64)
        ltg[:, :36] = (9 * fid[:, :, None, None] + 3 * ranks[..., None]
                       + np.arange(3)).reshape(nt, 36)
        ltg[:, 36:] = (self.n_face_dofs + 6 * np.arange(nt)[:, None]
                       + np.arange(6))
        self.ltg = ltg
        owns = self.face_owner[fid] == np.arange(nt)[:, None]
        self.sign = np.ones((nt, 42))
        self.sign[:, :36] = np.repeat(np.where(owns, 1.0, -1.0), 9, axis=1)

        # Essential (traction boundary) DOFs: the nine DOFs of each FREE face.
        self.free_face_ids = np.flatnonzero(self.face_tag == int(FaceTag.FREE))
        self.essential_dofs = (9 * self.free_face_ids[:, None]
                               + np.arange(9)).ravel()
        self.interface_face_ids = np.flatnonzero(
            self.face_tag == int(FaceTag.INTERFACE))

    @cached_property
    def faces(self) -> list[_FaceRecord]:
        """One record per face, in face order (built on first use)."""
        return [
            _FaceRecord(tuple(v), o, f, nb, tag)
            for v, o, f, nb, tag in zip(
                self.face_vertices.tolist(), self.face_owner.tolist(),
                self.face_owner_local.tolist(), self.face_neighbor.tolist(),
                self.face_tag.tolist())
        ]

    @cached_property
    def face_index(self) -> dict[tuple, int]:
        """Face number of each sorted vertex triple (built on first use)."""
        return {v: i for i, v in enumerate(map(tuple, self.face_vertices.tolist()))}

    @cached_property
    def stress(self) -> StressBatch:
        """The stress element of every tet of the mesh, built and checked
        once, on first use: the one record of the body's stress that the
        forms, the interface coupling, the local elimination and the error
        norms read."""
        return StressBatch(self.mesh.vertices[self.mesh.tets])

    def local_coefficients(self, t: int, sigma: np.ndarray) -> np.ndarray:
        """Local 42-vector of element coefficients from a global vector."""
        return self.sign[t] * sigma[self.ltg[t]]


class BodyDGDofMap:
    """Discontinuous vector P1 on tets: DOF 12 t + 3 a + c."""

    def __init__(self, mesh: TetMesh):
        self.mesh = mesh
        self.n_dofs = 12 * mesh.n_tets
        base = 12 * np.arange(mesh.n_tets, dtype=np.int64)[:, None]
        self.ltg = base + np.arange(12, dtype=np.int64)[None, :]


class BodyCGDofMap:
    """Continuous vector P1 on tets: DOF 3 v + c."""

    def __init__(self, mesh: TetMesh):
        self.mesh = mesh
        self.n_dofs = 3 * mesh.n_vertices
        self.ltg = (3 * mesh.tets[:, :, None] + np.arange(3)).reshape(-1, 12)


class PlateDofMap:
    """Plate DOFs: membrane values (2 per vertex), Morley vertex values, and
    Morley edge-midpoint normal derivatives.

    Layout: membrane (a, c) -> 2 v + c on [0, 2 nv); Morley vertex v ->
    2 nv + v; Morley edge e -> 3 nv + e.  Clamped boundary DOFs (all membrane
    and Morley DOFs on boundary vertices/edges) are flagged in ``constrained``.
    """

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        nv = mesh.n_vertices
        ntri = mesh.n_triangles
        tri = mesh.triangles

        # Edge e of a triangle joins its local vertices e + 1 and e + 2; edges
        # are numbered in the order the triangles first see them.
        ends = tri[:, [[1, 2], [2, 0], [0, 1]]]  # (ntri, 3, 2)
        keys = np.sort(ends, axis=2).reshape(-1, 2)
        eid, first, _, _ = _number_rows(keys)
        self.edges = keys[first]
        self.n_edges = first.size
        self.n_dofs = 3 * nv + self.n_edges

        self.mem_ltg = (2 * tri[:, :, None] + np.arange(2)).reshape(ntri, 6)
        self.mor_ltg = np.concatenate([2 * nv + tri, 3 * nv + eid.reshape(ntri, 3)],
                                      axis=1)
        self.mor_sign = np.ones((ntri, 6))
        self.mor_sign[:, 3:] = np.where(ends[..., 0] < ends[..., 1], 1.0, -1.0)

        self.boundary_vertices = np.unique(mesh.boundary_edges).astype(np.int64)
        edge = _match_rows(np.sort(mesh.boundary_edges, axis=1), self.edges)
        if np.any(edge < 0):
            raise ValueError(f"{np.sum(edge < 0)} boundary edges are not "
                             "edges of the triangles")
        constrained = np.zeros(self.n_dofs, dtype=bool)
        bv = self.boundary_vertices
        constrained[np.concatenate([2 * bv, 2 * bv + 1, 2 * nv + bv,
                                    3 * nv + edge])] = True
        self.constrained = constrained

    @cached_property
    def morley(self) -> MorleyBatch:
        """The Morley element of every triangle of the mesh, built and
        checked once, on first read: the one record of the plate's bending
        element that the plate stiffness, the plate load and the plate error
        norms read."""
        return MorleyBatch(self.mesh.vertices[self.mesh.triangles])


def check_own_mesh(name: str, mesh, *maps) -> None:
    """Refuse a ``mesh`` passed beside DOF maps that were built on another
    mesh object, naming the argument: a map reads its mesh (``.mesh``), so
    a second mesh given with it could only disagree with it."""
    for m in maps:
        if mesh is not m.mesh:
            raise ValueError(f"{name} is not the mesh its "
                             f"{type(m).__name__} was built on")
