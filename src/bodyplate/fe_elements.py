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
whole mesh at once, so the cost does not depend on the mesh being
structured.  The per-element classes (``HuMaElement``, ``MorleyElement``,
``VectorP1Tet``, ``VectorP1Tri``) are the reference the kernel is tested
against.

Every local inverse (the DOF matrices here, the saddle blocks of ``hybrid``)
is taken by ``checked_inverses``, whose one rule refuses an element with a
1-norm condition number ||M||_1 ||M^-1||_1 above ``CONDITION_LIMIT``.
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
    "VectorP1Tet",
    "VectorP1Tri",
    "StressBatch",
    "MorleyBatch",
    "simplex_geometry",
    "simplex_barycentric",
    "span_scalars",
    "span_dlam",
    "SPAN_EDGE",
    "lower_morley_to_p1",
    "StressDofMap",
    "BodyDGDofMap",
    "BodyCGDofMap",
    "PlateDofMap",
    "tet_barycentric",
    "EDGE_PAIRS",
    "SYM_INDEX_PAIRS",
    "CONDITION_LIMIT",
    "checked_inverses",
]

#: The six tet edges (local vertex pairs, i < j).
EDGE_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

#: Complementary vertex pairs for each edge.
_COMPLEMENT = [tuple(sorted(set(range(4)) - set(p))) for p in EDGE_PAIRS]

#: Component order of the interior moments / symmetric-matrix entries.
SYM_INDEX_PAIRS = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]

#: Largest 1-norm condition number ||M||_1 ||M^-1||_1 of an inverted local
#: matrix (see ``checked_inverses``); a larger one, or NaN, fails.
CONDITION_LIMIT = 1e12

#: Elements whose local matrices ``checked_inverses`` builds and inverts
#: together, which bounds its temporaries next to the (n, k, k) result.
LOCAL_CHUNK = 1024

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


def simplex_geometry(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric gradients (n, d+1, d) and signed measures (n,) of a batch
    of simplices with vertex coordinates (n, d+1, d)."""
    d = verts.shape[-1]
    T = np.swapaxes(verts[:, 1:] - verts[:, :1], 1, 2)
    Tinv = np.linalg.inv(T)  # rows: gradients of lam_1..lam_d
    grad = np.concatenate([-Tinv.sum(axis=1, keepdims=True), Tinv], axis=1)
    return grad, np.linalg.det(T) / (2.0 if d == 2 else 6.0)


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


def checked_inverses(n: int, build, what: str) -> np.ndarray:
    """Inverses (n, k, k) of n local matrices, ``build(c)`` giving those
    (m, k, k) of the elements in slice c, LOCAL_CHUNK elements at a time.
    Fails on the first element, named by ``what`` and its index, whose
    condition number ||M||_1 ||M^-1||_1 is not at most CONDITION_LIMIT (a
    chunk with a singular matrix takes ``np.linalg.cond(M, 1)``: inf)."""
    for lo in range(0, max(n, 1), LOCAL_CHUNK):  # n = 0: one empty chunk
        c = slice(lo, min(lo + LOCAL_CHUNK, n))
        M = build(c)
        if lo == 0:
            inv = np.empty((n,) + M.shape[1:])
        try:
            inv[c] = np.linalg.inv(M)
            cond = (np.abs(M).sum(axis=1).max(axis=1)
                    * np.abs(inv[c]).sum(axis=1).max(axis=1))
        except np.linalg.LinAlgError:
            cond = np.linalg.cond(M, 1)
        bad = np.flatnonzero(~(cond <= CONDITION_LIMIT))
        if bad.size:
            raise ValueError(
                f"{what} {lo + bad[0]} is ill-conditioned "
                f"(cond_1 = {cond[bad[0]]:.3e} > {CONDITION_LIMIT:.0e})"
            )
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
# Vector P1 elements.
# ---------------------------------------------------------------------------

class VectorP1Tri:
    """Vector-valued P1 on a physical triangle; local DOF (a, c) -> basis
    hat_a e_c at local index 2a + c."""

    n_dofs = 6

    def __init__(self, verts: np.ndarray):
        self.verts = np.asarray(verts, dtype=float)
        self.grad_lambda, self.area = _simplex_geometry_one(self.verts)

    def value(self, bary: np.ndarray) -> np.ndarray:
        """(nq, 6, 2) basis values at barycentric points."""
        bary = np.atleast_2d(bary)
        nq = bary.shape[0]
        out = np.zeros((nq, 6, 2))
        for a in range(3):
            for c in range(2):
                out[:, 2 * a + c, c] = bary[:, a]
        return out

    def gradient(self) -> np.ndarray:
        """(6, 2, 2) constant gradients d(basis_i)_r / dx_s."""
        out = np.zeros((6, 2, 2))
        for a in range(3):
            for c in range(2):
                out[2 * a + c, c, :] = self.grad_lambda[a]
        return out

    def strain(self) -> np.ndarray:
        g = self.gradient()
        return 0.5 * (g + np.swapaxes(g, 1, 2))


class VectorP1Tet:
    """Vector-valued P1 on a physical tetrahedron; local DOF (a, c) -> basis
    hat_a e_c at local index 3a + c."""

    n_dofs = 12

    def __init__(self, verts: np.ndarray):
        self.verts = np.asarray(verts, dtype=float)
        self.grad_lambda, self.volume = _simplex_geometry_one(self.verts)

    def value(self, bary: np.ndarray) -> np.ndarray:
        """(nq, 12, 3) basis values at barycentric points."""
        bary = np.atleast_2d(bary)
        nq = bary.shape[0]
        out = np.zeros((nq, 12, 3))
        for a in range(4):
            for c in range(3):
                out[:, 3 * a + c, c] = bary[:, a]
        return out

    def gradient(self) -> np.ndarray:
        """(12, 3, 3) constant gradients d(basis_i)_r / dx_s."""
        out = np.zeros((12, 3, 3))
        for a in range(4):
            for c in range(3):
                out[3 * a + c, c, :] = self.grad_lambda[a]
        return out

    def strain(self) -> np.ndarray:
        g = self.gradient()
        return 0.5 * (g + np.swapaxes(g, 1, 2))


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


def lower_morley_to_p1(plate_map: "PlateDofMap", w: np.ndarray) -> np.ndarray:
    """Vertex-value P1 coefficients of the continuous lowering of a Morley
    deflection field (identity on vertex values, edge DOFs dropped)."""
    nv = plate_map.mesh.n_vertices
    return np.asarray(w)[..., 2 * nv: 3 * nv]


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
        self.face_areas = np.zeros(4)
        centroid = self.verts.mean(axis=0)
        for f in range(4):
            fv = self.verts[TET_LOCAL_FACES[f]]
            nrm = np.cross(fv[1] - fv[0], fv[2] - fv[0])
            area = 0.5 * np.linalg.norm(nrm)
            nrm = nrm / np.linalg.norm(nrm)
            if np.dot(nrm, fv.mean(axis=0) - centroid) < 0:
                nrm = -nrm
            self.face_normals[f] = nrm
            self.face_areas[f] = area

        D = self._dof_matrix()
        self.coeffs = checked_inverses(  # (basis, spanning)
            1, lambda c: D[None], "stress DOF matrix of tet")[0].T

    # -- spanning set ------------------------------------------------------

    def span_scalars(self, bary: np.ndarray) -> np.ndarray:
        """(nq, 42) scalar factors of the spanning functions."""
        return span_scalars(np.atleast_2d(bary))

    def _span_dlam(self, bary: np.ndarray) -> np.ndarray:
        """(nq, 42, 4) derivatives of the scalar factors w.r.t. barycentric
        coordinates."""
        return span_dlam(np.atleast_2d(bary))

    def span_values(self, bary: np.ndarray) -> np.ndarray:
        """(nq, 42, 3, 3) spanning-function values."""
        s = self.span_scalars(bary)
        return s[:, :, None, None] * self.T[SPAN_EDGE][None, :, :, :]

    def span_divergence(self, bary: np.ndarray) -> np.ndarray:
        """(nq, 42, 3) divergences of the spanning functions."""
        dlam = self._span_dlam(bary)
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


def _stress_dof_matrices(tangents: np.ndarray,
                         normals: np.ndarray) -> np.ndarray:
    """(n, 42, 42) stress DOF functionals applied to the spanning functions:
    the reference tables times t_e (t_e . n_f) on face rows and
    t_e t_e^T on interior rows."""
    t = tangents[:, SPAN_EDGE]  # (n, 42, 3)
    tn = np.einsum("nkc,nfc->nfk", t, normals)
    face = np.einsum("fak,nfk,nkc->nfack", _FACE_MOMENTS, tn, t)
    i, j = np.array(SYM_INDEX_PAIRS).T
    interior = _INTERIOR_MEANS * np.swapaxes(t[:, :, i] * t[:, :, j], 1, 2)
    return np.concatenate([face.reshape(-1, 36, 42), interior], axis=1)


class StressBatch:
    """The stress element on a batch of tets (vertex coordinates (n, 4, 3)).

    Basis function i of element n is sum_k coeffs[n, i, k] s_k(lam) T[n, e_k]
    with s = ``span_scalars``, e_k = ``SPAN_EDGE[k]`` and T[n, e] the dyad of
    the unit tangent of edge e.  Arrays: ``v0`` (n, 3), ``grad_lambda``
    (n, 4, 3), ``volume`` (n,), ``tangents`` (n, 6, 3), ``T`` (n, 6, 3, 3),
    outward unit ``face_normals`` (n, 4, 3) and ``coeffs`` (n, 42, 42).
    """

    def __init__(self, verts: np.ndarray):
        verts = np.asarray(verts, dtype=float)
        self.v0 = verts[:, 0]
        self.grad_lambda, self.volume = simplex_geometry(verts)
        if np.any(self.volume <= 0):
            raise ValueError("tet is degenerate or negatively oriented")
        t = verts[:, _EDGE_J] - verts[:, _EDGE_I]
        self.tangents = t / np.linalg.norm(t, axis=-1, keepdims=True)
        self.T = self.tangents[..., :, None] * self.tangents[..., None, :]
        # grad lam_f is normal to face f and points into the tet.
        g = self.grad_lambda
        self.face_normals = -g / np.linalg.norm(g, axis=-1, keepdims=True)
        self.coeffs = np.swapaxes(checked_inverses(
            len(verts), lambda c: _stress_dof_matrices(
                self.tangents[c], self.face_normals[c]),
            "stress DOF matrix of tet"), 1, 2)

    def div_scalars(self, dlam: np.ndarray) -> np.ndarray:
        """(n, ..., 42) scalars d with div(span_k) = d_k t_{e_k}, from a
        ``span_dlam`` table (..., 42, 4)."""
        tau = np.einsum("nec,nbc->neb", self.tangents, self.grad_lambda)
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
        return np.einsum("qk,nik->nqi", _p2_scalars(bary), self.coeffs)

    def gradients(self, bary: np.ndarray) -> np.ndarray:
        """(n, nq, 6, 2) basis gradients at barycentric points (nq, 3)."""
        d = np.einsum("qkb,nbx->nqkx", _p2_dlam(bary), self.grad_lambda)
        return np.einsum("nik,nqkx->nqix", self.coeffs, d)

    def hessians(self) -> np.ndarray:
        """(n, 6, 2, 2) constant basis Hessians."""
        g = self.grad_lambda
        h = np.einsum("kbc,nbx,ncy->nkxy", _P2_D2, g, g)
        return np.einsum("nik,nkxy->nixy", self.coeffs, h)


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
        self.interface_vertices = np.unique(
            mesh.boundary_faces[mesh.boundary_tags == FaceTag.INTERFACE])


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
    def edge_index(self) -> dict[tuple, int]:
        """Edge number of each sorted vertex pair (built on first use)."""
        return {e: i for i, e in enumerate(map(tuple, self.edges.tolist()))}

    def membrane_slice(self) -> slice:
        return slice(0, 2 * self.mesh.n_vertices)

    def local_morley_coefficients(self, t: int, w: np.ndarray) -> np.ndarray:
        return self.mor_sign[t] * w[self.mor_ltg[t]]
