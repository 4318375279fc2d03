"""Global assembly of the mixed and displacement formulations.

Mixed monolithic system (sigma, u, w) with homogeneous test constraints:

    [ A   B^T  -G^T ] [sigma]   [ 0   ]
    [ B   0     0   ] [  u  ] = [ f_V ]
    [-G   0    -K   ] [  w  ]   [-f_W ]

with A the compliance form (C0^-1 sigma, tau), B the divergence pairing
(div tau, v), G the interface coupling (tau n, Pi v)_Gamma against the lowered
plate test functions, K = K_mem + K_bend the plate stiffness, f_V = -(f, psi),
and f_W the plate load (smooth part against the actual plate basis, interface
jump part against the lowered basis).  Traction data enters through essential
stress DOFs on free faces; the clamped plate boundary through zero plate DOFs.

The body forms are built as per-tet local blocks in each tet's own basis
(``BodyBlocks``, ``CouplingBlocks``, from one ``StressBatch``); the global
blocks are their signed scatters.  The production solve works on the local
blocks directly (``hybrid``); the assembled monolithic matrix serves as the
test oracle.

The displacement baseline shares vertex DOFs between the continuous body P1
space and the plate along the interface (components 1-2 with the membrane,
component 3 with Morley vertex values) and is symmetric positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .geometry_mesh import FaceTag, TetMesh, TriMesh, _match_rows
from .interface_overlay import InterfaceFace, OverlayCell
from .manufactured import ManufacturedCase
from .materials import MaterialParams, c0_apply, c0_inv_apply, c1_apply, c2_apply
from .fe_elements import (
    SPAN_EDGE,
    BodyCGDofMap,
    BodyDGDofMap,
    MorleyBatch,
    PlateDofMap,
    StressBatch,
    StressDofMap,
    simplex_barycentric,
    simplex_geometry,
    span_dlam,
    span_scalars,
)
from .quadrature import TET_MEASURE, physical_weights, tet_rule, triangle_rule

__all__ = [
    "BodyBlocks",
    "CouplingBlocks",
    "compliance_blocks",
    "divergence_blocks",
    "interface_coupling_blocks",
    "assemble_compliance",
    "assemble_stress_mass",
    "assemble_div_div",
    "assemble_divergence",
    "assemble_body_mass",
    "assemble_plate_stiffness",
    "assemble_interface_coupling",
    "impose_traction_bc",
    "assemble_loads",
    "project_to_Vh",
    "BlockSystem",
    "build_mixed_system",
    "DisplacementSystem",
    "assemble_displacement_system",
    "Constraints",
]


def _scatter(rows: np.ndarray, cols: np.ndarray, blocks: np.ndarray,
             shape: tuple[int, int]) -> sp.csr_matrix:
    """Sum element blocks (n, r, c) into a sparse matrix; ``rows`` (n, r) and
    ``cols`` (n, c) are the global indices of each block.  The triplet
    indices are int32, the index type scipy sums them in."""
    r = np.broadcast_to(rows.astype(np.int32)[:, :, None], blocks.shape)
    c = np.broadcast_to(cols.astype(np.int32)[:, None, :], blocks.shape)
    return sp.coo_matrix(
        (blocks.ravel(), (r.ravel(), c.ravel())), shape=shape
    ).tocsr()


def _scatter_vector(idx: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Sum element vectors into a global vector of length n."""
    return np.bincount(idx.ravel(), weights=vals.ravel(), minlength=n)


def _mapped_rule(rule, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Physical points (n, nq, d) and weights (n, nq) of a reference rule on
    a batch of simplices (n, d+1, d)."""
    _, measure = simplex_geometry(verts)
    return rule.points @ verts, physical_weights(rule, measure[:, None])


def _p1_mass_table(rule) -> np.ndarray:
    """(12, 12) reference mass of vector P1 on the tet, local DOF 3 a + c;
    scale by volume / TET_MEASURE."""
    lam = rule.points
    return np.kron(np.einsum("q,qa,qb->ab", rule.weights, lam, lam), np.eye(3))


def _vector_p1_strains(grad_lambda: np.ndarray) -> np.ndarray:
    """(n, (d+1) d, d, d) constant strains of the vector P1 basis hat_a e_c
    (local DOF d a + c), whose gradient is e_c grad(lam_a)^T."""
    d = grad_lambda.shape[-1]
    g = np.einsum("cr,nas->nacrs", np.eye(d), grad_lambda)
    g = g.reshape(-1, (d + 1) * d, d, d)
    return 0.5 * (g + np.swapaxes(g, 2, 3))


# ---------------------------------------------------------------------------
# Body bilinear forms.
# ---------------------------------------------------------------------------

def _stress_batch(body: TetMesh) -> StressBatch:
    return StressBatch(body.vertices[body.tets])


def _scatter_stress(smap: StressDofMap, loc: np.ndarray) -> sp.csr_matrix:
    """Global stress form from unsigned (n_tets, 42, 42) local blocks."""
    s = smap.sign
    return _scatter(smap.ltg, smap.ltg, loc * s[:, :, None] * s[:, None, :],
                    (smap.n_dofs, smap.n_dofs))


def _basis_blocks(k: StressBatch, span: np.ndarray) -> np.ndarray:
    """Basis matrices (n, 42, 42) of a form whose matrices on the spanning
    functions are ``span``; the dual-basis coefficients map one to the
    other."""
    return k.coeffs @ span @ np.swapaxes(k.coeffs, 1, 2)


def _tensor_mass_blocks(k: StressBatch, quad_degree: int, apply) -> np.ndarray:
    """int apply(phi_j) : phi_i for a linear map ``apply`` of symmetric
    matrices.  With spanning functions s_k T_e the integrand separates into
    the reference Gram matrix of the s_k and the edge pairing
    apply(T_e) : T_f."""
    rule = tet_rule(quad_degree)
    s = span_scalars(rule.points)
    gram = np.einsum("q,qk,ql->kl", rule.weights, s, s)
    pair = np.einsum("neab,nfab->nef", apply(k.T), k.T)
    pair = pair[:, SPAN_EDGE][:, :, SPAN_EDGE]
    return _basis_blocks(k, (k.volume / TET_MEASURE)[:, None, None]
                         * gram * pair)


def compliance_blocks(k: StressBatch, params: MaterialParams,
                      quad_degree: int = 4) -> np.ndarray:
    """Unsigned local compliance blocks (n, 42, 42) of the tets of ``k``."""
    return _tensor_mass_blocks(k, quad_degree,
                               lambda T: c0_inv_apply(T, params))


def divergence_blocks(k: StressBatch, quad_degree: int = 4) -> np.ndarray:
    """Unsigned local divergence blocks (n, 12, 42): int div(phi_i) . psi_k
    with psi_k the vector P1 basis (local DOF 3 a + c)."""
    rule = tet_rule(quad_degree)
    # Reference moments int lam_a d(s_k)/d(lam_b), (4, 42, 4).
    moments = np.einsum("q,qa,qkb->akb", rule.weights, rule.points,
                        span_dlam(rule.points))
    d = k.div_scalars(moments) * (k.volume / TET_MEASURE)[:, None, None]
    t = np.swapaxes(k.tangents[:, SPAN_EDGE], 1, 2)  # (n, 3, 42)
    span = (d[:, :, None, :] * t[:, None, :, :]).reshape(-1, 12, 42)
    return span @ np.swapaxes(k.coeffs, 1, 2)


@dataclass
class BodyBlocks:
    """The body's per-tet blocks in unsigned local coordinates (each tet's
    own basis, before the -1 sign a non-owner tet sees on a shared face):
    compliance ``A`` (n_tets, 42, 42) and divergence ``B`` (n_tets, 12, 42).
    The global blocks are their signed scatters."""

    A: np.ndarray
    B: np.ndarray

    @classmethod
    def build(cls, k: StressBatch, params: MaterialParams,
              quad_degree: int = 4) -> "BodyBlocks":
        return cls(compliance_blocks(k, params, quad_degree),
                   divergence_blocks(k, quad_degree))


def assemble_compliance(
    body: TetMesh,
    smap: StressDofMap,
    params: MaterialParams,
    quad_degree: int = 4,
) -> sp.csr_matrix:
    """A[i, j] = int_alpha (C0^-1 phi_j) : phi_i  (symmetric positive definite)."""
    return _scatter_stress(
        smap, compliance_blocks(_stress_batch(body), params, quad_degree))


def assemble_stress_mass(
    body: TetMesh, smap: StressDofMap, quad_degree: int = 4
) -> sp.csr_matrix:
    """Plain L2 mass of the stress space, int phi_i : phi_j."""
    return _scatter_stress(smap, _tensor_mass_blocks(
        _stress_batch(body), quad_degree, lambda T: T))


def assemble_div_div(
    body: TetMesh, smap: StressDofMap, quad_degree: int = 4
) -> sp.csr_matrix:
    """int div phi_i . div phi_j (elementwise divergence)."""
    rule = tet_rule(quad_degree)
    k = _stress_batch(body)
    d = k.div_scalars(span_dlam(rule.points))  # div(span_k) = d_k t_{e_k}
    t = k.tangents[:, SPAN_EDGE]
    dd = np.einsum("q,nqk,nql->nkl", rule.weights, d, d)
    tt = np.einsum("nkc,nlc->nkl", t, t)
    return _scatter_stress(smap, _basis_blocks(
        k, (k.volume / TET_MEASURE)[:, None, None] * dd * tt))


def _scatter_divergence(smap: StressDofMap, vmap, loc: np.ndarray
                        ) -> sp.csr_matrix:
    return _scatter(vmap.ltg, smap.ltg, loc * smap.sign[:, None, :],
                    (vmap.n_dofs, smap.n_dofs))


def assemble_divergence(
    body: TetMesh,
    smap: StressDofMap,
    vmap,
    quad_degree: int = 4,
) -> sp.csr_matrix:
    """B[k, i] = int_alpha div(phi_i) . psi_k  (V x Sigma)."""
    return _scatter_divergence(
        smap, vmap, divergence_blocks(_stress_batch(body), quad_degree))


def assemble_body_mass(body: TetMesh, vmap, quad_degree: int = 4) -> sp.csr_matrix:
    """Vector P1 mass matrix on the body (works for the DG and CG maps)."""
    _, vol = simplex_geometry(body.vertices[body.tets])
    loc = (vol / TET_MEASURE)[:, None, None] * _p1_mass_table(tet_rule(quad_degree))
    return _scatter(vmap.ltg, vmap.ltg, loc, (vmap.n_dofs, vmap.n_dofs))


# ---------------------------------------------------------------------------
# Plate stiffness.
# ---------------------------------------------------------------------------

def assemble_plate_stiffness(
    plate: TriMesh,
    pmap: PlateDofMap,
    params: MaterialParams,
    region: str = "all",
) -> sp.csr_matrix:
    """Membrane + bending stiffness over the full plate DOF set.

    ``region='all'`` integrates over every triangle; ``region='omit_interface'``
    only over triangles outside closure(Gamma) (used by the domain-
    decomposition extension energy).
    """
    if region == "all":
        tri = np.arange(plate.n_triangles)
    elif region == "omit_interface":
        tri = np.setdiff1d(np.arange(plate.n_triangles),
                           plate.interface_region_triangles)
    else:
        raise ValueError(f"unknown region {region!r}")

    mo = MorleyBatch(plate.vertices[plate.triangles[tri]])
    strain = _vector_p1_strains(mo.grad_lambda)
    k_mem = np.einsum("n,niab,njab->nij", mo.area, c1_apply(strain, params),
                      strain)
    hess = mo.hessians()
    k_bend = np.einsum("n,niab,njab->nij", mo.area, c2_apply(hess, params), hess)
    s = pmap.mor_sign[tri]
    shape = (pmap.n_dofs, pmap.n_dofs)
    return (_scatter(pmap.mem_ltg[tri], pmap.mem_ltg[tri], k_mem, shape)
            + _scatter(pmap.mor_ltg[tri], pmap.mor_ltg[tri],
                       k_bend * s[:, :, None] * s[:, None, :], shape))


# ---------------------------------------------------------------------------
# Interface coupling.
# ---------------------------------------------------------------------------

def _interface_local_faces(body: TetMesh, faces: list[InterfaceFace]
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Owner tets of the interface faces and each face's local index in its
    owner (the local vertex it does not contain)."""
    owner = np.array([f.owner_tet for f in faces], dtype=np.int64)
    vids = np.array([f.vertex_ids for f in faces], dtype=np.int64)
    in_face = (body.tets[owner][:, :, None] == vids[:, None, :]).any(axis=2)
    if np.any(in_face.sum(axis=1) != 3):
        raise ValueError("interface face owner mismatch between mesh and overlay")
    return owner, np.argmin(in_face, axis=1)


@dataclass
class CouplingBlocks:
    """The interface coupling per overlay cell, in the unsigned local columns
    of the face's owner tet: cell c adds ``blocks[c]`` (9, 42) to the plate
    rows ``rows[c]`` (membrane DOFs 2 a + c, then the Morley vertex DOFs of
    its plate triangle) and the local stress columns of tet ``tet[c]``."""

    tet: np.ndarray
    rows: np.ndarray
    blocks: np.ndarray

    def scatter(self, smap: StressDofMap, n_w: int) -> sp.csr_matrix:
        """The global coupling G (n_w, n_sigma)."""
        return _scatter(self.rows, smap.ltg[self.tet],
                        self.blocks * smap.sign[self.tet][:, None, :],
                        (n_w, smap.n_dofs))

    def local(self, n_tets: int, n_w: int) -> sp.csr_matrix:
        """G in local columns (n_w, 42 n_tets): column 42 t + i is local
        basis function i of tet t."""
        cols = 42 * self.tet[:, None] + np.arange(42)
        return _scatter(self.rows, cols, self.blocks, (n_w, 42 * n_tets))


def interface_coupling_blocks(
    body: TetMesh,
    plate: TriMesh,
    pmap: PlateDofMap,
    faces: list[InterfaceFace],
    cells: list[OverlayCell],
    k: StressBatch | None = None,
) -> CouplingBlocks:
    """Local blocks of G[w, s] = int_Gamma (phi_s n) . (Pi chi_w) on the
    overlay cells; ``k`` is the stress batch of all tets, or None to build
    one for the interface faces' owner tets only.

    Pi is the trace lowering: membrane test functions unchanged, Morley test
    functions replaced by the continuous P1 field of their vertex values
    (Morley edge DOFs yield identically zero rows).
    """
    owner, local = _interface_local_faces(body, faces)
    tets = owner  # each face's owner as an entry of k
    if k is None:
        k = StressBatch(body.vertices[body.tets[owner]])
        tets = np.arange(owner.size)
    cell_face = np.array([c.face_id for c in cells], dtype=np.int64)
    cell_tri = np.array([c.tri_id for c in cells], dtype=np.int64)
    mom = _overlay_moments(k, tets[cell_face], plate, cells, cell_tri)
    # The traction of span_k is s_k (t_{e_k} . n) t_{e_k}.
    t = k.tangents[tets][:, SPAN_EDGE]  # (n_faces, 42, 3)
    nrm = k.face_normals[tets, local]
    mom = mom * np.einsum("fkc,fc->fk", t, nrm)[cell_face][:, None]
    span = mom[:, :, None, :] * np.swapaxes(t, 1, 2)[cell_face][:, None]
    coeffs = np.swapaxes(k.coeffs[tets[cell_face]], 1, 2)
    blk = (span.reshape(-1, 9, 42) @ coeffs).reshape(-1, 3, 3, 42)
    rows = [pmap.mem_ltg[cell_tri], pmap.mor_ltg[cell_tri, :3]]
    blocks = [blk[:, :, :2].reshape(-1, 6, 42), blk[:, :, 2]]
    return CouplingBlocks(tet=owner[cell_face],
                          rows=np.concatenate(rows, axis=1),
                          blocks=np.concatenate(blocks, axis=1))


def assemble_interface_coupling(
    body: TetMesh,
    smap: StressDofMap,
    plate: TriMesh,
    pmap: PlateDofMap,
    faces: list[InterfaceFace],
    cells: list[OverlayCell],
) -> sp.csr_matrix:
    """G[w, s] = int_Gamma (phi_s n) . (Pi chi_w), assembled on the overlay
    (see ``interface_coupling_blocks``)."""
    return interface_coupling_blocks(body, plate, pmap, faces, cells).scatter(
        smap, pmap.n_dofs)


def _overlay_moments(k: StressBatch, cell_tet: np.ndarray, plate: TriMesh,
                     cells: list[OverlayCell], cell_tri: np.ndarray
                     ) -> np.ndarray:
    """Per-cell moments int_cell hat_a s_k, (n_cells, 3, 42): the quadrature
    points of all cells flattened, with the spanning scalars of the face's
    owner tet (``k`` entry ``cell_tet``) and the P1 hats of the plate
    triangle at each point.  A function of its own so that the per-point
    arrays are freed before the per-cell products of the caller."""
    point_cell = np.repeat(np.arange(len(cells)),
                           [c.weights.shape[0] for c in cells])
    pts = np.concatenate([c.points for c in cells])
    wts = np.concatenate([c.weights for c in cells])
    pts3 = np.column_stack([pts, np.zeros(pts.shape[0])])
    tet = cell_tet[point_cell]
    s = span_scalars(simplex_barycentric(k.grad_lambda[tet], k.v0[tet], pts3))
    tri_verts = plate.vertices[plate.triangles[cell_tri]]
    grad, _ = simplex_geometry(tri_verts)
    hat = simplex_barycentric(grad[point_cell], tri_verts[point_cell, 0], pts)
    return np.stack([
        sp.csr_matrix((wts * hat[:, a], (point_cell, np.arange(pts.shape[0]))),
                      shape=(len(cells), pts.shape[0])) @ s
        for a in range(3)
    ], axis=1)


# ---------------------------------------------------------------------------
# Data terms.
# ---------------------------------------------------------------------------

def impose_traction_bc(
    body: TetMesh,
    smap: StressDofMap,
    traction_fn,
    quad_degree: int = 6,
) -> tuple[np.ndarray, np.ndarray]:
    """Essential values of the free-face stress DOFs.

    ``traction_fn(points, normals)`` returns the traction g = sigma n at
    physical points (m, 3) for the outward unit normals (m, 3) of their
    faces.  Returns the DOF indices and their values:
    value[(p, c)] = (1/|F|) int_F (g . e_c) lam_p with lam_p the face's P1
    basis in sorted-global-vertex order.
    """
    rule = triangle_rule(quad_degree)
    fid = smap.free_face_ids
    owner, local = smap.face_owner[fid], smap.face_owner_local[fid]
    grad, _ = simplex_geometry(body.vertices[body.tets[owner]])
    nrm = -grad[np.arange(fid.size), local]
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    pts = rule.points @ body.vertices[smap.face_vertices[fid]]
    g = traction_fn(pts.reshape(-1, 3), np.repeat(nrm, rule.n_points, axis=0))
    g = g.reshape(pts.shape)
    mom = 2.0 * np.einsum("q,qp,fqc->fpc", rule.weights, rule.points, g)
    return smap.essential_dofs, mom.reshape(-1)


def assemble_loads(
    body: TetMesh,
    vmap,
    plate: TriMesh,
    pmap: PlateDofMap,
    case: ManufacturedCase,
    quad_volume: int = 4,
    quad_interface: int = 6,
    lowered_jump: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Load vectors of the mixed system.

    f_V[k] = -int_alpha f . psi_k;
    f_W[w] = int_beta (f_membrane, f_bending) . chi_w
             + int_Gamma f_jump . (Pi chi_w  if lowered_jump else chi_w).
    """
    rule = tet_rule(quad_volume)
    pts, w = _mapped_rule(rule, body.vertices[body.tets])
    loc = -np.einsum("nq,qa,nqc->nac", w, rule.points, case.f_body(pts))
    f_V = _scatter_vector(vmap.ltg, loc, vmap.n_dofs)

    n = pmap.n_dofs
    rule = triangle_rule(quad_volume)
    verts = plate.vertices[plate.triangles]
    pts, w = _mapped_rule(rule, verts)
    mem = np.einsum("nq,qa,nqc->nac", w, rule.points, case.f_membrane(pts))
    bend = np.einsum("nq,nqi,nq->ni", w, MorleyBatch(verts).values(rule.points),
                     case.f_bending(pts))
    f_W = (_scatter_vector(pmap.mem_ltg, mem, n)
           + _scatter_vector(pmap.mor_ltg, pmap.mor_sign * bend, n))

    rule = triangle_rule(quad_interface)
    region = plate.interface_region_triangles
    verts = plate.vertices[plate.triangles[region]]
    pts, w = _mapped_rule(rule, verts)
    fj = case.f_jump(pts)  # (n, nq, 3)
    mem = np.einsum("nq,qa,nqc->nac", w, rule.points, fj[..., :2])
    f_W += _scatter_vector(pmap.mem_ltg[region], mem, n)
    if lowered_jump:
        low = np.einsum("nq,qa,nq->na", w, rule.points, fj[..., 2])
        f_W += _scatter_vector(pmap.mor_ltg[region, :3], low, n)
    else:
        jump = np.einsum("nq,nqi,nq->ni", w,
                         MorleyBatch(verts).values(rule.points), fj[..., 2])
        f_W += _scatter_vector(pmap.mor_ltg[region],
                               pmap.mor_sign[region] * jump, n)
    return f_V, f_W


def project_to_Vh(body: TetMesh, vmap, func, quad_degree: int = 4) -> np.ndarray:
    """Elementwise L2 projection of a vector field onto the discontinuous
    vector P1 space (12 x 12 local mass solves).  The element measure scales
    the local mass and right-hand side alike, so one reference mass serves
    every tet."""
    rule = tet_rule(quad_degree)
    verts = body.vertices[body.tets]
    f = func(rule.points @ verts)  # (n, nq, 3)
    rhs = np.einsum("q,qa,nqc->nac", rule.weights, rule.points, f)
    out = np.zeros(vmap.n_dofs)
    out[vmap.ltg] = np.linalg.solve(_p1_mass_table(rule),
                                    rhs.reshape(-1, 12).T).T
    return out


# ---------------------------------------------------------------------------
# Constraint condensation.
# ---------------------------------------------------------------------------

@dataclass
class Constraints:
    """Essential constraints x[idx] = values on a square system."""

    n: int
    idx: np.ndarray
    values: np.ndarray
    free: np.ndarray = field(init=False)

    def __post_init__(self):
        mask = np.ones(self.n, dtype=bool)
        mask[self.idx] = False
        self.free = np.flatnonzero(mask)

    def reduce(self, M: sp.spmatrix, rhs: np.ndarray):
        """Symmetric condensation: returns (M_ff, rhs_f)."""
        M = M.tocsr()
        M_ff = M[self.free][:, self.free]
        rhs_f = rhs[self.free]
        if self.idx.size:
            M_fc = M[self.free][:, self.idx]
            rhs_f = rhs_f - M_fc @ self.values
        return M_ff.tocsc(), rhs_f

    def expand(self, x_f: np.ndarray) -> np.ndarray:
        x = np.zeros(self.n)
        x[self.free] = x_f
        if self.idx.size:
            x[self.idx] = self.values
        return x


# ---------------------------------------------------------------------------
# System builders.
# ---------------------------------------------------------------------------

@dataclass
class BlockSystem:
    """The mixed formulation: the body's local blocks, the interface
    coupling's cell blocks, the plate stiffness, loads and constraint data.
    The global body blocks A, B and G are scattered on first use."""

    body: TetMesh
    plate: TriMesh
    smap: StressDofMap
    vmap: BodyDGDofMap
    pmap: PlateDofMap
    params: MaterialParams
    blocks: BodyBlocks
    coupling: CouplingBlocks
    K: sp.csr_matrix
    f_V: np.ndarray
    f_W: np.ndarray
    sigma_essential_idx: np.ndarray
    sigma_essential_values: np.ndarray

    @cached_property
    def A(self) -> sp.csr_matrix:
        return _scatter_stress(self.smap, self.blocks.A)

    @cached_property
    def B(self) -> sp.csr_matrix:
        return _scatter_divergence(self.smap, self.vmap, self.blocks.B)

    @cached_property
    def G(self) -> sp.csr_matrix:
        return self.coupling.scatter(self.smap, self.n_w)

    @property
    def n_sigma(self) -> int:
        return self.smap.n_dofs

    @property
    def n_v(self) -> int:
        return self.vmap.n_dofs

    @property
    def n_w(self) -> int:
        return self.pmap.n_dofs

    def monolithic(self) -> tuple[sp.csr_matrix, np.ndarray, Constraints]:
        """Symmetric indefinite monolithic matrix, right-hand side, and the
        combined constraint set (stress essential + clamped plate)."""
        ns, nv, nw = self.n_sigma, self.n_v, self.n_w
        n = ns + nv + nw
        M = sp.bmat(
            [
                [self.A, self.B.T, -self.G.T],
                [self.B, None, None],
                [-self.G, None, -self.K],
            ],
            format="csr",
        )
        rhs = np.concatenate([np.zeros(ns), self.f_V, -self.f_W])
        clamped = np.flatnonzero(self.pmap.constrained) + ns + nv
        idx = np.concatenate([self.sigma_essential_idx, clamped])
        vals = np.concatenate(
            [self.sigma_essential_values, np.zeros(clamped.shape[0])]
        )
        return M, rhs, Constraints(n, idx, vals)

    def split(self, x: np.ndarray):
        ns, nv = self.n_sigma, self.n_v
        return x[:ns], x[ns: ns + nv], x[ns + nv:]


def build_mixed_system(
    body: TetMesh,
    plate: TriMesh,
    case: ManufacturedCase,
    params: MaterialParams | None = None,
    quad_volume: int = 4,
    quad_interface: int = 6,
    faces: list[InterfaceFace] | None = None,
    cells: list[OverlayCell] | None = None,
) -> BlockSystem:
    """Assemble all blocks of the mixed formulation for a manufactured case."""
    from .interface_overlay import (
        extract_interface_triangulation,
        intersect_triangulations,
    )

    if params is None:
        params = case.params
    smap = StressDofMap(body)
    vmap = BodyDGDofMap(body)
    pmap = PlateDofMap(plate)

    if faces is None:
        faces = extract_interface_triangulation(body)
    if cells is None:
        cells = intersect_triangulations(faces, plate, quad_degree=quad_interface)

    k = _stress_batch(body)
    blocks = BodyBlocks.build(k, params, quad_volume)
    coupling = interface_coupling_blocks(body, plate, pmap, faces, cells, k)
    K = assemble_plate_stiffness(plate, pmap, params, region="all")
    f_V, f_W = assemble_loads(
        body, vmap, plate, pmap, case,
        quad_volume=quad_volume, quad_interface=quad_interface, lowered_jump=True,
    )
    ess_idx, ess_vals = impose_traction_bc(
        body, smap, case.traction, quad_degree=quad_interface
    )
    return BlockSystem(
        body=body, plate=plate, smap=smap, vmap=vmap, pmap=pmap, params=params,
        blocks=blocks, coupling=coupling, K=K, f_V=f_V, f_W=f_W,
        sigma_essential_idx=ess_idx, sigma_essential_values=ess_vals,
    )


# ---------------------------------------------------------------------------
# Displacement baseline.
# ---------------------------------------------------------------------------

@dataclass
class DisplacementSystem:
    """Coupled continuous-displacement system (SPD after condensation)."""

    body: TetMesh
    plate: TriMesh
    cmap: BodyCGDofMap
    pmap: PlateDofMap
    params: MaterialParams
    K: sp.csr_matrix
    rhs: np.ndarray
    constraints: Constraints
    body_to_unified: np.ndarray  # (3 nv_body,)
    plate_offset: int

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unified solution -> (body CG coefficients, plate coefficients)."""
        u_body = x[self.body_to_unified]
        w = x[self.plate_offset:]
        return u_body, w


def assemble_displacement_system(
    body: TetMesh,
    plate: TriMesh,
    case: ManufacturedCase,
    params: MaterialParams | None = None,
    quad_volume: int = 4,
    quad_interface: int = 6,
) -> DisplacementSystem:
    """Continuous vector P1 body + (membrane P1, Morley) plate, joined by
    identifying interface vertex DOFs (components 1-2 with membrane values,
    component 3 with Morley vertex values).  Requires meshes matching on the
    interface: plate n = 2 body n with the body's diagonal convention."""
    if params is None:
        params = case.params
    cmap = BodyCGDofMap(body)
    pmap = PlateDofMap(plate)

    # Vertex coincidence is not enough: the interface triangulations must be
    # identical, or the vertex-aliased coupling silently misrepresents the
    # trace.  Every projected interface face must be a plate triangle.
    iface = body.boundary_faces[body.boundary_tags == FaceTag.INTERFACE]
    face_pv = _match_rows(body.vertices[iface.ravel(), :2],
                          plate.vertices).reshape(-1, 3)
    if np.any(face_pv < 0) or np.any(
            _match_rows(np.sort(face_pv, axis=1),
                        np.sort(plate.triangles, axis=1)) < 0):
        raise ValueError(
            "meshes do not match on the interface; the displacement method "
            "requires plate n = 2 x body n with the same diagonal convention"
        )

    nv_body3 = 3 * body.n_vertices
    plate_offset = nv_body3
    n_unified = nv_body3 + pmap.n_dofs
    body_to_unified = np.arange(nv_body3, dtype=np.int64)
    v = cmap.interface_vertices
    pv = _match_rows(body.vertices[v, :2], plate.vertices)
    body_to_unified[3 * v + 0] = plate_offset + 2 * pv + 0
    body_to_unified[3 * v + 1] = plate_offset + 2 * pv + 1
    body_to_unified[3 * v + 2] = plate_offset + 2 * plate.n_vertices + pv
    aliased = (3 * v[:, None] + np.arange(3)).ravel()

    # Body stiffness and volume load.
    verts = body.vertices[body.tets]
    grad, vol = simplex_geometry(verts)
    strain = _vector_p1_strains(grad)
    k_loc = np.einsum("n,niab,njab->nij", vol, c0_apply(strain, params), strain)
    gl = body_to_unified[cmap.ltg]
    rule = tet_rule(quad_volume)
    pts, w = _mapped_rule(rule, verts)
    loc = np.einsum("nq,qa,nqc->nac", w, rule.points, case.f_body(pts))
    rhs = _scatter_vector(gl, loc, n_unified)

    # Traction (Neumann) term on the free boundary; boundary faces are
    # ordered so that the right-hand normal points outward.
    tri = body.boundary_faces[body.boundary_tags == FaceTag.FREE]
    coords = body.vertices[tri]
    nrm = np.cross(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0])
    area = 0.5 * np.linalg.norm(nrm, axis=1)
    nrm = nrm / (2.0 * area[:, None])
    frule = triangle_rule(quad_interface)
    pts = frule.points @ coords
    w = physical_weights(frule, area[:, None])
    g = case.traction(pts.reshape(-1, 3), np.repeat(nrm, frule.n_points, axis=0))
    loc = np.einsum("nq,qa,nqc->nac", w, frule.points, g.reshape(pts.shape))
    rhs += _scatter_vector(body_to_unified[3 * tri[:, :, None] + np.arange(3)],
                           loc, n_unified)

    # Plate stiffness and loads (jump tested with the actual plate basis).
    Kp = assemble_plate_stiffness(plate, pmap, params, region="all")
    _, f_W = assemble_loads(
        body, BodyDGDofMap(body), plate, pmap, case,
        quad_volume=quad_volume, quad_interface=quad_interface, lowered_jump=False,
    )
    rhs[plate_offset:] += f_W

    K = (_scatter(gl, gl, k_loc, (n_unified, n_unified))
         + sp.block_diag((sp.csr_matrix((nv_body3, nv_body3)), Kp))).tocsr()
    clamped = np.flatnonzero(pmap.constrained) + plate_offset
    idx = np.concatenate([aliased, clamped])
    vals = np.zeros(idx.shape[0])
    constraints = Constraints(n_unified, idx, vals)
    return DisplacementSystem(
        body=body, plate=plate, cmap=cmap, pmap=pmap, params=params,
        K=K, rhs=rhs, constraints=constraints,
        body_to_unified=body_to_unified, plate_offset=plate_offset,
    )
