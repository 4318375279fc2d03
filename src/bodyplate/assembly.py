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

The body forms are per-tet local blocks in each tet's own basis, all taken
from the body's one ``fe_elements.StressBatch``, which its ``StressDofMap``
holds (``StressDofMap.stress``) and which keeps no block: the
compliance and divergence blocks are formed for a few tets at a time
(``compliance_blocks``, ``divergence_blocks``) or applied to every tet by
their structure (``apply_A``, ``apply_B``, ``apply_Bt``), and the coupling
is kept per overlay cell (``CouplingBlocks``).  The global blocks are their
signed scatters.  The production solve works on the local blocks directly
(``hybrid``); the assembled monolithic matrix serves as the test oracle.

Each form takes its mesh from its DOF maps (``smap.mesh``, ``vmap.mesh``,
``pmap.mesh``), and the systems keep the maps, not the meshes.  The entry
points whose signatures still take a mesh beside its map refuse a mesh that
is not the map's own (``fe_elements.check_own_mesh``).

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
from .interface_overlay import (
    InterfaceFace,
    OverlayCell,
    extract_interface_triangulation,
    intersect_triangulations,
)
from .manufactured import ManufacturedCase
from .materials import MaterialParams, c0_apply, c1_apply, c2_apply
from .fe_elements import (
    SPAN_EDGE,
    BodyCGDofMap,
    BodyDGDofMap,
    PlateDofMap,
    StressBatch,
    StressDofMap,
    check_own_mesh,
    div_scalars,
    face_normals,
    local_chunks,
    simplex_barycentric,
    simplex_geometry,
    span_dlam,
    span_scalars,
    stress_dual_coefficients,
    stress_span_adjoint,
    stress_span_coefficients,
)
from .quadrature import (
    FACE_DEGREE,
    TET_MEASURE,
    VOLUME_DEGREE,
    physical_weights,
    tet_rule,
    triangle_rule,
)

__all__ = [
    "CouplingBlocks",
    "compliance_blocks",
    "divergence_blocks",
    "apply_A",
    "apply_B",
    "apply_Bt",
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

def _scatter_stress(smap: StressDofMap, blocks: np.ndarray) -> sp.csr_matrix:
    """Global stress form from the unsigned local blocks (n_tets, 42, 42).
    An entry sums at most two tets, the two sides of a face, so the result
    does not depend on the order of the sums."""
    s = smap.sign
    return _scatter(smap.ltg, smap.ltg, blocks * s[:, :, None] * s[:, None, :],
                    (smap.n_dofs, smap.n_dofs))


def _volume_tables() -> tuple[np.ndarray, np.ndarray]:
    """The reference Gram matrix int s_k s_l of the spanning scalars (42,
    42) and the reference moments int lam_a d(s_k)/d(lam_b) (4, 42, 4) of
    the divergence against the P1 hats."""
    rule = tet_rule(VOLUME_DEGREE)
    s = span_scalars(rule.points)
    gram = np.einsum("q,qk,ql->kl", rule.weights, s, s)
    moments = np.einsum("q,qa,qkb->akb", rule.weights, rule.points,
                        span_dlam(rule.points))
    return gram, moments


_SPAN_GRAM, _DIV_MOMENTS = _volume_tables()

#: ``_DIV_MOMENTS`` by edge group: (6, 7, 16), row p of group e holding the
#: (a, b) moments of spanning function 7 e + p.
_DIV_MOMENTS_BY_EDGE = np.moveaxis(_DIV_MOMENTS.reshape(4, 6, 7, 4), 0, 2
                                   ).reshape(6, 7, 16)


def _basis_blocks(coeffs: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Basis matrices (n, 42, 42) of a form whose matrices on the spanning
    functions are ``span``; the dual-basis coefficients ``coeffs`` map one
    to the other."""
    return coeffs @ span @ np.swapaxes(coeffs, 1, 2)


def _coefficients(k: StressBatch, t) -> np.ndarray:
    """The dual-basis coefficients M_T^-T (m, 42, 42) of the tets ``t`` (a
    slice or an index array) of ``k``."""
    return stress_dual_coefficients(k.face_inv[t], k.interior_inv[t])


def _edge_pairing(tangents: np.ndarray) -> np.ndarray:
    """The 6 x 6 edge pairings T_e : T_f = (t_e . t_f)^2 (n, 6, 6) of the
    tets with unit edge ``tangents`` (n, 6, 3), T_e = t_e t_e^T."""
    G = tangents @ np.swapaxes(tangents, 1, 2)
    return G * G


def _compliance_pairing(tangents: np.ndarray, params: MaterialParams
                        ) -> np.ndarray:
    """The 6 x 6 edge pairings C0^-1(T_e) : T_f (n, 6, 6) of the tets with
    unit edge ``tangents`` (n, 6, 3): with C0^-1 sigma = (1 + nu)/E sigma -
    nu/E tr(sigma) I (``materials.c0_inv_apply``) and tr T_e = 1, they are
    (1 + nu)/E (t_e . t_f)^2 - nu/E."""
    e, nu = params.e_alpha, params.nu_alpha
    return ((1.0 + nu) / e) * _edge_pairing(tangents) - nu / e


def _mass_span(k: StressBatch, pairing: np.ndarray, t) -> np.ndarray:
    """int C(s_k T_e) : s_l T_f (m, 42, 42) over the spanning functions of
    the tets ``t`` of ``k`` for a linear map C of symmetric matrices with
    the edge pairings ``pairing`` C(T_e) : T_f (m, 6, 6) of those tets: the
    integrand separates into the reference Gram matrix of the s_k and the
    edge pairing, broadcast over the 7 functions of each edge."""
    gram = ((k.volume[t] / TET_MEASURE)[:, None, None] * _SPAN_GRAM
            ).reshape(-1, 6, 7, 6, 7)
    return (gram * pairing[:, :, None, :, None]).reshape(-1, 42, 42)


def _tensor_mass_blocks(k: StressBatch, pairing: np.ndarray, t
                        ) -> np.ndarray:
    """int C(phi_j) : phi_i (m, 42, 42) on the tets ``t`` of ``k`` for a
    linear map C with the edge pairings ``pairing`` (``_mass_span``)."""
    return _basis_blocks(_coefficients(k, t), _mass_span(k, pairing, t))


def compliance_blocks(k: StressBatch, params: MaterialParams, t
                      ) -> np.ndarray:
    """Unsigned local compliance blocks A_T (m, 42, 42) of the tets ``t`` (a
    slice or an index array) of ``k``: with M_T^-1 = M_ref^-1 L_T^-1,

        A_T = M_T^-T (|T| / |T^| G o Pi_T[E, E]) M_T^-1,

    G the Gram matrix of the spanning scalars, E = ``SPAN_EDGE`` and Pi_T
    the 6 x 6 edge pairing C0^-1(T_e) : T_f, in closed form from the
    tangents (``_compliance_pairing``)."""
    return _tensor_mass_blocks(
        k, _compliance_pairing(k.tangents[t], params), t)


def _divergence_span(k: StressBatch, t) -> np.ndarray:
    """D_T (m, 12, 42): int div(s_k T_e) . psi over the spanning functions
    of the tets ``t`` of ``k`` against the vector P1 basis psi."""
    d = (div_scalars(_DIV_MOMENTS, k.tangent_gradients[t])
         * (k.volume[t] / TET_MEASURE)[:, None, None])
    tangents = np.swapaxes(k.tangents[t][:, SPAN_EDGE], 1, 2)  # (m, 3, 42)
    return (d[:, :, None, :] * tangents[:, None, :, :]).reshape(-1, 12, 42)


def divergence_blocks(k: StressBatch, t) -> np.ndarray:
    """Unsigned local divergence blocks B_T = D_T M_T^-1 (m, 12, 42) of the
    tets ``t`` of ``k``: int div(phi_i) . psi_k with psi_k the vector P1
    basis (local DOF 3 a + c), D_T the divergence of the spanning functions
    against it."""
    return _divergence_span(k, t) @ np.swapaxes(_coefficients(k, t), 1, 2)


def _local_blocks(k: StressBatch, params: MaterialParams, t
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``compliance_blocks`` and ``divergence_blocks`` of the tets ``t``,
    from one formation of their dual-basis coefficients."""
    c = _coefficients(k, t)
    A = _basis_blocks(
        c, _mass_span(k, _compliance_pairing(k.tangents[t], params), t))
    return A, _divergence_span(k, t) @ np.swapaxes(c, 1, 2)


# A_T x, B_T x and B_T^T u for every tet of ``k`` by the blocks' structure,
# one GEMM with a reference table per edge group, within roundoff of the
# dense products; x (n, 42) are local (unsigned) stress values and u (n, 12)
# local displacement values.

def _basis_values(k: StressBatch, y: np.ndarray) -> np.ndarray:
    """M_T^-T y_T (n, 42) of the spanning values y (n, 6, 7) scaled by
    |T| / |T^|."""
    scale = (k.volume / TET_MEASURE)[:, None]
    return stress_span_adjoint(scale * y.reshape(-1, 42), k.face_inv,
                               k.interior_inv)


def apply_A(k: StressBatch, params: MaterialParams, x: np.ndarray
            ) -> np.ndarray:
    """A_T x_T (n, 42) for every tet, one GEMM with G per edge group."""
    pairing = _compliance_pairing(k.tangents, params)
    c = stress_span_coefficients(x, k.face_inv,
                                 k.interior_inv).reshape(-1, 6, 7)
    y = np.empty_like(c)
    for e in range(6):
        y[:, e] = ((pairing[:, e, :, None] * c).reshape(-1, 42)
                   @ _SPAN_GRAM[7 * e:7 * e + 7].T)
    return _basis_values(k, y)


def apply_B(k: StressBatch, x: np.ndarray) -> np.ndarray:
    """B_T x_T (n, 12) for every tet, one GEMM with the divergence moments
    per edge group."""
    c = stress_span_coefficients(x, k.face_inv,
                                 k.interior_inv).reshape(-1, 6, 7)
    # d[n, a, e] = sum_k D[n, a, k] c[n, k] over the spanning functions k
    # of edge e, D the div_scalars of the moments: int lam_a div(c_k s_k
    # T_e) = D[n, a, k] c[n, k] t_e.
    d = np.stack([(c[:, e] @ _DIV_MOMENTS_BY_EDGE[e]).reshape(-1, 4, 4)
                  @ k.tangent_gradients[:, e, :, None]
                  for e in range(6)], axis=2)[..., 0]
    scale = (k.volume / TET_MEASURE)[:, None, None]
    return (scale * (d @ k.tangents)).reshape(-1, 12)


def apply_Bt(k: StressBatch, u: np.ndarray) -> np.ndarray:
    """B_T^T u_T (n, 42) for every tet, one GEMM with the divergence
    moments per edge group."""
    # ut[n, a, e] = u[n, a] . t_e
    ut = u.reshape(-1, 4, 3) @ np.swapaxes(k.tangents, 1, 2)
    y = np.empty((len(u), 6, 7))
    for e in range(6):
        y[:, e] = ((ut[:, :, e, None] * k.tangent_gradients[:, e, None])
                   .reshape(-1, 16) @ _DIV_MOMENTS_BY_EDGE[e].T)
    return _basis_values(k, y)


def assemble_compliance(smap: StressDofMap, params: MaterialParams
                        ) -> sp.csr_matrix:
    """A[i, j] = int_alpha (C0^-1 phi_j) : phi_i  (symmetric positive definite)."""
    return _scatter_stress(smap, compliance_blocks(
        smap.stress, params, slice(None)))


def assemble_stress_mass(body: TetMesh, smap: StressDofMap) -> sp.csr_matrix:
    """Plain L2 mass of the stress space, int phi_i : phi_j."""
    check_own_mesh("body", body, smap)
    k = smap.stress
    return _scatter_stress(smap, _tensor_mass_blocks(
        k, _edge_pairing(k.tangents), slice(None)))


def _div_div_blocks(k: StressBatch) -> np.ndarray:
    """Unsigned local blocks (n, 42, 42) of int div phi_i . div phi_j."""
    rule = tet_rule(VOLUME_DEGREE)
    # div(span_k) = d_k t_{e_k}
    d = div_scalars(span_dlam(rule.points), k.tangent_gradients)
    t = k.tangents[:, SPAN_EDGE]
    dd = np.einsum("q,nqk,nql->nkl", rule.weights, d, d)
    tt = np.einsum("nkc,nlc->nkl", t, t)
    return _basis_blocks(_coefficients(k, slice(None)),
                         (k.volume / TET_MEASURE)[:, None, None] * dd * tt)


def assemble_div_div(body: TetMesh, smap: StressDofMap) -> sp.csr_matrix:
    """int div phi_i . div phi_j (elementwise divergence)."""
    check_own_mesh("body", body, smap)
    return _scatter_stress(smap, _div_div_blocks(smap.stress))


def assemble_divergence(body: TetMesh, smap: StressDofMap, vmap
                        ) -> sp.csr_matrix:
    """B[k, i] = int_alpha div(phi_i) . psi_k  (V x Sigma)."""
    check_own_mesh("body", body, smap, vmap)
    loc = divergence_blocks(smap.stress, slice(None))
    return _scatter(vmap.ltg, smap.ltg, loc * smap.sign[:, None, :],
                    (vmap.n_dofs, smap.n_dofs))


def assemble_body_mass(body: TetMesh, vmap) -> sp.csr_matrix:
    """Vector P1 mass matrix on the body (works for the DG and CG maps)."""
    check_own_mesh("body", body, vmap)
    _, vol = simplex_geometry(body.vertices[body.tets])
    loc = (vol / TET_MEASURE)[:, None, None] * _p1_mass_table(
        tet_rule(VOLUME_DEGREE))
    return _scatter(vmap.ltg, vmap.ltg, loc, (vmap.n_dofs, vmap.n_dofs))


# ---------------------------------------------------------------------------
# Plate stiffness.
# ---------------------------------------------------------------------------

def assemble_plate_stiffness(pmap: PlateDofMap, params: MaterialParams
                             ) -> sp.csr_matrix:
    """Membrane + bending stiffness over the full plate DOF set, integrated
    over every triangle."""
    mo = pmap.morley
    strain = _vector_p1_strains(mo.grad_lambda)
    k_mem = mo.area[:, None, None] * (
        c1_apply(strain, params).reshape(-1, 6, 4)
        @ np.swapaxes(strain.reshape(-1, 6, 4), 1, 2))
    hess = mo.hessians()
    k_bend = mo.area[:, None, None] * (
        c2_apply(hess, params).reshape(-1, 6, 4)
        @ np.swapaxes(hess.reshape(-1, 6, 4), 1, 2))
    s = pmap.mor_sign
    shape = (pmap.n_dofs, pmap.n_dofs)
    return (_scatter(pmap.mem_ltg, pmap.mem_ltg, k_mem, shape)
            + _scatter(pmap.mor_ltg, pmap.mor_ltg,
                       k_bend * s[:, :, None] * s[:, None, :], shape))


# ---------------------------------------------------------------------------
# Interface coupling.
# ---------------------------------------------------------------------------

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
    smap: StressDofMap,
    pmap: PlateDofMap,
    faces: list[InterfaceFace],
    cells: list[OverlayCell],
) -> CouplingBlocks:
    """Local blocks of G[w, s] = int_Gamma (phi_s n) . (Pi chi_w) on the
    overlay cells, from the body's stress element (``smap.stress``) and the
    geometry of the interface faces' owner tets.  Each face is found among
    the stress map's interface faces by its vertices, which gives its owner
    and its local index there (``face_owner``, ``face_owner_local``); a face
    that is not one of them is refused with a ``ValueError`` naming it.

    Pi is the trace lowering: membrane test functions unchanged, Morley test
    functions replaced by the continuous P1 field of their vertex values
    (Morley edge DOFs yield identically zero rows).
    """
    body, plate = smap.mesh, pmap.mesh
    iface = smap.interface_face_ids
    vids = np.sort([f.vertex_ids for f in faces], axis=1)
    row = _match_rows(vids, smap.face_vertices[iface])
    if np.any(row < 0):
        k = int(np.argmax(row < 0))
        raise ValueError(
            f"interface face {faces[k].face_id} with vertices "
            f"{tuple(vids[k].tolist())} is not an interface face of the "
            "stress map's mesh")
    fid = iface[row]
    owner, local = smap.face_owner[fid], smap.face_owner_local[fid]
    verts = body.vertices[body.tets[owner]]  # entry f: f's owner
    grad, _ = simplex_geometry(verts)
    cell_face = np.array([c.face_id for c in cells], dtype=np.int64)
    cell_tri = np.array([c.tri_id for c in cells], dtype=np.int64)
    mom = _overlay_moments(grad, verts[:, 0], cell_face, plate, cells,
                           cell_tri)
    # The traction of span_k is s_k (t_{e_k} . n) t_{e_k}.
    t = smap.stress.tangents[owner][:, SPAN_EDGE]  # (n_faces, 42, 3)
    nrm = face_normals(grad)[np.arange(owner.size), local]
    mom = mom * np.einsum("fkc,fc->fk", t, nrm)[cell_face][:, None]
    span = mom[:, :, None, :] * np.swapaxes(t, 1, 2)[cell_face][:, None]
    coeffs = np.swapaxes(_coefficients(smap.stress, owner)[cell_face], 1, 2)
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
    check_own_mesh("body", body, smap)
    check_own_mesh("plate", plate, pmap)
    return interface_coupling_blocks(
        smap, pmap, faces, cells).scatter(smap, pmap.n_dofs)


def _overlay_moments(grad: np.ndarray, v0: np.ndarray, cell_tet: np.ndarray,
                     plate: TriMesh, cells: list[OverlayCell],
                     cell_tri: np.ndarray) -> np.ndarray:
    """Per-cell moments int_cell hat_a s_k, (n_cells, 3, 42): the quadrature
    points of all cells flattened, with the spanning scalars of the face's
    owner tet (barycentric gradients ``grad`` and first vertex ``v0``, entry
    ``cell_tet``) and the P1 hats of the plate triangle at each point.  A
    function of its own so that the per-point arrays are freed before the
    per-cell products of the caller."""
    point_cell = np.repeat(np.arange(len(cells)),
                           [c.weights.shape[0] for c in cells])
    pts = np.concatenate([c.points for c in cells])
    wts = np.concatenate([c.weights for c in cells])
    pts3 = np.column_stack([pts, np.zeros(pts.shape[0])])
    tet = cell_tet[point_cell]
    s = span_scalars(simplex_barycentric(grad[tet], v0[tet], pts3))
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
    smap: StressDofMap,
    traction_fn,
) -> tuple[np.ndarray, np.ndarray]:
    """Essential values of the free-face stress DOFs.

    ``traction_fn(points, normals)`` returns the traction g = sigma n at
    physical points (m, 3) for the outward unit normals (m, 3) of their
    faces.  Returns the DOF indices and their values:
    value[(p, c)] = (1/|F|) int_F (g . e_c) lam_p with lam_p the face's P1
    basis in sorted-global-vertex order.
    """
    body = smap.mesh
    rule = triangle_rule(FACE_DEGREE)
    fid = smap.free_face_ids
    owner, local = smap.face_owner[fid], smap.face_owner_local[fid]
    grad, _ = simplex_geometry(body.vertices[body.tets[owner]])
    nrm = face_normals(grad)[np.arange(fid.size), local]
    pts = rule.points @ body.vertices[smap.face_vertices[fid]]
    g = traction_fn(pts.reshape(-1, 3), np.repeat(nrm, rule.n_points, axis=0))
    g = g.reshape(pts.shape)
    mom = 2.0 * np.einsum("q,qp,fqc->fpc", rule.weights, rule.points, g)
    return smap.essential_dofs, mom.reshape(-1)


def assemble_loads(
    vmap,
    pmap: PlateDofMap,
    case: ManufacturedCase,
    lowered_jump: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Load vectors of the mixed system.

    f_V[k] = -int_alpha f . psi_k;
    f_W[w] = int_beta (f_membrane, f_bending) . chi_w
             + int_Gamma f_jump . (Pi chi_w  if lowered_jump else chi_w).

    The body load is evaluated one ``local_chunks`` slice of tets at a time.
    """
    body, plate = vmap.mesh, pmap.mesh
    rule = tet_rule(VOLUME_DEGREE)
    loc = np.empty((body.n_tets, 4, 3))
    for c in local_chunks(body.n_tets):
        pts, w = _mapped_rule(rule, body.vertices[body.tets[c]])
        loc[c] = -(rule.points.T @ (w[..., None] * case.f_body(pts)))
    f_V = _scatter_vector(vmap.ltg, loc, vmap.n_dofs)

    n = pmap.n_dofs
    rule = triangle_rule(VOLUME_DEGREE)
    verts = plate.vertices[plate.triangles]
    pts, w = _mapped_rule(rule, verts)
    mem = rule.points.T @ (w[..., None] * case.f_membrane(pts))
    bend = ((w * case.f_bending(pts))[:, None]
            @ pmap.morley.values(rule.points))[:, 0]
    f_W = (_scatter_vector(pmap.mem_ltg, mem, n)
           + _scatter_vector(pmap.mor_ltg, pmap.mor_sign * bend, n))

    rule = triangle_rule(FACE_DEGREE)
    region = plate.interface_region_triangles
    verts = plate.vertices[plate.triangles[region]]
    pts, w = _mapped_rule(rule, verts)
    fj = case.f_jump(pts)  # (n, nq, 3)
    mem = rule.points.T @ (w[..., None] * fj[..., :2])
    f_W += _scatter_vector(pmap.mem_ltg[region], mem, n)
    if lowered_jump:
        low = (w * fj[..., 2]) @ rule.points
        f_W += _scatter_vector(pmap.mor_ltg[region, :3], low, n)
    else:
        jump = ((w * fj[..., 2])[:, None]
                @ pmap.morley.values(rule.points)[region])[:, 0]
        f_W += _scatter_vector(pmap.mor_ltg[region],
                               pmap.mor_sign[region] * jump, n)
    return f_V, f_W


def project_to_Vh(body: TetMesh, vmap, func) -> np.ndarray:
    """Elementwise L2 projection of a vector field onto the discontinuous
    vector P1 space (12 x 12 local mass solves).  The element measure scales
    the local mass and right-hand side alike, so one reference mass serves
    every tet."""
    check_own_mesh("body", body, vmap)
    rule = tet_rule(VOLUME_DEGREE)
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
    """The mixed formulation: the DOF maps, which carry the meshes, the
    stress map also the body's stress element (``StressDofMap.stress``), the
    material parameters
    of its compliance, the interface coupling's cell blocks, the plate
    stiffness, loads and constraint data.  The global body blocks A, B and
    G, which only the monolithic test oracle reads, are formed and scattered
    on first use."""

    smap: StressDofMap
    vmap: BodyDGDofMap
    pmap: PlateDofMap
    params: MaterialParams
    coupling: CouplingBlocks
    K: sp.csr_matrix
    f_V: np.ndarray
    f_W: np.ndarray
    sigma_essential_idx: np.ndarray
    sigma_essential_values: np.ndarray

    @cached_property
    def A(self) -> sp.csr_matrix:
        return assemble_compliance(self.smap, self.params)

    @cached_property
    def B(self) -> sp.csr_matrix:
        return assemble_divergence(self.smap.mesh, self.smap, self.vmap)

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
) -> BlockSystem:
    """Assemble all blocks of the mixed formulation for a manufactured case,
    with the case's material (``case.params``)."""
    smap = StressDofMap(body)
    vmap = BodyDGDofMap(body)
    pmap = PlateDofMap(plate)
    faces = extract_interface_triangulation(body)
    cells = intersect_triangulations(faces, plate)

    coupling = interface_coupling_blocks(smap, pmap, faces, cells)
    K = assemble_plate_stiffness(pmap, case.params)
    f_V, f_W = assemble_loads(vmap, pmap, case, lowered_jump=True)
    ess_idx, ess_vals = impose_traction_bc(smap, case.traction)
    return BlockSystem(
        smap=smap, vmap=vmap, pmap=pmap, params=case.params,
        coupling=coupling, K=K, f_V=f_V, f_W=f_W,
        sigma_essential_idx=ess_idx, sigma_essential_values=ess_vals,
    )


# ---------------------------------------------------------------------------
# Displacement baseline.
# ---------------------------------------------------------------------------

@dataclass
class DisplacementSystem:
    """Coupled continuous-displacement system (SPD after condensation), on
    the meshes its DOF maps carry."""

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
) -> DisplacementSystem:
    """Continuous vector P1 body + (membrane P1, Morley) plate, joined by
    identifying interface vertex DOFs (components 1-2 with membrane values,
    component 3 with Morley vertex values).  Requires meshes matching on the
    interface: plate n = 2 body n with the body's diagonal convention.  The
    material is the case's (``case.params``)."""
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
    # The interface vertices and their plate partners, from the face match.
    v, first = np.unique(iface, return_index=True)
    pv = face_pv.ravel()[first]
    body_to_unified[3 * v + 0] = plate_offset + 2 * pv + 0
    body_to_unified[3 * v + 1] = plate_offset + 2 * pv + 1
    body_to_unified[3 * v + 2] = plate_offset + 2 * plate.n_vertices + pv
    aliased = (3 * v[:, None] + np.arange(3)).ravel()

    # Body stiffness and loads: f_V = -(f, psi) holds each tet's volume load
    # in the DG layout; the plate load tests the jump with the actual plate
    # basis.
    grad, vol = simplex_geometry(body.vertices[body.tets])
    strain = _vector_p1_strains(grad)
    k_loc = np.einsum("n,niab,njab->nij", vol, c0_apply(strain, params), strain)
    gl = body_to_unified[cmap.ltg]
    f_V, f_W = assemble_loads(BodyDGDofMap(body), pmap, case,
                              lowered_jump=False)
    rhs = _scatter_vector(gl, -f_V.reshape(-1, 12), n_unified)

    # Traction (Neumann) term on the free boundary; boundary faces are
    # ordered so that the right-hand normal points outward.
    tri = body.boundary_faces[body.boundary_tags == FaceTag.FREE]
    coords = body.vertices[tri]
    nrm = np.cross(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0])
    area = 0.5 * np.linalg.norm(nrm, axis=1)
    nrm = nrm / (2.0 * area[:, None])
    frule = triangle_rule(FACE_DEGREE)
    pts = frule.points @ coords
    w = physical_weights(frule, area[:, None])
    g = case.traction(pts.reshape(-1, 3), np.repeat(nrm, frule.n_points, axis=0))
    loc = np.einsum("nq,qa,nqc->nac", w, frule.points, g.reshape(pts.shape))
    rhs += _scatter_vector(body_to_unified[3 * tri[:, :, None] + np.arange(3)],
                           loc, n_unified)
    rhs[plate_offset:] += f_W

    Kp = assemble_plate_stiffness(pmap, params)
    K = (_scatter(gl, gl, k_loc, (n_unified, n_unified))
         + sp.block_diag((sp.csr_matrix((nv_body3, nv_body3)), Kp))).tocsr()
    clamped = np.flatnonzero(pmap.constrained) + plate_offset
    idx = np.concatenate([aliased, clamped])
    vals = np.zeros(idx.shape[0])
    constraints = Constraints(n_unified, idx, vals)
    return DisplacementSystem(
        cmap=cmap, pmap=pmap, params=params,
        K=K, rhs=rhs, constraints=constraints,
        body_to_unified=body_to_unified, plate_offset=plate_offset,
    )
