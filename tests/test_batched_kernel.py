"""The batched element kernel against per-element reference loops.

Every assembled form, data term and error norm is recomputed here one element
at a time with the reference classes (``HuMaElement``, ``MorleyElement`` and
this file's ``VectorP1Tet``, ``VectorP1Tri``), on meshes whose vertices are
jittered so that no two elements are congruent.  Jitter keeps the outer faces
of the body and Gamma fixed and moves plate vertices only strictly inside or
strictly outside closure(Gamma), off the clamped boundary, so the plate still
resolves Gamma.  The constant-stress patch test must still hold on these meshes.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyplate import assembly as asm
from bodyplate import fe_elements, hybrid
from bodyplate import verification_cli as vcli
from bodyplate.domain_decomposition import solve_dd
from bodyplate.fe_elements import (
    EDGE_PAIRS,
    BodyCGDofMap,
    BodyDGDofMap,
    HuMaElement,
    MorleyBatch,
    MorleyElement,
    PlateDofMap,
    StressBatch,
    StressDofMap,
    _morley_dof_matrices,
    checked_inverses,
    face_normals,
    simplex_geometry,
    span_dlam,
    span_scalars,
    stress_dual_coefficients,
    stress_span_coefficients,
    tet_barycentric,
)
from bodyplate.geometry_mesh import Diagonal, build_body_mesh, build_plate_mesh
from bodyplate.interface_overlay import (
    extract_interface_triangulation,
    intersect_triangulations,
    triangle_barycentric,
)
from bodyplate.manufactured import constant_stress_case, default_case
from bodyplate.materials import (
    c0_apply,
    c0_inv_apply,
    c1_apply,
    c2_apply,
    default_params,
)
from bodyplate.quadrature import (
    NORM_DEGREE,
    physical_weights,
    tet_rule,
    triangle_rule,
)
from bodyplate.solvers import RESIDUAL_CONTRACT
from mesh_families import SETTINGS, build, meshes

RTOL = 1e-12


# ---------------------------------------------------------------------------
# Vector P1 elements: the per-element reference of the P1 terms.
# ---------------------------------------------------------------------------

class VectorP1Tri:
    """Vector-valued P1 on a physical triangle; local DOF (a, c) -> basis
    hat_a e_c at local index 2a + c."""

    n_dofs = 6

    def __init__(self, verts: np.ndarray):
        self.verts = np.asarray(verts, dtype=float)
        grad, area = simplex_geometry(self.verts[None])
        self.grad_lambda, self.area = grad[0], float(area[0])

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
        grad, volume = simplex_geometry(self.verts[None])
        self.grad_lambda, self.volume = grad[0], float(volume[0])

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


def assert_close(got, ref):
    """Agreement to RTOL relative to the largest reference entry."""
    if sp.issparse(got):
        got, ref = got.toarray(), ref.toarray()
    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() <= RTOL * scale


def coo(blocks, shape):
    """Sparse matrix from (rows, cols, block) triples."""
    rows, cols, vals = [], [], []
    for r, c, b in blocks:
        rr, cc = np.meshgrid(r, c, indexing="ij")
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        vals.append(np.asarray(b).ravel())
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=shape).tocsr()


# ---------------------------------------------------------------------------
# Per-element references.
# ---------------------------------------------------------------------------

def ref_stress_forms(body, smap, params, elements):
    rule = tet_rule(4)
    A, M, DD, B = [], [], [], []
    vmap = BodyDGDofMap(body)
    for t, el in enumerate(elements):
        w = physical_weights(rule, el.volume)
        vals = el.values(rule.points)
        div = el.divergence(rule.points)
        s = smap.sign[t]
        ss = np.outer(s, s)
        ltg = smap.ltg[t]
        A.append((ltg, ltg, ss * np.einsum(
            "q,qiab,qjab->ij", w, c0_inv_apply(vals, params), vals)))
        M.append((ltg, ltg, ss * np.einsum("q,qiab,qjab->ij", w, vals, vals)))
        DD.append((ltg, ltg, ss * np.einsum("q,qia,qja->ij", w, div, div)))
        loc = np.einsum("q,qa,qic->aci", w, rule.points, div).reshape(12, 42)
        B.append((vmap.ltg[t], ltg, loc * s[None, :]))
    n = (smap.n_dofs, smap.n_dofs)
    return (coo(A, n), coo(M, n), coo(DD, n),
            coo(B, (vmap.n_dofs, smap.n_dofs)))


def ref_body_mass(body, vmap):
    rule = tet_rule(4)
    blocks = []
    for t in range(body.n_tets):
        el = VectorP1Tet(body.tet_vertices(t))
        w = physical_weights(rule, el.volume)
        vals = el.value(rule.points)
        blocks.append((vmap.ltg[t], vmap.ltg[t],
                       np.einsum("q,qia,qja->ij", w, vals, vals)))
    return coo(blocks, (vmap.n_dofs, vmap.n_dofs))


def ref_plate_stiffness(plate, pmap, params):
    blocks = []
    for t in range(plate.n_triangles):
        verts = plate.triangle_vertices(t)
        mem = VectorP1Tri(verts)
        strain = mem.strain()
        blocks.append((pmap.mem_ltg[t], pmap.mem_ltg[t], mem.area * np.einsum(
            "iab,jab->ij", c1_apply(strain, params), strain)))
        hess = MorleyElement(verts).hessian()
        s = pmap.mor_sign[t]
        blocks.append((pmap.mor_ltg[t], pmap.mor_ltg[t], np.outer(s, s)
                       * mem.area * np.einsum("iab,jab->ij",
                                              c2_apply(hess, params), hess)))
    return coo(blocks, (pmap.n_dofs, pmap.n_dofs))


def ref_coupling(body, smap, plate, pmap, faces, cells, elements):
    blocks = []
    for cell in cells:
        face = faces[cell.face_id]
        rec = smap.faces[smap.face_index[tuple(sorted(face.vertex_ids))]]
        t = rec.owner
        el = elements[t]
        pts3 = np.column_stack([cell.points, np.zeros(cell.points.shape[0])])
        bary = tet_barycentric(el.verts, pts3)
        tr = np.einsum("qiab,b->qia", el.values(bary),
                       el.face_normals[rec.owner_local])
        tr = tr * smap.sign[t][None, :, None]
        hat = triangle_barycentric(plate.triangle_vertices(cell.tri_id),
                                   cell.points)
        w = cell.weights
        blocks.append((pmap.mem_ltg[cell.tri_id], smap.ltg[t], np.einsum(
            "q,qa,qic->aci", w, hat, tr[:, :, :2]).reshape(6, 42)))
        blocks.append((pmap.mor_ltg[cell.tri_id][:3], smap.ltg[t],
                       np.einsum("q,qa,qi->ai", w, hat, tr[:, :, 2])))
    return coo(blocks, (pmap.n_dofs, smap.n_dofs))


def ref_loads(body, vmap, plate, pmap, case, lowered_jump, degrees=(4, 6)):
    """The mixed loads, element by element, with the (volume, face) rule
    degrees ``degrees``; the library's are (4, 6)."""
    volume, face = degrees
    f_V = np.zeros(vmap.n_dofs)
    rule = tet_rule(volume)
    for t in range(body.n_tets):
        verts = body.tet_vertices(t)
        w = physical_weights(rule, VectorP1Tet(verts).volume)
        fv = case.f_body(rule.points @ verts)
        np.add.at(f_V, vmap.ltg[t],
                  -np.einsum("q,qa,qc->ac", w, rule.points, fv).ravel())
    f_W = np.zeros(pmap.n_dofs)
    rule = triangle_rule(volume)
    for t in range(plate.n_triangles):
        verts = plate.triangle_vertices(t)
        w = physical_weights(rule, VectorP1Tri(verts).area)
        pts = rule.points @ verts
        np.add.at(f_W, pmap.mem_ltg[t], np.einsum(
            "q,qa,qc->ac", w, rule.points, case.f_membrane(pts)).ravel())
        mo = MorleyElement(verts)
        np.add.at(f_W, pmap.mor_ltg[t], pmap.mor_sign[t] * np.einsum(
            "q,qi,q->i", w, mo.value(pts), case.f_bending(pts)))
    rule = triangle_rule(face)
    for t in plate.interface_region_triangles:
        verts = plate.triangle_vertices(t)
        w = physical_weights(rule, VectorP1Tri(verts).area)
        pts = rule.points @ verts
        fj = case.f_jump(pts)
        np.add.at(f_W, pmap.mem_ltg[t], np.einsum(
            "q,qa,qc->ac", w, rule.points, fj[:, :2]).ravel())
        if lowered_jump:
            np.add.at(f_W, pmap.mor_ltg[t][:3],
                      np.einsum("q,qa,q->a", w, rule.points, fj[:, 2]))
        else:
            mo = MorleyElement(verts)
            np.add.at(f_W, pmap.mor_ltg[t], pmap.mor_sign[t] * np.einsum(
                "q,qi,q->i", w, mo.value(pts), fj[:, 2]))
    return f_V, f_W


def ref_traction(body, smap, traction_fn, elements):
    rule = triangle_rule(6)
    values = []
    for fid in smap.free_face_ids:
        rec = smap.faces[fid]
        pts = rule.points @ body.vertices[list(rec.vertices)]
        nrm = elements[rec.owner].face_normals[rec.owner_local]
        g = traction_fn(pts, np.broadcast_to(nrm, pts.shape))
        values.append(2.0 * np.einsum("q,qp,qc->pc", rule.weights,
                                      rule.points, g).ravel())
    return np.concatenate(values)


def ref_projection(body, vmap, func):
    rule = tet_rule(4)
    out = np.zeros(vmap.n_dofs)
    for t in range(body.n_tets):
        verts = body.tet_vertices(t)
        el = VectorP1Tet(verts)
        w = physical_weights(rule, el.volume)
        vals = el.value(rule.points)
        mass = np.einsum("q,qia,qja->ij", w, vals, vals)
        rhs = np.einsum("q,qia,qa->i", w, vals, func(rule.points @ verts))
        out[vmap.ltg[t]] = np.linalg.solve(mass, rhs)
    return out


def ref_error_norms(sol, case, elements=None):
    rule = tet_rule(8)
    body = sol.body
    e_sig = e_u = 0.0
    for t in range(body.n_tets):
        verts = body.tet_vertices(t)
        pts = rule.points @ verts
        if sol.method == "mixed-nc":
            el = elements[t]
            coeffs = sol.smap.local_coefficients(t, sol.sigma)
            sig_h = np.einsum("i,qiab->qab", coeffs, el.values(rule.points))
            uc = sol.u[sol.vmap.ltg[t]].reshape(4, 3)
            vol = el.volume
        else:
            el = VectorP1Tet(verts)
            uc = sol.u[sol.cmap.ltg[t]].reshape(4, 3)
            grad = uc.T @ el.grad_lambda
            sig_h = c0_apply(0.5 * (grad + grad.T), sol.params)[None]
            vol = el.volume
        w = physical_weights(rule, vol)
        d = sig_h - case.sigma_body(pts)
        e_sig += np.einsum("q,qab,qab->", w, d, d)
        du = rule.points @ uc - case.u_grad_body(pts)[0]
        e_u += np.einsum("q,qc,qc->", w, du, du)
    plate, pmap, wv = sol.plate, sol.pmap, sol.w
    rule = triangle_rule(8)
    e = np.zeros(5)
    for t in range(plate.n_triangles):
        verts = plate.triangle_vertices(t)
        mem = VectorP1Tri(verts)
        mo = MorleyElement(verts)
        w = physical_weights(rule, mem.area)
        pts = rule.points @ verts
        mc = wv[pmap.mem_ltg[t]]
        c3 = pmap.mor_sign[t] * wv[pmap.mor_ltg[t]]
        u_mem, grad_mem, u3, grad3 = case.plate_fields(pts)
        diffs = [
            np.einsum("i,icd->cd", mc, mem.gradient())[None] - grad_mem,
            np.einsum("i,qic->qc", mc, mem.value(rule.points)) - u_mem,
            np.einsum("i,icd->cd", c3, mo.hessian())[None] - case.hess_u3(pts),
            np.einsum("i,qic->qc", c3, mo.gradient(pts)) - grad3,
            mo.value(pts) @ c3 - u3,
        ]
        for k, d in enumerate(diffs):
            d = d.reshape(rule.n_points, -1)
            e[k] += np.einsum("q,qk,qk->", w, d, d)
    return np.sqrt(np.concatenate([[e_sig, e_u], e]))


# ---------------------------------------------------------------------------
# Tests.
# ---------------------------------------------------------------------------

@SETTINGS
@given(meshes)
def test_batched_forms_equal_reference(example):
    body, plate = build(example)
    params = default_params()
    case = default_case()
    smap, vmap, pmap = StressDofMap(body), BodyDGDofMap(body), PlateDofMap(plate)
    elements = [HuMaElement(body.tet_vertices(t)) for t in range(body.n_tets)]

    A, M, DD, B = ref_stress_forms(body, smap, params, elements)
    assert_close(asm.assemble_compliance(smap, params), A)
    assert_close(asm.assemble_stress_mass(body, smap), M)
    assert_close(asm.assemble_div_div(body, smap), DD)
    assert_close(asm.assemble_divergence(body, smap, vmap), B)
    assert_close(asm.assemble_body_mass(body, vmap), ref_body_mass(body, vmap))
    assert_close(asm.assemble_plate_stiffness(pmap, params),
                 ref_plate_stiffness(plate, pmap, params))

    faces = extract_interface_triangulation(body)
    cells = intersect_triangulations(faces, plate)
    assert_close(
        asm.assemble_interface_coupling(body, smap, plate, pmap, faces, cells),
        ref_coupling(body, smap, plate, pmap, faces, cells, elements))

    for lowered in (True, False):
        got = asm.assemble_loads(vmap, pmap, case, lowered_jump=lowered)
        for g, r in zip(got, ref_loads(body, vmap, plate, pmap, case, lowered)):
            assert_close(g, r)

    idx, vals = asm.impose_traction_bc(smap, case.traction)
    assert np.array_equal(idx, smap.essential_dofs)
    assert_close(vals, ref_traction(body, smap, case.traction, elements))

    def u_exact(x):
        return case.u_grad_body(x)[0]

    assert_close(asm.project_to_Vh(body, vmap, u_exact),
                 ref_projection(body, vmap, u_exact))


@SETTINGS
@given(meshes)
def test_batched_error_norms_equal_reference(example):
    body, plate = build(example)
    case = default_case()
    rng = np.random.default_rng(example[0])
    smap, vmap, pmap = StressDofMap(body), BodyDGDofMap(body), PlateDofMap(plate)
    w = rng.standard_normal(pmap.n_dofs)
    mixed = vcli.SolutionFields(
        method="mixed-nc", body=body, plate=plate, params=case.params,
        u=rng.standard_normal(vmap.n_dofs), w=w, pmap=pmap,
        sigma=rng.standard_normal(smap.n_dofs), smap=smap, vmap=vmap)
    elements = [HuMaElement(body.tet_vertices(t)) for t in range(body.n_tets)]
    got = vcli.compute_error_norms(mixed, case).as_tuple()
    assert_allclose(got, ref_error_norms(mixed, case, elements), rtol=RTOL)

    cmap = BodyCGDofMap(body)
    disp = vcli.SolutionFields(
        method="displacement", body=body, plate=plate, params=case.params,
        u=rng.standard_normal(cmap.n_dofs), w=w, pmap=pmap, cmap=cmap)
    got = vcli.compute_error_norms(disp, case).as_tuple()
    assert_allclose(got, ref_error_norms(disp, case), rtol=RTOL)


@SETTINGS
@given(meshes)
def test_constant_stress_patch_on_jittered_meshes(example):
    body, plate = build(example)
    case = constant_stress_case()
    sol, _ = vcli.solve_mixed(body, plate, case)
    assert vcli.compute_error_norms(sol, case).sigma <= 1e-8


def test_span_tables_equal_edge_loop():
    # The spanning scalars written out edge by edge, and their barycentric
    # derivatives by central differences (exact for these quadratics).
    bary = np.random.default_rng(3).dirichlet(np.ones(4), size=(5, 7))
    ref = np.empty(bary.shape[:-1] + (42,))
    for e, (i, j) in enumerate(EDGE_PAIRS):
        l, m = sorted(set(range(4)) - {i, j})
        ref[..., 7 * e: 7 * e + 4] = bary
        ref[..., 7 * e + 4] = (bary[..., i] - bary[..., j]) * bary[..., l]
        ref[..., 7 * e + 5] = (bary[..., i] - bary[..., j]) * bary[..., m]
        ref[..., 7 * e + 6] = bary[..., i] * bary[..., j]
    assert np.array_equal(span_scalars(bary), ref)
    step = 1e-3 * np.eye(4)
    fd = np.stack([(span_scalars(bary + step[b]) - span_scalars(bary - step[b]))
                   / 2e-3 for b in range(4)], axis=-1)
    assert np.abs(span_dlam(bary) - fd).max() < 1e-10


def test_nearly_flat_tets_are_refused_like_the_reference():
    body = build_body_mesh(1)
    flat = body.vertices.copy()
    flat[:, 2] *= 1e-12
    flat_body = replace(body, vertices=flat)
    with pytest.raises(ValueError, match="ill-conditioned"):
        HuMaElement(flat_body.tet_vertices(0))
    with pytest.raises(ValueError, match="ill-conditioned"):
        asm.assemble_compliance(StressDofMap(flat_body), default_params())


# ---------------------------------------------------------------------------
# The one rule for local inverses (``checked_inverses``).
# ---------------------------------------------------------------------------

def assert_limit_is_cond_1(matrices, invert=None, what="matrix"):
    """``invert(i)``, by default ``checked_inverses`` of matrix i, accepts
    each matrix with CONDITION_LIMIT just above its np.linalg.cond(M, 1)
    and refuses it just below, as element 0 of ``what``: the condition
    number it checks is that one to 1e-8 relative."""
    if invert is None:
        def invert(i):
            checked_inverses(1, lambda _: matrices[i][None], "matrix")
    for i, c in enumerate(np.linalg.cond(matrices, 1)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fe_elements, "CONDITION_LIMIT", c * (1 + 1e-8))
            invert(i)
            mp.setattr(fe_elements, "CONDITION_LIMIT", c * (1 - 1e-8))
            with pytest.raises(ValueError,
                               match=f"{what} 0 is ill-conditioned"):
                invert(i)


def saddle_blocks(A, B, ess):
    """Local saddle blocks [[A, B^T], [B, 0]] (n, 54, 54) with the essential
    stress DOFs ``ess`` (n, 42) eliminated symmetrically: their row and
    column zeroed, the diagonal kept at its compliance value.  The library
    inverts these blocks by elimination and never builds them."""
    M = np.zeros((len(ess), 54, 54))
    M[:, :42, :42] = A
    M[:, 42:, :42] = B
    M[:, :42, 42:] = np.swapaxes(B, 1, 2)
    keep = np.concatenate([~ess, np.ones((len(ess), 12), dtype=bool)],
                          axis=1)
    M *= keep[:, :, None] & keep[:, None, :]
    t, i = np.nonzero(ess)
    M[t, i, i] = A[t, i, i]
    return M


def oracle_solve(M, b):
    """Solution of the symmetric indefinite system M x = b: the monolithic
    saddle-point oracle, which the library's SPD-only factor refuses.
    SuperLU on a COLAMD ordering with diagonal-pivot threshold 0.001, in
    symmetric mode, then up to two passes of iterative refinement towards a
    relative residual of 1e-15, keeping the best iterate; the final residual
    must meet the library's contract.  Without the refinement the oracle
    differs from the hybrid solves by up to 5e-9 on the test meshes."""
    b = np.asarray(b, dtype=float)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.zeros_like(b)
    M = M.tocsc()
    lu = spla.splu(M, permc_spec="COLAMD", diag_pivot_thresh=0.001,
                   options=dict(SymmetricMode=True))
    x = lu.solve(b)
    r = b - M @ x
    rel = np.linalg.norm(r) / nb
    for _ in range(2):
        if rel <= 1e-15:
            break
        x_new = x + lu.solve(r)
        r_new = b - M @ x_new
        rel_new = np.linalg.norm(r_new) / nb
        if rel_new >= rel:
            break
        x, r, rel = x_new, r_new, rel_new
    if rel > RESIDUAL_CONTRACT:
        raise RuntimeError(f"oracle residual {rel:.3e} exceeds "
                           f"{RESIDUAL_CONTRACT:.1e}")
    return x


def _stress_dof_matrices(tangents, normals):
    """(n, 42, 42) stress DOF functionals applied to the spanning functions,
    M_T = L_T M_ref: the reference tables times t_e (t_e . n_f) on face rows
    and t_e t_e^T on interior rows."""
    return fe_elements._block_rows(
        *fe_elements._stress_dof_blocks(tangents, normals),
        fe_elements._STRESS_DOF_REF)


def outward_normals(tets):
    """The outward unit face normals (n, 4, 3) of a batch of tets."""
    return face_normals(simplex_geometry(tets)[0])


def dual_coefficients(k):
    """The dual-basis coefficients M_T^-T (n, 42, 42) of a ``StressBatch``."""
    return stress_dual_coefficients(k.face_inv, k.interior_inv)


def test_checked_condition_number_is_cond_1():
    body, plate = build((11, 2, (8, Diagonal.FLIPPED)))
    tets = body.vertices[body.tets]
    k = StressBatch(tets)
    assert_limit_is_cond_1(_stress_dof_matrices(k.tangents,
                                                outward_normals(tets)),
                           lambda i: StressBatch(tets[i:i + 1]),
                           "stress DOF matrix of tet")
    mo = MorleyBatch(plate.vertices[plate.triangles])
    assert_limit_is_cond_1(_morley_dof_matrices(mo.grad_lambda,
                                                mo.edge_normals))
    system = asm.build_mixed_system(body, plate, default_case())
    hb = hybrid.condense(system)[0]
    ess = hb.essential[:12]
    assert ess.any()  # blocks with eliminated free-face DOFs among them
    A = asm.compliance_blocks(hb.smap.stress, hb.params, slice(12))
    B = asm.divergence_blocks(hb.smap.stress, slice(12))
    assert_limit_is_cond_1(
        saddle_blocks(A, B, ess),
        lambda i: hybrid._local_saddle_factors(
            (A[i:i + 1], B[i:i + 1]), ess[i:i + 1], 0),
        "local saddle block of tet")


def test_degenerate_tet_in_a_later_chunk_is_named(monkeypatch):
    # Six tets in chunks of four: tet 5 is the second chunk's tet 1.
    monkeypatch.setattr(fe_elements, "LOCAL_CHUNK", 4)
    body = build_body_mesh(1)
    verts = body.vertices[body.tets]
    verts[5, :, 2] *= 1e-12
    with pytest.raises(ValueError, match="stress DOF matrix of tet 5 is "
                       "ill-conditioned"):
        StressBatch(verts)


def test_chunked_coefficients_equal_one_batch(monkeypatch):
    body, plate = build((12, 2, (4, Diagonal.SAME_AS_BODY)))
    tets = body.vertices[body.tets]
    tris = plate.vertices[plate.triangles]
    k = StressBatch(tets)
    whole = dual_coefficients(k), MorleyBatch(tris).coeffs
    monkeypatch.setattr(fe_elements, "LOCAL_CHUNK", 5)
    chunked = StressBatch(tets)
    assert np.array_equal(dual_coefficients(chunked), whole[0])
    for name, ref in vars(k).items():
        assert np.array_equal(getattr(chunked, name), ref), name
    assert np.array_equal(MorleyBatch(tris).coeffs, whole[1])


def test_morley_fields_equal_per_slice():
    # 128 triangles in slices of 7: the last slice is ragged.
    _, plate = build((12, 2, (8, Diagonal.FLIPPED)))
    tris = plate.vertices[plate.triangles]
    bary = triangle_rule(NORM_DEGREE).points
    dofs = np.random.default_rng(3).standard_normal((len(tris), 6))
    mo = MorleyBatch(tris)
    whole = mo.values(bary), mo.hessians()
    value, grad, hess = mo.fields(dofs, bary)
    assert_allclose(value, (whole[0] @ dofs[:, :, None])[..., 0],
                    rtol=1e-13, atol=1e-13 * np.abs(value).max())
    assert_allclose(hess, np.einsum("ni,nixy->nxy", dofs, whole[1]),
                    rtol=1e-13, atol=1e-13 * np.abs(hess).max())
    assert len(tris) % 7
    for lo in range(0, len(tris), 7):
        part = MorleyBatch(tris[lo:lo + 7])
        assert np.array_equal(part.values(bary), whole[0][lo:lo + 7])
        assert np.array_equal(part.hessians(), whole[1][lo:lo + 7])
        # The value and gradient are one product for the whole batch.
        for f, ref in zip(part.fields(dofs[lo:lo + 7], bary),
                          (value, grad, hess)):
            assert_allclose(f, ref[lo:lo + 7], rtol=1e-13,
                            atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("solve", [vcli.solve_mixed, vcli.solve_displacement])
def test_norm_batches_move_the_norms_by_roundoff(monkeypatch, solve):
    # 48 tets in batches of 5, the last one ragged.
    case = default_case()
    sol, _ = solve(build_body_mesh(2), build_plate_mesh(4), case)
    whole = vcli.compute_error_norms(sol, case).as_tuple()
    monkeypatch.setattr(fe_elements, "LOCAL_CHUNK", 5)
    assert sol.body.n_tets % 5
    assert_allclose(vcli.compute_error_norms(sol, case).as_tuple(), whole,
                    rtol=1e-13, atol=0)


def assert_span_coefficients_are_coeffs(tets):
    """``stress_span_coefficients`` through the kept blocks of L_T^-1 is
    x times the dense coefficients M_T^-T, tet by tet, to 1e-14 of the
    tet's largest coefficient."""
    k = StressBatch(tets)
    x = np.random.default_rng(len(tets)).standard_normal((len(tets), 42))
    ref = (x[:, None] @ dual_coefficients(k))[:, 0]
    got = stress_span_coefficients(x, k.face_inv, k.interior_inv)
    err = np.abs(got - ref).max(axis=1)
    assert np.all(err <= 1e-14 * np.abs(ref).max(axis=1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_span_coefficients_are_coeffs_on_kuhn_meshes(n):
    body = build_body_mesh(n)
    assert_span_coefficients_are_coeffs(body.vertices[body.tets])


@SETTINGS
@given(meshes)
def test_span_coefficients_are_coeffs_on_jittered_meshes(example):
    body, _ = build(example)
    assert_span_coefficients_are_coeffs(body.vertices[body.tets])


def test_span_coefficients_do_not_depend_on_chunks(monkeypatch):
    body, _ = build((13, 3, (8, Diagonal.FLIPPED)))
    tets = body.vertices[body.tets]
    x = np.random.default_rng(4).standard_normal((len(tets), 42))
    k = StressBatch(tets)
    whole = stress_span_coefficients(x, k.face_inv, k.interior_inv)
    monkeypatch.setattr(fe_elements, "LOCAL_CHUNK", 5)
    assert len(tets) % 5
    k = StressBatch(tets)
    assert np.array_equal(
        stress_span_coefficients(x, k.face_inv, k.interior_inv), whole)


@pytest.mark.parametrize("solved", [
    lambda case: vcli.solve_mixed(
        build_body_mesh(2), build_plate_mesh(8, Diagonal.FLIPPED), case)[0],
    lambda case: vcli.solve_mixed(
        *build((14, 3, (8, Diagonal.SAME_AS_BODY))), case)[0],
    lambda case: solve_dd(
        build_body_mesh(2), build_plate_mesh(8, Diagonal.FLIPPED), case)])
def test_carried_blocks_give_the_hand_built_norms(solved, monkeypatch):
    # The norms of a solve_mixed or solve_dd solution use the blocks of
    # L_T^-1 that the solve checked, which its stress map holds.  A
    # SolutionFields made by hand from the solve's fields, with fresh maps
    # as the benchmark's verify makes it, builds them on its first norms,
    # bit for bit the same, and keeps them for the next.
    case = default_case()
    sol = solved(case)
    assert "stress" in vars(sol.smap)
    carried = vcli.compute_error_norms(sol, case).as_tuple()
    body, plate = sol.body, sol.plate
    hand = vcli.SolutionFields(
        method="mixed-nc", body=body, plate=plate, params=case.params,
        u=sol.u, w=sol.w, pmap=PlateDofMap(plate), sigma=sol.sigma,
        smap=StressDofMap(body), vmap=BodyDGDofMap(body))
    assert vcli.compute_error_norms(hand, case).as_tuple() == carried

    def refused(*args, **kwargs):
        raise AssertionError("the norms built a StressBatch")

    monkeypatch.setattr(fe_elements, "StressBatch", refused)
    assert vcli.compute_error_norms(hand, case).as_tuple() == carried


# ---------------------------------------------------------------------------
# The stress DOF matrix by its structure: M_T = L_T M_ref.
# ---------------------------------------------------------------------------

#: A regular tet with unit edges.
REGULAR_TET = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
                       ) / np.sqrt(8.0)

#: Single tets: the regular tet with each coordinate moved by up to 0.15,
#: positively oriented.
drawn_tets = st.lists(st.floats(-0.15, 0.15), min_size=12, max_size=12).map(
    lambda d: REGULAR_TET + np.reshape(d, (4, 3)))


def unscaled_by_blocks(D, face, interior):
    """L^-1 D for the block-diagonal L of ``_stress_dof_blocks``, solved
    block by block."""
    out = np.empty_like(D)
    for f in range(4):
        for a in range(3):
            rows = slice(9 * f + 3 * a, 9 * f + 3 * a + 3)
            out[rows] = np.linalg.solve(face[f], D[rows])
    out[36:] = np.linalg.solve(interior, D[36:])
    return out


def assert_structure_holds(tets):
    """On each tet the dense DOF matrix of ``HuMaElement``, reduced by the
    blocks of L_T, is M_ref; the coefficients formed from the kept blocks
    of ``StressBatch`` are its inverses and those of
    ``_stress_dof_matrices``, transposed."""
    k = StressBatch(tets)
    normals = outward_normals(tets)
    face, interior = fe_elements._stress_dof_blocks(k.tangents, normals)
    ref = fe_elements._STRESS_DOF_REF
    dense = np.linalg.inv(_stress_dof_matrices(k.tangents, normals))
    coeffs = dual_coefficients(k)
    for t, verts in enumerate(tets):
        el = HuMaElement(verts)
        got = unscaled_by_blocks(el._dof_matrix(), face[t], interior[t])
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        scale = np.abs(el.coeffs).max()
        assert np.abs(coeffs[t] - el.coeffs).max() <= RTOL * scale
        assert np.abs(coeffs[t] - dense[t].T).max() <= RTOL * scale


@SETTINGS
@given(meshes)
def test_stress_dof_structure_on_jittered_meshes(example):
    body, _ = build(example)
    assert_structure_holds(body.vertices[body.tets])


@settings(max_examples=30, deadline=None)
@given(drawn_tets)
def test_stress_dof_structure_on_drawn_tets(verts):
    if np.linalg.det(verts[1:] - verts[0]) < 0:
        verts = verts[[0, 1, 3, 2]]
    assert_structure_holds(verts[None])


@pytest.mark.parametrize("first", [0, 10])
def test_singular_face_block_is_refused_by_name(first):
    # A zero normal makes face 2's block of tet 3 exactly singular: its
    # inverse is NaN and its condition number reads as inf.
    body = build_body_mesh(1)
    tets = body.vertices[body.tets]
    k = StressBatch(tets)
    normals = outward_normals(tets)
    normals[3, 2] = 0.0
    with pytest.raises(ValueError, match=(
            f"stress DOF matrix of tet {first + 3} is ill-conditioned "
            r"\(cond_1 = inf")):
        fe_elements._stress_dof_inverses(k.tangents, normals, first)


def test_singular_block_does_not_hide_an_earlier_refusal():
    # Tet 1 is nearly flat (finite cond_1 above the limit) and tet 3 has a
    # singular block: the first refused tet is named.
    body = build_body_mesh(1)
    tets = body.vertices[body.tets]
    tets[1, :, 2] *= 1e-12
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fe_elements, "CONDITION_LIMIT", np.inf)
        k = StressBatch(tets)
    normals = outward_normals(tets)
    normals[3, 2] = 0.0
    with pytest.raises(ValueError, match=(
            r"stress DOF matrix of tet 1 is ill-conditioned \(cond_1 = "
            r"\d")):
        fe_elements._stress_dof_inverses(k.tangents, normals, 0)
