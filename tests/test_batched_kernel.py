"""The batched element kernel against per-element reference loops.

Every assembled form, data term and error norm is recomputed here one element
at a time with the reference classes (``HuMaElement``, ``MorleyElement``,
``VectorP1Tet``, ``VectorP1Tri``), on meshes whose vertices are jittered so
that no two elements are congruent.  Jitter keeps the outer faces of the body
and Gamma fixed and moves plate vertices only strictly inside or strictly
outside closure(Gamma), off the clamped boundary, so the plate still resolves
Gamma.  The constant-stress patch test must still hold on these meshes.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyplate import assembly as asm
from bodyplate import fe_elements, hybrid
from bodyplate import verification_cli as vcli
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
    VectorP1Tet,
    VectorP1Tri,
    _morley_dof_matrices,
    _stress_dof_matrices,
    checked_inverses,
    span_dlam,
    span_scalars,
    tet_barycentric,
)
from bodyplate.geometry_mesh import (
    GAMMA_HALF_WIDTH,
    Diagonal,
    build_body_mesh,
    build_plate_mesh,
    validate_mesh,
)
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
from bodyplate.quadrature import physical_weights, tet_rule, triangle_rule

RTOL = 1e-12
JITTER = 0.2

SETTINGS = settings(max_examples=6, deadline=None)


def jittered_body(n, seed):
    """Body mesh with its strictly interior vertices moved by up to
    0.2 h (each coordinate by up to 0.2 / n)."""
    body = build_body_mesh(n)
    shift = np.random.default_rng(seed).uniform(-JITTER, JITTER,
                                                body.vertices.shape) / n
    shift[np.unique(body.boundary_faces)] = 0.0
    return replace(body, vertices=body.vertices + shift)


def jittered_plate(n, diagonal, seed):
    """Plate mesh with the vertices strictly inside or strictly outside
    closure(Gamma) and off the clamped boundary moved by up to 0.2 h."""
    plate = build_plate_mesh(n, diagonal)
    radius = np.max(np.abs(plate.vertices), axis=1)
    fixed = np.isclose(radius, GAMMA_HALF_WIDTH) | np.isclose(radius, 1.0)
    shift = np.random.default_rng(seed).uniform(-JITTER, JITTER,
                                                plate.vertices.shape) * 2.0 / n
    shift[fixed] = 0.0
    return replace(plate, vertices=plate.vertices + shift)


meshes = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.sampled_from([(4, Diagonal.SAME_AS_BODY), (8, Diagonal.FLIPPED),
                     (8, Diagonal.SAME_AS_BODY)]),
)


def build(example):
    """Validated jittered meshes for one (seed, body n, plate) example."""
    seed, n_body, (n_plate, diagonal) = example
    body = jittered_body(n_body, seed)
    plate = jittered_plate(n_plate, diagonal, seed + 1)
    assert validate_mesh(body) == []
    assert validate_mesh(plate) == []
    return body, plate


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
        t = face.owner_tet
        el = elements[t]
        rec = smap.faces[smap.face_index[tuple(sorted(face.vertex_ids))]]
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


def ref_loads(body, vmap, plate, pmap, case, lowered_jump):
    f_V = np.zeros(vmap.n_dofs)
    rule = tet_rule(4)
    for t in range(body.n_tets):
        verts = body.tet_vertices(t)
        w = physical_weights(rule, VectorP1Tet(verts).volume)
        fv = case.f_body(rule.points @ verts)
        np.add.at(f_V, vmap.ltg[t],
                  -np.einsum("q,qa,qc->ac", w, rule.points, fv).ravel())
    f_W = np.zeros(pmap.n_dofs)
    rule = triangle_rule(4)
    for t in range(plate.n_triangles):
        verts = plate.triangle_vertices(t)
        w = physical_weights(rule, VectorP1Tri(verts).area)
        pts = rule.points @ verts
        np.add.at(f_W, pmap.mem_ltg[t], np.einsum(
            "q,qa,qc->ac", w, rule.points, case.f_membrane(pts)).ravel())
        mo = MorleyElement(verts)
        np.add.at(f_W, pmap.mor_ltg[t], pmap.mor_sign[t] * np.einsum(
            "q,qi,q->i", w, mo.value(pts), case.f_bending(pts)))
    rule = triangle_rule(6)
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
        du = rule.points @ uc - case.u_body(pts)
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
        c3 = pmap.local_morley_coefficients(t, wv)
        diffs = [
            np.einsum("i,icd->cd", mc, mem.gradient())[None]
            - case.grad_u_membrane(pts),
            np.einsum("i,qic->qc", mc, mem.value(rule.points))
            - case.u_membrane(pts),
            np.einsum("i,icd->cd", c3, mo.hessian())[None] - case.hess_u3(pts),
            np.einsum("i,qic->qc", c3, mo.gradient(pts)) - case.grad_u3(pts),
            mo.value(pts) @ c3 - case.u3(pts),
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
    assert_close(asm.assemble_compliance(body, smap, params), A)
    assert_close(asm.assemble_stress_mass(body, smap), M)
    assert_close(asm.assemble_div_div(body, smap), DD)
    assert_close(asm.assemble_divergence(body, smap, vmap), B)
    assert_close(asm.assemble_body_mass(body, vmap), ref_body_mass(body, vmap))
    assert_close(asm.assemble_plate_stiffness(plate, pmap, params),
                 ref_plate_stiffness(plate, pmap, params))

    faces = extract_interface_triangulation(body)
    cells = intersect_triangulations(faces, plate)
    assert_close(
        asm.assemble_interface_coupling(body, smap, plate, pmap, faces, cells),
        ref_coupling(body, smap, plate, pmap, faces, cells, elements))

    for lowered in (True, False):
        got = asm.assemble_loads(body, vmap, plate, pmap, case,
                                 lowered_jump=lowered)
        for g, r in zip(got, ref_loads(body, vmap, plate, pmap, case, lowered)):
            assert_close(g, r)

    idx, vals = asm.impose_traction_bc(body, smap, case.traction)
    assert np.array_equal(idx, smap.essential_dofs)
    assert_close(vals, ref_traction(body, smap, case.traction, elements))
    assert_close(asm.project_to_Vh(body, vmap, case.u_body),
                 ref_projection(body, vmap, case.u_body))


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
        asm.assemble_compliance(flat_body, StressDofMap(body), default_params())


# ---------------------------------------------------------------------------
# The one rule for local inverses (``checked_inverses``).
# ---------------------------------------------------------------------------

def assert_limit_is_cond_1(matrices):
    """``checked_inverses`` accepts each matrix with CONDITION_LIMIT just
    above its np.linalg.cond(M, 1) and refuses it just below: the condition
    number it checks is that one to 1e-8 relative."""
    for M, c in zip(matrices, np.linalg.cond(matrices, 1)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fe_elements, "CONDITION_LIMIT", c * (1 + 1e-8))
            checked_inverses(1, lambda _: M[None], "matrix")
            mp.setattr(fe_elements, "CONDITION_LIMIT", c * (1 - 1e-8))
            with pytest.raises(ValueError,
                               match="matrix 0 is ill-conditioned"):
                checked_inverses(1, lambda _: M[None], "matrix")


def test_checked_condition_number_is_cond_1():
    body, plate = build((11, 2, (8, Diagonal.FLIPPED)))
    k = StressBatch(body.vertices[body.tets])
    assert_limit_is_cond_1(_stress_dof_matrices(k.tangents, k.face_normals))
    mo = MorleyBatch(plate.vertices[plate.triangles])
    assert_limit_is_cond_1(_morley_dof_matrices(mo.grad_lambda,
                                                mo.edge_normals))
    system = asm.build_mixed_system(body, plate, default_case())
    hb = hybrid.condense(system)[0]
    ess = hb.essential[:12]
    assert ess.any()  # blocks with eliminated free-face DOFs among them
    assert_limit_is_cond_1(hybrid._saddle_blocks(
        hb.blocks.A[:12], hb.blocks.B[:12], ess))


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
    whole = StressBatch(tets).coeffs, MorleyBatch(tris).coeffs
    monkeypatch.setattr(fe_elements, "LOCAL_CHUNK", 5)
    assert np.array_equal(StressBatch(tets).coeffs, whole[0])
    assert np.array_equal(MorleyBatch(tris).coeffs, whole[1])
