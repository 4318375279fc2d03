"""Element-level checks: stress element duality, Morley quadratic
reproduction, divergence compatibility, traction-moment continuity of the
global stress space, and DOF map conventions.

The stress element has 42 degrees of freedom per tetrahedron: nine traction
moments per face (the moments of tau.n against the vectorised P1 basis
lambda_a e_c, normalised by the face area) and six interior component means.
A correct implementation makes the basis exactly dual to those functionals,
reproduces every matrix-valued field whose entries are linear polynomials,
and keeps its divergence inside vector P1.
"""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bodyplate.fe_elements import (
    BodyCGDofMap,
    BodyDGDofMap,
    HuMaElement,
    MorleyElement,
    PlateDofMap,
    StressDofMap,
    tet_barycentric,
)
from bodyplate.geometry_mesh import (
    TET_LOCAL_FACES,
    build_body_mesh,
    build_plate_mesh,
)
from bodyplate.quadrature import tet_rule, triangle_rule
from test_batched_kernel import VectorP1Tet, VectorP1Tri

REFERENCE_TET = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)

SKEWED_TET = np.array(
    [[0.1, -0.2, 0.05], [1.3, 0.1, -0.1], [0.2, 1.1, 0.3], [-0.1, 0.4, 1.2]]
)


def stress_dof_functionals(el, sigma_at):
    """Apply the element's 42 DOF functionals to a stress field.

    ``sigma_at(x)`` maps (n, 3) physical points to (n, 3, 3) symmetric
    matrices.  Face moments use a degree-8 face rule (independent of the
    element's internal construction); interior means a degree-8 tet rule.
    """
    out = np.zeros(42)
    face_rule = triangle_rule(8)
    for f in range(4):
        fverts = el.verts[TET_LOCAL_FACES[f]]
        pts = face_rule.points @ fverts
        sig = sigma_at(pts)
        tr = sig @ el.face_normals[f]
        # (1/|F|) int_F (tau n) . (lam_a e_c) = 2 sum_q w_q lam_a(q) tr_c(q)
        mom = 2.0 * np.einsum("q,qa,qc->ac", face_rule.weights, face_rule.points, tr)
        out[9 * f: 9 * f + 9] = mom.reshape(9)
    tet = tet_rule(8)
    pts = tet.points @ el.verts
    sig = sigma_at(pts)
    pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    for m, (i, j) in enumerate(pairs):
        out[36 + m] = 6.0 * float(np.sum(tet.weights * sig[:, i, j]))
    return out


class TestStressElement:
    @pytest.mark.parametrize("verts", [REFERENCE_TET, SKEWED_TET])
    def test_dimension(self, verts):
        el = HuMaElement(verts)
        assert el.n_dofs == 42
        bary = tet_rule(2).points
        assert el.values(bary).shape == (bary.shape[0], 42, 3, 3)

    @pytest.mark.parametrize("verts", [REFERENCE_TET, SKEWED_TET])
    def test_duality(self, verts):
        # DOF functional j applied to basis function i must give delta_ij.
        el = HuMaElement(verts)
        gram = np.zeros((42, 42))
        for i in range(42):

            def basis_i(pts, i=i):
                return np.einsum(
                    "qab->qab", el.values(tet_barycentric(el.verts, pts))[:, i]
                )

            gram[:, i] = stress_dof_functionals(el, basis_i)
        assert np.max(np.abs(gram - np.eye(42))) <= 1e-9

    @pytest.mark.parametrize("verts", [REFERENCE_TET, SKEWED_TET])
    def test_values_symmetric(self, verts):
        el = HuMaElement(verts)
        vals = el.values(tet_rule(4).points)
        assert_allclose(vals, np.swapaxes(vals, -1, -2), atol=1e-12)

    @pytest.mark.parametrize("verts", [REFERENCE_TET, SKEWED_TET])
    def test_linear_matrix_field_reproduction(self, verts):
        # sigma(x) = A + x1 B1 + x2 B2 + x3 B3 with symmetric coefficients
        # lies in the local space; interpolating its DOFs must reproduce it.
        el = HuMaElement(verts)
        rng = np.random.default_rng(42)
        mats = rng.standard_normal((4, 3, 3))
        mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))

        def sigma_at(pts):
            return mats[0] + np.einsum("qk,kab->qab", pts, mats[1:])

        dofs = stress_dof_functionals(el, sigma_at)
        check = rng.uniform(0.05, 0.3, size=(7, 4))
        check /= check.sum(axis=1, keepdims=True)
        pts = check @ el.verts
        recon = np.einsum("i,qiab->qab", dofs, el.values(check))
        assert_allclose(recon, sigma_at(pts), atol=1e-10)

    @pytest.mark.parametrize("verts", [REFERENCE_TET, SKEWED_TET])
    def test_divergence_is_vector_p1(self, verts):
        # div tau is affine for every basis function: values at arbitrary
        # barycentric points must equal the barycentric interpolation of the
        # vertex values.
        el = HuMaElement(verts)
        corners = np.eye(4)
        div_corners = el.divergence(corners)  # (4, 42, 3)
        rng = np.random.default_rng(3)
        lam = rng.dirichlet([1.0] * 4, size=6)
        div_pts = el.divergence(lam)
        interp = np.einsum("qk,kib->qib", lam, div_corners)
        assert_allclose(div_pts, interp, atol=1e-10)

    @pytest.mark.parametrize("verts", [REFERENCE_TET, SKEWED_TET])
    def test_divergence_matches_finite_difference(self, verts):
        el = HuMaElement(verts)
        x0 = el.verts.mean(axis=0)
        h = 1e-6
        div_fd = np.zeros((42, 3))
        for b in range(3):
            step = np.zeros(3)
            step[b] = h
            vp = el.values(tet_barycentric(el.verts, (x0 + step)[None]))[0]
            vm = el.values(tet_barycentric(el.verts, (x0 - step)[None]))[0]
            div_fd += (vp[:, :, b] - vm[:, :, b]) / (2.0 * h)
        div = el.divergence(tet_barycentric(el.verts, x0[None]))[0]
        assert_allclose(div, div_fd, atol=1e-6)

    def test_degenerate_tet_rejected(self):
        flat = REFERENCE_TET.copy()
        flat[3] = [0.5, 0.5, 0.0]
        with pytest.raises(ValueError):
            HuMaElement(flat)

    def test_traction_consistent_with_values(self):
        el = HuMaElement(SKEWED_TET)
        fb = triangle_rule(4).points
        for f in range(4):
            tr = el.traction(f, fb)
            bary = np.zeros((fb.shape[0], 4))
            bary[:, TET_LOCAL_FACES[f]] = fb
            expected = np.einsum("qiab,b->qia", el.values(bary), el.face_normals[f])
            assert_allclose(tr, expected, atol=1e-12)


class TestGlobalStressContinuity:
    def test_cross_face_moment_continuity(self):
        # A random global coefficient vector defines one stress field per tet;
        # across every interior face the two tets must produce identical
        # traction moments (same fixed normal, same P1 ordering).
        body = build_body_mesh(2)
        smap = StressDofMap(body)
        rng = np.random.default_rng(19)
        sigma = rng.standard_normal(smap.n_dofs)
        face_rule = triangle_rule(8)
        elements = {}
        worst = 0.0
        interior = [rec for rec in smap.faces if rec.neighbor >= 0]
        assert interior, "mesh should have interior faces"
        for rec in interior:
            gverts = np.asarray(rec.vertices)
            fverts3 = body.vertices[gverts]
            pts3 = face_rule.points @ fverts3
            moments = []
            for t in (rec.owner, rec.neighbor):
                el = elements.get(t)
                if el is None:
                    el = HuMaElement(body.tet_vertices(t))
                    elements[t] = el
                coeff = smap.local_coefficients(t, sigma)
                vals = el.values(tet_barycentric(body.tet_vertices(t), pts3))
                sig_q = np.einsum("i,qiab->qab", coeff, vals)
                nrm = el.face_normals[rec.owner_local] if t == rec.owner else None
                if nrm is None:
                    # Fixed normal: the owner's outward normal on this face.
                    owner_el = elements.get(rec.owner)
                    nrm = owner_el.face_normals[rec.owner_local]
                tr = sig_q @ nrm
                mom = 2.0 * np.einsum(
                    "q,qa,qc->ac", face_rule.weights, face_rule.points, tr
                )
                moments.append(mom)
            worst = max(worst, float(np.max(np.abs(moments[0] - moments[1]))))
        assert worst <= 1e-10

    def test_local_global_duality(self):
        # Setting one global DOF to 1 and interpolating on an incident tet
        # must return +-1 at the matching local functional and 0 elsewhere.
        body = build_body_mesh(1)
        smap = StressDofMap(body)
        rec = next(r for r in smap.faces if r.neighbor >= 0)
        fid = smap.face_index[rec.vertices]
        g = 9 * fid + 4  # second vertex moment, component 1
        sigma = np.zeros(smap.n_dofs)
        sigma[g] = 1.0
        for t in (rec.owner, rec.neighbor):
            coeff = smap.local_coefficients(t, sigma)
            local = np.flatnonzero(np.abs(coeff) > 0)
            assert local.size == 1
            k = int(local[0])
            lf = k // 9
            assert tuple(sorted(int(v) for v in body.tets[t, TET_LOCAL_FACES[lf]])) \
                == rec.vertices
            expected_sign = 1.0 if t == rec.owner else -1.0
            assert coeff[k] == expected_sign


class TestMorleyElement:
    TRIANGLES = [
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0.2, -0.1], [1.4, 0.3], [0.3, 1.2]]),
    ]

    @pytest.mark.parametrize("verts", TRIANGLES)
    def test_p2_reproduction(self, verts):
        # Interpolating any quadratic through the Morley DOFs (vertex values
        # and midpoint normal derivatives) must reproduce it exactly.
        el = MorleyElement(verts)
        rng = np.random.default_rng(8)
        c = rng.standard_normal(6)

        def p(pts):
            x, y = pts[:, 0], pts[:, 1]
            return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

        def grad_p(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.stack(
                [c[1] + 2 * c[3] * x + c[4] * y, c[2] + c[4] * x + 2 * c[5] * y],
                axis=-1,
            )

        dofs = np.concatenate([
            p(verts),
            np.einsum("ed,ed->e", grad_p(el.edge_midpoints), el.edge_normals),
        ])
        lam = np.random.default_rng(9).dirichlet([1, 1, 1], size=9)
        pts = lam @ verts
        vals = el.value(pts) @ dofs
        assert np.max(np.abs(vals - p(pts))) <= 1e-10
        grads = np.einsum("qid,i->qd", el.gradient(pts), dofs)
        assert np.max(np.abs(grads - grad_p(pts))) <= 1e-10

    @pytest.mark.parametrize("verts", TRIANGLES)
    def test_dof_duality(self, verts):
        el = MorleyElement(verts)
        vals_at_verts = el.value(verts)  # (3, 6)
        grad_mid = el.gradient(el.edge_midpoints)  # (3, 6, 2)
        D = np.vstack([
            vals_at_verts,
            np.einsum("eid,ed->ei", grad_mid, el.edge_normals),
        ])
        assert_allclose(D, np.eye(6), atol=1e-11)

    @pytest.mark.parametrize("verts", TRIANGLES)
    def test_hessian_constant_and_consistent(self, verts):
        el = MorleyElement(verts)
        H = el.hessian()
        # Finite-difference the gradient at two points; both must give H.
        for x0 in (verts.mean(axis=0), verts[0] * 0.5 + verts[1] * 0.3 + verts[2] * 0.2):
            h = 1e-6
            for d in range(2):
                step = np.zeros(2)
                step[d] = h
                gp = el.gradient((x0 + step)[None])[0]
                gm = el.gradient((x0 - step)[None])[0]
                assert_allclose((gp - gm) / (2 * h), H[:, :, d], atol=1e-6)

    def test_degenerate_triangle_rejected(self):
        bad = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            MorleyElement(bad)


class TestVectorP1:
    def test_tri_partition_of_unity(self):
        el = VectorP1Tri(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]]))
        lam = np.random.default_rng(1).dirichlet([1, 1, 1], size=5)
        vals = el.value(lam)
        # Summing the component-c basis over vertices gives e_c everywhere.
        total = vals[:, 0::2, 0].sum(axis=1)
        assert_allclose(total, 1.0, atol=1e-14)

    def test_tet_gradient_oracle(self):
        el = VectorP1Tet(REFERENCE_TET)
        g = el.gradient()
        # hat_0 = 1 - x - y - z on the reference tet.
        assert_allclose(g[0, 0], [-1.0, -1.0, -1.0], atol=1e-14)
        assert_allclose(g[3, 0], [1.0, 0.0, 0.0], atol=1e-14)

    def test_strain_symmetry(self):
        el = VectorP1Tet(SKEWED_TET)
        s = el.strain()
        assert_allclose(s, np.swapaxes(s, 1, 2), atol=1e-15)


class TestDofMaps:
    def test_stress_map_sizes(self):
        body = build_body_mesh(2)
        smap = StressDofMap(body)
        assert smap.n_dofs == 9 * smap.n_faces + 6 * body.n_tets
        assert smap.ltg.shape == (body.n_tets, 42)
        # Interface faces are exactly the tagged bottom faces.
        assert smap.interface_face_ids.size == 2 * body.n**2

    def test_stress_essential_dofs_are_free_faces(self):
        body = build_body_mesh(1)
        smap = StressDofMap(body)
        assert smap.essential_dofs.size == 9 * smap.free_face_ids.size
        assert smap.free_face_ids.size == 10 * body.n**2  # 12 n^2 - 2 n^2

    def test_dg_map_disjoint(self):
        body = build_body_mesh(1)
        vmap = BodyDGDofMap(body)
        assert vmap.n_dofs == 12 * body.n_tets
        flat = vmap.ltg.ravel()
        assert np.unique(flat).size == flat.size

    def test_cg_map_shares_vertices(self):
        body = build_body_mesh(1)
        cmap = BodyCGDofMap(body)
        assert cmap.n_dofs == 3 * body.n_vertices
        assert cmap.interface_vertices.size == (body.n + 1) ** 2

    def test_plate_map_layout(self):
        plate = build_plate_mesh(4)
        pmap = PlateDofMap(plate)
        nv = plate.n_vertices
        assert pmap.n_dofs == 3 * nv + pmap.n_edges
        # Every boundary vertex contributes 3 constrained DOFs; every
        # boundary edge one more.
        nb = pmap.boundary_vertices.size
        assert int(pmap.constrained.sum()) == 3 * nb + plate.boundary_edges.shape[0]

    def test_morley_edge_sign_antisymmetry(self):
        # Two triangles sharing an edge see the shared edge DOF with signs
        # tied to their local traversal direction; a global field then has a
        # single well-defined normal derivative on the edge.
        plate = build_plate_mesh(4)
        pmap = PlateDofMap(plate)
        # Find a shared edge.
        seen = {}
        for t in range(plate.n_triangles):
            for e in range(3):
                dof = pmap.mor_ltg[t, 3 + e]
                seen.setdefault(int(dof), []).append((t, e))
        shared = {d: lst for d, lst in seen.items() if len(lst) == 2}
        assert shared
        rng = np.random.default_rng(4)
        w = rng.standard_normal(pmap.n_dofs)
        for dof, ((t1, e1), (t2, e2)) in itertools.islice(shared.items(), 5):
            c1 = pmap.mor_sign[t1] * w[pmap.mor_ltg[t1]]
            c2 = pmap.mor_sign[t2] * w[pmap.mor_ltg[t2]]
            el1 = MorleyElement(plate.triangle_vertices(t1))
            el2 = MorleyElement(plate.triangle_vertices(t2))
            mid1 = el1.edge_midpoints[e1]
            mid2 = el2.edge_midpoints[e2]
            assert_allclose(mid1, mid2, atol=1e-14)
            g1 = np.einsum("i,id->d", c1, el1.gradient(mid1[None])[0])
            g2 = np.einsum("i,id->d", c2, el2.gradient(mid2[None])[0])
            # The two local outward normals are opposite, so the derivative
            # along the FIXED direction n1 must agree between the sides:
            # g1 . n1 == g2 . n1.
            n1 = el1.edge_normals[e1]
            assert_allclose(el2.edge_normals[e2], -n1, atol=1e-13)
            assert g1 @ n1 == pytest.approx(g2 @ n1, abs=1e-10)
