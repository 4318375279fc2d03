"""Assembled-operator identities.

Every bilinear form is checked against an independent computation: dense
quadrature oracles on single elements, exactness on fields inside the discrete
spaces (the constant-stress patch configuration), kernel vectors of the plate
stiffness, the divergence-theorem identity connecting the body divergence
block and the interface coupling block, and agreement of the two coupling
assembly routes (generic overlay versus the matching-mesh shortcut).
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from bodyplate import assembly as asm
from bodyplate.fe_elements import (
    BodyDGDofMap,
    HuMaElement,
    MorleyElement,
    PlateDofMap,
    StressDofMap,
    VectorP1Tet,
    tet_barycentric,
)
from bodyplate.geometry_mesh import (
    Diagonal,
    build_body_mesh,
    build_plate_mesh,
    triangle_area,
)
from bodyplate.interface_overlay import (
    extract_interface_triangulation,
    intersect_triangulations,
)
from bodyplate.manufactured import constant_stress_case, default_case
from bodyplate.materials import c0_inv_apply, default_params
from bodyplate.quadrature import physical_weights, tet_rule


@pytest.fixture(scope="module")
def params():
    return default_params()


@pytest.fixture(scope="module")
def body1():
    return build_body_mesh(1)


@pytest.fixture(scope="module")
def body2():
    return build_body_mesh(2)


@pytest.fixture(scope="module")
def smap1(body1):
    return StressDofMap(body1)


@pytest.fixture(scope="module")
def smap2(body2):
    return StressDofMap(body2)


def interpolate_stress(body, smap, sigma_at):
    """Global coefficient vector of a stress field lying in the global space."""
    from tests.test_fe_elements import stress_dof_functionals

    sigma = np.zeros(smap.n_dofs)
    for t in range(body.n_tets):
        el = HuMaElement(body.tet_vertices(t))
        dofs = stress_dof_functionals(el, sigma_at)
        sigma[smap.ltg[t]] = smap.sign[t] * dofs
    return sigma


class TestComplianceAndMass:
    def test_compliance_symmetric_pd(self, body1, smap1, params):
        A = asm.assemble_compliance(body1, smap1, params)
        assert (A - A.T).nnz == 0 or abs(A - A.T).max() < 1e-12
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(smap1.n_dofs)
            assert x @ (A @ x) > 0

    def test_compliance_energy_oracle(self, body1, smap1, params):
        # For a constant stress field sigma0 in the space, sigma' A sigma
        # must equal int_alpha C0^{-1} sigma0 : sigma0 = |alpha| * scalar.
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 3))
        sig0 = 0.5 * (m + m.T)

        def sigma_at(pts):
            return np.broadcast_to(sig0, (pts.shape[0], 3, 3))

        sigma = interpolate_stress(body1, smap1, sigma_at)
        A = asm.assemble_compliance(body1, smap1, params)
        energy = float(sigma @ (A @ sigma))
        exact = float(np.tensordot(c0_inv_apply(sig0, params), sig0))
        assert energy == pytest.approx(exact, rel=1e-10)

    def test_stress_mass_energy_oracle(self, body1, smap1, params):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 3))
        sig0 = 0.5 * (m + m.T)

        def sigma_at(pts):
            return np.broadcast_to(sig0, (pts.shape[0], 3, 3))

        sigma = interpolate_stress(body1, smap1, sigma_at)
        M = asm.assemble_stress_mass(body1, smap1)
        assert float(sigma @ (M @ sigma)) == pytest.approx(
            float(np.tensordot(sig0, sig0)), rel=1e-10
        )

    def test_body_mass_oracle(self, body1):
        vmap = BodyDGDofMap(body1)
        M = asm.assemble_body_mass(body1, vmap)
        ones = np.zeros(vmap.n_dofs)
        ones[0::3] = 1.0  # the constant field e_1
        assert float(ones @ (M @ ones)) == pytest.approx(1.0, rel=1e-12)


class TestDivergenceBlock:
    def test_divergence_against_quadrature(self, body1, smap1):
        # B[(t,a,c), j] = int_T div(basis_j) . (hat_a e_c); compare one tet's
        # row block against direct quadrature with an independent rule.
        vmap = BodyDGDofMap(body1)
        B = asm.assemble_divergence(body1, smap1, vmap).toarray()
        t = 3
        el = HuMaElement(body1.tet_vertices(t))
        vel = VectorP1Tet(body1.tet_vertices(t))
        rule = tet_rule(6)
        w = physical_weights(rule, vel.volume)
        div = el.divergence(rule.points)  # (nq, 42, 3)
        vals = vel.value(rule.points)  # (nq, 12, 3)
        loc = np.einsum("q,qjc,qic->ij", w, div, vals)  # (12, 42)
        rows = vmap.ltg[t]
        cols = smap1.ltg[t]
        block = B[np.ix_(rows, cols)] * smap1.sign[t][None, :]
        assert_allclose(block, loc, atol=1e-12)

    def test_divergence_of_linear_stress(self, body2, smap2):
        # div(A + sum x_k B_k) = const vector; B sigma must equal the moments
        # of that constant against the DG test functions, i.e. M_V d.
        vmap = BodyDGDofMap(body2)
        rng = np.random.default_rng(4)
        mats = rng.standard_normal((4, 3, 3))
        mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))

        def sigma_at(pts):
            return mats[0] + np.einsum("qk,kab->qab", pts, mats[1:])

        d = np.array([mats[1 + k][k] for k in range(3)]).sum(axis=0)
        sigma = interpolate_stress(body2, smap2, sigma_at)
        B = asm.assemble_divergence(body2, smap2, vmap)
        M = asm.assemble_body_mass(body2, vmap)
        d_vec = np.zeros(vmap.n_dofs)
        for c in range(3):
            d_vec[c::3] = d[c]
        assert_allclose(B @ sigma, M @ d_vec, atol=1e-10)


class TestPlateStiffness:
    def test_membrane_rigid_motions_in_kernel(self, params):
        plate = build_plate_mesh(4)
        pmap = PlateDofMap(plate)
        K = asm.assemble_plate_stiffness(plate, pmap, params)
        nv = plate.n_vertices
        x, y = plate.vertices[:, 0], plate.vertices[:, 1]
        for ux, uy in [(np.ones(nv), np.zeros(nv)),
                       (np.zeros(nv), np.ones(nv)),
                       (y, -x)]:
            w = np.zeros(pmap.n_dofs)
            w[0:2 * nv:2], w[1:2 * nv:2] = ux, uy
            assert np.max(np.abs(K @ w)) < 1e-10

    def test_linear_deflection_in_kernel(self, params):
        # w = a + b x + c y has zero Hessian: vertex DOFs are the values,
        # edge DOFs the (constant-gradient) normal derivatives.
        plate = build_plate_mesh(4)
        pmap = PlateDofMap(plate)
        K = asm.assemble_plate_stiffness(plate, pmap, params)
        nv = plate.n_vertices
        a, b, c = 0.7, -0.3, 1.1
        grad = np.array([b, c])
        w = np.zeros(pmap.n_dofs)
        w[2 * nv: 3 * nv] = a + plate.vertices @ grad
        for (va, vb), eid in pmap.edge_index.items():
            t_vec = plate.vertices[vb] - plate.vertices[va]
            nrm = np.array([t_vec[1], -t_vec[0]])
            nrm /= np.linalg.norm(nrm)
            w[3 * nv + eid] = grad @ nrm
        assert np.max(np.abs(K @ w)) < 1e-9

    def test_region_split_identity(self, params):
        # The full stiffness minus the interface-omitting variant is the
        # stiffness of the region triangles alone: PSD and supported on the
        # region's DOFs.
        plate = build_plate_mesh(8)
        pmap = PlateDofMap(plate)
        K_all = asm.assemble_plate_stiffness(plate, pmap, params, region="all")
        K_omit = asm.assemble_plate_stiffness(
            plate, pmap, params, region="omit_interface"
        )
        D = (K_all - K_omit).tocsr()
        region_dofs = set()
        for t in plate.interface_region_triangles:
            region_dofs.update(int(d) for d in pmap.mem_ltg[int(t)])
            region_dofs.update(int(d) for d in pmap.mor_ltg[int(t)])
        coo = D.tocoo()
        live = np.abs(coo.data) > 1e-14
        assert set(coo.row[live]) <= region_dofs
        assert set(coo.col[live]) <= region_dofs
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.standard_normal(pmap.n_dofs)
            assert x @ (D @ x) >= -1e-10

    def test_unknown_region_rejected(self, params):
        plate = build_plate_mesh(4)
        pmap = PlateDofMap(plate)
        with pytest.raises(ValueError):
            asm.assemble_plate_stiffness(plate, pmap, params, region="nope")


class TestInterfaceCoupling:
    @pytest.mark.parametrize("nb,np_,diag", [
        (2, 4, Diagonal.SAME_AS_BODY),
        (4, 8, Diagonal.SAME_AS_BODY),
    ])
    def test_overlay_equals_direct_on_matching_meshes(self, nb, np_, diag):
        body = build_body_mesh(nb)
        plate = build_plate_mesh(np_, diag)
        smap = StressDofMap(body)
        pmap = PlateDofMap(plate)
        faces = extract_interface_triangulation(body)
        cells = intersect_triangulations(faces, plate)
        G_overlay = asm.assemble_interface_coupling(
            body, smap, plate, pmap, faces, cells
        )
        G_direct = asm.assemble_interface_coupling_direct(
            body, smap, plate, pmap, faces
        )
        diff = abs(G_overlay - G_direct)
        assert (diff.max() if diff.nnz else 0.0) <= 1e-12

    def test_direct_requires_matching(self):
        body = build_body_mesh(2)
        plate = build_plate_mesh(8, Diagonal.FLIPPED)
        smap = StressDofMap(body)
        pmap = PlateDofMap(plate)
        faces = extract_interface_triangulation(body)
        with pytest.raises(ValueError):
            asm.assemble_interface_coupling_direct(body, smap, plate, pmap, faces)

    def test_divergence_theorem_identity(self, params):
        # For a constant body test function v = const and a plate field w
        # whose membrane part is the same constant (in-plane) on Gamma, the
        # coupling reproduces the total traction balance: on the free stress
        # DOFs, B^T v_const and G^T w_const agree (the boundary terms live
        # only on the essential DOFs).
        body = build_body_mesh(2)
        plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
        smap = StressDofMap(body)
        vmap = BodyDGDofMap(body)
        pmap = PlateDofMap(plate)
        faces = extract_interface_triangulation(body)
        cells = intersect_triangulations(faces, plate)
        B = asm.assemble_divergence(body, smap, vmap)
        G = asm.assemble_interface_coupling(body, smap, plate, pmap, faces, cells)
        free = np.ones(smap.n_dofs, dtype=bool)
        free[smap.essential_dofs] = False
        nvp = plate.n_vertices
        for comp in range(3):
            v_const = np.zeros(vmap.n_dofs)
            v_const[comp::3] = 1.0
            w_const = np.zeros(pmap.n_dofs)
            if comp < 2:
                w_const[comp:2 * nvp:2] = 1.0
            else:
                w_const[2 * nvp:3 * nvp] = 1.0
            lhs = (B.T @ v_const)[free]
            rhs = (G.T @ w_const)[free]
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_morley_edge_rows_vanish(self):
        # The coupling tests the plate deflection through its continuous
        # lowering, which has no edge contributions.
        body = build_body_mesh(2)
        plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
        smap = StressDofMap(body)
        pmap = PlateDofMap(plate)
        faces = extract_interface_triangulation(body)
        cells = intersect_triangulations(faces, plate)
        G = asm.assemble_interface_coupling(body, smap, plate, pmap, faces, cells)
        edge_rows = np.arange(3 * plate.n_vertices, pmap.n_dofs)
        sub = G.tocsr()[edge_rows]
        assert sub.nnz == 0 or abs(sub).max() < 1e-14


class TestTractionBC:
    def test_constant_traction_moments(self, body1, smap1):
        # For sigma = I the traction on a free face is the normal itself;
        # each moment is (1/|F|) int lam_a n_c = n_c / 3.
        def traction(pts, normal):
            return np.broadcast_to(normal, (pts.shape[0], 3)).copy()

        idx, vals = asm.impose_traction_bc(body1, smap1, traction)
        assert idx.size == smap1.essential_dofs.size
        assert set(idx.tolist()) == set(smap1.essential_dofs.tolist())
        # Verify one face's nine values.
        fid = int(smap1.free_face_ids[0])
        rec = smap1.faces[fid]
        fverts = body1.vertices[np.asarray(rec.vertices)]
        nrm = np.cross(fverts[1] - fverts[0], fverts[2] - fverts[0])
        nrm /= np.linalg.norm(nrm)
        tc = body1.tet_vertices(rec.owner).mean(axis=0)
        if np.dot(nrm, fverts.mean(axis=0) - tc) < 0:
            nrm = -nrm
        where = {int(d): v for d, v in zip(idx, vals)}
        for a in range(3):
            for c in range(3):
                assert where[9 * fid + 3 * a + c] == pytest.approx(
                    nrm[c] / 3.0, abs=1e-13
                )

    def test_interpolated_field_satisfies_bc(self, body2, smap2, params):
        # Interpolating the exact constant-stress field must hit the imposed
        # essential values exactly.
        case = constant_stress_case()
        sigma = interpolate_stress(body2, smap2, case.sigma_body)
        idx, vals = asm.impose_traction_bc(body2, smap2, case.traction)
        assert_allclose(sigma[idx], vals, atol=1e-10)


class TestLoadsAndProjection:
    def test_projection_reproduces_p1(self, body1):
        vmap = BodyDGDofMap(body1)
        coeffs = np.array([0.3, -0.7, 0.2])
        shift = np.array([0.1, 0.2, -0.3])

        def f(pts):
            return shift + pts * coeffs

        proj = asm.project_to_Vh(body1, vmap, f)
        # Evaluate on each tet at its vertices.
        for t in range(body1.n_tets):
            verts = body1.tet_vertices(t)
            exact = f(verts)
            got = proj[vmap.ltg[t]].reshape(4, 3)
            assert_allclose(got, exact, atol=1e-12)

    def test_volume_load_sign(self, body1, params):
        # f_V = -(f, psi): for f = const e3 the entry for a DG basis hat_a e_3
        # is -int hat_a = -|T|/4.
        case = constant_stress_case()  # f_body = 0; use a custom function
        vmap = BodyDGDofMap(body1)
        plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
        pmap = PlateDofMap(plate)

        class _Case:
            params = case.params
            f_body = staticmethod(
                lambda pts: np.broadcast_to([0.0, 0.0, 1.0], pts.shape).copy()
            )
            f_membrane = staticmethod(case.f_membrane)
            f_bending = staticmethod(case.f_bending)
            f_jump = staticmethod(case.f_jump)

        f_V, _ = asm.assemble_loads(body1, vmap, plate, pmap, _Case())
        vol = 1.0 / body1.n_tets
        assert_allclose(f_V[2::3], -vol / 4.0, atol=1e-12)

    def test_load_weak_residual_against_fine_quadrature(self, params):
        # Same loads assembled with the default and a finer volume rule agree
        # to quadrature accuracy (the integrands are smooth).
        body = build_body_mesh(2)
        plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
        vmap = BodyDGDofMap(body)
        pmap = PlateDofMap(plate)
        case = default_case()
        f_V4, f_W4 = asm.assemble_loads(body, vmap, plate, pmap, case,
                                        quad_volume=4, quad_interface=6)
        f_V8, f_W8 = asm.assemble_loads(body, vmap, plate, pmap, case,
                                        quad_volume=8, quad_interface=10)
        assert np.max(np.abs(f_V4 - f_V8)) < 1e-3 * max(1.0, np.max(np.abs(f_V8)))
        assert np.max(np.abs(f_W4 - f_W8)) < 1e-3 * max(1.0, np.max(np.abs(f_W8)))

    def test_lowered_vs_exact_jump_rows(self):
        # With lowered_jump=False the Morley edge rows of the jump part are
        # populated; with True they are not.  Vertex rows agree between the
        # two only in the limit, so just check structure.
        body = build_body_mesh(2)
        plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
        vmap = BodyDGDofMap(body)
        pmap = PlateDofMap(plate)
        case = default_case()
        _, f_low = asm.assemble_loads(body, vmap, plate, pmap, case,
                                      lowered_jump=True)
        _, f_tru = asm.assemble_loads(body, vmap, plate, pmap, case,
                                      lowered_jump=False)
        nv = plate.n_vertices
        edge = slice(3 * nv, pmap.n_dofs)
        # Smooth bending load hits edge DOFs in both; the difference is the
        # jump treatment.  They must differ somewhere on the edge DOFs.
        assert not np.allclose(f_low[edge], f_tru[edge], atol=1e-12)


class TestConstraints:
    def test_reduce_expand_roundtrip(self):
        rng = np.random.default_rng(9)
        n = 12
        M = rng.standard_normal((n, n))
        M = sp.csr_matrix(M + M.T + 10 * np.eye(n))
        rhs = rng.standard_normal(n)
        idx = np.array([2, 5, 7])
        vals = np.array([1.0, -2.0, 0.5])
        cons = asm.Constraints(n, idx, vals)
        M_ff, rhs_f = cons.reduce(M, rhs)
        x_f = spla.spsolve(M_ff.tocsc(), rhs_f)
        x = cons.expand(x_f)
        assert_allclose(x[idx], vals, atol=0)
        # The free rows of the full system are satisfied.
        res = (M @ x - rhs)[cons.free]
        assert np.max(np.abs(res)) < 1e-10

    def test_empty_constraints(self):
        cons = asm.Constraints(5, np.array([], dtype=int), np.array([]))
        assert cons.free.size == 5


class TestPatchConfiguration:
    def test_mixed_solution_exact_for_constant_stress(self, params):
        # The constant-stress configuration lies in every discrete space, so
        # the mixed method on the coarsest meshes reproduces sigma exactly.
        body = build_body_mesh(1)
        plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
        case = constant_stress_case()
        system = asm.build_mixed_system(body, plate, case)
        M, rhs, cons = system.monolithic()
        M_ff, rhs_f = cons.reduce(M, rhs)
        x = cons.expand(spla.spsolve(M_ff, rhs_f))
        sigma_h, _, _ = system.split(x)
        sigma_exact = interpolate_stress(body, system.smap, case.sigma_body)
        # L2 norm of the discrete error field.
        Mmass = asm.assemble_stress_mass(body, system.smap)
        d = sigma_h - sigma_exact
        err = float(np.sqrt(d @ (Mmass @ d)))
        assert err <= 1e-8


class TestDisplacementSystem:
    def test_spd_and_solvable(self):
        body = build_body_mesh(2)
        plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
        case = default_case()
        system = asm.assemble_displacement_system(body, plate, case)
        K_ff, rhs_f = system.constraints.reduce(system.K, system.rhs)
        d = (K_ff - K_ff.T)
        assert abs(d).max() < 1e-10
        x = spla.spsolve(K_ff, rhs_f)
        assert np.all(np.isfinite(x))

    def test_requires_matching_plate(self):
        body = build_body_mesh(2)
        plate = build_plate_mesh(8, Diagonal.FLIPPED)
        case = default_case()
        with pytest.raises(ValueError):
            asm.assemble_displacement_system(body, plate, case)

    def test_interface_vertices_aliased(self):
        # Body interface vertex displacements and the matching plate DOFs are
        # the same unified unknowns.
        body = build_body_mesh(2)
        plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
        case = default_case()
        system = asm.assemble_displacement_system(body, plate, case)
        cmap = system.cmap
        nv_plate = plate.n_vertices
        lookup = {
            (round(float(x), 9), round(float(y), 9)): i
            for i, (x, y) in enumerate(plate.vertices)
        }
        for v in cmap.interface_vertices:
            x, y, _ = body.vertices[v]
            pv = lookup[(round(float(x), 9), round(float(y), 9))]
            assert system.body_to_unified[3 * v + 0] == system.plate_offset + 2 * pv
            assert system.body_to_unified[3 * v + 1] == system.plate_offset + 2 * pv + 1
            assert (
                system.body_to_unified[3 * v + 2]
                == system.plate_offset + 2 * nv_plate + pv
            )
