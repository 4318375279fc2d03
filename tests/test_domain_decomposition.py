"""Interface CG solver: operator algebra and end-to-end agreement with the
monolithic solve.

The body interface operator E must vanish on rigid translations of the
interface trace (divergence theorem against zero-mean traction data), be
symmetric positive semidefinite, and combine with the plate Schur metric into
an operator I + S^-1 E that is self-adjoint and positive definite in the
S-energy inner product.  The preconditioned CG must converge in a handful of
iterations with average contraction well below one, stop instantly on a zero
right-hand side, and - reconstructed - reproduce the monolithic solution.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from bodyplate import assembly as asm
from bodyplate import domain_decomposition as dd
from bodyplate.fe_elements import BodyDGDofMap, PlateDofMap, StressDofMap
from bodyplate.geometry_mesh import Diagonal, build_body_mesh, build_plate_mesh
from bodyplate.interface_overlay import (
    extract_interface_triangulation,
    intersect_triangulations,
)
from bodyplate.manufactured import default_case
from bodyplate.solvers import solve_saddle_point


@pytest.fixture(scope="module")
def case():
    return default_case()


@pytest.fixture(scope="module")
def setup(case):
    """Level-2 configuration shared by the operator tests."""
    body = build_body_mesh(2)
    plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
    params = case.params
    smap = StressDofMap(body)
    vmap = BodyDGDofMap(body)
    pmap = PlateDofMap(plate)
    faces = extract_interface_triangulation(body)
    cells = intersect_triangulations(faces, plate)
    G = asm.assemble_interface_coupling(body, smap, plate, pmap, faces, cells)
    gamma = dd.build_interface_dof_set(plate, pmap)
    schur = dd.SchurProduct(plate, pmap, params, gamma, region="all")
    body_op = dd.BodyOperator(body, smap, vmap, params, case.traction)
    plate_op = dd.PlateOperator(plate, pmap, params)

    def op_E(lam):
        w = np.zeros(pmap.n_dofs)
        w[gamma] = lam
        sig, _ = body_op.solve(G.T @ w, np.zeros(vmap.n_dofs), with_data=False)
        return (G @ sig)[gamma]

    return dict(body=body, plate=plate, params=params, smap=smap, vmap=vmap,
                pmap=pmap, G=G, gamma=gamma, schur=schur, body_op=body_op,
                plate_op=plate_op, op_E=op_E)


class TestInterfaceDofSet:
    def test_contains_all_three_field_types(self, setup):
        plate, pmap, gamma = setup["plate"], setup["pmap"], setup["gamma"]
        nv = plate.n_vertices
        kinds = {"mem": 0, "morv": 0, "edge": 0}
        for d in gamma:
            if d < 2 * nv:
                kinds["mem"] += 1
            elif d < 3 * nv:
                kinds["morv"] += 1
            else:
                kinds["edge"] += 1
        assert min(kinds.values()) > 0
        # Interface vertices of the n=4 plate: the 3x3 grid with |x|,|y| <= 1/2.
        assert kinds["mem"] == 2 * 9
        assert kinds["morv"] == 9

    def test_sorted_and_free(self, setup):
        gamma, pmap = setup["gamma"], setup["pmap"]
        assert np.all(np.diff(gamma) > 0)
        assert not np.any(pmap.constrained[gamma])


class TestBodyInterfaceOperator:
    def test_vanishes_on_rigid_translations(self, setup):
        # A constant interface displacement produces traction data in
        # equilibrium with nothing: E(const) = 0 (to solver accuracy).
        plate, pmap, gamma = setup["plate"], setup["pmap"], setup["gamma"]
        op_E = setup["op_E"]
        nv = plate.n_vertices
        for comp in range(3):
            w = np.zeros(pmap.n_dofs)
            if comp < 2:
                w[comp:2 * nv:2] = 1.0
            else:
                w[2 * nv:3 * nv] = 1.0
            e = op_E(w[gamma])
            assert np.linalg.norm(e) < 1e-9

    def test_symmetric_psd(self, setup):
        op_E, gamma = setup["op_E"], setup["gamma"]
        rng = np.random.default_rng(23)
        a = rng.standard_normal(gamma.size)
        b = rng.standard_normal(gamma.size)
        ea, eb = op_E(a), op_E(b)
        scale = max(abs(float(b @ ea)), 1.0)
        assert abs(float(b @ ea) - float(a @ eb)) / scale < 1e-9
        assert float(a @ ea) >= -1e-10
        assert float(b @ eb) >= -1e-10


class TestSchurMetric:
    def test_all_region_positive_definite(self, setup):
        schur, gamma = setup["schur"], setup["gamma"]
        rng = np.random.default_rng(29)
        for _ in range(5):
            x = rng.standard_normal(gamma.size)
            assert schur.dot(x, x) > 0

    def test_symmetry(self, setup):
        schur, gamma = setup["schur"], setup["gamma"]
        rng = np.random.default_rng(31)
        a = rng.standard_normal(gamma.size)
        b = rng.standard_normal(gamma.size)
        assert abs(schur.dot(a, b) - schur.dot(b, a)) < 1e-9 * max(
            1.0, abs(schur.dot(a, b))
        )

    def test_omit_region_psd_and_smaller(self, setup):
        plate, pmap, gamma, params = (
            setup["plate"], setup["pmap"], setup["gamma"], setup["params"],
        )
        s_omit = dd.SchurProduct(plate, pmap, params, gamma,
                                 region="omit_interface")
        rng = np.random.default_rng(37)
        for _ in range(5):
            x = rng.standard_normal(gamma.size)
            qo = float(x @ s_omit.apply(x))
            qa = setup["schur"].dot(x, x)
            assert qo >= -1e-9
            assert qo <= qa + 1e-9

    def test_rejects_clamped_interface(self, setup):
        # A plate whose boundary touches the interface set cannot happen on
        # this geometry; simulate by passing a clamped DOF directly.
        plate, pmap, params = setup["plate"], setup["pmap"], setup["params"]
        bad = np.flatnonzero(pmap.constrained)[:3]
        with pytest.raises(ValueError):
            dd.SchurProduct(plate, pmap, params, bad, region="all")


class TestPreconditionedOperator:
    def test_u_symmetry_and_positivity(self, setup):
        # T = I + S^-1 E must satisfy <T a, b>_U = <a, T b>_U and
        # <T a, a>_U > 0 on random vectors.
        schur, op_E, gamma, plate_op, pmap = (
            setup["schur"], setup["op_E"], setup["gamma"],
            setup["plate_op"], setup["pmap"],
        )

        def apply_T(x):
            w = np.zeros(pmap.n_dofs)
            w[gamma] = op_E(x)
            return x + plate_op.solve(w)[gamma]

        rng = np.random.default_rng(41)
        worst_sym = 0.0
        for _ in range(50):
            a = rng.standard_normal(gamma.size)
            b = rng.standard_normal(gamma.size)
            ta, tb = apply_T(a), apply_T(b)
            lhs = schur.dot(ta, b)
            rhs = schur.dot(a, tb)
            worst_sym = max(worst_sym, abs(lhs - rhs) / max(abs(lhs), 1.0))
            assert schur.dot(ta, a) > 0
        assert worst_sym <= 1e-9


class TestCgInterfaceSolve:
    def test_zero_rhs_returns_immediately(self):
        x, report = dd.cg_interface_solve(
            lambda v: v, lambda v: v, np.zeros(7)
        )
        assert_allclose(x, 0.0, atol=0)
        assert report.iterations == 0
        assert report.converged

    def test_identity_operator_converges_in_one(self):
        rng = np.random.default_rng(43)
        b = rng.standard_normal(9)
        x, report = dd.cg_interface_solve(lambda v: v, lambda v: v, b)
        assert report.converged
        assert report.iterations == 1
        assert_allclose(x, b, atol=1e-12)

    def test_spd_matrix_converges(self):
        rng = np.random.default_rng(47)
        Q = rng.standard_normal((12, 12))
        A = Q @ Q.T + 12 * np.eye(12)
        b = rng.standard_normal(12)
        x, report = dd.cg_interface_solve(lambda v: A @ v, lambda v: v, b,
                                          tol=1e-10)
        assert report.converged
        assert_allclose(A @ x, b, atol=1e-7)
        assert report.history_u[0] == 1.0
        assert len(report.history_u) == report.iterations + 1

    def test_indefinite_operator_breaks_down_loudly(self):
        # p.Ap = 1 at the first step, then -72 at the second.
        A = np.diag([2.0, 1.0, -1.0])
        b = np.array([1.0, 0.0, 1.0])
        with pytest.raises(RuntimeError, match="breakdown at iteration 2"):
            dd.cg_interface_solve(lambda v: A @ v, lambda v: v, b)

    def test_nonconvergence_reported(self):
        rng = np.random.default_rng(53)
        Q = rng.standard_normal((30, 30))
        A = Q @ Q.T + 1e-4 * np.eye(30)
        b = rng.standard_normal(30)
        x, report = dd.cg_interface_solve(lambda v: A @ v, lambda v: v, b,
                                          tol=1e-14, max_it=2)
        assert not report.converged
        assert report.iterations == 2


@pytest.fixture(scope="module")
def monolithic(case):
    body = build_body_mesh(2)
    plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
    system = asm.build_mixed_system(body, plate, case)
    M, rhs, cons = system.monolithic()
    M_ff, rhs_f = cons.reduce(M, rhs)
    x_f, _ = solve_saddle_point(M_ff, rhs_f)
    return system.split(cons.expand(x_f))


@pytest.fixture(scope="module")
def dd_solution(case):
    body = build_body_mesh(2)
    plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
    return dd.solve_dd(body, plate, case, case.params)


class TestEndToEnd:
    def test_converges_fast(self, dd_solution):
        r = dd_solution.report
        assert r.converged
        assert r.iterations <= 7
        assert r.rho_avg <= 0.1

    def test_matches_monolithic(self, monolithic, dd_solution):
        sig_m, u_m, w_m = monolithic
        num = np.sqrt(
            np.linalg.norm(dd_solution.sigma - sig_m) ** 2
            + np.linalg.norm(dd_solution.u - u_m) ** 2
            + np.linalg.norm(dd_solution.w - w_m) ** 2
        )
        den = np.sqrt(
            np.linalg.norm(sig_m) ** 2
            + np.linalg.norm(u_m) ** 2
            + np.linalg.norm(w_m) ** 2
        )
        assert num / den <= 1e-5

    def test_junction_consistency(self, dd_solution):
        # The reconstructed plate trace on the interface agrees with the CG
        # unknown to (at worst) the CG tolerance scale.
        assert dd_solution.junction_residual <= 1e-5

    def test_histories_monotone_overall(self, dd_solution):
        h = dd_solution.report.history_u
        assert h[0] == 1.0
        assert h[-1] <= 1e-6
        assert len(dd_solution.report.history_euclid) == len(h)

    def test_non_matching_also_converges(self, case):
        body = build_body_mesh(1)
        plate = build_plate_mesh(4, Diagonal.FLIPPED)
        sol = dd.solve_dd(body, plate, case, case.params)
        assert sol.report.converged
        assert sol.report.iterations <= 7
        assert sol.report.rho_avg <= 0.1
