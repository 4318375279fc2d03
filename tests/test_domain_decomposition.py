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
from hypothesis import given
from numpy.testing import assert_allclose

from bodyplate import assembly as asm
from bodyplate import domain_decomposition as dd
from bodyplate import hybrid
from bodyplate.fe_elements import BodyDGDofMap, PlateDofMap, StressDofMap
from bodyplate.geometry_mesh import Diagonal, build_body_mesh, build_plate_mesh
from bodyplate.interface_overlay import (
    extract_interface_triangulation,
    intersect_triangulations,
)
from bodyplate.manufactured import default_case
from mesh_families import SETTINGS, build, meshes
from test_batched_kernel import oracle_solve


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
        assert report.history[0] == 1.0
        assert len(report.history) == report.iterations + 1

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
        with pytest.raises(RuntimeError, match="interface CG did not "
                           "converge in 2 iterations"):
            dd.cg_interface_solve(lambda v: A @ v, lambda v: v, b,
                                  tol=1e-14, max_it=2)


@pytest.fixture(scope="module")
def monolithic(case):
    body = build_body_mesh(2)
    plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
    system = asm.build_mixed_system(body, plate, case)
    M, rhs, cons = system.monolithic()
    M_ff, rhs_f = cons.reduce(M, rhs)
    return system.split(cons.expand(oracle_solve(M_ff, rhs_f)))


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
        h = dd_solution.report.history
        assert h[0] == 1.0
        assert h[-1] <= 1e-6
        assert len(dd_solution.report.history_euclid) == len(h)

    def test_nonconvergence_raises(self, case):
        # One iteration leaves a junction residual of about 0.15: no
        # solution comes back.
        with pytest.raises(RuntimeError, match="interface CG did not "
                           "converge in 1 iterations"):
            dd.solve_dd(build_body_mesh(2),
                        build_plate_mesh(8, Diagonal.FLIPPED), case,
                        max_it=1)

    def test_non_matching_also_converges(self, case):
        body = build_body_mesh(1)
        plate = build_plate_mesh(4, Diagonal.FLIPPED)
        sol = dd.solve_dd(body, plate, case, case.params)
        assert sol.report.converged
        assert sol.report.iterations <= 7
        assert sol.report.rho_avg <= 0.1


# ---------------------------------------------------------------------------
# solve_dd against the composition of separately assembled operators.
# ---------------------------------------------------------------------------

def reference_solve_dd(body, plate, case, tol=dd.CG_TOL, max_it=dd.CG_MAX_IT):
    """The interface CG method composed from its own assembly: G, loads and
    traction data, the body operator E through ``BodyOperator``, S_K through
    ``SchurProduct`` and the plate solves through ``PlateOperator``; the
    decoupled body and plate solves give the right-hand side and the
    initial trace."""
    params = case.params
    smap, vmap, pmap = StressDofMap(body), BodyDGDofMap(body), PlateDofMap(plate)
    faces = extract_interface_triangulation(body)
    cells = intersect_triangulations(faces, plate)
    G = asm.assemble_interface_coupling(body, smap, plate, pmap, faces, cells)
    f_V, f_W = asm.assemble_loads(vmap, pmap, case)
    gamma = dd.build_interface_dof_set(plate, pmap)
    plate_op = dd.PlateOperator(plate, pmap, params)
    schur = dd.SchurProduct(plate, pmap, params, gamma, region="all")
    body_op = dd.BodyOperator(body, smap, vmap, params, case.traction)

    def body_solve(trace, rhs_v, with_data):
        w = np.zeros(pmap.n_dofs)
        w[gamma] = trace
        return body_op.solve(G.T @ w, rhs_v, with_data=with_data)

    def op_E(x):
        return (G @ body_solve(x, np.zeros(vmap.n_dofs), False)[0])[gamma]

    def apply_prec(r):
        w = np.zeros(pmap.n_dofs)
        w[gamma] = r
        return plate_op.solve(w)[gamma]

    sigma_t, u_t = body_solve(np.zeros(gamma.size), f_V, True)
    x0 = plate_op.solve(f_W)[gamma]
    b = -((G @ sigma_t)[gamma] + op_E(x0))
    x, report = dd.cg_interface_solve(lambda v: schur.apply(v) + op_E(v),
                                      apply_prec, b, tol=tol, max_it=max_it)
    x = x0 + x
    sigma_b, u_b = body_solve(x, np.zeros(vmap.n_dofs), False)
    sigma = sigma_t + sigma_b
    w = plate_op.solve(f_W - G @ sigma)
    return sigma, u_t + u_b, w, x, report


def assert_matches_reference(body, plate, case):
    sol = dd.solve_dd(body, plate, case)
    *fields, x_ref, report = reference_solve_dd(body, plate, case)
    for a, ref in zip((sol.sigma, sol.u, sol.w), fields):
        assert np.linalg.norm(a - ref) <= 1e-12 * np.linalg.norm(ref)
    w_ref = fields[2]
    gamma = dd.build_interface_dof_set(plate, PlateDofMap(plate))
    junction_ref = np.linalg.norm(w_ref[gamma] - x_ref)
    assert (abs(sol.junction_residual - junction_ref)
            <= 1e-12 * np.linalg.norm(w_ref))
    assert sol.report.iterations == report.iterations
    assert sol.report.converged == report.converged
    assert_allclose(sol.report.history, report.history, rtol=0, atol=1e-10)
    assert_allclose(sol.report.history_euclid, report.history_euclid,
                    rtol=0, atol=1e-10)


@pytest.mark.parametrize("n_body, n_plate, diagonal", [
    (1, 4, Diagonal.SAME_AS_BODY),
    (1, 4, Diagonal.FLIPPED),
    (2, 8, Diagonal.SAME_AS_BODY),
    (2, 8, Diagonal.FLIPPED),
    (3, 12, Diagonal.FLIPPED),
    (4, 8, Diagonal.SAME_AS_BODY),
    (4, 16, Diagonal.FLIPPED),
])
def test_solve_dd_matches_the_composed_operators(case, n_body, n_plate,
                                                 diagonal):
    assert_matches_reference(build_body_mesh(n_body),
                             build_plate_mesh(n_plate, diagonal), case)


@SETTINGS
@given(meshes)
def test_solve_dd_matches_the_composed_operators_on_jittered_meshes(example):
    body, plate = build(example)
    assert_matches_reference(body, plate, default_case())


def test_solve_dd_refuses_a_tolerance_outside_unit_interval(case):
    # tol = 2 used to stop after one iteration and report convergence.
    with pytest.raises(ValueError, match="interface CG tol must lie in"):
        dd.solve_dd(build_body_mesh(2),
                    build_plate_mesh(8, Diagonal.FLIPPED), case, tol=2.0)


def test_gamma_schur_complement_of_S_is_the_interface_operator(case):
    # Body n = 2 / plate n = 8 flipped: eliminating the multipliers and the
    # plate interior from the coupled S leaves S_K + E, built densely from
    # the operators the acceptance suite checks.
    body = build_body_mesh(2)
    plate = build_plate_mesh(8, Diagonal.FLIPPED)
    system = asm.build_mixed_system(body, plate, case)
    hb, free, _ = hybrid.condense(system)
    smap, vmap, pmap = system.smap, system.vmap, system.pmap
    gamma = dd.build_interface_dof_set(plate, pmap)
    at = np.searchsorted(free, gamma)
    g = hb.n_lam + at
    rest = np.setdiff1d(np.arange(hb.S.shape[0]), g)
    S = hb.S.tocsc().toarray()
    schur_S = S[np.ix_(g, g)] - S[np.ix_(g, rest)] @ np.linalg.solve(
        S[np.ix_(rest, rest)], S[np.ix_(rest, g)])

    faces = extract_interface_triangulation(body)
    cells = intersect_triangulations(faces, plate)
    G = asm.assemble_interface_coupling(body, smap, plate, pmap, faces, cells)
    schur = dd.SchurProduct(plate, pmap, case.params, gamma, region="all")
    body_op = dd.BodyOperator(body, smap, vmap, case.params, case.traction)
    columns = []
    for e in np.eye(gamma.size):
        w = np.zeros(pmap.n_dofs)
        w[gamma] = e
        sig, _ = body_op.solve(G.T @ w, np.zeros(vmap.n_dofs), with_data=False)
        columns.append(schur.apply(e) + (G @ sig)[gamma])
    S_K_E = np.array(columns).T
    assert gamma.size == 131
    assert np.abs(schur_S - S_K_E).max() <= 1e-12 * np.abs(S_K_E).max()


def test_solve_dd_does_not_depend_on_the_interface_set(case, monkeypatch):
    # Dropping the interface DOFs of one plate vertex puts G's rows there
    # off the interface set.  The solve never reads the set: only the
    # junction residual is taken on it.
    body, plate = build_body_mesh(1), build_plate_mesh(4)
    full = dd.solve_dd(body, plate, case)
    original = dd.build_interface_dof_set
    v = np.argmin(np.abs(plate.vertices).sum(1))
    dropped = [2 * v, 2 * v + 1, 2 * plate.n_vertices + v]

    def short(plate, pmap):
        gamma = original(plate, pmap)
        return gamma[~np.isin(gamma, dropped)]

    monkeypatch.setattr(dd, "build_interface_dof_set", short)
    sol = dd.solve_dd(body, plate, case)
    for name in ("sigma", "u", "w"):
        assert np.array_equal(getattr(sol, name), getattr(full, name))
    assert sol.report.iterations == full.report.iterations
    assert sol.report.history == full.report.history
    assert sol.report.history_euclid == full.report.history_euclid
    gamma = original(plate, PlateDofMap(plate))
    kept = ~np.isin(gamma, dropped)
    assert np.count_nonzero(~kept) == 3


def test_reconstruction_keeps_the_body_residual_check(case, monkeypatch):
    # A wrong displacement entry of one local inverse, entry (50, 50) of
    # M_T^-1 raised by one, leaves S, and so the CG, intact; only the
    # back-substituted body rows see it.
    original = hybrid.HybridBody._local_solve

    def corrupted(self, F):
        x = original(self, F)
        x[0, 50] += F[0, 50]
        return x

    monkeypatch.setattr(hybrid.HybridBody, "_local_solve", corrupted)
    with pytest.raises(RuntimeError, match="hybrid solve residual"):
        dd.solve_dd(build_body_mesh(1), build_plate_mesh(4), case)
