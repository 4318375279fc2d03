"""The hybridized body solve against the monolithic saddle-point oracle.

``solve_mixed`` and ``BodyOperator`` condense the broken body system onto
face multipliers (``bodyplate.hybrid``).  Here both are compared with the
indefinite monolithic system factored directly (``BlockSystem.monolithic``
plus ``solve_saddle_point``) on matching, flipped and jittered meshes, over
a sweep of material parameters towards incompressibility, and each named
failure of the hybrid path is provoked once.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given

from bodyplate import assembly as asm
from bodyplate import domain_decomposition as dd
from bodyplate import hybrid
from bodyplate import verification_cli as vcli
from bodyplate.fe_elements import BodyDGDofMap, PlateDofMap, StressDofMap
from bodyplate.geometry_mesh import Diagonal, build_body_mesh, build_plate_mesh
from bodyplate.interface_overlay import (
    extract_interface_triangulation,
    intersect_triangulations,
)
from bodyplate.manufactured import default_case
from bodyplate.materials import default_params
from bodyplate.solvers import (
    RESIDUAL_CONTRACT,
    SparseFactor,
    solve_saddle_point,
)
from test_batched_kernel import SETTINGS, build, meshes

ORACLE_RTOL = 1e-10


def monolithic_fields(body, plate, case):
    """(sigma, u, w) of the indefinite monolithic solve."""
    system = asm.build_mixed_system(body, plate, case)
    M, rhs, cons = system.monolithic()
    M_ff, rhs_f = cons.reduce(M, rhs)
    x_f, _ = solve_saddle_point(M_ff, rhs_f)
    return system.split(cons.expand(x_f))


def relative_difference(got, ref):
    num = np.sqrt(sum(np.linalg.norm(a - b) ** 2 for a, b in zip(got, ref)))
    return num / np.sqrt(sum(np.linalg.norm(b) ** 2 for b in ref))


def oracle_check(body, plate, case):
    """The hybrid solution, its reported residual and its relative
    difference from the monolithic solution."""
    sol, report = vcli.solve_mixed(body, plate, case)
    ref = monolithic_fields(body, plate, case)
    return (sol, report.relative_residual,
            relative_difference((sol.sigma, sol.u, sol.w), ref))


def assert_matches_oracle(body, plate, case):
    _, residual, difference = oracle_check(body, plate, case)
    assert residual <= RESIDUAL_CONTRACT
    assert difference <= ORACLE_RTOL


@pytest.mark.parametrize("n_body, n_plate, diagonal", [
    (1, 4, Diagonal.SAME_AS_BODY),
    (2, 4, Diagonal.SAME_AS_BODY),
    (2, 8, Diagonal.FLIPPED),
    (3, 12, Diagonal.FLIPPED),
    (4, 8, Diagonal.SAME_AS_BODY),
])
def test_solve_mixed_matches_monolithic(n_body, n_plate, diagonal):
    assert_matches_oracle(build_body_mesh(n_body),
                          build_plate_mesh(n_plate, diagonal), default_case())


@SETTINGS
@given(meshes)
def test_solve_mixed_matches_monolithic_on_jittered_meshes(example):
    body, plate = build(example)
    assert_matches_oracle(body, plate, default_case())


def test_report_counts_the_condensed_system():
    body = build_body_mesh(2)
    plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
    _, report = vcli.solve_mixed(body, plate, default_case())
    smap, pmap = StressDofMap(body), PlateDofMap(plate)
    n_lam = 9 * np.count_nonzero(smap.face_neighbor >= 0)
    assert report.size == n_lam + np.count_nonzero(~pmap.constrained)


def test_global_blocks_scatter_the_local_blocks():
    body = build_body_mesh(2)
    plate = build_plate_mesh(8, Diagonal.FLIPPED)
    case = default_case()
    system = asm.build_mixed_system(body, plate, case)
    smap, vmap, pmap = system.smap, system.vmap, system.pmap
    faces = extract_interface_triangulation(body)
    cells = intersect_triangulations(faces, plate)
    pairs = [
        (system.A, asm.assemble_compliance(body, smap, case.params)),
        (system.B, asm.assemble_divergence(body, smap, vmap)),
        (system.G, asm.assemble_interface_coupling(body, smap, plate, pmap,
                                                   faces, cells)),
    ]
    for got, ref in pairs:
        assert abs(got - ref).max() <= 1e-14 * abs(ref).max()


# ---------------------------------------------------------------------------
# The body operator of the interface solver.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def body_setup():
    case = default_case()
    body = build_body_mesh(2)
    plate = build_plate_mesh(8, Diagonal.FLIPPED)
    smap, vmap = StressDofMap(body), BodyDGDofMap(body)
    pmap = PlateDofMap(plate)
    faces = extract_interface_triangulation(body)
    cells = intersect_triangulations(faces, plate)
    G = asm.assemble_interface_coupling(body, smap, plate, pmap, faces, cells)
    A = asm.assemble_compliance(body, smap, case.params)
    B = asm.assemble_divergence(body, smap, vmap)
    ess_idx, ess_vals = asm.impose_traction_bc(body, smap, case.traction)
    op = dd.BodyOperator(body, smap, vmap, case.params, case.traction)
    saddle = sp.bmat([[A, B.T], [B, None]], format="csr")
    return dict(op=op, G=G, saddle=saddle, smap=smap, vmap=vmap, pmap=pmap,
                ess_idx=ess_idx, ess_vals=ess_vals)


@pytest.mark.parametrize("with_data", [False, True])
def test_body_operator_matches_saddle_factor(body_setup, with_data):
    s = body_setup
    ns, nv = s["smap"].n_dofs, s["vmap"].n_dofs
    values = s["ess_vals"] if with_data else np.zeros_like(s["ess_vals"])
    cons = asm.Constraints(ns + nv, s["ess_idx"], values)
    rng = np.random.default_rng(31)
    for _ in range(3):
        w = rng.standard_normal(s["pmap"].n_dofs)
        rhs_v = rng.standard_normal(nv)
        sigma, u = s["op"].solve(s["G"].T @ w, rhs_v, with_data=with_data)
        M_ff, rhs_f = cons.reduce(s["saddle"],
                                  np.concatenate([s["G"].T @ w, rhs_v]))
        x_f, _ = solve_saddle_point(M_ff, rhs_f)
        x = cons.expand(x_f)
        assert relative_difference((sigma, u), (x[:ns], x[ns:])) <= ORACLE_RTOL


def test_body_operator_factors_an_spd_matrix(body_setup):
    S = body_setup["op"].hybrid.factor.M
    assert abs(S - S.T).max() <= 1e-12 * abs(S).max()
    assert np.all(S.diagonal() > 0)
    np.linalg.cholesky(S.toarray())  # raises unless positive definite


# ---------------------------------------------------------------------------
# Robustness towards incompressibility and thin plates.
# ---------------------------------------------------------------------------

NU_ALPHA = (0.3, 0.49, 0.4999)
T_BETA = (0.02, 0.005)


@pytest.fixture(scope="module")
def sweep():
    """(residual, oracle difference, relative stress error) per
    (nu_alpha, t_beta) at body n = 2."""
    body = build_body_mesh(2)
    plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
    out = {}
    for nu in NU_ALPHA:
        for t_beta in T_BETA:
            case = default_case(replace(default_params(), nu_alpha=nu,
                                        t_beta=t_beta))
            sol, residual, difference = oracle_check(body, plate, case)
            zero = replace(sol, sigma=np.zeros_like(sol.sigma))
            error = (vcli.compute_error_norms(sol, case).sigma
                     / vcli.compute_error_norms(zero, case).sigma)
            out[nu, t_beta] = (residual, difference, error)
    return out


def test_sweep_meets_the_residual_contract_and_the_oracle(sweep):
    for residual, difference, _ in sweep.values():
        assert residual <= RESIDUAL_CONTRACT
        assert difference <= ORACLE_RTOL


def test_stress_error_stays_bounded_towards_incompressibility(sweep):
    for t_beta in T_BETA:
        errors = [sweep[nu, t_beta][2] for nu in NU_ALPHA]
        assert max(errors) <= 1.1 * errors[0]


# ---------------------------------------------------------------------------
# Named failures.
# ---------------------------------------------------------------------------

@pytest.fixture
def blocks():
    case = default_case()
    body = build_body_mesh(1)
    smap = StressDofMap(body)
    system = asm.build_mixed_system(body, build_plate_mesh(4), case)
    return smap, replace(system.blocks, A=system.blocks.A.copy(),
                         B=system.blocks.B.copy()), system.sigma_essential_idx


@pytest.mark.parametrize("defect", ["singular", "ill-conditioned"])
def test_bad_local_block_names_its_tet(blocks, defect):
    smap, b, ess = blocks
    if defect == "singular":
        b.B[3] = 0.0
    else:
        b.A[3] *= 1e-14
    with pytest.raises(RuntimeError, match="local saddle block of tet 3 "):
        hybrid.HybridBody(smap, b, ess)


def _body_solve(hb, smap):
    rng = np.random.default_rng(5)
    return hb.solve(rng.standard_normal(smap.n_dofs),
                    rng.standard_normal(smap.ltg.shape[:1] + (12,)))


def test_clean_body_solve_passes_both_checks(blocks):
    smap, b, ess = blocks
    *_, rel, _ = _body_solve(hybrid.HybridBody(smap, b, ess), smap)
    assert rel <= RESIDUAL_CONTRACT


def test_residual_breach_is_named(blocks):
    # A wrong displacement entry in one local inverse leaves the stresses,
    # and so their face continuity, intact.
    smap, b, ess = blocks
    hb = hybrid.HybridBody(smap, b, ess)
    hb.M_inv[0, 50, 50] += 1.0
    with pytest.raises(RuntimeError, match="hybrid solve residual"):
        _body_solve(hb, smap)


def test_face_continuity_defect_is_named(blocks):
    # A wrong stress entry on an interior face of one local inverse breaks
    # the agreement of the neighbouring stresses on that face.
    smap, b, ess = blocks
    hb = hybrid.HybridBody(smap, b, ess)
    t, i = np.argwhere(hb._on_face)[0]
    hb.M_inv[t, i, i] *= 1.01
    with pytest.raises(RuntimeError, match="face continuity defect"):
        _body_solve(hb, smap)


# ---------------------------------------------------------------------------
# Factor ordering and the shared plate stiffness.
# ---------------------------------------------------------------------------

def test_positive_diagonal_factors_without_pivoting():
    rng = np.random.default_rng(3)
    Q = rng.standard_normal((30, 30))
    fac = SparseFactor(sp.csr_matrix(Q @ Q.T + 30 * np.eye(30)))
    assert np.array_equal(fac.lu.perm_r, fac.lu.perm_c)


def test_solve_dd_assembles_the_plate_stiffness_once(monkeypatch):
    calls = []
    original = dd.assemble_plate_stiffness

    def counted(*args, **kwargs):
        calls.append(kwargs.get("region", "all"))
        return original(*args, **kwargs)

    monkeypatch.setattr(dd, "assemble_plate_stiffness", counted)
    sol = dd.solve_dd(build_body_mesh(1), build_plate_mesh(4), default_case())
    assert sol.report.converged
    assert calls == ["all"]


def test_schur_product_from_stiffness_matches_its_constructor():
    plate = build_plate_mesh(8, Diagonal.FLIPPED)
    pmap = PlateDofMap(plate)
    params = default_params()
    gamma = dd.build_interface_dof_set(plate, pmap)
    K = asm.assemble_plate_stiffness(plate, pmap, params)
    x = np.random.default_rng(7).standard_normal(gamma.size)
    assert np.array_equal(
        dd.SchurProduct(plate, pmap, params, gamma).apply(x),
        dd.SchurProduct.from_stiffness(K, pmap, gamma).apply(x))
