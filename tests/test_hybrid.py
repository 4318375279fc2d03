"""The hybridized body solve against the monolithic saddle-point oracle.

``solve_mixed`` and ``BodyOperator`` condense the broken body system onto
face multipliers (``bodyplate.hybrid``).  Here both are compared with the
indefinite monolithic system factored directly (``BlockSystem.monolithic``
plus the pivoted ``oracle_solve`` of ``test_batched_kernel``) on matching,
flipped and jittered meshes, over a sweep of material parameters towards
incompressibility, and each named failure of the hybrid path is provoked
once.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given

from bodyplate import assembly as asm
from bodyplate import domain_decomposition as dd
from bodyplate import fe_elements, hybrid, solvers
from bodyplate import verification_cli as vcli
from bodyplate.fe_elements import BodyDGDofMap, PlateDofMap, StressDofMap
from bodyplate.geometry_mesh import (
    Diagonal,
    FaceTag,
    body_mesh_from_tets,
    build_body_mesh,
    build_plate_mesh,
    tet_volume,
    validate_mesh,
)
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
from test_batched_kernel import (
    SETTINGS,
    build,
    meshes,
    oracle_solve,
    saddle_blocks,
)

ORACLE_RTOL = 1e-10


def monolithic_fields(body, plate, case):
    """(sigma, u, w) of the indefinite monolithic solve."""
    system = asm.build_mixed_system(body, plate, case)
    M, rhs, cons = system.monolithic()
    M_ff, rhs_f = cons.reduce(M, rhs)
    return system.split(cons.expand(oracle_solve(M_ff, rhs_f)))


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
# The condensed system S in 9 x 9 face blocks.
# ---------------------------------------------------------------------------

def assembled_S(hb):
    """S = sum_T C_T W_T C_T^T + diag(0, K) by an assembly of its own: the
    multiplier block by ``_scatter`` of the W_T on the global multiplier
    indices, the plate rows and columns by sparse products with the
    block-diagonal W of every tet."""
    nt = hb.essential.shape[0]
    W = hb.M_inv[:, :42, :42] * ~(hb.essential[:, :, None]
                                  & np.eye(42, dtype=bool))
    lam, n = hybrid._multiplier_numbering(hb.smap)
    on = lam >= 0
    at = np.where(on, lam, 0)
    ll = asm._scatter(at, at, W * (on[:, :, None] & on[:, None, :]), (n, n))
    C_lam = sp.csr_matrix((np.ones(np.count_nonzero(on)),
                           (lam[on], np.flatnonzero(on))), shape=(n, 42 * nt))
    loc = np.arange(42 * nt).reshape(nt, 42)
    GW = hb.G @ asm._scatter(loc, loc, W, (42 * nt, 42 * nt))
    lw = -(C_lam @ GW.T)
    return sp.bmat([[ll, lw], [lw.T, GW @ hb.G.T + hb.K]], format="csc")


def assert_S_is_assembled(body, plate):
    hb = hybrid.condense(asm.build_mixed_system(body, plate,
                                                default_case()))[0]
    S, ref = hb.S, assembled_S(hb)
    assert S.ll.blocksize == (9, 9)
    assert len(S.ll.indptr) - 1 == np.count_nonzero(
        hb.smap.face_neighbor >= 0)
    assert S.shape == ref.shape
    assert abs(S.tocsc() - ref).max() <= 1e-14 * abs(ref).max()


@pytest.mark.parametrize("n_body, n_plate, diagonal", [
    (2, 4, Diagonal.SAME_AS_BODY), (2, 8, Diagonal.FLIPPED),
    (3, 12, Diagonal.FLIPPED)])
def test_face_block_S_equals_its_assembly(n_body, n_plate, diagonal):
    assert_S_is_assembled(build_body_mesh(n_body),
                          build_plate_mesh(n_plate, diagonal))


@SETTINGS
@given(meshes)
def test_face_block_S_equals_its_assembly_on_jittered_meshes(example):
    assert_S_is_assembled(*build(example))


def _counting(cls, counts, name):
    """A subclass of the sparse class ``cls`` that counts its products."""
    class Counting(cls):
        def __matmul__(self, other):
            counts[name] = counts.get(name, 0) + 1
            return super().__matmul__(other)
    return Counting


def test_one_pcg_iteration_makes_two_S_products_and_one_SP_product():
    # The cycle keeps S P, so the coarse correction costs no S product:
    # k iterations take k operator products and k + 1 cycles (one before
    # the first iteration), each of one S product and one S P product.
    body, plate = build_body_mesh(2), build_plate_mesh(8, Diagonal.FLIPPED)
    hb, _, load = hybrid.condense(
        asm.build_mixed_system(body, plate, default_case()))
    cycle = hb._preconditioner
    counts = {}
    hb.S.ll = _counting(sp.bsr_matrix, counts, "ll")(hb.S.ll)
    cycle.SP = _counting(sp.csr_matrix, counts, "SP")(cycle.SP)
    _, history, direct = hb.solve_condensed(load.r)
    k = len(history) - 1
    assert not direct and k > 10
    assert counts == {"ll": 2 * k + 1, "SP": k + 1}


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
        x = cons.expand(oracle_solve(M_ff, rhs_f))
        assert relative_difference((sigma, u), (x[:ns], x[ns:])) <= ORACLE_RTOL


def test_body_operator_factors_an_spd_matrix(body_setup):
    S = body_setup["op"].hybrid.S.tocsc()
    assert abs(S - S.T).max() <= 1e-12 * abs(S).max()
    assert np.all(S.diagonal() > 0)
    np.linalg.cholesky(S.toarray())  # raises unless positive definite


# ---------------------------------------------------------------------------
# The two-level PCG on S.
# ---------------------------------------------------------------------------

def _near_gamma_faces(smap):
    """Interior faces (in multiplier order) with a neighbour tet on Gamma."""
    near = np.zeros(smap.mesh.n_tets, dtype=bool)
    near[smap.face_owner[smap.interface_face_ids]] = True
    interior = np.flatnonzero(smap.face_neighbor >= 0)
    return near[smap.face_owner[interior]] | near[smap.face_neighbor[interior]]


def test_coarse_transfer_maps_rigid_motions_into_the_kernel_off_gamma():
    # Body alone: S P v vanishes on the multiplier rows of every face whose
    # tets keep off Gamma (where the body is held), for each rigid motion v.
    # The multipliers are moments normalised by 1/|F|: without the |F|
    # scale in P the defect is of order one.
    body = build_body_mesh(2)
    system = asm.build_mixed_system(body, build_plate_mesh(4), default_case())
    hb = hybrid.HybridBody(system.smap, system.blocks,
                           system.sigma_essential_idx)
    P = hb._coarse_transfer()
    unscaled = P.copy()
    unscaled.data[:] = 1.0
    off = np.repeat(~_near_gamma_faces(hb.smap), 9)
    X = body.vertices
    rigid = ([np.broadcast_to(e, X.shape) for e in np.eye(3)]
             + [np.cross(e, X) for e in np.eye(3)])
    for v in rigid:
        for Q, small in ((P, True), (unscaled, False)):
            r = hb.S @ (Q @ v.ravel())
            defect = np.linalg.norm(r[off]) / np.linalg.norm(r)
            assert (defect <= 1e-12) if small else (defect >= 0.1)


def five_tet_cube():
    """The body's unit cube split into five tets: one on the four even
    corners and one at each odd corner, tagged as ``build_body_mesh`` tags
    its sides.  Each odd corner lies in exactly one tet, so on no interior
    face."""
    corners = np.indices((2, 2, 2)).reshape(3, -1).T  # id 4 i + 2 j + k
    tets = np.array([[0, 6, 5, 3], [4, 0, 6, 5], [2, 0, 3, 6], [1, 0, 5, 3],
                     [7, 6, 3, 5]])
    flip = tet_volume(corners[tets].astype(float)) < 0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    return body_mesh_from_tets(corners + [-0.5, -0.5, 0.0], tets, 1)


def test_vertex_on_no_interior_face_leaves_the_coarse_space():
    body = five_tet_cube()
    assert sorted(np.bincount(body.tets.ravel())) == [1] * 4 + [4] * 4
    assert not validate_mesh(body)
    assert_matches_oracle(body, build_plate_mesh(4), default_case())


@pytest.mark.parametrize("n_body", [1, 2, 3])
def test_coarse_transfer_on_kuhn_meshes_keeps_every_vertex(n_body):
    # Every vertex of a Kuhn mesh lies on an interior face, so P is the
    # transfer from all vertices, bit for bit.
    body = build_body_mesh(n_body)
    system = asm.build_mixed_system(body, build_plate_mesh(4 * n_body),
                                    default_case())
    hb = hybrid.condense(system)[0]
    smap = hb.smap
    verts = smap.face_vertices[smap.face_neighbor >= 0]
    xyz = body.vertices[verts]
    area = 0.5 * np.linalg.norm(
        np.cross(xyz[:, 1] - xyz[:, 0], xyz[:, 2] - xyz[:, 0]), axis=1)
    cols = (3 * verts[:, :, None] + np.arange(3)).ravel()
    every = sp.block_diag((sp.csr_matrix(
        (np.repeat(area, 9), (np.arange(hb.n_lam), cols)),
        shape=(hb.n_lam, 3 * body.n_vertices)),
        sp.identity(hb.K.shape[0])), format="csr")
    P = hb._coarse_transfer()
    assert P.shape == every.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(P, name), getattr(every, name)), name


def test_pcg_iterations_stay_flat_under_refinement():
    its = []
    for n_body in (4, 8):
        _, report = vcli.solve_mixed(
            build_body_mesh(n_body),
            build_plate_mesh(2 * n_body, Diagonal.SAME_AS_BODY),
            default_case())
        assert report.history[0] == 1.0
        assert report.history[-1] <= hybrid.PCG_TOL
        assert len(report.history) == report.iterations + 1
        its.append(report.iterations)
    assert max(its) <= 80
    assert max(its) <= 1.25 * min(its)


def _count_factors(monkeypatch):
    """The sizes of the matrices factored from now on, in order."""
    sizes = []

    def counted(original):
        def wrapper(M):
            sizes.append(M.shape[0])
            return original(M)
        return wrapper

    for module in (hybrid, dd, vcli, solvers):
        if hasattr(module, "SparseFactor"):
            monkeypatch.setattr(module, "SparseFactor",
                                counted(module.SparseFactor))
    return sizes


def test_pcg_past_its_budget_gives_way_to_a_direct_factor(monkeypatch):
    monkeypatch.setattr(hybrid, "PCG_MIN_IT", 2)
    monkeypatch.setattr(hybrid, "PCG_UNKNOWNS_PER_IT", 10 ** 9)
    sizes = _count_factors(monkeypatch)
    body, plate = build_body_mesh(2), build_plate_mesh(4)
    sol, report = vcli.solve_mixed(body, plate, default_case())
    n_free = np.count_nonzero(~PlateDofMap(plate).constrained)
    assert sizes == [3 * body.n_vertices + n_free, report.size]
    assert report.direct_fallback and report.iterations == 2
    assert report.history[-1] > hybrid.PCG_TOL
    assert report.relative_residual <= RESIDUAL_CONTRACT
    ref = monolithic_fields(body, plate, default_case())
    assert relative_difference((sol.sigma, sol.u, sol.w), ref) <= ORACLE_RTOL


def test_direct_factor_serves_every_later_solve(monkeypatch):
    monkeypatch.setattr(hybrid, "PCG_MIN_IT", 2)
    monkeypatch.setattr(hybrid, "PCG_UNKNOWNS_PER_IT", 10 ** 9)
    body = build_body_mesh(2)
    system = asm.build_mixed_system(body, build_plate_mesh(4), default_case())
    hb = hybrid.HybridBody(system.smap, system.blocks,
                           system.sigma_essential_idx)
    sizes = _count_factors(monkeypatch)
    r = np.random.default_rng(9).standard_normal(hb.S.shape[0])
    _, first, direct_first = hb.solve_condensed(r)
    assert "_preconditioner" not in vars(hb)
    y, second, direct_second = hb.solve_condensed(r)
    assert len(first) == 3 and second == []
    assert direct_first and direct_second
    assert sizes == [3 * body.n_vertices, hb.S.shape[0]]
    assert np.linalg.norm(hb.S @ y - r) <= 1e-12 * np.linalg.norm(r)


@pytest.mark.parametrize("nu", [0.4999, 0.49999])
def test_near_incompressible_body_n4_gives_way_early_and_solves(nu):
    # The P1 coarse space locks as nu -> 1/2 (CG alone takes 693 iterations
    # at nu = 0.4999 and does not converge in 1000 at 0.49999); CG forecasts
    # a count past its budget within a few windows and S is factored.
    case = default_case(replace(default_params(), nu_alpha=nu))
    body, plate = build_body_mesh(4), build_plate_mesh(8, Diagonal.FLIPPED)
    sol, report = vcli.solve_mixed(body, plate, case)
    assert report.direct_fallback
    assert report.iterations < hybrid.PCG_MIN_IT / 2
    assert report.relative_residual <= RESIDUAL_CONTRACT
    ref = monolithic_fields(body, plate, case)
    assert relative_difference((sol.sigma, sol.u, sol.w), ref) <= ORACLE_RTOL


def test_solve_mixed_factors_only_the_coarse_matrix(monkeypatch):
    sizes = _count_factors(monkeypatch)
    body, plate = build_body_mesh(2), build_plate_mesh(8, Diagonal.FLIPPED)
    _, report = vcli.solve_mixed(body, plate, default_case())
    n_free = np.count_nonzero(~PlateDofMap(plate).constrained)
    assert sizes == [3 * body.n_vertices + n_free]
    assert not report.direct_fallback


def test_direct_solves_report_no_iterations():
    rng = np.random.default_rng(7)
    Q = rng.standard_normal((8, 8))
    _, report = solve_saddle_point(sp.csr_matrix(Q @ Q.T + 8 * np.eye(8)),
                                   rng.standard_normal(8))
    assert report.iterations == 0 and report.history == []


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
# The local saddle inverses by block elimination against LU inverses.
# ---------------------------------------------------------------------------

def local_inverses(body, plate, case):
    """The elimination's inverses of the local saddle blocks of the coupled
    system and the blocks themselves, built whole."""
    system = asm.build_mixed_system(body, plate, case)
    hb = hybrid.condense(system)[0]
    assert hb.essential.any()
    return hb.M_inv, saddle_blocks(system.blocks.A, system.blocks.B,
                                   hb.essential)


def assert_inverses_equal_lu(body, plate):
    """Each block of M_T^-1 (stress, stress-displacement, displacement) to
    1e-12 relative to its largest entry, tet by tet."""
    got, M = local_inverses(body, plate, default_case())
    ref = np.linalg.inv(M)
    for rows in (slice(0, 42), slice(42, 54)):
        for cols in (slice(0, 42), slice(42, 54)):
            g, r = got[:, rows, cols], ref[:, rows, cols]
            assert np.all(np.abs(g - r).max(axis=(1, 2))
                          <= 1e-12 * np.abs(r).max(axis=(1, 2)))


@pytest.mark.parametrize("n_body, n_plate", [(1, 4), (2, 4), (2, 8), (3, 12),
                                             (4, 8)])
@pytest.mark.parametrize("diagonal", [Diagonal.SAME_AS_BODY,
                                      Diagonal.FLIPPED])
def test_local_saddle_inverses_equal_lu_inverses(n_body, n_plate, diagonal):
    assert_inverses_equal_lu(build_body_mesh(n_body),
                             build_plate_mesh(n_plate, diagonal))


@SETTINGS
@given(meshes)
def test_local_saddle_inverses_equal_lu_inverses_on_jittered_meshes(example):
    assert_inverses_equal_lu(*build(example))


@pytest.mark.parametrize("nu", [0.4999, 0.49999])
def test_local_saddle_inverses_keep_the_lu_residual_towards_incompressibility(
        nu):
    # A^-1 grows like 1 / (1 - 2 nu).  Taken as the difference A^-1 -
    # X Sigma^-1 X^T, the stress block leaves largest residuals M_T M_T^-1
    # - I of 918 (0.4999) and 7.5e3 (0.49999) times the LU's on this mesh;
    # as a product of P L^-1 with itself, 1.25 and 0.92 times.
    case = default_case(replace(default_params(), nu_alpha=nu))
    got, M = local_inverses(build_body_mesh(3),
                            build_plate_mesh(12, Diagonal.FLIPPED), case)
    eye = np.eye(54)
    residual = np.abs(M @ got - eye).max()
    assert residual <= 2 * np.abs(M @ np.linalg.inv(M) - eye).max()


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
    with pytest.raises(ValueError, match="local saddle block of tet 3 is "
                       "ill-conditioned"):
        hybrid.HybridBody(smap, b, ess)


@pytest.mark.parametrize("defect", ["singular", "ill-conditioned"])
def test_bad_block_in_a_later_chunk_names_its_global_tet(blocks, defect,
                                                          monkeypatch):
    # Six tets in chunks of four: tet 5 is the second chunk's tet 1.
    monkeypatch.setattr(fe_elements, "LOCAL_CHUNK", 4)
    smap, b, ess = blocks
    if defect == "singular":
        b.B[5] = 0.0
    else:
        b.A[5] *= 1e-14
    with pytest.raises(ValueError, match="local saddle block of tet 5 is "
                       "ill-conditioned"):
        hybrid.HybridBody(smap, b, ess)


def test_compliance_block_not_positive_definite_is_refused(blocks,
                                                          monkeypatch):
    # With -A_T the saddle block stays invertible, as well conditioned as
    # before, but the elimination has no Cholesky factor of it.  Six tets in
    # chunks of four: tet 5 is the second chunk's tet 1.
    monkeypatch.setattr(fe_elements, "LOCAL_CHUNK", 4)
    smap, b, ess = blocks
    b.A[5] *= -1.0
    with pytest.raises(ValueError, match=r"local saddle block of tet 5 is "
                       r"ill-conditioned \(cond_1 = inf"):
        hybrid.HybridBody(smap, b, ess)


def test_chunked_local_inverses_equal_one_batch(blocks, monkeypatch):
    smap, b, ess = blocks
    whole = hybrid.HybridBody(smap, b, ess).M_inv
    monkeypatch.setattr(fe_elements, "LOCAL_CHUNK", 4)
    assert np.array_equal(hybrid.HybridBody(smap, b, ess).M_inv, whole)


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
    # One solve_dd: one assembly, whose stress batches cover every tet once
    # for the body blocks and the interface faces' owners once for the
    # coupling, one plate stiffness, one condensation, and two factors (the
    # multiplier block and the free plate), neither of them the coupled S.
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (asm, dd):
        counted(module, "assemble_plate_stiffness")
    for module, name in [(asm, "StressBatch"), (dd, "build_mixed_system"),
                         (hybrid, "HybridBody"), (hybrid, "SparseFactor"),
                         (dd, "SparseFactor")]:
        counted(module, name)
    body, plate = build_body_mesh(2), build_plate_mesh(8)
    monkeypatch.setattr(fe_elements, "LOCAL_CHUNK", 7)
    sol = dd.solve_dd(body, plate, default_case())
    assert sol.report.converged
    counts = {k: len(v) for k, v in calls.items()}
    batches = calls.pop("StressBatch")
    assert counts == {
        "build_mixed_system": 1, "StressBatch": len(batches),
        "assemble_plate_stiffness": 1, "HybridBody": 1, "SparseFactor": 2}
    n_gamma = np.count_nonzero(body.boundary_tags == FaceTag.INTERFACE)
    assert [len(args[0]) for args in batches] == (
        [7] * (body.n_tets // 7) + [body.n_tets % 7] + [n_gamma])
    n_lam = 9 * np.count_nonzero(StressDofMap(body).face_neighbor >= 0)
    n_free = np.count_nonzero(~PlateDofMap(plate).constrained)
    sizes = sorted(args[0].shape[0] for args in calls["SparseFactor"])
    assert sizes == sorted([n_lam, n_free])
