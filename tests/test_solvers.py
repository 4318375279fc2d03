"""Direct solver wrapper: residual contract, refinement, zero right-hand
sides, reusable factorizations, and failure attribution for singular blocks;
the shared PCG loop: its breakdown checks and its forecast stop.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from bodyplate.solvers import (
    RESIDUAL_CONTRACT,
    SparseFactor,
    pcg,
    solve_saddle_point,
)


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n))
    return sp.csr_matrix(Q @ Q.T + n * np.eye(n))


def random_saddle(n, m, seed=1):
    """[[A, B^T], [B, 0]] with A SPD and B of full row rank."""
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n))
    A = Q @ Q.T + n * np.eye(n)
    B = rng.standard_normal((m, n))
    M = np.block([[A, B.T], [B, np.zeros((m, m))]])
    return sp.csr_matrix(M)


class TestSolveSaddlePoint:
    def test_dense_oracle(self):
        M = random_saddle(20, 6)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(26)
        x, report = solve_saddle_point(M, b)
        x_dense = np.linalg.solve(M.toarray(), b)
        assert_allclose(x, x_dense, atol=1e-9)
        assert report.relative_residual <= RESIDUAL_CONTRACT
        assert report.size == 26
        assert report.nnz == M.nnz

    def test_zero_rhs_shortcut(self):
        M = random_saddle(10, 3)
        x, report = solve_saddle_point(M, np.zeros(13))
        assert_allclose(x, 0.0, atol=0)
        assert report.relative_residual == 0.0

    def test_singular_block_named(self):
        # A structurally singular trailing block: the factorization fails
        # with a named error.
        A = random_spd(8).toarray()
        M = sp.csr_matrix(
            np.block([[A, np.zeros((8, 2))], [np.zeros((2, 8)), np.zeros((2, 2))]])
        )
        with pytest.raises(RuntimeError) as err:
            solve_saddle_point(M, np.ones(10))
        assert "factorization failed" in str(err.value)

    def test_spd_matches_dense(self):
        M = random_spd(30, seed=5)
        b = np.random.default_rng(6).standard_normal(30)
        x, report = solve_saddle_point(M, b)
        assert_allclose(M @ x, b, atol=1e-9 * np.linalg.norm(b))
        assert report.relative_residual <= RESIDUAL_CONTRACT

    def test_spd_report_wall_time_nonnegative(self):
        M = random_spd(10)
        _, report = solve_saddle_point(M, np.ones(10))
        assert report.wall_time >= 0.0
        assert report.refine_passes >= 0

    def test_residual_contract_enforced(self):
        # A numerically singular (rank-deficient) matrix with an incompatible
        # right-hand side cannot meet the contract.
        M = sp.csr_matrix(np.outer(np.ones(5), np.ones(5)) + 1e-300 * np.eye(5))
        with pytest.raises(RuntimeError):
            solve_saddle_point(M, np.arange(5.0))


class TestSparseFactor:
    def test_reuse_many_solves(self):
        M = random_spd(25, seed=7)
        fac = SparseFactor(M)
        rng = np.random.default_rng(8)
        for _ in range(4):
            b = rng.standard_normal(25)
            x = fac.solve(b)
            assert np.linalg.norm(M @ x - b) <= 1e-9 * np.linalg.norm(b)

    def test_zero_rhs(self):
        fac = SparseFactor(random_spd(12))
        assert_allclose(fac.solve(np.zeros(12)), 0.0, atol=0)

    def test_apply_is_one_unrefined_solve(self):
        M = random_spd(25, seed=11)
        fac = SparseFactor(M)
        b = np.random.default_rng(12).standard_normal(25)
        assert np.array_equal(fac.apply(b), fac.lu.solve(b))
        assert np.linalg.norm(M @ fac.apply(b) - b) <= 1e-9 * np.linalg.norm(b)

    def test_factor_time_recorded(self):
        fac = SparseFactor(random_spd(12))
        assert fac.factor_time >= 0.0

    def test_saddle_point_indefinite(self):
        M = random_saddle(15, 5, seed=9)
        fac = SparseFactor(M)
        b = np.random.default_rng(10).standard_normal(20)
        x = fac.solve(b)
        assert np.linalg.norm(M @ x - b) <= 1e-9 * np.linalg.norm(b)


class TestPcg:
    def test_solves_an_spd_system(self):
        A = random_spd(30, seed=4)
        b = np.random.default_rng(5).standard_normal(30)
        d = 1.0 / A.diagonal()
        x, converged, hist_u, hist_e = pcg(lambda p: A @ p, lambda r: d * r,
                                           b, 1e-12, 100)
        assert converged and hist_u[0] == 1.0 and hist_u[-1] <= 1e-12
        assert len(hist_e) == len(hist_u)
        assert_allclose(A @ x, b, atol=1e-9 * np.linalg.norm(b))

    def test_indefinite_preconditioner_at_the_start_is_named(self):
        with pytest.raises(RuntimeError, match=r"lab breakdown at iteration "
                                               r"0: r\.z = .* not positive"):
            pcg(lambda p: p, lambda r: -r, np.ones(3), 1e-12, 10,
                label="lab")

    def test_indefinite_preconditioner_later_is_named(self):
        # r.z = 0.75 > 0 at the start; after one step r = (0.4, 0, 0.8) and
        # r.z = 0.16 - 0.64 < 0.
        prec = np.array([1.0, 1.0, -1.0])
        with pytest.raises(RuntimeError, match=r"lab breakdown at iteration "
                                               r"1: r\.z = -4\.800e-01"):
            pcg(lambda p: p, lambda r: prec * r, np.array([1.0, 0.0, 0.5]),
                1e-12, 10, label="lab")

    @pytest.mark.parametrize("tol", [0.0, 1.0, np.nan])
    def test_tolerance_outside_unit_interval_is_refused(self, tol):
        with pytest.raises(ValueError, match="lab tol must lie in"):
            pcg(lambda p: p, lambda r: r, np.ones(3), tol, 10, label="lab")

    def test_window_stops_a_stalled_iteration_early(self):
        # Unpreconditioned CG on a spread spectrum: far from 1e-13 in 60
        # iterations, which the rate over a window of 5 forecasts.
        A = sp.diags(np.logspace(0, 8, 400))
        b = np.ones(400)
        runs = [pcg(lambda p: A @ p, lambda r: r, b, 1e-13, 60, window=w)
                for w in (0, 5)]
        (_, full_conv, full, _), (_, early_conv, early, _) = runs
        assert not full_conv and len(full) == 61
        assert not early_conv and len(early) < 20
        assert early == full[:len(early)]
