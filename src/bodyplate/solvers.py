"""Sparse direct solves checked against one residual contract, and the one
preconditioned conjugate-gradient loop.

Every matrix the library factors is symmetric positive definite (SPD): the
coarse matrix of the condensed-system preconditioner, the multiplier block
and the free plate stiffness of the interface solver, the condensed system S
once its CG gives way, and the displacement baseline.  They all go through
one factor object, ``SparseFactor``: SuperLU in symmetric mode, without
pivoting, on a minimum-degree ordering of A^T + A.  It refuses by name a
matrix with a diagonal entry that is not positive, which no SPD matrix has.
``SparseFactor.solve`` is one triangular solve and one check of the relative
residual; it fails loudly above ``RESIDUAL_CONTRACT`` = 1e-10.  No solve is
refined: on the library's systems, wherever the first residual was above
1e-15, two passes of iterative refinement lowered it by less than a factor
of 2 and never below 1e-15 (``BENCH_one_direct_solve.json``).
``SparseFactor.apply`` is the same triangular solve without the check, for
applying an inverse as an operator inside an iteration whose own tolerance
is far above roundoff.

Every iterative solve goes through one loop, ``pcg``: preconditioned CG
from zero with breakdown checks on p^T A p and r^T z, stopped on the U-norm
sqrt(r^T z) of the residual relative to its start, with the Euclidean
history logged alongside; optionally also stopped, unconverged, once its
recent rate forecasts more iterations than its cap.
The interface solver (``domain_decomposition.cg_interface_solve``) and the
condensed-system solve (``hybrid.HybridBody.solve_condensed``) both run it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolveReport", "solve_saddle_point", "SparseFactor", "pcg"]

RESIDUAL_CONTRACT = 1e-10


@dataclass
class SolveReport:
    """Diagnostics of a solve: the size and nnz of the system solved, the
    relative residual and the wall time, the iteration count and relative
    U-norm residual history of an iterative solve (0 and empty for a direct
    one), and whether the iterative solve gave way to a direct one."""

    size: int
    nnz: int
    relative_residual: float
    wall_time: float
    iterations: int = 0
    history: list[float] = field(default_factory=list)
    direct_fallback: bool = False


class SparseFactor:
    """Factor of a symmetric positive definite matrix, reused across many
    solves (e.g. the domain-decomposition operators).  A matrix with a
    diagonal entry that is not positive is refused before factoring, with
    the row and value of the first such entry; every ``solve`` is checked
    against the residual contract."""

    def __init__(self, M: sp.spmatrix):
        M = M.tocsc()
        d = M.diagonal()
        bad = np.flatnonzero(~(d > 0))
        if bad.size:
            i = bad[0]
            raise RuntimeError(
                f"sparse factorization failed: diagonal entry {i} is "
                f"{d[i]:.3e}, not positive; SparseFactor factors symmetric "
                "positive definite matrices only"
            )
        self.M = M
        t0 = time.perf_counter()
        try:
            self.lu = spla.splu(
                M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise RuntimeError(f"sparse factorization failed ({exc})") from exc
        self.factor_time = time.perf_counter() - t0

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution of M x = b."""
        return self.checked_solve(b)[0]

    def apply(self, b: np.ndarray) -> np.ndarray:
        """M^-1 b by one triangular solve, without the residual check: for
        operator applications inside an iteration only."""
        return self.lu.solve(np.asarray(b, dtype=float))

    def checked_solve(self, b: np.ndarray) -> tuple[np.ndarray, float]:
        """Solution of M x = b by one triangular solve, and its relative
        residual, which must meet the contract; a zero right-hand side gives
        zero at once."""
        b = np.asarray(b, dtype=float)
        nb = np.linalg.norm(b)
        if nb == 0.0:
            return np.zeros_like(b), 0.0
        x = self.lu.solve(b)
        rel = np.linalg.norm(b - self.M @ x) / nb
        if not rel <= RESIDUAL_CONTRACT:
            raise RuntimeError(
                f"direct solve residual {rel:.3e} exceeds {RESIDUAL_CONTRACT:.1e}"
            )
        return x, rel


def solve_saddle_point(M: sp.spmatrix,
                       b: np.ndarray) -> tuple[np.ndarray, SolveReport]:
    """Direct solve of a symmetric positive definite system, with its
    report.  It keeps its saddle-point name because ``bench/layertrace.py``
    wraps it by that name."""
    t0 = time.perf_counter()
    x, rel = SparseFactor(M).checked_solve(b)
    return x, SolveReport(M.shape[0], M.nnz, rel, time.perf_counter() - t0)


def pcg(apply_op, apply_prec, b: np.ndarray, tol: float, max_it: int,
        label: str = "CG", window: int = 0):
    """Preconditioned CG on A x = b from x = 0, for A = ``apply_op`` and the
    preconditioner ``apply_prec``, both symmetric positive definite.

    Stops when the U-norm sqrt(r^T z) of the residual, relative to its start,
    is at most ``tol``, or after ``max_it`` iterations.  With ``window`` > 0
    it also stops, unconverged, as soon as the rate over the last ``window``
    iterations forecasts more than ``max_it`` iterations in all.  Returns x,
    whether it converged, and the relative U-norm and Euclidean residual
    histories (both start at 1, or are [0.0] for b = 0).  Raises a
    ``RuntimeError`` naming ``label`` and the iteration when p^T A p or
    r^T z is not positive: the operator or the preconditioner is not SPD,
    and a ``ValueError`` for a ``tol`` outside (0, 1): at 1 or more CG would
    report convergence after one iteration whatever the residual, at 0 or
    less it would never converge.
    """
    if not 0 < tol < 1:
        raise ValueError(f"{label} tol must lie in (0, 1), got {tol}")
    x = np.zeros_like(b)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return x, True, [0.0], [0.0]
    r = b.copy()
    z = apply_prec(r)
    rz = _checked_rz(r, z, label, 0)
    u0 = np.sqrt(rz)
    hist_u = [1.0]
    hist_e = [1.0]
    p = z.copy()
    converged = False
    for it in range(1, max_it + 1):
        q = apply_op(p)
        pq = float(p @ q)
        if not (np.isfinite(pq) and pq > 0.0):
            raise RuntimeError(
                f"{label} breakdown at iteration {it}: p.Ap = {pq:.3e} "
                "is not positive; the operator is not SPD"
            )
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = apply_prec(r)
        rz_new = _checked_rz(r, z, label, it)
        rel_u = np.sqrt(rz_new) / u0
        hist_u.append(rel_u)
        hist_e.append(float(np.linalg.norm(r) / nb))
        if rel_u <= tol:
            converged = True
            break
        if window and it >= window:
            drop = np.log(hist_u[-1 - window] / rel_u)
            if drop <= 0.0 or it + window * np.log(rel_u / tol) / drop > max_it:
                break
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    return x, converged, hist_u, hist_e


def _checked_rz(r: np.ndarray, z: np.ndarray, label: str, it: int) -> float:
    """r^T z, which must be positive unless r is exactly zero."""
    rz = float(r @ z)
    if not (np.isfinite(rz) and (rz > 0.0 or not r.any())):
        raise RuntimeError(
            f"{label} breakdown at iteration {it}: r.z = {rz:.3e} "
            "is not positive; the preconditioner is not SPD"
        )
    return rz
