"""Sparse direct solves with residual verification.

Every system goes through one factor object, ``SparseFactor``: SuperLU in
symmetric mode, with the ordering picked from the matrix itself.  A matrix
whose diagonal is positive throughout (the condensed face-multiplier system
of the hybridized body solve, the plate stiffness, the displacement
baseline) is factored without pivoting on a minimum-degree ordering of
A^T + A; any other (the indefinite saddle-point system, kept as the
monolithic test oracle) on COLAMD with a small diagonal-pivot threshold.
Every solve checks the relative residual, applies up to two steps of
iterative refinement until it reaches 1e-15 or stagnates, and fails loudly
if the final residual is above 1e-10.  Refining to near roundoff keeps
downstream identities that amplify the residual (equilibrium checks,
mass-inverse applications) at their own roundoff level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolveReport", "solve_saddle_point", "SparseFactor"]

RESIDUAL_CONTRACT = 1e-10
REFINE_THRESHOLD = 1e-15
_MAX_REFINE_PASSES = 2


def _refine(lu, M, b, x, nb):
    """Iterative refinement toward REFINE_THRESHOLD, keeping the best
    iterate if a pass stops improving the residual.  Returns the iterate,
    its relative residual and the number of passes run."""
    r = b - M @ x
    rel = np.linalg.norm(r) / nb
    passes = 0
    while rel > REFINE_THRESHOLD and passes < _MAX_REFINE_PASSES:
        passes += 1
        x_new = x + lu.solve(r)
        r_new = b - M @ x_new
        rel_new = np.linalg.norm(r_new) / nb
        if rel_new >= rel:
            break
        x, r, rel = x_new, r_new, rel_new
    return x, rel, passes


@dataclass
class SolveReport:
    """Diagnostics of a direct solve."""

    size: int
    nnz: int
    relative_residual: float
    wall_time: float
    refine_passes: int


class SparseFactor:
    """LU factorization reused across many solves (e.g. the domain-
    decomposition operators); every solve is refined and checked against the
    residual contract.  A positive diagonal selects the pivot-free
    minimum-degree factorization, anything else the pivoting COLAMD one.

    ``block_names`` is an optional list of (name, lo, hi) row ranges used to
    attribute a zero pivot to an unknown block in error messages.
    """

    def __init__(self, M: sp.spmatrix, block_names: tuple | None = None):
        M = M.tocsc()
        self.M = M
        self.block_names = block_names
        if np.all(M.diagonal() > 0):
            ordering, pivot_thresh = "MMD_AT_PLUS_A", 0.0
        else:
            ordering, pivot_thresh = "COLAMD", 0.001
        t0 = time.time()
        try:
            self.lu = spla.splu(
                M, permc_spec=ordering, diag_pivot_thresh=pivot_thresh,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise RuntimeError(self._singular_message(str(exc))) from exc
        self.factor_time = time.time() - t0

    def _singular_message(self, detail: str) -> str:
        msg = f"sparse factorization failed ({detail})"
        if "singular" in detail.lower() and self.block_names:
            import re

            m = re.search(r"\d+", detail)
            if m:
                row = int(m.group())
                for name, lo, hi in self.block_names:
                    if lo <= row < hi:
                        msg += f"; pivot row {row} lies in the {name} block"
                        break
        return msg

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution of M x = b."""
        return self.refined_solve(b)[0]

    def refined_solve(self, b: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Solution of M x = b with its relative residual and the number of
        refinement passes; a zero right-hand side gives zero at once."""
        b = np.asarray(b, dtype=float)
        nb = np.linalg.norm(b)
        if nb == 0.0:
            return np.zeros_like(b), 0.0, 0
        x, rel, passes = _refine(self.lu, self.M, b, self.lu.solve(b), nb)
        if rel > RESIDUAL_CONTRACT:
            raise RuntimeError(
                f"direct solve residual {rel:.3e} exceeds {RESIDUAL_CONTRACT:.1e}"
            )
        return x, rel, passes


def solve_saddle_point(M: sp.spmatrix, b: np.ndarray,
                       block_names=None) -> tuple[np.ndarray, SolveReport]:
    """Direct solve of a symmetric system, indefinite (saddle point) or
    positive definite; ``block_names`` as for ``SparseFactor``."""
    t0 = time.time()
    x, rel, passes = SparseFactor(M, block_names=block_names).refined_solve(b)
    return x, SolveReport(M.shape[0], M.nnz, rel, time.time() - t0, passes)
