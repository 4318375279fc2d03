"""Sparse direct solves checked against one residual contract, and the one
preconditioned conjugate-gradient loop.

Every matrix the library factors is symmetric positive definite (SPD): the
coarse matrix of the condensed-system preconditioner, the multiplier block
and the free plate stiffness of the interface solver, the condensed system S
once its CG gives way, and the displacement baseline.  They all go through
one factor object, ``SparseFactor``: SuperLU in symmetric mode, without
pivoting, on a minimum-degree ordering of A^T + A, or on an order the
caller gives.  The multiplier block of the interface solver takes its
faces' order from ``nested_dissection`` (coordinate bisection with vertex
separators).  Every other matrix keeps minimum degree: at body n=5 it gave
less fill than nested dissection on the coarse matrix and on S, and on the
plate stiffness faster solves (``BENCH_nested_dissection.json``).
``SparseFactor`` refuses by name a matrix with a diagonal entry that is not
positive, which no SPD matrix has.
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

Every solve reports on one ``SolveReport``; the three coupled solves return
their fields as one ``SolutionFields``, which the error norms take as is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .fe_elements import (
    BodyCGDofMap,
    BodyDGDofMap,
    PlateDofMap,
    StressDofMap,
    check_own_mesh,
)
from .geometry_mesh import TetMesh, TriMesh
from .materials import MaterialParams

__all__ = ["SolveReport", "SolutionFields", "solve_saddle_point",
           "SparseFactor", "nested_dissection", "pcg"]

RESIDUAL_CONTRACT = 1e-10

#: Largest part that ``nested_dissection`` leaves uncut.
ND_LEAF = 8


@dataclass
class SolveReport:
    """Diagnostics of a solve: the size and nnz of the system solved (nnz 0
    when matrix-free), its relative residual, the wall time of the whole
    public solve call, assembly included, the iterations with the relative
    U-norm and Euclidean residual histories (0 and empty for a direct
    solve), and whether an iterative solve gave way to a direct one."""

    size: int
    nnz: int
    relative_residual: float
    wall_time: float
    iterations: int = 0
    history: list[float] = field(default_factory=list)
    history_euclid: list[float] = field(default_factory=list)
    direct_fallback: bool = False

    @property
    def converged(self) -> bool:
        """Always true: every solver raises rather than return an
        unconverged solve."""
        return True

    @property
    def rho_avg(self) -> float:
        """Average reduction of the U-norm residual per iteration,
        history[-1] ** (1 / iterations); 0 without iterations."""
        it = self.iterations
        return self.history[-1] ** (1.0 / it) if it else 0.0


@dataclass
class SolutionFields:
    """A solved configuration: discrete fields plus their DOF maps.

    The stress norms take sigma_h through the stress element that
    ``smap`` holds (``StressDofMap.stress``): the one the solve built,
    checked and solved with, or, for a ``StressDofMap`` that no solve has
    read (a ``SolutionFields`` made by hand), one built on the norms' first
    read and kept for the next.  ``body`` and ``plate`` must be the meshes
    the maps were built on.  ``report`` is the solve's report;
    ``junction_residual`` is set by ``solve_dd`` only."""

    method: str
    body: TetMesh
    plate: TriMesh
    params: MaterialParams
    u: np.ndarray
    w: np.ndarray
    pmap: PlateDofMap
    sigma: np.ndarray | None = None
    smap: StressDofMap | None = None
    vmap: BodyDGDofMap | None = None
    cmap: BodyCGDofMap | None = None
    report: SolveReport | None = None
    junction_residual: float | None = None

    def __post_init__(self):
        check_own_mesh("body", self.body, *(
            m for m in (self.smap, self.vmap, self.cmap) if m is not None))
        check_own_mesh("plate", self.plate, self.pmap)


class SparseFactor:
    """Factor of a symmetric positive definite matrix, reused across many
    solves (e.g. the domain-decomposition operators).  A matrix with a
    diagonal entry that is not positive is refused before factoring, with
    the row and value of the first such entry; every ``solve`` is checked
    against the residual contract.

    SuperLU orders M by minimum degree on A^T + A, unless ``order`` is
    given: then it factors M[order][:, order] as it stands, and each solve
    permutes in and out.  The residual is checked against M itself, and
    the permuted copy is not kept."""

    def __init__(self, M: sp.spmatrix, order: np.ndarray | None = None):
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
        self.order = order
        t0 = time.perf_counter()
        if order is not None:
            M, spec = M[order][:, order], "NATURAL"
        else:
            spec = "MMD_AT_PLUS_A"
        try:
            self.lu = spla.splu(
                M, permc_spec=spec, diag_pivot_thresh=0.0,
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
        b = np.asarray(b, dtype=float)
        if self.order is None:
            return self.lu.solve(b)
        x = np.empty_like(b)
        x[self.order] = self.lu.solve(b[self.order])
        return x

    def checked_solve(self, b: np.ndarray) -> tuple[np.ndarray, float]:
        """Solution of M x = b by one triangular solve, and its relative
        residual, which must meet the contract; a zero right-hand side gives
        zero at once."""
        b = np.asarray(b, dtype=float)
        nb = np.linalg.norm(b)
        if nb == 0.0:
            return np.zeros_like(b), 0.0
        x = self.apply(b)
        rel = np.linalg.norm(b - self.M @ x) / nb
        if not rel <= RESIDUAL_CONTRACT:
            raise RuntimeError(
                f"direct solve residual {rel:.3e} exceeds {RESIDUAL_CONTRACT:.1e}"
            )
        return x, rel


def nested_dissection(graph: sp.spmatrix, points: np.ndarray) -> np.ndarray:
    """A fill-reducing elimination order of the nodes of a graph with a
    symmetric pattern (its diagonal is ignored), from the nodes'
    coordinates ``points`` (n, d): nested dissection (George 1973).

    Every part of more than ``ND_LEAF`` nodes is cut in two by count along
    its longest coordinate extent, ties broken by node number.  The edges
    of the cut become a vertex separator by Koenig's minimum vertex cover of
    the bipartite cut graph (Ashcraft & Liu 1998), so no edge joins the two
    children once the separator is out.  The order puts the children first,
    then their separator.  The cuts run level by level: one matching and
    one search of its alternating graph per level serve all the parts of
    that level, and each part gets its range of the order top down.  The
    result depends only on the graph and the points."""
    return _dissect(graph, points)[0]


def _dissect(graph: sp.spmatrix, points: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """The order of ``nested_dissection`` and its cuts, one row (lo, n0,
    n1, n_sep) per cut part: the part is order[lo:lo + n0 + n1 + n_sep],
    its first child, its second child and then its separator."""
    g = sp.csr_matrix(graph)
    n = g.shape[0]
    points = np.asarray(points, dtype=float)
    u = np.repeat(np.arange(n), np.diff(g.indptr))
    v = g.indices.astype(np.int64)
    u, v = u[u != v], v[u != v]
    part = np.zeros(n, dtype=np.int64)  # part of each node, -1 once placed
    lo = np.zeros(1, dtype=np.int64)  # first slot of each part in the order
    order = np.empty(n, dtype=np.int64)
    cuts = [np.empty((0, 4), dtype=np.int64)]
    while True:
        live = np.flatnonzero(part >= 0)
        p = part[live]
        s = np.argsort(p, kind="stable")
        nodes, p = live[s], p[s]
        size = np.bincount(p, minlength=lo.size)
        rank = np.arange(nodes.size) - (np.cumsum(size) - size)[p]
        leaf = size[p] <= ND_LEAF
        order[lo[p[leaf]] + rank[leaf]] = nodes[leaf]
        part[nodes[leaf]] = -1
        nodes, p = nodes[~leaf], p[~leaf]
        if not nodes.size:
            break
        keep = (part[u] >= 0) & (part[u] == part[v])
        u, v = u[keep], v[keep]

        # Split each part by count along its longest extent.
        cut, k = np.unique(p, return_inverse=True)
        count = size[cut]
        seg = np.cumsum(count) - count
        x = points[nodes]
        extent = np.maximum.reduceat(x, seg) - np.minimum.reduceat(x, seg)
        key = x[np.arange(nodes.size), np.argmax(extent, axis=1)[k]]
        nodes = nodes[np.lexsort((key, k))]
        second = np.zeros(n, dtype=bool)
        second[nodes] = np.arange(nodes.size) - seg[k] >= count[k] // 2

        # Koenig: a maximum matching of the cut edges (first child to
        # second), the nodes Z that alternating paths reach from the
        # unmatched first-child ends, and the cover (first \ Z) + (second
        # & Z).
        c = ~second[u] & second[v]
        cu, cv = u[c], v[c]
        mate = csgraph.maximum_bipartite_matching(
            sp.csr_matrix((np.ones(cu.size), (cu, cv)), shape=(n, n)),
            perm_type="column")
        matched = np.flatnonzero(mate >= 0)
        free = np.unique(cu[mate[cu] < 0])
        src = np.concatenate([cu, mate[matched], np.full(free.size, n)])
        dst = np.concatenate([cv, matched, free])
        reached = np.zeros(n + 1, dtype=bool)
        reached[csgraph.breadth_first_order(
            sp.csr_matrix((np.ones(src.size), (src, dst)),
                          shape=(n + 1, n + 1)),
            n, return_predecessors=False)] = True
        sep = np.zeros(n, dtype=bool)
        sep[cu], sep[cv] = ~reached[cu], reached[cv]

        # The part's range: first child, second child, separator.
        cls = np.where(sep[nodes], 2, second[nodes])
        counts = np.bincount(3 * k + cls, minlength=3 * cut.size).reshape(-1, 3)
        base = lo[cut][:, None] + np.cumsum(counts, axis=1) - counts
        cuts.append(np.column_stack([lo[cut], counts]))
        on = cls == 2
        ks = k[on]
        order[base[ks, 2] + np.arange(ks.size) - np.searchsorted(ks, ks)] = \
            nodes[on]
        part[nodes[on]] = -1
        part[nodes[~on]] = 2 * k[~on] + cls[~on]
        lo = base[:, :2].ravel()
    return order, np.concatenate(cuts)


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
