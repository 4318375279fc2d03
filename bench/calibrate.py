"""A fixed reference computation that times the host's speed of the moment.

On the 2-core reference machine the speed of a single thread switches
between a fast and a slow state every few seconds, and the share of time in
the slow state drifts over minutes.  The same solve then takes 1.0-1.7x its
fast-state time, and the medians of two 50 s runs minutes apart differ by
up to 40%.  The benchmark runs this reference before the first timed sample
and after each one, and scales the run's timings by ``NOMINAL_S`` over the
mean reference time (see ``Clock`` in ``run.py``).

The reference does the three kinds of work the library's time goes to:
interpreted loops over elements, many small dense numpy calls, and a sparse
LU factorization.  It uses numpy and scipy only, never the library, so a
change to the library does not change it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Median time of one ``Reference()()`` call on the reference machine
#: (2 cores, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS thread).
#: Adjusted times are in seconds at this speed.
NOMINAL_S = 0.15


def _indefinite_laplacian(n: int) -> sp.csc_matrix:
    """The 7-point Laplacian on an n^3 grid, shifted to be indefinite."""
    e = np.ones(n)
    t = sp.diags([-e[:-1], 2 * e, -e[:-1]], [-1, 0, 1])
    i = sp.identity(n)
    a = (sp.kron(sp.kron(t, i), i) + sp.kron(sp.kron(i, t), i)
         + sp.kron(sp.kron(i, i), t))
    return (a - 0.5 * sp.identity(n ** 3)).tocsc()


class Reference:
    """Calling it runs the reference computation and returns its seconds."""

    def __init__(self):
        self.matrix = _indefinite_laplacian(14)
        rng = np.random.default_rng(0)
        self.block = rng.standard_normal((8, 8)) + 10 * np.eye(8)
        self.vector = rng.standard_normal(8)

    def _interpreted(self) -> float:
        table: dict[int, float] = {}
        total = 0.0
        for i in range(200_000):
            key = i % 97
            table[key] = table.get(key, 0.0) + i * 0.5
            total += table[key]
        return total

    def _small_dense(self) -> float:
        total = 0.0
        for _ in range(3_000):
            total += float(np.dot(self.block, self.vector)[0])
            total += float(np.linalg.solve(self.block, self.vector)[0])
        return total

    def _sparse_lu(self) -> int:
        return spla.splu(self.matrix).nnz

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._interpreted()
        self._small_dense()
        self._sparse_lu()
        return time.perf_counter() - t0
