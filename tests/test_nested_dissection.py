"""The nested-dissection order: a permutation that repeats, whose every cut
leaves no edge between its two children once the separator is out, on
empty, small, disconnected and coincident inputs; the factor of S_lambda,
lambda in that order against the minimum-degree one; and the fill guard:
on body-4 multiplier blocks, Kuhn and Delaunay, the order must keep the
L + U entries at most 0.9 times minimum degree's.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from bodyplate import assembly as asm
from bodyplate import domain_decomposition as dd
from bodyplate import hybrid
from bodyplate.geometry_mesh import Diagonal, build_body_mesh, build_plate_mesh
from bodyplate.manufactured import default_case
from bodyplate.solvers import (
    ND_LEAF,
    RESIDUAL_CONTRACT,
    SparseFactor,
    _dissect,
    nested_dissection,
)
from mesh_families import delaunay_body


def delaunay_graph(points):
    """The symmetric edge graph of the Delaunay triangulation of points."""
    simplices = Delaunay(points).simplices
    k = simplices.shape[1]
    a, b = np.triu_indices(k, 1)
    i, j = simplices[:, a].ravel(), simplices[:, b].ravel()
    n = len(points)
    g = sp.csr_matrix((np.ones(i.size), (i, j)), shape=(n, n))
    return ((g + g.T) > 0).astype(float).tocsr()


def grid_graph(shape):
    """The 7-point grid graph on a box of nodes, with their coordinates."""
    idx = np.arange(np.prod(shape)).reshape(shape)
    pairs = [(np.take(idx, range(s - 1), axis=ax).ravel(),
              np.take(idx, range(1, s), axis=ax).ravel())
             for ax, s in enumerate(shape)]
    i = np.concatenate([p[0] for p in pairs])
    j = np.concatenate([p[1] for p in pairs])
    n = idx.size
    g = sp.csr_matrix((np.ones(i.size), (i, j)), shape=(n, n))
    points = np.stack(np.unravel_index(np.arange(n), shape), axis=1)
    return (g + g.T).tocsr(), points.astype(float)


def assert_dissection(graph, points):
    """The order is a permutation and repeats; each cut is a part of more
    than ``ND_LEAF`` nodes, split into children that no edge joins."""
    order, cuts = _dissect(graph, points)
    n = graph.shape[0]
    assert np.array_equal(np.sort(order), np.arange(n))
    assert np.array_equal(nested_dissection(graph, points), order)
    g = sp.csr_matrix(graph)
    for lo, n0, n1, n_sep in cuts:
        assert n0 + n1 + n_sep > ND_LEAF
        first = order[lo:lo + n0]
        second = order[lo + n0:lo + n0 + n1]
        assert g[first][:, second].nnz == 0
        assert g[second][:, first].nnz == 0
    return order, cuts


def multiplier_block(body):
    """S_lambda,lambda of a body mesh and its order in ``solve_dd``; the
    plate does not reach the block."""
    hb = hybrid.condense(asm.build_mixed_system(
        body, build_plate_mesh(8, Diagonal.FLIPPED), default_case()))[0]
    return hb.S.ll, dd._multiplier_order(hb.smap, hb.S.ll)


def test_grid_is_dissected_into_unjoined_children():
    order, cuts = assert_dissection(*grid_graph((9, 8, 7)))
    # Every part of more than ND_LEAF nodes is cut, down to the leaves.
    assert len(cuts) >= 2 ** 5 - 1
    assert cuts[0, 0] == 0 and cuts[0, 1:].sum() == 9 * 8 * 7


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 400), st.integers(2, 3), st.integers(0, 2 ** 16))
def test_delaunay_graphs_are_dissected_into_unjoined_children(n, dim, seed):
    points = np.random.default_rng(seed).uniform(size=(n + dim + 2, dim))
    assert_dissection(delaunay_graph(points), points)


def test_empty_graph():
    order = nested_dissection(sp.csr_matrix((0, 0)), np.zeros((0, 3)))
    assert order.shape == (0,) and order.dtype == np.int64


@pytest.mark.parametrize("n", [1, 5, ND_LEAF])
def test_parts_up_to_the_leaf_keep_their_node_order(n):
    graph, points = grid_graph((n, 1, 1))
    order, cuts = _dissect(graph, points)
    assert np.array_equal(order, np.arange(n)) and cuts.shape == (0, 4)


def test_disconnected_graph():
    g, p = grid_graph((5, 4, 4))
    graph = sp.block_diag((g, g), format="csr")
    points = np.concatenate([p, p + [10.0, 0.0, 0.0]])
    _, cuts = assert_dissection(graph, points)
    # The first cut runs between the two components: no separator.
    assert tuple(cuts[0]) == (0, 80, 80, 0)


def test_coincident_points_split_by_node_number():
    graph, _ = grid_graph((5, 5, 5))
    order, cuts = assert_dissection(graph, np.zeros((125, 3)))
    # With every extent zero the first cut splits the node numbers in half.
    _, n0, n1, _ = cuts[0]
    assert np.all(order[:n0] < 62) and np.all(order[n0:n0 + n1] >= 62)


def test_factor_in_the_order_matches_minimum_degree():
    ll, order = multiplier_block(build_body_mesh(3))
    M = ll.tocsc()
    assert np.array_equal(np.sort(order), np.arange(M.shape[0]))
    mmd, nd = SparseFactor(M), SparseFactor(M, order)
    # The residual is checked against M itself, not a permuted copy.
    assert nd.M is M
    b = np.random.default_rng(4).standard_normal(M.shape[0])
    x_mmd, _ = mmd.checked_solve(b)
    x_nd, rel = nd.checked_solve(b)
    assert rel <= RESIDUAL_CONTRACT
    assert np.array_equal(nd.apply(b), x_nd)
    assert np.linalg.norm(x_nd - x_mmd) <= 1e-12 * np.linalg.norm(x_mmd)


def fill(factor):
    return factor.lu.L.nnz + factor.lu.U.nnz


@pytest.mark.parametrize("body", [
    pytest.param(lambda: build_body_mesh(4), id="kuhn"),
    pytest.param(lambda: delaunay_body(4, 0.2, 2), id="delaunay-0.2-2"),
    pytest.param(lambda: delaunay_body(4, 0.45, 0), id="delaunay-0.45-0"),
])
def test_fill_guard(body):
    # The counts repeat exactly: 1,685,664 of 1,980,180 (0.851) on Kuhn,
    # 1,816,866 of 2,154,474 (0.843) and 1,838,448 of 2,078,370 (0.885)
    # on the Delaunay meshes.
    ll, order = multiplier_block(body())
    M = ll.tocsc()
    assert fill(SparseFactor(M, order)) <= 0.9 * fill(SparseFactor(M))
