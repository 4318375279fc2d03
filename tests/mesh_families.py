"""The mesh families of the tests, off the Kuhn lattice of
``build_body_mesh`` and ``build_plate_mesh``.

* *jittered*: the Kuhn meshes with their vertices moved by up to 0.2 h, the
  body's outer faces and Gamma kept fixed, the plate's vertices moved only
  strictly inside or strictly outside closure(Gamma), off the clamped
  boundary, so the plate still resolves Gamma and no two elements are
  congruent (``jittered_body``, ``jittered_plate``, drawn by hypothesis as
  ``meshes`` and built by ``build``);
* *Delaunay*: scipy's tetrahedralization of jittered body vertices, off the
  Kuhn connectivity (``delaunay_body``);
* *flattened*: body n = 2 with one flat or nearly flat tet
  (``flattened_body``).

``quality`` reports the smallest tet volume over h^3.
"""

from dataclasses import replace

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from bodyplate.geometry_mesh import (
    GAMMA_HALF_WIDTH,
    Diagonal,
    TetMesh,
    body_mesh_from_tets,
    build_body_mesh,
    build_plate_mesh,
    tet_volume,
    validate_mesh,
)

JITTER = 0.2

SETTINGS = settings(max_examples=6, deadline=None)


def jittered_body(n, seed):
    """Body mesh with its strictly interior vertices moved by up to
    0.2 h (each coordinate by up to 0.2 / n)."""
    body = build_body_mesh(n)
    shift = np.random.default_rng(seed).uniform(-JITTER, JITTER,
                                                body.vertices.shape) / n
    shift[np.unique(body.boundary_faces)] = 0.0
    return replace(body, vertices=body.vertices + shift)


def jittered_plate(n, diagonal, seed):
    """Plate mesh with the vertices strictly inside or strictly outside
    closure(Gamma) and off the clamped boundary moved by up to 0.2 h."""
    plate = build_plate_mesh(n, diagonal)
    radius = np.max(np.abs(plate.vertices), axis=1)
    fixed = np.isclose(radius, GAMMA_HALF_WIDTH) | np.isclose(radius, 1.0)
    shift = np.random.default_rng(seed).uniform(-JITTER, JITTER,
                                                plate.vertices.shape) * 2.0 / n
    shift[fixed] = 0.0
    return replace(plate, vertices=plate.vertices + shift)


meshes = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.sampled_from([(4, Diagonal.SAME_AS_BODY), (8, Diagonal.FLIPPED),
                     (8, Diagonal.SAME_AS_BODY)]),
)


def build(example):
    """Validated jittered meshes for one (seed, body n, plate) example."""
    seed, n_body, (n_plate, diagonal) = example
    body = jittered_body(n_body, seed)
    plate = jittered_plate(n_plate, diagonal, seed + 1)
    assert validate_mesh(body) == []
    assert validate_mesh(plate) == []
    return body, plate


def delaunay_body(n, amp, seed):
    """scipy's Delaunay tetrahedralization of the ``build_body_mesh(n)``
    vertices, each interior coordinate moved by up to amp / n: off the Kuhn
    connectivity, with badly shaped tets."""
    body = build_body_mesh(n)
    v = body.vertices.copy()
    interior = np.ones(len(v), dtype=bool)
    interior[np.unique(body.boundary_faces)] = False
    v[interior] += np.random.default_rng(seed).uniform(
        -amp, amp, (np.count_nonzero(interior), 3)) / n
    tets = Delaunay(v).simplices.astype(np.int64)
    vol = tet_volume(v[tets])
    tets, vol = tets[np.abs(vol) > 1e-14], vol[np.abs(vol) > 1e-14]
    tets[vol < 0] = tets[vol < 0][:, [0, 1, 3, 2]]
    return body_mesh_from_tets(v, tets, n)


def flattened_body(lift):
    """Body n=2 with tet 10 flat (lift 0: vertex 1 moved into the plane of
    the tet's opposite face, the top of the body) or nearly flat (lift > 0:
    that far below it).  Tets 0-9 keep a positive volume."""
    body = build_body_mesh(2)
    verts = body.vertices.copy()
    verts[1, 2] = 1.0 - lift
    return replace(body, vertices=verts)


def quality(mesh: TetMesh) -> float:
    """The smallest signed tet volume of ``mesh`` over h^3."""
    return float(tet_volume(mesh.vertices[mesh.tets]).min() / mesh.h ** 3)
