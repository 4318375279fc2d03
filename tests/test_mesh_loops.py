"""The loop-free mesh layer against per-element loop references.

``build_body_mesh``, ``build_plate_mesh``, ``validate_mesh`` and
``BodyCGDofMap`` work on whole index arrays.  The references below build,
tag and check the meshes one cube, tet, face or triangle at a time, the way
the mesh layer was first written; every array must be bitwise equal to
theirs (values, shape and dtype), and ``validate_mesh`` must return the same
problem list on clean, jittered and corrupted meshes.
"""

import numpy as np
import pytest
from hypothesis import given

from bodyplate.fe_elements import BodyCGDofMap
from bodyplate.geometry_mesh import (
    GAMMA_HALF_WIDTH,
    GEOM_TOL,
    TET_LOCAL_FACES,
    Diagonal,
    FaceTag,
    TetMesh,
    TriMesh,
    build_body_mesh,
    build_plate_mesh,
    resolves_interface_boundary,
    validate_mesh,
)
from mesh_families import SETTINGS, build, meshes
from test_geometry_mesh import BODY_CORRUPTIONS, PLATE_CORRUPTIONS

KUHN_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def volume(verts):
    return float(np.linalg.det(verts[1:] - verts[0])) / 6.0


def area(verts):
    d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
    return 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])


def outward_face(vertices, tet, local_face):
    ids = tet[TET_LOCAL_FACES[local_face]]
    a, b, c = vertices[ids]
    nrm = np.cross(b - a, c - a)
    if np.dot(nrm, (a + b + c) / 3.0 - vertices[tet].mean(axis=0)) < 0:
        return (int(ids[0]), int(ids[2]), int(ids[1]))
    return (int(ids[0]), int(ids[1]), int(ids[2]))


def reference_body(n):
    """Vertices, tets, boundary faces, owners and tags, cube by cube."""
    m = n + 1
    g = np.arange(m) / n
    X, Y, Z = np.meshgrid(-0.5 + g, -0.5 + g, g.copy(), indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    tets = []
    for ix in range(n):
        for iy in range(n):
            for iz in range(n):
                for perm in KUHN_PERMS:
                    cur = np.array([ix, iy, iz])
                    steps = [cur]
                    for axis in perm:
                        cur = cur.copy()
                        cur[axis] += 1
                        steps.append(cur)
                    ids = [(s[0] * m + s[1]) * m + s[2] for s in steps]
                    if volume(vertices[ids]) < 0:
                        ids[2], ids[3] = ids[3], ids[2]
                    tets.append(ids)
    tets = np.asarray(tets, dtype=np.int64)
    count = {}
    for t in range(tets.shape[0]):
        for f in range(4):
            key = tuple(sorted(tets[t, TET_LOCAL_FACES[f]]))
            count[key] = (-1, -1) if key in count else (t, f)
    faces, owners, tags = [], [], []
    for t in range(tets.shape[0]):
        for f in range(4):
            if count[tuple(sorted(tets[t, TET_LOCAL_FACES[f]]))] != (t, f):
                continue
            tri = outward_face(vertices, tets[t], f)
            faces.append(tri)
            owners.append(t)
            on_gamma = np.all(np.abs(vertices[list(tri), 2]) <= GEOM_TOL)
            tags.append(int(FaceTag.INTERFACE if on_gamma else FaceTag.FREE))
    return (vertices, tets, np.asarray(faces, dtype=np.int64),
            np.asarray(owners, dtype=np.int64), np.asarray(tags, dtype=np.int64))


def reference_plate(n, diagonal):
    """Vertices, triangles, boundary edges and the interface region, cell by
    cell."""
    m = n + 1
    g = -1.0 + 2.0 * np.arange(m) / n
    X, Y = np.meshgrid(g, g, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    tris = []
    for ix in range(n):
        for iy in range(n):
            v00, v10 = ix * m + iy, (ix + 1) * m + iy
            v01, v11 = v00 + 1, v10 + 1
            if diagonal is Diagonal.SAME_AS_BODY:
                tris += [[v00, v10, v11], [v00, v11, v01]]
            else:
                tris += [[v00, v10, v01], [v10, v11, v01]]
    edges = []
    for k in range(n):
        edges += [[k * m, (k + 1) * m], [k * m + n, (k + 1) * m + n],
                  [k, k + 1], [n * m + k, n * m + k + 1]]
    region = [t for t, tri in enumerate(tris)
              if np.max(np.abs(vertices[tri])) <= GAMMA_HALF_WIDTH + GEOM_TOL]
    return (vertices, np.asarray(tris, dtype=np.int64),
            np.asarray(edges, dtype=np.int64), np.asarray(region, dtype=np.int64))


def reference_validate(mesh):
    """The checks of ``validate_mesh``, one element at a time."""
    problems = []
    if isinstance(mesh, TetMesh):
        vols = np.array([volume(mesh.vertices[t]) for t in mesh.tets])
        if np.any(vols <= 0):
            problems.append(f"{np.sum(vols <= 0)} tets with non-positive volume")
        if abs(vols.sum() - 1.0) > 1e-10:
            problems.append(f"total volume {vols.sum():.15g} != 1")
        seen = {}
        for t in range(mesh.n_tets):
            for f in range(4):
                key = tuple(sorted(mesh.tets[t, TET_LOCAL_FACES[f]]))
                seen[key] = seen.get(key, 0) + 1
        boundary = {tuple(sorted(tri)) for tri in mesh.boundary_faces}
        if boundary != {k for k, c in seen.items() if c == 1}:
            problems.append("boundary face table does not match once-seen tet faces")
        if any(c > 2 for c in seen.values()):
            problems.append("a face is shared by more than two tets")
        for tri, _, tag in zip(mesh.boundary_faces, mesh.boundary_owners,
                               mesh.boundary_tags):
            on_gamma = bool(np.all(np.abs(mesh.vertices[tri, 2]) <= GEOM_TOL))
            if on_gamma != (tag == FaceTag.INTERFACE):
                problems.append(f"face {tuple(int(v) for v in tri)} has "
                                "inconsistent interface tag")
                break
    elif isinstance(mesh, TriMesh):
        areas = np.array([area(mesh.vertices[t]) for t in mesh.triangles])
        if np.any(areas <= 0):
            problems.append(f"{np.sum(areas <= 0)} triangles with non-positive area")
        if abs(areas.sum() - 4.0) > 1e-10:
            problems.append(f"total area {areas.sum():.15g} != 4")
        if not resolves_interface_boundary(mesh):
            problems.append(
                "interface boundary not resolved: a triangle crosses the edge of "
                "the coupling region (plate n must be divisible by 4)"
            )
        for t in mesh.interface_region_triangles:
            if np.max(np.abs(mesh.vertices[mesh.triangles[t]])) > \
                    GAMMA_HALF_WIDTH + GEOM_TOL:
                problems.append(
                    "interface_region_triangles contains an outside triangle")
                break
    return problems


def reference_cg_map(mesh):
    ltg = np.zeros((mesh.n_tets, 12), dtype=np.int64)
    for a in range(4):
        for c in range(3):
            ltg[:, 3 * a + c] = 3 * mesh.tets[:, a] + c
    verts = set()
    for tri, tag in zip(mesh.boundary_faces, mesh.boundary_tags):
        if tag == FaceTag.INTERFACE:
            verts.update(int(v) for v in tri)
    return ltg, np.asarray(sorted(verts), dtype=np.int64)


def assert_same(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", range(1, 9))
def test_body_mesh_matches_loop(n):
    mesh = build_body_mesh(n)
    got = (mesh.vertices, mesh.tets, mesh.boundary_faces,
           mesh.boundary_owners, mesh.boundary_tags)
    for g, r in zip(got, reference_body(n)):
        assert_same(g, r)
    cg = BodyCGDofMap(mesh)
    ltg, iface = reference_cg_map(mesh)
    assert cg.n_dofs == 3 * mesh.n_vertices
    assert_same(cg.ltg, ltg)
    assert_same(cg.interface_vertices, iface)


@pytest.mark.parametrize("n", [2, 4, 8, 12, 16, 32])
@pytest.mark.parametrize("diagonal", list(Diagonal))
def test_plate_mesh_matches_loop(n, diagonal):
    mesh = build_plate_mesh(n, diagonal)
    got = (mesh.vertices, mesh.triangles, mesh.boundary_edges,
           mesh.interface_region_triangles)
    for g, r in zip(got, reference_plate(n, diagonal)):
        assert_same(g, r)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_validate_clean_body_matches_loop(n):
    mesh = build_body_mesh(n)
    assert validate_mesh(mesh) == reference_validate(mesh) == []


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("diagonal", list(Diagonal))
def test_validate_clean_plate_matches_loop(n, diagonal):
    # n = 2 and n = 6 do not resolve Gamma.
    mesh = build_plate_mesh(n, diagonal)
    assert validate_mesh(mesh) == reference_validate(mesh)


@pytest.mark.parametrize("name", BODY_CORRUPTIONS)
def test_validate_corrupted_body_matches_loop(name):
    mesh = BODY_CORRUPTIONS[name][0](build_body_mesh(2))
    problems = validate_mesh(mesh)
    assert problems and problems == reference_validate(mesh)


@pytest.mark.parametrize("name", PLATE_CORRUPTIONS)
def test_validate_corrupted_plate_matches_loop(name):
    mesh = PLATE_CORRUPTIONS[name][0](build_plate_mesh(4))
    problems = validate_mesh(mesh)
    assert problems and problems == reference_validate(mesh)


@SETTINGS
@given(meshes)
def test_validate_jittered_matches_loop(example):
    body, plate = build(example)
    assert reference_validate(body) == reference_validate(plate) == []
    ltg, iface = reference_cg_map(body)
    cg = BodyCGDofMap(body)
    assert_same(cg.ltg, ltg)
    assert_same(cg.interface_vertices, iface)
