"""The loop-free mesh layer against per-element loop references.

``build_body_mesh``, ``build_plate_mesh``, ``validate_mesh`` and
``BodyCGDofMap`` work on whole index arrays.  The references below build,
tag and check the meshes one cube, tet, face or triangle at a time, the way
the mesh layer was first written; every array must be bitwise equal to
theirs (values, shape and dtype), and ``validate_mesh`` must return the same
problem list on clean, jittered and corrupted meshes.

The overlay's area criterion (the listed interface region triangles cover
|Gamma|, the area of the body's interface faces) must agree with the
geometric one it replaced, ``clip_resolves`` (no triangle crosses the edge
of Gamma, clip by clip), on Kuhn and jittered plates.
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
    validate_mesh,
)
from bodyplate.interface_overlay import (
    clip_convex_polygon,
    extract_interface_triangulation,
    intersect_triangulations,
    polygon_area,
)
from mesh_families import SETTINGS, build, jittered_plate, meshes
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
    """Vertices, tets, boundary faces and tags, cube by cube."""
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
    faces, tags = [], []
    for t in range(tets.shape[0]):
        for f in range(4):
            if count[tuple(sorted(tets[t, TET_LOCAL_FACES[f]]))] != (t, f):
                continue
            tri = outward_face(vertices, tets[t], f)
            faces.append(tri)
            on_gamma = np.all(np.abs(vertices[list(tri), 2]) <= GEOM_TOL)
            tags.append(int(FaceTag.INTERFACE if on_gamma else FaceTag.FREE))
    return (vertices, tets, np.asarray(faces, dtype=np.int64),
            np.asarray(tags, dtype=np.int64))


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
        seen, owner = {}, {}
        for t in range(mesh.n_tets):
            for f in range(4):
                key = tuple(sorted(mesh.tets[t, TET_LOCAL_FACES[f]]))
                seen[key] = seen.get(key, 0) + 1
                owner[key] = mesh.tets[t]
        boundary = {tuple(sorted(tri)) for tri in mesh.boundary_faces}
        if boundary != {k for k, c in seen.items() if c == 1}:
            problems.append("boundary face table does not match once-seen tet faces")
        if any(c > 2 for c in seen.values()):
            problems.append("a face is shared by more than two tets")
        inward = []
        for tri in mesh.boundary_faces:
            key = tuple(sorted(tri))
            if seen.get(key) == 1:
                a, b, c = mesh.vertices[tri]
                away = (a + b + c) / 3.0 - mesh.vertices[owner[key]].mean(axis=0)
                if np.dot(np.cross(b - a, c - a), away) < 0:
                    inward.append(tuple(int(v) for v in tri))
        if inward:
            problems.append(f"{len(inward)} boundary faces with an inward "
                            f"normal, the first {inward[0]}")
        for tri, tag in zip(mesh.boundary_faces, mesh.boundary_tags):
            on_gamma = bool(np.all(np.abs(mesh.vertices[tri, 2]) <= GEOM_TOL))
            if on_gamma != (tag == FaceTag.INTERFACE):
                problems.append(f"face {tuple(int(v) for v in tri)} has "
                                "inconsistent interface tag")
                break
    elif isinstance(mesh, TriMesh):
        areas = np.array([area(mesh.vertices[t]) for t in mesh.triangles])
        if np.any(areas <= 0):
            problems.append(f"{np.sum(areas <= 0)} triangles with non-positive area")
        listed = sorted(int(t) for t in mesh.interface_region_triangles)
        for t in listed:
            if not 0 <= t < mesh.n_triangles:
                problems.append(
                    f"interface_region_triangles holds {t}, not a triangle "
                    f"index of 0 to {mesh.n_triangles - 1}")
                break
        for t, u in zip(listed, listed[1:]):
            if t == u:
                problems.append("interface_region_triangles lists triangle "
                                f"{t} more than once")
                break
    return problems


#: Interface faces that cover Gamma, beside which the overlay tests a plate.
FACES = extract_interface_triangulation(build_body_mesh(2))


def overlay_resolves(plate):
    """True when the overlay takes ``plate`` beside ``FACES``: the area of
    its region triangles is |Gamma|, the faces' area."""
    try:
        intersect_triangulations(FACES, plate)
    except ValueError as error:
        if "does not resolve the coupling region" in str(error):
            return False
        raise
    return True


def clip_resolves(mesh):
    """True when every plate triangle is contained in closure(Gamma) or has
    interior disjoint from Gamma, by the area of its clip against Gamma, one
    triangle at a time."""
    half = GAMMA_HALF_WIDTH
    square = np.array([[-half, -half], [half, -half], [half, half],
                       [-half, half]])
    for tri in mesh.triangles:
        verts = mesh.vertices[tri]
        whole = abs(area(verts))
        cut = polygon_area(clip_convex_polygon(verts, square))
        if 1e-12 * whole < cut < (1.0 - 1e-12) * whole:
            return False
    return True


def reference_cg_ltg(mesh):
    ltg = np.zeros((mesh.n_tets, 12), dtype=np.int64)
    for a in range(4):
        for c in range(3):
            ltg[:, 3 * a + c] = 3 * mesh.tets[:, a] + c
    return ltg


def assert_same(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", range(1, 9))
def test_body_mesh_matches_loop(n):
    mesh = build_body_mesh(n)
    got = (mesh.vertices, mesh.tets, mesh.boundary_faces, mesh.boundary_tags)
    for g, r in zip(got, reference_body(n)):
        assert_same(g, r)
    cg = BodyCGDofMap(mesh)
    assert cg.n_dofs == 3 * mesh.n_vertices
    assert_same(cg.ltg, reference_cg_ltg(mesh))


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
    assert_same(BodyCGDofMap(body).ltg, reference_cg_ltg(body))


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("diagonal", list(Diagonal))
def test_area_criterion_matches_clips(n, diagonal, seed):
    # Kuhn plates (seed None) and jittered ones; n = 2 and n = 6 do not
    # resolve Gamma.
    mesh = (build_plate_mesh(n, diagonal) if seed is None
            else jittered_plate(n, diagonal, seed))
    assert overlay_resolves(mesh) == clip_resolves(mesh) == (n % 4 == 0)
