"""Structured mesh generation for the body column and the plate square.

The body occupies (-1/2, 1/2)^2 x (0, 1) and is divided into n^3 cubes, each
split into six positively oriented tetrahedra; the plate occupies (-1, 1)^2
divided into n^2 squares of two triangles each.  Checks cover element counts,
total measures, boundary extraction and tagging, the interface region, and
validation.  Whether the region covers Gamma takes the body as well, so the
overlay tests check that.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bodyplate.geometry_mesh import (
    Diagonal,
    FaceTag,
    build_body_mesh,
    build_plate_mesh,
    tet_volume,
    triangle_area,
    validate_mesh,
)


class TestBodyMesh:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts(self, n):
        mesh = build_body_mesh(n)
        assert mesh.n_vertices == (n + 1) ** 3
        assert mesh.n_tets == 6 * n**3

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_positively_oriented_and_unit_volume(self, n):
        mesh = build_body_mesh(n)
        vols = np.array([tet_volume(mesh.tet_vertices(t)) for t in range(mesh.n_tets)])
        assert np.all(vols > 0)
        assert float(vols.sum()) == pytest.approx(1.0, rel=1e-13)

    def test_bounding_box(self):
        mesh = build_body_mesh(2)
        assert_allclose(mesh.vertices.min(axis=0), [-0.5, -0.5, 0.0], atol=1e-15)
        assert_allclose(mesh.vertices.max(axis=0), [0.5, 0.5, 1.0], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_boundary_face_count(self, n):
        # The box surface consists of 6 n^2 squares = 12 n^2 triangles.
        mesh = build_body_mesh(n)
        assert mesh.boundary_faces.shape[0] == 12 * n**2

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_interface_tags(self, n):
        mesh = build_body_mesh(n)
        tags = np.asarray(mesh.boundary_tags)
        iface = tags == FaceTag.INTERFACE
        # The bottom z = 0 carries 2 n^2 triangles.
        assert int(iface.sum()) == 2 * n**2
        for face, is_iface in zip(mesh.boundary_faces, iface):
            z = mesh.vertices[face, 2]
            assert bool(np.all(np.abs(z) < 1e-12)) == bool(is_iface)

    def test_boundary_faces_outward(self):
        mesh = build_body_mesh(2)
        centroid_all = mesh.vertices.mean(axis=0)
        for face in mesh.boundary_faces:
            verts = mesh.vertices[face]
            nrm = np.cross(verts[1] - verts[0], verts[2] - verts[0])
            # The outward normal must point away from the centroid of the one
            # tet holding the face.
            owner = np.flatnonzero(np.isin(mesh.tets, face).sum(axis=1) == 3)
            assert owner.size == 1
            tc = mesh.tet_vertices(int(owner[0])).mean(axis=0)
            assert np.dot(nrm, verts.mean(axis=0) - tc) > 0
            # And away from the body centre (the box is convex).
            assert np.dot(nrm, verts.mean(axis=0) - centroid_all) > 0

    def test_mesh_size(self):
        assert build_body_mesh(2).h == pytest.approx(np.sqrt(3.0) / 2)

    def test_validate_clean(self):
        assert validate_mesh(build_body_mesh(2)) == []

    def test_arrays_frozen(self):
        mesh = build_body_mesh(1)
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 99.0


class TestPlateMesh:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_counts(self, n):
        mesh = build_plate_mesh(n)
        assert mesh.n_vertices == (n + 1) ** 2
        assert mesh.n_triangles == 2 * n**2

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("diag", [Diagonal.SAME_AS_BODY, Diagonal.FLIPPED])
    def test_total_area(self, n, diag):
        mesh = build_plate_mesh(n, diag)
        areas = [triangle_area(mesh.triangle_vertices(t)) for t in range(mesh.n_triangles)]
        assert np.all(np.asarray(areas) > 0)
        assert float(np.sum(areas)) == pytest.approx(4.0, rel=1e-13)

    def test_bounding_box(self):
        mesh = build_plate_mesh(4)
        assert_allclose(mesh.vertices.min(axis=0), [-1.0, -1.0], atol=1e-15)
        assert_allclose(mesh.vertices.max(axis=0), [1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_boundary_edges(self, n):
        mesh = build_plate_mesh(n)
        assert mesh.boundary_edges.shape[0] == 4 * n
        for e in mesh.boundary_edges:
            pts = mesh.vertices[e]
            assert np.all(np.max(np.abs(pts), axis=1) > 1.0 - 1e-12)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_interface_region(self, n):
        # For 4 | n the central quarter is resolved: its triangles tile an
        # area of exactly 1.
        mesh = build_plate_mesh(n)
        region = mesh.interface_region_triangles
        area = sum(
            triangle_area(mesh.triangle_vertices(int(t))) for t in region
        )
        assert float(area) == pytest.approx(1.0, rel=1e-13)

    def test_unresolved_interface(self):
        # n = 2 puts cell edges at 0 and +-1 only, so the line x = 1/2 cuts
        # through cells and no triangle lies in closure(Gamma).  The mesh is
        # consistent; the overlay refuses it beside a body.
        mesh = build_plate_mesh(2)
        assert mesh.interface_region_triangles.size == 0
        assert validate_mesh(mesh) == []

    def test_flipped_diagonal_differs(self):
        same = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
        flip = build_plate_mesh(4, Diagonal.FLIPPED)
        assert same.n_triangles == flip.n_triangles
        same_set = {tuple(sorted(t)) for t in same.triangles}
        flip_set = {tuple(sorted(t)) for t in flip.triangles}
        assert same_set != flip_set

    def test_mesh_size(self):
        assert build_plate_mesh(4).h == pytest.approx(2.0 * np.sqrt(2.0) / 4)

    def test_validate_clean(self):
        assert validate_mesh(build_plate_mesh(4)) == []


def _flip_tet(m):
    tets = m.tets.copy()
    tets[0, [2, 3]] = tets[0, [3, 2]]
    return replace(m, tets=tets)


def _retag(m):
    tags = m.boundary_tags.copy()
    tags[0] = int(FaceTag.INTERFACE) - tags[0]
    return replace(m, boundary_tags=tags)


def _flip_triangle(m):
    tris = m.triangles.copy()
    tris[0, [1, 2]] = tris[0, [2, 1]]
    return replace(m, triangles=tris)


def _flip_face(tag):
    """Swap two vertices of the first boundary face with ``tag``, so its
    right-hand normal points into its tet."""
    def flip(m):
        faces = m.boundary_faces.copy()
        k = np.flatnonzero(m.boundary_tags == tag)[0]
        faces[k, [1, 2]] = faces[k, [2, 1]]
        return replace(m, boundary_faces=faces)
    return flip


def _region(edit):
    return lambda m: replace(m, interface_region_triangles=edit(
        m.interface_region_triangles))


# One corruption per problem that validate_mesh names: body n = 2 and plate
# n = 4 (which resolves Gamma), each with the message it must produce.
BODY_CORRUPTIONS = {
    "flipped tet": (_flip_tet, "1 tets with non-positive volume"),
    "flipped free face": (_flip_face(FaceTag.FREE),
                          "1 boundary faces with an inward normal, the "
                          "first (0, 10, 9)"),
    "flipped interface face": (_flip_face(FaceTag.INTERFACE),
                               "1 boundary faces with an inward normal, the "
                               "first (0, 9, 12)"),
    "cut boundary": (lambda m: replace(m, boundary_faces=m.boundary_faces[1:],
                                       boundary_tags=m.boundary_tags[1:]),
                     "boundary face table does not match once-seen tet faces"),
    "duplicated tet": (lambda m: replace(m, tets=np.vstack([m.tets, m.tets[:1]])),
                       "a face is shared by more than two tets"),
    "retagged": (_retag, "has inconsistent interface tag"),
}
PLATE_CORRUPTIONS = {
    "flipped triangle": (_flip_triangle, "1 triangles with non-positive area"),
    "region index out of range": (
        _region(lambda r: np.append(r, 10**6)),
        "interface_region_triangles holds 1000000, not a triangle index of "
        "0 to 31"),
    "negative region index": (
        _region(lambda r: np.append(r, -1)),
        "interface_region_triangles holds -1, not a triangle index of 0 to 31"),
    "repeated region triangle": (
        _region(lambda r: np.append(r, r[0])),
        "interface_region_triangles lists triangle 10 more than once"),
}


class TestValidate:
    @pytest.mark.parametrize("name", BODY_CORRUPTIONS)
    def test_body_problem_named(self, name):
        corrupt, message = BODY_CORRUPTIONS[name]
        problems = validate_mesh(corrupt(build_body_mesh(2)))
        assert any(message in p for p in problems), problems

    @pytest.mark.parametrize("name", PLATE_CORRUPTIONS)
    def test_plate_problem_named(self, name):
        corrupt, message = PLATE_CORRUPTIONS[name]
        problems = validate_mesh(corrupt(build_plate_mesh(4)))
        assert any(message in p for p in problems), problems

    def test_tag_message_prints_plain_ints(self):
        mesh = _retag(build_body_mesh(2))
        face = tuple(int(v) for v in mesh.boundary_faces[0])
        assert validate_mesh(mesh) == [
            f"face {face} has inconsistent interface tag"]

    def test_unequal_table_lengths_named(self):
        # Cut tags used to validate as [] and fail later in StressDofMap.
        mesh = build_body_mesh(2)
        cut = replace(mesh, boundary_tags=mesh.boundary_tags[:-5])
        assert validate_mesh(cut) == [
            "boundary faces and tags differ in length: 48, 43"]

    def test_unknown_type(self):
        assert validate_mesh(object())[0].startswith("unknown mesh type")

