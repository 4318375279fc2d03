"""Geometric overlay of the body's interface faces and the plate triangles.

The coupling integrals live on the common refinement of two triangulations of
the square (-1/2, 1/2)^2: the projected bottom faces of the body mesh and the
central triangles of the plate mesh.  The overlay must conserve area exactly
(up to tolerance) for every configured mesh pairing, degenerate to one cell
per face when the meshes match, and map quadrature points consistently back
into both parents.
"""

import numpy as np
import pytest
from hypothesis import given
from numpy.testing import assert_allclose

from bodyplate.geometry_mesh import (
    GEOM_TOL,
    Diagonal,
    build_body_mesh,
    build_plate_mesh,
    triangle_area,
)
from bodyplate.interface_overlay import (
    AREA_EPSILON_REL,
    GAMMA_AREA,
    _candidate_pairs,
    clip_convex_polygon,
    extract_interface_triangulation,
    intersect_triangulations,
    map_to_parents,
    polygon_area,
    triangle_barycentric,
)
from bodyplate.quadrature import triangle_rule
from mesh_families import SETTINGS, build, meshes


@pytest.fixture(scope="module")
def body2():
    return build_body_mesh(2)


@pytest.fixture(scope="module")
def faces2(body2):
    return extract_interface_triangulation(body2)


class TestClipping:
    def test_identical_triangles(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = clip_convex_polygon(tri, tri)
        assert polygon_area(out) == pytest.approx(0.5, rel=1e-14)

    def test_disjoint(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        b = a + np.array([10.0, 0.0])
        assert clip_convex_polygon(a, b).shape[0] == 0

    def test_half_overlap_squares(self):
        # Two unit squares overlapping in a 0.5 x 1 strip.
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        shifted = sq + np.array([0.5, 0.0])
        out = clip_convex_polygon(sq, shifted)
        assert polygon_area(out) == pytest.approx(0.5, rel=1e-13)

    def test_triangle_against_square(self):
        tri = np.array([[-1.0, -1.0], [3.0, -1.0], [-1.0, 3.0]])
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        out = clip_convex_polygon(tri, sq)
        # The hypotenuse x + y = 2 misses the unit square entirely.
        assert polygon_area(out) == pytest.approx(1.0, rel=1e-13)

    def test_orientation_insensitive(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cw = tri[::-1]
        out = clip_convex_polygon(cw, tri)
        assert polygon_area(out) == pytest.approx(0.5, rel=1e-14)


class TestExtraction:
    def test_face_count_and_area(self, body2, faces2):
        assert len(faces2) == 2 * body2.n**2
        assert sum(f.area for f in faces2) == pytest.approx(1.0, abs=1e-12)

    def test_faces_ccw_and_at_interface(self, body2, faces2):
        for f in faces2:
            assert f.area > 0
            z = body2.vertices[f.vertex_ids, 2]
            assert np.max(np.abs(z)) < 1e-12
            assert_allclose(body2.vertices[f.vertex_ids][:, :2], f.verts2d, atol=0)

    def test_owner_tets_touch_face(self, body2, faces2):
        for f in faces2:
            tet = set(int(v) for v in body2.tets[f.owner_tet])
            assert set(int(v) for v in f.vertex_ids) <= tet


class TestOverlay:
    # (body n, plate n, diagonal) pairings used throughout the studies.
    CONFIGS = [
        (1, 4, Diagonal.FLIPPED),
        (2, 4, Diagonal.SAME_AS_BODY),
        (2, 8, Diagonal.FLIPPED),
        (4, 8, Diagonal.SAME_AS_BODY),
        (4, 16, Diagonal.FLIPPED),
    ]

    @pytest.mark.parametrize("nb,np_,diag", CONFIGS)
    def test_area_conservation(self, nb, np_, diag):
        body = build_body_mesh(nb)
        plate = build_plate_mesh(np_, diag)
        faces = extract_interface_triangulation(body)
        cells = intersect_triangulations(faces, plate)
        total = sum(c.area for c in cells)
        assert abs(total - 1.0) <= 1e-10
        # Quadrature weights of every cell sum to its area.
        for c in cells[:: max(1, len(cells) // 17)]:
            assert float(c.weights.sum()) == pytest.approx(c.area, rel=1e-12)

    def test_matching_meshes_degenerate(self):
        # Body n = 2 with plate n = 4 on the same diagonal: every interface
        # face coincides with a plate triangle, so the overlay has exactly one
        # cell per face.
        body = build_body_mesh(2)
        plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
        faces = extract_interface_triangulation(body)
        cells = intersect_triangulations(faces, plate)
        assert len(cells) == len(faces)
        for c in cells:
            assert c.area == pytest.approx(faces[c.face_id].area, rel=1e-12)

    def test_flipped_diagonal_splits_cells(self):
        # Same cell grid but opposite diagonals: each face is cut into >= 2
        # pieces, and the overlay is strictly larger than the face list.
        body = build_body_mesh(2)
        plate = build_plate_mesh(8, Diagonal.FLIPPED)
        faces = extract_interface_triangulation(body)
        cells = intersect_triangulations(faces, plate)
        assert len(cells) > len(faces)

    def test_cells_sorted_deterministically(self):
        body = build_body_mesh(2)
        plate = build_plate_mesh(8, Diagonal.FLIPPED)
        faces = extract_interface_triangulation(body)
        cells = intersect_triangulations(faces, plate)
        keys = [(c.face_id, c.tri_id) for c in cells]
        assert keys == sorted(keys)

    def test_unresolved_plate_raises(self):
        body = build_body_mesh(2)
        plate = build_plate_mesh(2)  # n = 2 does not resolve the region edge
        faces = extract_interface_triangulation(body)
        with pytest.raises(ValueError, match="resolve"):
            intersect_triangulations(faces, plate)

    def test_quadrature_integrates_polynomial(self):
        # Summing x^2 y over all overlay cells must equal the integral over
        # the square (-1/2, 1/2)^2, which is zero by symmetry; x^2 y^2 gives
        # (1/12)(1/12) * ... = (int x^2)(int y^2) = (1/12)^2.
        body = build_body_mesh(2)
        plate = build_plate_mesh(8, Diagonal.FLIPPED)
        faces = extract_interface_triangulation(body)
        cells = intersect_triangulations(faces, plate)
        sxy = sum(
            float(np.sum(c.weights * c.points[:, 0] ** 2 * c.points[:, 1]))
            for c in cells
        )
        sxxyy = sum(
            float(np.sum(c.weights * c.points[:, 0] ** 2 * c.points[:, 1] ** 2))
            for c in cells
        )
        assert sxy == pytest.approx(0.0, abs=1e-14)
        assert sxxyy == pytest.approx(1.0 / 144.0, rel=1e-12)


class TestParentMapping:
    def test_barycentric_roundtrip(self):
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]])
        rng = np.random.default_rng(5)
        lam = rng.dirichlet([1, 1, 1], size=10)
        pts = lam @ verts
        lam2 = triangle_barycentric(verts, pts)
        assert_allclose(lam2, lam, atol=1e-13)

    def test_map_to_parents_consistent(self):
        body = build_body_mesh(2)
        plate = build_plate_mesh(8, Diagonal.FLIPPED)
        faces = extract_interface_triangulation(body)
        cells = intersect_triangulations(faces, plate)
        for c in cells[:: max(1, len(cells) // 11)]:
            lam_face, lam_tri = map_to_parents(c, faces, plate)
            # Both parents reproduce the same physical points.
            p1 = lam_face @ faces[c.face_id].verts2d
            p2 = lam_tri @ plate.triangle_vertices(c.tri_id)
            assert_allclose(p1, c.points, atol=1e-12)
            assert_allclose(p2, c.points, atol=1e-12)
            assert lam_face.min() > -1e-10 and lam_face.max() < 1 + 1e-10
            assert lam_tri.min() > -1e-10 and lam_tri.max() < 1 + 1e-10

    def test_outside_point_raises(self):
        body = build_body_mesh(2)
        plate = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
        faces = extract_interface_triangulation(body)
        cells = intersect_triangulations(faces, plate)
        with pytest.raises(ValueError, match="outside"):
            map_to_parents(cells[0], faces, plate, points=np.array([[5.0, 5.0]]))


# ---------------------------------------------------------------------------
# The batched overlay against a per-pair reference.
# ---------------------------------------------------------------------------

def reference_clip(subject, clipper):
    """Sutherland-Hodgman, one vertex at a time."""
    def signed(poly):
        x, y = poly[:, 0], poly[:, 1]
        return 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    if signed(subject) < 0:
        subject = subject[::-1]
    if signed(clipper) < 0:
        clipper = clipper[::-1]
    output = list(subject)
    m = clipper.shape[0]
    for k in range(m):
        a, edge = clipper[k], clipper[(k + 1) % m] - clipper[k]
        if not output:
            break
        inp, output = output, []
        prev = inp[-1]
        d_prev = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0])
        for cur in inp:
            d_cur = edge[0] * (cur[1] - a[1]) - edge[1] * (cur[0] - a[0])
            if (d_cur >= 0.0) != (d_prev >= 0.0):
                t = d_prev / (d_prev - d_cur)
                output.append(prev + t * (cur - prev))
            if d_cur >= 0.0:
                output.append(cur)
            prev, d_prev = cur, d_cur
    if not output:
        return np.zeros((0, 2))
    poly = np.asarray(output)
    keep = []
    for i in range(poly.shape[0]):
        if not keep or np.max(np.abs(poly[i] - poly[keep[-1]])) > 1e-13:
            keep.append(i)
    if len(keep) > 1 and np.max(np.abs(poly[keep[0]] - poly[keep[-1]])) <= 1e-13:
        keep.pop()
    return poly[keep]


def box_pairs(faces, plate):
    """All (face_id, tri_id) pairs whose GEOM_TOL boxes meet: the dense
    all-pairs box test."""
    pairs = []
    for face in faces:
        fmin = face.verts2d.min(axis=0) - GEOM_TOL
        fmax = face.verts2d.max(axis=0) + GEOM_TOL
        for t in sorted(int(t) for t in plate.interface_region_triangles):
            v = plate.triangle_vertices(t)
            if np.any(fmax < v.min(axis=0) - GEOM_TOL) or np.any(
                    fmin > v.max(axis=0) + GEOM_TOL):
                continue
            pairs.append((face.face_id, t))
    return pairs


def reference_overlay(faces, plate, quad_degree=6):
    """(face_id, tri_id, polygon, points, weights, area) per cell, one pair
    at a time."""
    rule = triangle_rule(quad_degree)
    cells = []
    for f, t in box_pairs(faces, plate):
        poly = reference_clip(faces[f].verts2d, plate.triangle_vertices(t))
        if poly.shape[0] < 3:
            continue
        x, y = poly[:, 0], poly[:, 1]
        area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        if area <= AREA_EPSILON_REL * GAMMA_AREA:
            continue
        pts, wts = [], []
        for k in range(1, poly.shape[0] - 1):
            tri = np.array([poly[0], poly[k], poly[k + 1]])
            a = triangle_area(tri)
            if a > 0:
                pts.append(rule.points @ tri)
                wts.append(rule.weights * (a / 0.5))
        cells.append((f, t, poly, np.vstack(pts), np.concatenate(wts), area))
    return cells


def assert_matches_reference(body, plate):
    faces = extract_interface_triangulation(body)
    cells = intersect_triangulations(faces, plate)
    ref = reference_overlay(faces, plate)
    assert [(c.face_id, c.tri_id) for c in cells] == [r[:2] for r in ref]
    for c, (_, _, poly, pts, wts, area) in zip(cells, ref):
        assert c.polygon.shape == poly.shape
        assert_allclose(c.polygon, poly, rtol=0, atol=1e-14)
        assert_allclose(c.points, pts, rtol=0, atol=1e-14)
        assert_allclose(c.weights, wts, rtol=0, atol=1e-14)
        assert abs(c.area - area) <= 1e-14


def assert_grid_candidates(body, plate, multiple=20):
    """The grid bucket finds every box-meeting pair, and at most ``multiple``
    candidates per overlay cell.  The worst case is a matching pair: each
    face is one cell, and its 2 x 2 buckets hold the 18 triangles of the
    3 x 3 squares around it."""
    faces = extract_interface_triangulation(body)
    region = plate.interface_region_triangles
    fv = np.array([f.verts2d for f in faces])
    tv = plate.vertices[plate.triangles[region]]
    fi, ti = _candidate_pairs(fv.min(axis=1) - GEOM_TOL, fv.max(axis=1) + GEOM_TOL,
                              tv.min(axis=1) - GEOM_TOL, tv.max(axis=1) + GEOM_TOL)
    found = set(zip(fi.tolist(), region[ti].tolist()))
    assert set(box_pairs(faces, plate)) <= found
    n_cells = len(intersect_triangulations(faces, plate))
    assert len(found) == fi.size <= multiple * n_cells


LADDER = [
    (1, 4, Diagonal.FLIPPED),
    (2, 4, Diagonal.SAME_AS_BODY),
    (2, 8, Diagonal.FLIPPED),
    (2, 16, Diagonal.FLIPPED),
    (4, 8, Diagonal.SAME_AS_BODY),
    (4, 16, Diagonal.FLIPPED),
    (4, 32, Diagonal.FLIPPED),
    (8, 16, Diagonal.SAME_AS_BODY),
]


class TestBatchedOverlay:
    @pytest.mark.parametrize("nb,np_,diag", LADDER)
    def test_matches_per_pair_reference(self, nb, np_, diag):
        assert_matches_reference(build_body_mesh(nb), build_plate_mesh(np_, diag))

    @pytest.mark.parametrize("nb,np_,diag", LADDER)
    def test_grid_bucket_finds_every_pair(self, nb, np_, diag):
        assert_grid_candidates(build_body_mesh(nb), build_plate_mesh(np_, diag))

    @SETTINGS
    @given(meshes)
    def test_matches_per_pair_reference_on_jittered_meshes(self, example):
        body, plate = build(example)
        assert_matches_reference(body, plate)
        assert_grid_candidates(body, plate)

    def test_candidates_of_disjoint_and_nested_boxes(self):
        lo = np.array([[0.0, 0.0], [5.0, 5.0], [-10.0, -10.0]])
        hi = lo + np.array([[1.0, 1.0], [1.0, 1.0], [30.0, 30.0]])
        b_lo = np.array([[0.5, 0.5], [20.0, 20.0]])
        fi, ti = _candidate_pairs(lo, hi, b_lo, b_lo + 0.25)
        assert list(zip(fi.tolist(), ti.tolist())) == [(0, 0), (2, 0), (2, 1)]

    def test_clip_overflow_raises(self):
        # A "convex" subject that is in fact a self-overlapping zigzag
        # crosses one clipper edge more than twice.
        zigzag = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 1.0], [3.0, 1.0],
                           [0.0, 2.0], [3.0, 2.0], [1.0, 5.0]])
        cut = np.array([[1.0, -1.0], [2.0, -1.0], [2.0, 9.0], [1.0, 9.0]])
        with pytest.raises(RuntimeError, match="slots"):
            clip_convex_polygon(zigzag, cut)
