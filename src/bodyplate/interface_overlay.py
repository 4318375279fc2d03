"""Geometric overlay of the body's interface triangulation and the plate mesh.

The body's boundary faces at x3 = 0, projected to the (x1, x2) plane, form one
triangulation of the coupling region Gamma; the plate triangles contained in
closure(Gamma) form another.  Coupling integrals are evaluated on the common
refinement: every cell of the overlay is the (convex) intersection of one
projected interface face with one plate triangle, fan-triangulated and equipped
with a mapped triangle quadrature rule.

The overlay is built in one batched pass over arrays.  Candidate face-triangle
pairs come from a uniform grid bucket whose cell size is the largest plate
triangle's box extent (Gander & Japhet 2013, "PANG"), so their number grows
linearly with the meshes; all candidates are clipped at once by a
Sutherland-Hodgman kernel on fixed-width vertex arrays, and the sliver filter
and the fan quadrature act on all cells together (the batched affine maps of
Cuvelier, Japhet & Scarella 2016).  ``clip_convex_polygon`` is the batch of
one of the same kernel.

When the two triangulations coincide, the overlay degenerates to exactly one
cell per interface face.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry_mesh import (
    GAMMA_HALF_WIDTH,
    GEOM_TOL,
    FaceTag,
    TetMesh,
    TriMesh,
    triangle_area,
)
from .fe_elements import simplex_barycentric, simplex_geometry
from .quadrature import FACE_DEGREE, triangle_rule

__all__ = [
    "InterfaceFace",
    "OverlayCell",
    "extract_interface_triangulation",
    "intersect_triangulations",
    "map_to_parents",
    "clip_convex_polygon",
    "polygon_area",
    "AREA_DEFECT_TOL",
]

#: Cells with area below this fraction of |Gamma| are discarded as slivers.
AREA_EPSILON_REL = 1e-14

#: Maximum admissible defect between |Gamma| and the summed overlay area.
AREA_DEFECT_TOL = 1e-8

#: |Gamma| for the fixed coupling region (-1/2, 1/2)^2.
GAMMA_AREA = (2.0 * GAMMA_HALF_WIDTH) ** 2

#: Max-norm distance within which ``_dedup`` merges two clipped vertices.
DEDUP_TOL = 1e-13


@dataclass(frozen=True)
class InterfaceFace:
    """A body boundary face lying on the interface plane.

    Attributes
    ----------
    face_id : position in the extraction order (scan order of the body's
        boundary-face table).
    owner_tet : owning tet index.
    vertex_ids : (3,) global vertex ids, ordered so the projection is CCW.
    verts2d : (3, 2) projected coordinates (x1, x2), CCW.
    """

    face_id: int
    owner_tet: int
    vertex_ids: np.ndarray
    verts2d: np.ndarray

    @property
    def area(self) -> float:
        return triangle_area(self.verts2d)


@dataclass(frozen=True)
class OverlayCell:
    """One polygonal cell of the overlay with its mapped quadrature.

    Attributes
    ----------
    face_id : index into the extracted interface-face list.
    tri_id : plate triangle index.
    polygon : (m, 2) CCW vertices of the intersection polygon.
    points : (nq, 2) physical quadrature points.
    weights : (nq,) physical quadrature weights (sum to the cell area).
    area : cell area.
    """

    face_id: int
    tri_id: int
    polygon: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    area: float


def polygon_area(poly: np.ndarray) -> float:
    """Area of a simple polygon given CCW (or CW) vertices."""
    poly = np.asarray(poly, dtype=float)
    if poly.shape[0] < 3:
        return 0.0
    return float(abs(_signed_areas(poly[None], np.array([poly.shape[0]]))[0]))


def clip_convex_polygon(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon against a convex polygon
    (either orientation).  Returns the (possibly empty) CCW intersection
    polygon; the batch of one of ``_clip_batch``."""
    poly, count = _clip_batch(np.asarray(subject, dtype=float)[None],
                              np.asarray(clipper, dtype=float)[None])
    return poly[0, : count[0]]


def _signed_areas(poly: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Signed shoelace areas (n,) of the polygons held in the first
    ``count[i]`` vertex slots of ``poly[i]`` (n, width, 2)."""
    slot = np.arange(poly.shape[1])
    valid = slot < count[:, None]
    nxt = poly[np.arange(poly.shape[0])[:, None],
               np.where(slot + 1 < count[:, None], slot + 1, 0)]
    x, y = poly[..., 0], poly[..., 1]
    return 0.5 * (np.where(valid, x * nxt[..., 1], 0.0).sum(axis=1)
                  - np.where(valid, y * nxt[..., 0], 0.0).sum(axis=1))


def _ccw(poly: np.ndarray) -> np.ndarray:
    """The polygons (n, m, 2) with the clockwise ones reversed."""
    cw = _signed_areas(poly, np.full(poly.shape[0], poly.shape[1])) < 0
    return np.where(cw[:, None, None], poly[:, ::-1], poly)


def _clip_batch(subject: np.ndarray, clipper: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Sutherland-Hodgman clip of each convex polygon ``subject[i]`` (n, m, 2)
    against the convex polygon ``clipper[i]`` (n or 1, k, 2), either
    orientation.  Returns the CCW intersections in fixed-width vertex arrays
    (n, m + k, 2) with their vertex counts (n,), near-duplicate vertices
    merged by ``_dedup``.  Clipping a convex polygon by a half-plane adds at
    most one vertex, so m + k slots suffice; a clip that needs more raises."""
    n, m = subject.shape[:2]
    k = clipper.shape[1]
    width = m + k
    clipper = _ccw(np.broadcast_to(clipper, (n, k, 2)))
    rows = np.arange(n)[:, None]
    slot = np.arange(width)
    poly = np.zeros((n, width, 2))
    poly[:, :m] = _ccw(subject)
    count = np.full(n, m)
    for e in range(k):
        a = clipper[:, e, None, :]
        edge = clipper[:, (e + 1) % k, None, :] - a
        d = (edge[..., 0] * (poly[..., 1] - a[..., 1])
             - edge[..., 1] * (poly[..., 0] - a[..., 0]))
        prev = np.where(slot > 0, slot - 1, count[:, None] - 1)
        d_prev = d[rows, prev]
        valid = slot < count[:, None]
        inside = d >= 0.0
        cross = valid & (inside != (d_prev >= 0.0))
        keep = valid & inside
        n_out = cross.astype(np.int64) + keep
        pos = np.cumsum(n_out, axis=1) - n_out
        count = n_out.sum(axis=1)
        if count.max(initial=0) > width:
            bad = int(np.argmax(count))
            raise RuntimeError(
                f"polygon clip {bad} needs {count[bad]} vertices, more than "
                f"the {width} slots of a convex {m}-gon clipped by a {k}-gon"
            )
        out = np.zeros_like(poly)
        i, j = np.nonzero(cross)
        p, q = poly[i, prev[i, j]], poly[i, j]
        t = d_prev[i, j] / (d_prev[i, j] - d[i, j])
        out[i, pos[i, j]] = p + t[:, None] * (q - p)
        i, j = np.nonzero(keep)
        out[i, pos[i, j] + cross[i, j]] = poly[i, j]
        poly = out
    return _dedup(poly, count)


def _dedup(poly: np.ndarray, count: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Drop every vertex within ``DEDUP_TOL`` (max norm) of the last vertex
    kept before it, then the last kept vertex if it is within ``DEDUP_TOL``
    of the first; returns the compacted polygons and their counts."""
    n, width = poly.shape[:2]
    rows = np.arange(n)
    kept = np.zeros((n, width), dtype=bool)
    last = np.zeros(n, dtype=np.int64)
    for i in range(width):
        far = (np.max(np.abs(poly[:, i] - poly[rows, last]), axis=1)
               > DEDUP_TOL)
        kept[:, i] = (i < count) & ((i == 0) | far)
        last = np.where(kept[:, i], i, last)
    wrap = (kept.sum(axis=1) > 1) & (
        np.max(np.abs(poly[:, 0] - poly[rows, last]), axis=1) <= DEDUP_TOL)
    kept[rows[wrap], last[wrap]] = False
    out = np.zeros_like(poly)
    i, j = np.nonzero(kept)
    out[i, np.cumsum(kept, axis=1)[i, j] - 1] = poly[i, j]
    return out, kept.sum(axis=1)


# ---------------------------------------------------------------------------
# Extraction and intersection.
# ---------------------------------------------------------------------------

def extract_interface_triangulation(body: TetMesh) -> list[InterfaceFace]:
    """Project the body's INTERFACE-tagged boundary faces to the (x1, x2)
    plane, with vertices reordered so each projected triangle is CCW."""
    rows = np.flatnonzero(body.boundary_tags == FaceTag.INTERFACE)
    if not rows.size:
        raise ValueError("body mesh has no interface faces")
    ids = body.boundary_faces[rows]
    cw = triangle_area(body.vertices[ids][:, :, :2]) < 0
    ids = np.where(cw[:, None], ids[:, ::-1], ids)
    verts2d = np.ascontiguousarray(body.vertices[ids][:, :, :2])
    ids.setflags(write=False)
    verts2d.setflags(write=False)
    area = float(triangle_area(verts2d).sum())
    if abs(area - GAMMA_AREA) > AREA_DEFECT_TOL:
        raise ValueError(
            f"interface faces cover area {area:.15g}, expected {GAMMA_AREA}"
        )
    return [
        InterfaceFace(face_id=k, owner_tet=owner, vertex_ids=v, verts2d=x)
        for k, (owner, v, x) in enumerate(zip(
            body.boundary_owners[rows].tolist(), ids, verts2d))
    ]


def _plate_interface_check(plate: TriMesh) -> np.ndarray:
    region = plate.interface_region_triangles
    covered = float(np.abs(
        triangle_area(plate.vertices[plate.triangles[region]])).sum())
    if abs(covered - GAMMA_AREA) > AREA_DEFECT_TOL:
        raise ValueError(
            "plate mesh does not resolve the coupling region: triangles inside "
            f"closure(Gamma) cover {covered:.15g} of {GAMMA_AREA} "
            "(plate n must be divisible by 4)"
        )
    return region


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group and rank within its group of every item, when groups of the
    given sizes are laid out one after another."""
    group = np.repeat(np.arange(counts.size), counts)
    start = np.cumsum(counts) - counts
    return group, np.arange(group.size) - start[group]


def _box_cells(lo, hi, origin, h, shape):
    """(box, grid cell) incidences of boxes (n, 2) on a uniform grid of
    ``shape`` cells of size h; boxes beyond the grid are clamped onto it."""
    c0 = np.clip(np.floor((lo - origin) / h).astype(np.int64), 0, shape - 1)
    c1 = np.clip(np.floor((hi - origin) / h).astype(np.int64), 0, shape - 1)
    span = c1 - c0 + 1
    box, r = _ragged(span[:, 0] * span[:, 1])
    cx = c0[box, 0] + r // span[box, 1]
    cy = c0[box, 1] + r % span[box, 1]
    return box, cx * shape[1] + cy


def _candidate_pairs(lo_a, hi_a, lo_b, hi_b) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique index pairs (i, j) of boxes a_i and b_j (lower and upper
    corners, (n, 2) each) that share a cell of a uniform grid.  The cell size
    is the largest extent of the b boxes, so each b box lands in at most
    2 x 2 cells and the pair count grows linearly with the meshes (the grid
    bucket of Gander & Japhet 2013).  Every pair of intersecting boxes is
    among the candidates."""
    if not (lo_a.shape[0] and lo_b.shape[0]):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    h = float(np.max(hi_b - lo_b))
    origin = lo_b.min(axis=0)
    shape = np.floor((hi_b.max(axis=0) - origin) / h).astype(np.int64) + 1
    b, b_cell = _box_cells(lo_b, hi_b, origin, h, shape)
    order = np.argsort(b_cell, kind="stable")
    per_cell = np.bincount(b_cell, minlength=int(shape.prod()))
    first = np.cumsum(per_cell) - per_cell
    a, a_cell = _box_cells(lo_a, hi_a, origin, h, shape)
    inc, r = _ragged(per_cell[a_cell])
    n_b = lo_b.shape[0]
    key = np.unique(a[inc] * n_b + b[order[first[a_cell[inc]] + r]])
    return key // n_b, key % n_b


def intersect_triangulations(
    faces: list[InterfaceFace],
    plate: TriMesh,
) -> list[OverlayCell]:
    """Common refinement of the projected interface faces and the plate's
    interface-region triangles, with the mapped ``FACE_DEGREE`` rule on
    every cell, sorted by (face_id, tri_id).  Raises if the overlay area
    defect exceeds ``AREA_DEFECT_TOL``.

    One batched pass: grid-bucket candidate pairs, the box test with
    ``GEOM_TOL``, one clip of all remaining pairs, sliver removal and the fan
    quadrature of all cells at once.
    """
    region = _plate_interface_check(plate)
    face_verts = np.array([f.verts2d for f in faces], dtype=float)
    face_ids = np.array([f.face_id for f in faces], dtype=np.int64)
    tri_verts = plate.vertices[plate.triangles[region]]
    f_lo = face_verts.min(axis=1) - GEOM_TOL
    f_hi = face_verts.max(axis=1) + GEOM_TOL
    t_lo = tri_verts.min(axis=1) - GEOM_TOL
    t_hi = tri_verts.max(axis=1) + GEOM_TOL

    fi, ti = _candidate_pairs(f_lo, f_hi, t_lo, t_hi)
    hit = np.all((f_hi[fi] >= t_lo[ti]) & (f_lo[fi] <= t_hi[ti]), axis=1)
    fi, ti = fi[hit], ti[hit]
    order = np.lexsort((region[ti], face_ids[fi]))
    fi, ti = fi[order], ti[order]

    poly, count = _clip_batch(face_verts[fi], tri_verts[ti])
    area = np.abs(_signed_areas(poly, count))
    c = np.flatnonzero((count >= 3) & (area > AREA_EPSILON_REL * GAMMA_AREA))
    poly, count, area = poly[c], count[c], area[c]
    total = float(area.sum())
    if abs(total - GAMMA_AREA) > AREA_DEFECT_TOL:
        raise ValueError(
            f"overlay area defect: cells cover {total:.15g} of {GAMMA_AREA}"
        )
    pts, wts, n_fan = _fan_quadrature(poly, count, triangle_rule(FACE_DEGREE))
    split = np.cumsum(n_fan)[:-1]
    return [
        OverlayCell(face_id=f, tri_id=t, polygon=p[:m],
                    points=x.reshape(-1, 2), weights=w.ravel(), area=a)
        for f, t, p, m, x, w, a in zip(
            face_ids[fi[c]].tolist(), region[ti[c]].tolist(), poly,
            count.tolist(), np.split(pts, split), np.split(wts, split),
            area.tolist())
    ]


def _fan_quadrature(poly, count, rule):
    """Fan-triangulate convex CCW polygons (n, width, 2) with ``count``
    vertices from vertex 0 and map the reference triangle rule to every fan
    triangle of positive area.  Returns points (n_fan, nq, 2) and physical
    weights (n_fan, nq), grouped by polygon, and each polygon's number of fan
    triangles; a polygon's weights sum to its area."""
    n, width = poly.shape[:2]
    tri = np.stack([np.broadcast_to(poly[:, :1], (n, width - 2, 2)),
                    poly[:, 1:-1], poly[:, 2:]], axis=2)
    a = triangle_area(tri)
    fan = (np.arange(2, width) < count[:, None]) & (a > 0)
    pts = rule.points @ tri[fan]
    wts = rule.weights * (a[fan] / 0.5)[:, None]
    return pts, wts, fan.sum(axis=1)


# ---------------------------------------------------------------------------
# Parent-coordinate mapping.
# ---------------------------------------------------------------------------

def triangle_barycentric(verts: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of 2D points with respect to a triangle."""
    grad, _ = simplex_geometry(np.asarray(verts, dtype=float)[None])
    return simplex_barycentric(grad[0], verts[0], np.atleast_2d(points))


def map_to_parents(
    cell: OverlayCell,
    faces: list[InterfaceFace],
    plate: TriMesh,
    points: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric coordinates of the cell's quadrature points (or the given
    2D points) in both parents: the interface face and the plate triangle.

    Raises when a point falls outside either parent beyond tolerance.
    """
    pts = cell.points if points is None else np.atleast_2d(points)
    face = faces[cell.face_id]
    lam_face = triangle_barycentric(face.verts2d, pts)
    lam_tri = triangle_barycentric(plate.triangle_vertices(cell.tri_id), pts)
    tol = 1e-10
    for name, lam in (("face", lam_face), ("triangle", lam_tri)):
        if lam.min() < -tol or lam.max() > 1.0 + tol:
            raise ValueError(
                f"overlay cell point maps outside its parent {name}: "
                f"barycentric range [{lam.min():.3e}, {lam.max():.3e}]"
            )
    return lam_face, lam_tri
