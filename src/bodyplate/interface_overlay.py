"""Geometric overlay of the body's interface triangulation and the plate mesh.

The body's boundary faces at x3 = 0, projected to the (x1, x2) plane, form one
triangulation of the coupling region Gamma; the plate triangles contained in
closure(Gamma) form another.  Coupling integrals are evaluated on the common
refinement: every cell of the overlay is the (convex) intersection of one
projected interface face with one plate triangle, fan-triangulated and equipped
with a mapped triangle quadrature rule.

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
from .quadrature import triangle_rule

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


@dataclass(frozen=True)
class InterfaceFace:
    """A body boundary face lying on the interface plane.

    Attributes
    ----------
    face_id : position in the extraction order (scan order of the body's
        boundary-face table).
    boundary_index : row in ``body.boundary_faces``.
    owner_tet : owning tet index.
    vertex_ids : (3,) global vertex ids, ordered so the projection is CCW.
    verts2d : (3, 2) projected coordinates (x1, x2), CCW.
    """

    face_id: int
    boundary_index: int
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
    if poly.shape[0] < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def clip_convex_polygon(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon against a convex CCW
    polygon.  Returns the (possibly empty) intersection polygon."""
    subject = np.asarray(subject, dtype=float)
    clipper = np.asarray(clipper, dtype=float)
    if _signed_area(subject) < 0:
        subject = subject[::-1]
    if _signed_area(clipper) < 0:
        clipper = clipper[::-1]
    output = list(subject)
    m = clipper.shape[0]
    for k in range(m):
        a = clipper[k]
        b = clipper[(k + 1) % m]
        edge = b - a
        if not output:
            break
        inp = output
        output = []
        prev = inp[-1]
        d_prev = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0])
        for cur in inp:
            d_cur = edge[0] * (cur[1] - a[1]) - edge[1] * (cur[0] - a[0])
            if d_cur >= 0.0:
                if d_prev < 0.0:
                    output.append(_intersect(prev, cur, d_prev, d_cur))
                output.append(cur)
            elif d_prev >= 0.0:
                output.append(_intersect(prev, cur, d_prev, d_cur))
            prev, d_prev = cur, d_cur
    if not output:
        return np.zeros((0, 2))
    return _dedup(np.asarray(output))


def _signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _intersect(p, q, dp, dq):
    t = dp / (dp - dq)
    return p + t * (q - p)


def _dedup(poly: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    keep = []
    for i in range(poly.shape[0]):
        if not keep or np.max(np.abs(poly[i] - poly[keep[-1]])) > tol:
            keep.append(i)
    if len(keep) > 1 and np.max(np.abs(poly[keep[0]] - poly[keep[-1]])) <= tol:
        keep.pop()
    return poly[keep]


# ---------------------------------------------------------------------------
# Extraction and intersection.
# ---------------------------------------------------------------------------

def extract_interface_triangulation(body: TetMesh) -> list[InterfaceFace]:
    """Project the body's INTERFACE-tagged boundary faces to the (x1, x2)
    plane, with vertices reordered so each projected triangle is CCW."""
    faces: list[InterfaceFace] = []
    for b in np.flatnonzero(body.boundary_tags == FaceTag.INTERFACE):
        ids = body.boundary_faces[b].copy()
        verts2d = body.vertices[ids][:, :2]
        if triangle_area(verts2d) < 0:
            ids = ids[::-1].copy()
            verts2d = verts2d[::-1].copy()
        f = InterfaceFace(
            face_id=len(faces),
            boundary_index=int(b),
            owner_tet=int(body.boundary_owners[b]),
            vertex_ids=ids,
            verts2d=verts2d.copy(),
        )
        f.vertex_ids.setflags(write=False)
        f.verts2d.setflags(write=False)
        faces.append(f)
    if not faces:
        raise ValueError("body mesh has no interface faces")
    area = sum(f.area for f in faces)
    if abs(area - GAMMA_AREA) > AREA_DEFECT_TOL:
        raise ValueError(
            f"interface faces cover area {area:.15g}, expected {GAMMA_AREA}"
        )
    return faces


def _plate_interface_check(plate: TriMesh) -> np.ndarray:
    region = plate.interface_region_triangles
    covered = sum(
        abs(triangle_area(plate.triangle_vertices(int(t)))) for t in region
    )
    if abs(covered - GAMMA_AREA) > AREA_DEFECT_TOL:
        raise ValueError(
            "plate mesh does not resolve the coupling region: triangles inside "
            f"closure(Gamma) cover {covered:.15g} of {GAMMA_AREA} "
            "(plate n must be divisible by 4)"
        )
    return region


def intersect_triangulations(
    faces: list[InterfaceFace],
    plate: TriMesh,
    quad_degree: int = 6,
) -> list[OverlayCell]:
    """Common refinement of the projected interface faces and the plate's
    interface-region triangles, with mapped quadrature of the given degree on
    every cell.  Raises if the overlay area defect exceeds ``AREA_DEFECT_TOL``.
    """
    region = _plate_interface_check(plate)
    rule = triangle_rule(quad_degree)
    bary = rule.points  # (nq, 3)
    wref = rule.weights  # sum 1/2

    tri_verts = {int(t): plate.triangle_vertices(int(t)) for t in region}
    tri_boxes = {
        t: (v.min(axis=0) - GEOM_TOL, v.max(axis=0) + GEOM_TOL)
        for t, v in tri_verts.items()
    }

    cells: list[OverlayCell] = []
    area_eps = AREA_EPSILON_REL * GAMMA_AREA
    for face in faces:
        fmin = face.verts2d.min(axis=0) - GEOM_TOL
        fmax = face.verts2d.max(axis=0) + GEOM_TOL
        for t in sorted(tri_verts):
            lo, hi = tri_boxes[t]
            if np.any(fmax < lo) or np.any(fmin > hi):
                continue
            poly = clip_convex_polygon(face.verts2d, tri_verts[t])
            if poly.shape[0] < 3:
                continue
            area = polygon_area(poly)
            if area <= area_eps:
                continue
            pts, wts = _fan_quadrature(poly, bary, wref)
            cells.append(
                OverlayCell(
                    face_id=face.face_id,
                    tri_id=t,
                    polygon=poly,
                    points=pts,
                    weights=wts,
                    area=area,
                )
            )
    cells.sort(key=lambda c: (c.face_id, c.tri_id))
    total = sum(c.area for c in cells)
    if abs(total - GAMMA_AREA) > AREA_DEFECT_TOL:
        raise ValueError(
            f"overlay area defect: cells cover {total:.15g} of {GAMMA_AREA}"
        )
    return cells


def _fan_quadrature(poly, bary, wref):
    """Fan-triangulate a convex CCW polygon from vertex 0 and map the reference
    triangle rule to each fan triangle (physical weights sum to the area)."""
    pts_all, wts_all = [], []
    for k in range(1, poly.shape[0] - 1):
        tri = np.array([poly[0], poly[k], poly[k + 1]])
        a = triangle_area(tri)
        if a <= 0:
            continue
        pts_all.append(bary @ tri)
        wts_all.append(wref * (a / 0.5))
    return np.vstack(pts_all), np.concatenate(wts_all)


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
