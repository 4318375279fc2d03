"""Meshes of the coupled body-plate domain.

The builders mesh the reference geometry.  ``build_body_mesh`` meshes
alpha = (-1/2, 1/2)^2 x (0, 1) by n^3 cubes, each split into six tetrahedra
sharing the cube's main diagonal (Kuhn split); every cube uses the same split
so neighbouring cells match.  ``build_plate_mesh`` meshes beta = (-1, 1)^2 by
n^2 squares split into two triangles each, with a per-mesh diagonal
convention, and lists the triangles in Gamma = (-1/2, 1/2)^2.

The rest of the library takes the domains from the meshes: the body's
INTERFACE-tagged faces are Gamma and the plate's
``interface_region_triangles`` cover it, so |Gamma| is their area, not a
constant.  One assumption is left: Gamma lies in the plane x3 = 0, where the
body's outward normal is (0, 0, -1).

All vertex/element arrays are frozen after construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FaceTag",
    "Diagonal",
    "TetMesh",
    "TriMesh",
    "build_body_mesh",
    "body_mesh_from_tets",
    "build_plate_mesh",
    "validate_mesh",
    "GEOM_TOL",
    "GAMMA_HALF_WIDTH",
]

#: Tolerance for geometric coincidence tests (grid-aligned coordinates).
GEOM_TOL = 1e-12

#: The plate builder's Gamma = (-G, G)^2 x {0} with G = 1/2.
GAMMA_HALF_WIDTH = 0.5


class FaceTag(enum.IntEnum):
    """Boundary classification of the body: the coupling interface at x3 = 0
    versus the traction (free) remainder."""

    FREE = 0
    INTERFACE = 1


class Diagonal(enum.Enum):
    """Plate cell split convention, relative to the split the body's tetrahedra
    induce on the interface plane (the main diagonal of each cell)."""

    SAME_AS_BODY = "same"
    FLIPPED = "flipped"


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@dataclass
class TetMesh:
    """Tetrahedral mesh of the body.

    The boundary tags are the body's one statement of what lies on Gamma;
    the tet that owns each face, and the face's index in it, are the stress
    map's (``fe_elements.StressDofMap.face_owner``, ``face_owner_local``).

    Attributes
    ----------
    vertices : (nv, 3) float array
    tets : (nt, 4) int array, positively oriented
    boundary_faces : (nb, 3) int array
        Vertex triples ordered so the right-hand normal points outward.
    boundary_tags : (nb,) int array of FaceTag values.
    n : int, cells per unit edge (h-level parameter).
    """

    vertices: np.ndarray
    tets: np.ndarray
    boundary_faces: np.ndarray
    boundary_tags: np.ndarray
    n: int

    def __post_init__(self):
        _freeze(self.vertices, self.tets, self.boundary_faces,
                self.boundary_tags)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]

    @property
    def h(self) -> float:
        """Mesh size: the diameter of the cells, sqrt(3)/n."""
        return np.sqrt(3.0) / self.n

    def tet_vertices(self, t: int) -> np.ndarray:
        return self.vertices[self.tets[t]]


@dataclass
class TriMesh:
    """Triangular mesh of the plate.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counter-clockwise
    boundary_edges : (ne, 2) int array (clamped outer boundary)
    interface_region_triangles : int array
        Indices of triangles contained in closure(Gamma): the plate's one
        statement of what lies on Gamma.
    diagonal : Diagonal
    n : int, cells per side.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    interface_region_triangles: np.ndarray
    diagonal: Diagonal
    n: int

    def __post_init__(self):
        _freeze(self.vertices, self.triangles, self.boundary_edges,
                self.interface_region_triangles)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def h(self) -> float:
        """Mesh size: the diameter of the cells, 2*sqrt(2)/n."""
        return 2.0 * np.sqrt(2.0) / self.n

    def triangle_vertices(self, t: int) -> np.ndarray:
        return self.vertices[self.triangles[t]]


# ---------------------------------------------------------------------------
# Body mesh.
# ---------------------------------------------------------------------------

_KUHN_PERMS = [
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
]

# Local faces of a tet: face f is opposite local vertex f and lists the other
# three local vertices in increasing order.
TET_LOCAL_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def tet_volume(verts: np.ndarray) -> float | np.ndarray:
    """Signed volume of a tet given its 4 vertex coordinates (4, 3), or of
    each tet of a batch (..., 4, 3)."""
    d = verts[..., 1:, :] - verts[..., :1, :]
    vol = np.linalg.det(d) / 6.0
    return float(vol) if vol.ndim == 0 else vol


def _kuhn_offsets() -> np.ndarray:
    """(6, 4, 3) vertex offsets of the Kuhn tets within the unit cube: from
    corner 0, one step along each axis of a permutation in turn, the last two
    vertices swapped where that path orients the tet negatively."""
    steps = np.cumsum(np.eye(3, dtype=np.int64)[_KUHN_PERMS], axis=1)
    path = np.concatenate([np.zeros((6, 1, 3), dtype=np.int64), steps], axis=1)
    flip = tet_volume(path) < 0
    path[flip] = path[flip][:, [0, 1, 3, 2]]
    return path


_KUHN_OFFSETS = _kuhn_offsets()


def build_body_mesh(n: int) -> TetMesh:
    """Mesh alpha = (-1/2, 1/2)^2 x (0, 1) with 6 n^3 tetrahedra.

    Each of the n^3 cubes is split into the six Kuhn tetrahedra along its main
    diagonal; all cubes use the same split, so the mesh is conforming and the
    interface plane x3 = 0 is triangulated by main-diagonal cell splits.
    Boundary faces at x3 = 0 are tagged INTERFACE, all others FREE.
    """
    if n < 1:
        raise ValueError(f"body mesh requires n >= 1, got {n}")
    m = n + 1
    g = np.arange(m) / n
    xs = -0.5 + g
    ys = -0.5 + g
    zs = g.copy()
    X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    # Vertex (ix, iy, iz) has id (ix m + iy) m + iz; cubes and their six
    # tets follow in that order.
    stride = np.array([m * m, m, 1])
    corners = np.indices((n, n, n)).reshape(3, -1).T @ stride
    tets = (corners[:, None, None] + _KUHN_OFFSETS @ stride).reshape(-1, 4)
    return body_mesh_from_tets(vertices, tets, n)


def body_mesh_from_tets(vertices: np.ndarray, tets: np.ndarray,
                        n: int) -> TetMesh:
    """The body mesh of positively oriented tets (nt, 4) on vertices
    (nv, 3), with the boundary faces found and tagged as in
    ``build_body_mesh``: INTERFACE at x3 = 0, FREE elsewhere."""
    # Boundary faces: the tet faces seen once, in (tet, local face) order,
    # turned so the right-hand normal points away from the owning tet.
    keys = np.sort(tets[:, TET_LOCAL_FACES], axis=2).reshape(-1, 3)
    _, first, _, count = _number_rows(keys)
    once = first[count == 1]
    owners = once // 4
    faces = tets[owners[:, None], TET_LOCAL_FACES[once % 4]]
    inward = _points_inward(vertices, faces, tets[owners])
    faces[inward] = faces[inward][:, [0, 2, 1]]
    on_gamma = np.all(np.abs(vertices[faces, 2]) <= GEOM_TOL, axis=1)
    return TetMesh(
        vertices=vertices,
        tets=tets,
        boundary_faces=faces,
        boundary_tags=np.where(on_gamma, int(FaceTag.INTERFACE),
                               int(FaceTag.FREE)).astype(np.int64),
        n=n,
    )


def _points_inward(vertices: np.ndarray, faces: np.ndarray,
                   owners: np.ndarray) -> np.ndarray:
    """Whether the right-hand normal of each face (nf, 3) points into its
    tet (nf, 4): against the face centroid minus the tet centroid."""
    a, b, c = (vertices[faces[:, k]] for k in range(3))
    normal = np.cross(b - a, c - a)
    away = (a + b + c) / 3.0 - vertices[owners].mean(axis=1)
    return np.einsum("ij,ij->i", normal, away) < 0


# ---------------------------------------------------------------------------
# Plate mesh.
# ---------------------------------------------------------------------------

# Corners (00, 10, 01, 11) of a plate cell taken by its two triangles.
_CELL_TRIANGLES = {
    Diagonal.SAME_AS_BODY: np.array([[0, 1, 3], [0, 3, 2]]),
    Diagonal.FLIPPED: np.array([[0, 1, 2], [1, 3, 2]]),
}


def build_plate_mesh(n: int, diagonal: Diagonal = Diagonal.SAME_AS_BODY) -> TriMesh:
    """Mesh beta = (-1, 1)^2 with 2 n^2 triangles (n even).

    ``SAME_AS_BODY`` splits each cell along its main diagonal (the convention
    the body's tetrahedra induce on the interface plane); ``FLIPPED`` uses the
    anti-diagonal.  Triangles whose closure lies in closure(Gamma) are listed
    in ``interface_region_triangles``; the interface boundary is resolved by
    the grid whenever n is divisible by 4.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"plate mesh requires even n >= 2, got {n}")
    if not isinstance(diagonal, Diagonal):
        diagonal = Diagonal(diagonal)
    m = n + 1
    g = -1.0 + 2.0 * np.arange(m) / n
    X, Y = np.meshgrid(g, g, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # Vertex (ix, iy) has id ix m + iy; cells follow in that order.
    cell = np.indices((n, n)).reshape(2, -1).T @ np.array([m, 1])
    corners = cell[:, None] + np.array([0, m, 1, m + 1])
    tris = corners[:, _CELL_TRIANGLES[diagonal]].reshape(-1, 3)

    # Per k < n: the k-th edge of the sides y = -1, y = 1, x = -1, x = 1.
    k = np.arange(n)[:, None]
    start = np.concatenate([k * m, k * m + n, k, n * m + k], axis=1)
    edges = np.stack([start, start + np.array([m, m, 1, 1])],
                     axis=2).reshape(-1, 2)

    half = GAMMA_HALF_WIDTH
    inside = np.all(
        np.max(np.abs(vertices[tris]), axis=2) <= half + GEOM_TOL, axis=1
    )
    region = np.flatnonzero(inside).astype(np.int64)

    return TriMesh(
        vertices=vertices,
        triangles=tris,
        boundary_edges=edges,
        interface_region_triangles=region,
        diagonal=diagonal,
        n=n,
    )


def triangle_area(verts: np.ndarray) -> float | np.ndarray:
    """Signed area of a 2D triangle (3, 2), or of each triangle of a batch
    (..., 3, 2)."""
    verts = np.asarray(verts, dtype=float)
    d1 = verts[..., 1, :] - verts[..., 0, :]
    d2 = verts[..., 2, :] - verts[..., 0, :]
    area = 0.5 * (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])
    return float(area) if area.ndim == 0 else area


def _number_rows(keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Number the distinct rows of ``keys`` (n, k) in the order of their
    first appearance.  Returns the number of every row (n,) and, per number,
    the first and the last row holding it and its multiplicity."""
    _, first, inv, count = np.unique(keys, axis=0, return_index=True,
                                     return_inverse=True, return_counts=True)
    by_key = np.argsort(inv.ravel(), kind="stable")
    last = by_key[np.cumsum(count) - 1]
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inv.ravel()], first[order], last[order], count[order]


def _match_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row of ``b`` equal to each row of ``a`` (floats compared after rounding
    to 1e-9), or -1 where there is none."""
    if a.dtype.kind == "f":
        a, b = np.round(a, 9) + 0.0, np.round(b, 9) + 0.0
    _, inv = np.unique(np.concatenate([b, a]), axis=0, return_inverse=True)
    inv = inv.ravel()
    where = np.full(inv.max() + 1, -1)
    where[inv[: b.shape[0]]] = np.arange(b.shape[0])
    return where[inv[b.shape[0]:]]


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------

def validate_mesh(mesh) -> list[str]:
    """Check mesh invariants; returns a list of human-readable violations
    (empty when the mesh is consistent).  Whether the plate's region
    triangles cover Gamma takes the body too: the overlay checks it."""
    problems: list[str] = []
    if isinstance(mesh, TetMesh):
        vols = tet_volume(mesh.vertices[mesh.tets])
        if np.any(vols <= 0):
            problems.append(f"{np.sum(vols <= 0)} tets with non-positive volume")
        # Boundary faces must be exactly the once-seen tet faces.
        keys = np.sort(mesh.tets[:, TET_LOCAL_FACES], axis=2).reshape(-1, 3)
        _, first, _, count = _number_rows(keys)
        once = first[count == 1]
        at = _match_rows(np.sort(mesh.boundary_faces, axis=1), keys[once])
        if np.any(at < 0) or np.unique(at).size != once.size:
            problems.append("boundary face table does not match once-seen tet faces")
        if np.any(count > 2):
            problems.append("a face is shared by more than two tets")
        seen = np.flatnonzero(at >= 0)
        inward = seen[_points_inward(mesh.vertices, mesh.boundary_faces[seen],
                                     mesh.tets[once[at[seen]] // 4])]
        if inward.size:
            problems.append(
                f"{inward.size} boundary faces with an inward normal, the "
                f"first {tuple(mesh.boundary_faces[inward[0]].tolist())}")
        n_faces, n_tags = len(mesh.boundary_faces), len(mesh.boundary_tags)
        if n_faces != n_tags:
            problems.append("boundary faces and tags differ in length: "
                            f"{n_faces}, {n_tags}")
        k = min(n_faces, n_tags)
        faces = mesh.boundary_faces[:k]
        on_gamma = np.all(np.abs(mesh.vertices[faces, 2]) <= GEOM_TOL, axis=1)
        wrong = np.flatnonzero(
            on_gamma != (mesh.boundary_tags[:k] == FaceTag.INTERFACE))
        if wrong.size:
            problems.append(f"face {tuple(faces[wrong[0]].tolist())} has "
                            "inconsistent interface tag")
    elif isinstance(mesh, TriMesh):
        areas = triangle_area(mesh.vertices[mesh.triangles])
        if np.any(areas <= 0):
            problems.append(f"{np.sum(areas <= 0)} triangles with non-positive area")
        ids, count = np.unique(mesh.interface_region_triangles,
                               return_counts=True)
        bad = ids[(ids < 0) | (ids >= mesh.n_triangles)]
        if bad.size:
            problems.append(f"interface_region_triangles holds {bad[0]}, not "
                            f"a triangle index of 0 to {mesh.n_triangles - 1}")
        if np.any(count > 1):
            problems.append("interface_region_triangles lists triangle "
                            f"{ids[count > 1][0]} more than once")
    else:
        problems.append(f"unknown mesh type {type(mesh)!r}")
    return problems
