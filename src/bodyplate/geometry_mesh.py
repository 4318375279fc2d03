"""Structured meshes for the coupled body-plate domain.

The 3D body occupies alpha = (-1/2, 1/2)^2 x (0, 1) and is meshed by n^3 cubes,
each split into six tetrahedra sharing the cube's main diagonal (Kuhn split);
every cube uses the same split so neighbouring cells match.  The plate occupies
beta = (-1, 1)^2 and is meshed by n^2 squares split into two triangles each,
with a per-mesh diagonal convention.  The coupling interface is
Gamma = (-1/2, 1/2)^2 x {0}, the part of the body boundary at x3 = 0; the body's
outward normal there is (0, 0, -1).

All vertex/element arrays are frozen after construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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

#: Gamma = (-G, G)^2 x {0} with G = 1/2.
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

    Attributes
    ----------
    vertices : (nv, 3) float array
    tets : (nt, 4) int array, positively oriented
    boundary_faces : (nb, 3) int array
        Vertex triples ordered so the right-hand normal points outward.
    boundary_owners : (nb,) int array of owning tet indices.
    boundary_tags : (nb,) int array of FaceTag values.
    n : int, cells per unit edge (h-level parameter).
    """

    vertices: np.ndarray
    tets: np.ndarray
    boundary_faces: np.ndarray
    boundary_owners: np.ndarray
    boundary_tags: np.ndarray
    n: int

    def __post_init__(self):
        _freeze(self.vertices, self.tets, self.boundary_faces,
                self.boundary_owners, self.boundary_tags)

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
        Indices of triangles contained in closure(Gamma).
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
    a, b, c = (vertices[faces[:, k]] for k in range(3))
    outward = np.cross(b - a, c - a)
    away = (a + b + c) / 3.0 - vertices[tets[owners]].mean(axis=1)
    inward = np.einsum("ij,ij->i", outward, away) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]
    on_gamma = np.all(np.abs(vertices[faces, 2]) <= GEOM_TOL, axis=1)
    return TetMesh(
        vertices=vertices,
        tets=tets,
        boundary_faces=faces,
        boundary_owners=owners,
        boundary_tags=np.where(on_gamma, int(FaceTag.INTERFACE),
                               int(FaceTag.FREE)).astype(np.int64),
        n=n,
    )


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

def resolves_interface_boundary(plate: TriMesh) -> bool:
    """True when every plate triangle is contained in closure(Gamma) or has
    interior disjoint from Gamma."""
    from .interface_overlay import _clip_batch, _signed_areas

    half = GAMMA_HALF_WIDTH
    square = np.array([[-half, -half], [half, -half], [half, half], [-half, half]])
    verts = plate.vertices[plate.triangles]
    area = np.abs(triangle_area(verts))
    clipped, count = _clip_batch(verts, square[None])
    a = np.where(count >= 3, np.abs(_signed_areas(clipped, count)), 0.0)
    return not np.any((a > 1e-12 * area) & (a < (1.0 - 1e-12) * area))


def validate_mesh(mesh) -> list[str]:
    """Check mesh invariants; returns a list of human-readable violations
    (empty when the mesh is consistent)."""
    problems: list[str] = []
    if isinstance(mesh, TetMesh):
        vols = tet_volume(mesh.vertices[mesh.tets])
        if np.any(vols <= 0):
            problems.append(f"{np.sum(vols <= 0)} tets with non-positive volume")
        if abs(vols.sum() - 1.0) > 1e-10:
            problems.append(f"total volume {vols.sum():.15g} != 1")
        # Boundary faces must be exactly the once-seen tet faces.
        keys = np.sort(mesh.tets[:, TET_LOCAL_FACES], axis=2).reshape(-1, 3)
        _, first, _, count = _number_rows(keys)
        actual = np.unique(keys[first[count == 1]], axis=0)
        table = np.unique(np.sort(mesh.boundary_faces, axis=1), axis=0)
        if not np.array_equal(table, actual):
            problems.append("boundary face table does not match once-seen tet faces")
        if np.any(count > 2):
            problems.append("a face is shared by more than two tets")
        sizes = (len(mesh.boundary_faces), len(mesh.boundary_owners),
                 len(mesh.boundary_tags))
        if len(set(sizes)) > 1:
            problems.append("boundary faces, owners and tags differ in "
                            f"length: {sizes[0]}, {sizes[1]}, {sizes[2]}")
        k = min(sizes)
        faces, owners = mesh.boundary_faces[:k], mesh.boundary_owners[:k]
        held = (owners >= 0) & (owners < mesh.n_tets)
        held[held] = np.all(np.any(mesh.tets[owners[held], :, None]
                                   == faces[held, None, :], axis=1), axis=1)
        if not held.all():
            i = np.flatnonzero(~held)[0]
            problems.append(f"boundary face {tuple(faces[i].tolist())} is not "
                            f"a face of its owner tet {int(owners[i])}")
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
        if abs(areas.sum() - 4.0) > 1e-10:
            problems.append(f"total area {areas.sum():.15g} != 4")
        if not resolves_interface_boundary(mesh):
            problems.append(
                "interface boundary not resolved: a triangle crosses the edge of "
                "the coupling region (plate n must be divisible by 4)"
            )
        region = mesh.vertices[mesh.triangles[mesh.interface_region_triangles]]
        if np.any(np.abs(region) > GAMMA_HALF_WIDTH + GEOM_TOL):
            problems.append("interface_region_triangles contains an outside triangle")
    else:
        problems.append(f"unknown mesh type {type(mesh)!r}")
    return problems

