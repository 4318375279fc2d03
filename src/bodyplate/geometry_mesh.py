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
    "build_plate_mesh",
    "refine_uniform",
    "validate_mesh",
    "dump_mesh",
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
    level : int, refinement counter.
    """

    vertices: np.ndarray
    tets: np.ndarray
    boundary_faces: np.ndarray
    boundary_owners: np.ndarray
    boundary_tags: np.ndarray
    n: int
    level: int = 0

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
    n : int, cells per side; level : refinement counter.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    interface_region_triangles: np.ndarray
    diagonal: Diagonal
    n: int
    level: int = 0

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


def tet_volume(verts: np.ndarray) -> float:
    """Signed volume of a tet given its 4 vertex coordinates."""
    d = verts[1:] - verts[0]
    return float(np.linalg.det(d)) / 6.0


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

    def vid(ix, iy, iz):
        return (ix * m + iy) * m + iz

    tets = []
    for ix in range(n):
        for iy in range(n):
            for iz in range(n):
                base = np.array([ix, iy, iz])
                for perm in _KUHN_PERMS:
                    steps = np.zeros((4, 3), dtype=int)
                    steps[0] = base
                    cur = base.copy()
                    for k, axis in enumerate(perm):
                        cur = cur.copy()
                        cur[axis] += 1
                        steps[k + 1] = cur
                    ids = [vid(*s) for s in steps]
                    if tet_volume(vertices[ids]) < 0:
                        ids[2], ids[3] = ids[3], ids[2]
                    tets.append(ids)
    tets = np.asarray(tets, dtype=np.int64)

    # Boundary faces: tet faces that appear exactly once.
    face_count: dict[tuple, tuple[int, int]] = {}
    for t in range(tets.shape[0]):
        for f in range(4):
            key = tuple(sorted(tets[t, TET_LOCAL_FACES[f]]))
            if key in face_count:
                face_count[key] = (-1, -1)
            else:
                face_count[key] = (t, f)
    bfaces, bowners, btags = [], [], []
    for t in range(tets.shape[0]):
        for f in range(4):
            key = tuple(sorted(tets[t, TET_LOCAL_FACES[f]]))
            if face_count[key] != (t, f):
                continue
            tri = _outward_face(vertices, tets[t], f)
            bfaces.append(tri)
            bowners.append(t)
            z = vertices[list(tri), 2]
            tag = FaceTag.INTERFACE if np.all(np.abs(z) <= GEOM_TOL) else FaceTag.FREE
            btags.append(int(tag))
    return TetMesh(
        vertices=vertices,
        tets=tets,
        boundary_faces=np.asarray(bfaces, dtype=np.int64),
        boundary_owners=np.asarray(bowners, dtype=np.int64),
        boundary_tags=np.asarray(btags, dtype=np.int64),
        n=n,
        level=0,
    )


def _outward_face(vertices, tet, local_face) -> tuple[int, int, int]:
    """Vertex triple of a local tet face, ordered so that the right-hand rule
    normal points away from the tet."""
    ids = tet[TET_LOCAL_FACES[local_face]]
    a, b, c = vertices[ids]
    nrm = np.cross(b - a, c - a)
    centroid_face = (a + b + c) / 3.0
    centroid_tet = vertices[tet].mean(axis=0)
    if np.dot(nrm, centroid_face - centroid_tet) < 0:
        return (int(ids[0]), int(ids[2]), int(ids[1]))
    return (int(ids[0]), int(ids[1]), int(ids[2]))


# ---------------------------------------------------------------------------
# Plate mesh.
# ---------------------------------------------------------------------------

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

    def vid(ix, iy):
        return ix * m + iy

    tris = []
    for ix in range(n):
        for iy in range(n):
            v00 = vid(ix, iy)
            v10 = vid(ix + 1, iy)
            v01 = vid(ix, iy + 1)
            v11 = vid(ix + 1, iy + 1)
            if diagonal is Diagonal.SAME_AS_BODY:
                tris.append([v00, v10, v11])
                tris.append([v00, v11, v01])
            else:
                tris.append([v00, v10, v01])
                tris.append([v10, v11, v01])
    tris = np.asarray(tris, dtype=np.int64)

    edges = []
    for ix in range(n):
        edges.append([vid(ix, 0), vid(ix + 1, 0)])
        edges.append([vid(ix, n), vid(ix + 1, n)])
        edges.append([vid(0, ix), vid(0, ix + 1)])
        edges.append([vid(n, ix), vid(n, ix + 1)])
    edges = np.asarray(edges, dtype=np.int64)

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
        level=0,
    )


def triangle_area(verts: np.ndarray) -> float:
    """Signed area of a 2D triangle."""
    d1 = verts[1] - verts[0]
    d2 = verts[2] - verts[0]
    return 0.5 * float(d1[0] * d2[1] - d1[1] * d2[0])


# ---------------------------------------------------------------------------
# Refinement, validation, dumping.
# ---------------------------------------------------------------------------

def refine_uniform(mesh):
    """Uniform refinement: rebuild at 2n with the level counter advanced."""
    if isinstance(mesh, TetMesh):
        out = build_body_mesh(2 * mesh.n)
    elif isinstance(mesh, TriMesh):
        out = build_plate_mesh(2 * mesh.n, mesh.diagonal)
    else:
        raise TypeError(f"cannot refine object of type {type(mesh)!r}")
    out.level = mesh.level + 1
    return out


def resolves_interface_boundary(plate: TriMesh) -> bool:
    """True when every plate triangle is contained in closure(Gamma) or has
    interior disjoint from Gamma."""
    from .interface_overlay import clip_convex_polygon, polygon_area

    half = GAMMA_HALF_WIDTH
    square = np.array([[-half, -half], [half, -half], [half, half], [-half, half]])
    for t in range(plate.n_triangles):
        verts = plate.triangle_vertices(t)
        area = abs(triangle_area(verts))
        clipped = clip_convex_polygon(verts, square)
        a = polygon_area(clipped)
        if a > 1e-12 * area and a < (1.0 - 1e-12) * area:
            return False
    return True


def validate_mesh(mesh) -> list[str]:
    """Check mesh invariants; returns a list of human-readable violations
    (empty when the mesh is consistent)."""
    problems: list[str] = []
    if isinstance(mesh, TetMesh):
        vols = np.array([tet_volume(mesh.tet_vertices(t)) for t in range(mesh.n_tets)])
        if np.any(vols <= 0):
            problems.append(f"{np.sum(vols <= 0)} tets with non-positive volume")
        if abs(vols.sum() - 1.0) > 1e-10:
            problems.append(f"total volume {vols.sum():.15g} != 1")
        # Boundary faces must be exactly the once-seen tet faces.
        seen: dict[tuple, int] = {}
        for t in range(mesh.n_tets):
            for f in range(4):
                key = tuple(sorted(mesh.tets[t, TET_LOCAL_FACES[f]]))
                seen[key] = seen.get(key, 0) + 1
        boundary_keys = {tuple(sorted(tri)) for tri in mesh.boundary_faces}
        actual = {k for k, c in seen.items() if c == 1}
        if boundary_keys != actual:
            problems.append("boundary face table does not match once-seen tet faces")
        if np.any((np.array([c for c in seen.values()]) > 2)):
            problems.append("a face is shared by more than two tets")
        for tri, owner, tag in zip(
            mesh.boundary_faces, mesh.boundary_owners, mesh.boundary_tags
        ):
            z = mesh.vertices[tri, 2]
            is_iface = bool(np.all(np.abs(z) <= GEOM_TOL))
            if is_iface != (tag == FaceTag.INTERFACE):
                problems.append(f"face {tuple(tri)} has inconsistent interface tag")
                break
    elif isinstance(mesh, TriMesh):
        areas = np.array(
            [triangle_area(mesh.triangle_vertices(t)) for t in range(mesh.n_triangles)]
        )
        if np.any(areas <= 0):
            problems.append(f"{np.sum(areas <= 0)} triangles with non-positive area")
        if abs(areas.sum() - 4.0) > 1e-10:
            problems.append(f"total area {areas.sum():.15g} != 4")
        if not resolves_interface_boundary(mesh):
            problems.append(
                "interface boundary not resolved: a triangle crosses the edge of "
                "the coupling region (plate n must be divisible by 4)"
            )
        half = GAMMA_HALF_WIDTH
        for t in mesh.interface_region_triangles:
            if np.max(np.abs(mesh.triangle_vertices(int(t)))) > half + GEOM_TOL:
                problems.append("interface_region_triangles contains an outside triangle")
                break
    else:
        problems.append(f"unknown mesh type {type(mesh)!r}")
    return problems


def dump_mesh(mesh, stream) -> None:
    """Write a plain-text mesh dump: one `v x y [z]` line per vertex followed
    by one `t i j k [l]` line per element."""
    close = False
    if isinstance(stream, (str, bytes)):
        stream = open(stream, "w")
        close = True
    try:
        for v in mesh.vertices:
            coords = " ".join(f"{c:.17g}" for c in v)
            stream.write(f"v {coords}\n")
        elems = mesh.tets if isinstance(mesh, TetMesh) else mesh.triangles
        for e in elems:
            ids = " ".join(str(int(i)) for i in e)
            stream.write(f"t {ids}\n")
    finally:
        if close:
            stream.close()
