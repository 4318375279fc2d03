"""Meshes and the interface overlay.

The coupled problem lives on two independently refined meshes: a structured
tetrahedral mesh of the unit-column body (each grid cube split into six
tetrahedra around its main diagonal) and a structured triangular mesh of the
square plate.  The plate covers four times the area of the body footprint,
and the body touches it only on the central interface square.

Products of functions from the two meshes are integrated on an overlay: each
interface face of the body is clipped against the plate triangles that a
uniform grid bucket puts near it (all pairs in one batched clip), producing
convex polygonal cells that are fanned into triangles carrying quadrature
points.  This script builds a deliberately non-matching pair and
shows that the overlay conserves area to roundoff.
"""

import numpy as np

from bodyplate.geometry_mesh import (
    Diagonal,
    build_body_mesh,
    build_plate_mesh,
    validate_mesh,
)
from bodyplate.interface_overlay import (
    extract_interface_triangulation,
    intersect_triangulations,
)

# --- two meshes that do not match on the interface -------------------------

body = build_body_mesh(2)          # 2 cells per edge -> 48 tetrahedra
plate = build_plate_mesh(8, Diagonal.FLIPPED)   # 8x8 cells, opposite diagonal

print("body :", body.n_vertices, "vertices,", body.n_tets,
      "tets, h =", f"{body.h:.4f}")
print("plate:", plate.n_vertices, "vertices,", plate.n_triangles,
      "triangles, h =", f"{plate.h:.4f}")
validate_mesh(body)
validate_mesh(plate)

# The body's bottom boundary faces tagged as interface faces:
faces = extract_interface_triangulation(body)
print("\ninterface triangulation:", len(faces), "faces, total area",
      f"{sum(f.area for f in faces):.12f}")

# --- the overlay ------------------------------------------------------------

cells = intersect_triangulations(faces, plate)
print("overlay:", len(cells), "cells")

# Every overlay cell is a convex polygon lying in exactly one body face and
# one plate triangle.  Grouped by body face, the cell areas must reassemble
# the face areas exactly; summed, they must reproduce the interface area 1.
per_face = np.zeros(len(faces))
for c in cells:
    per_face[c.face_id] += c.area
defect = np.abs(per_face - np.array([f.area for f in faces])).max()
total = sum(c.area for c in cells)

print("area conservation: total =", f"{total:.15f}",
      " worst per-face defect =", f"{defect:.3e}")

# A matching pair degenerates to one overlay cell per body face:
plate_m = build_plate_mesh(4, Diagonal.SAME_AS_BODY)
cells_m = intersect_triangulations(faces, plate_m)
print("\nmatching pair (plate n=4, same diagonal):", len(cells_m),
      "cells for", len(faces), "faces")
