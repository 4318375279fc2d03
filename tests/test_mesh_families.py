"""The Delaunay family of ``mesh_families`` gives valid meshes whose
quality the family reports."""

from bodyplate.geometry_mesh import validate_mesh
from mesh_families import delaunay_body, quality


def test_delaunay_bodies_are_valid_with_positive_quality():
    for n in (2, 4):
        for amp in (0.2, 0.45):
            for seed in range(3):
                body = delaunay_body(n, amp, seed)
                name = f"delaunay body {n}, amp {amp}, seed {seed}"
                assert validate_mesh(body) == [], name
                assert quality(body) > 0, name
