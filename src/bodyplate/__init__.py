"""Coupled 3D elastic body / Kirchhoff plate finite element library.

A mixed stress-displacement method for a linear elastic body glued to a thin
plate along a flat interface: exactly divergence-compatible nonconforming
stress elements on tetrahedra, discontinuous vector P1 body displacements, and
a membrane-P1 / Morley plate pair, coupled through interface traction moments
on a geometric overlay of the two (possibly non-matching) interface
triangulations.  A continuous-displacement baseline method and a CG-based
domain-decomposition interface solver are included, together with manufactured
solutions, error norms, convergence studies, and a small CLI.
"""

from .geometry_mesh import (
    Diagonal,
    FaceTag,
    TetMesh,
    TriMesh,
    build_body_mesh,
    build_plate_mesh,
    validate_mesh,
)
from .interface_overlay import (
    InterfaceFace,
    OverlayCell,
    extract_interface_triangulation,
    intersect_triangulations,
    map_to_parents,
)
from .materials import (
    MaterialParams,
    c0_apply,
    c0_inv_apply,
    c1_apply,
    c2_apply,
    default_params,
)
from .quadrature import QuadratureRule, tet_rule, triangle_rule
from .manufactured import ManufacturedCase, constant_stress_case, default_case
from .domain_decomposition import solve_dd
from .verification_cli import (
    ErrorRecord,
    SolutionFields,
    compute_error_norms,
    run_convergence_study,
    solve_displacement,
    solve_mixed,
)

__all__ = [
    "Diagonal",
    "FaceTag",
    "TetMesh",
    "TriMesh",
    "build_body_mesh",
    "build_plate_mesh",
    "validate_mesh",
    "InterfaceFace",
    "OverlayCell",
    "extract_interface_triangulation",
    "intersect_triangulations",
    "map_to_parents",
    "MaterialParams",
    "c0_apply",
    "c0_inv_apply",
    "c1_apply",
    "c2_apply",
    "default_params",
    "QuadratureRule",
    "tet_rule",
    "triangle_rule",
    "ManufacturedCase",
    "constant_stress_case",
    "default_case",
    "solve_dd",
    "ErrorRecord",
    "SolutionFields",
    "compute_error_norms",
    "run_convergence_study",
    "solve_displacement",
    "solve_mixed",
]

__version__ = "0.1.0"
