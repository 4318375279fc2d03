"""Each DOF map carries its mesh (``.mesh``).

The entry points that still take a mesh beside its map refuse a mesh that
is not the map's own, and every body form reads the one ``StressBatch`` its
stress map holds.
"""

import numpy as np
import pytest

from bodyplate import assembly as asm
from bodyplate import domain_decomposition as dd
from bodyplate import fe_elements
from bodyplate.fe_elements import BodyDGDofMap, PlateDofMap, StressDofMap
from bodyplate.geometry_mesh import (
    TriMesh,
    body_mesh_from_tets,
    build_body_mesh,
    build_plate_mesh,
)
from bodyplate.interface_overlay import (
    extract_interface_triangulation,
    intersect_triangulations,
)
from bodyplate.manufactured import default_case
from bodyplate.solvers import SolutionFields


def _interior(n_vertices: int, boundary: np.ndarray) -> np.ndarray:
    return np.setdiff1d(np.arange(n_vertices), boundary)


def moved_body(body):
    """The same tets on vertices whose interior ones are moved."""
    verts = body.vertices.copy()
    verts[_interior(body.n_vertices, body.boundary_faces)] += 0.1 * body.h
    return body_mesh_from_tets(verts, body.tets, body.n)


def moved_plate(plate):
    """The same triangles on vertices whose interior ones are moved."""
    verts = plate.vertices.copy()
    verts[_interior(plate.n_vertices, plate.boundary_edges), 0] += 0.1 * plate.h
    return TriMesh(verts, plate.triangles, plate.boundary_edges,
                   plate.interface_region_triangles, plate.diagonal, plate.n)


@pytest.fixture(scope="module")
def setting():
    body, plate = build_body_mesh(2), build_plate_mesh(8)
    faces = extract_interface_triangulation(body)
    case = default_case()
    return dict(
        body=body, plate=plate, smap=StressDofMap(body),
        vmap=BodyDGDofMap(body), pmap=PlateDofMap(plate), faces=faces,
        cells=intersect_triangulations(faces, plate), case=case,
        params=case.params)


def _fields(s, body, plate):
    n_v = s["vmap"].n_dofs
    return SolutionFields(
        method="mixed-nc", body=body, plate=plate, params=s["params"],
        u=np.zeros(n_v), w=np.zeros(s["pmap"].n_dofs), pmap=s["pmap"],
        sigma=np.zeros(s["smap"].n_dofs), smap=s["smap"], vmap=s["vmap"])


#: (argument, call) of each entry point that takes a mesh beside its map.
ENTRY_POINTS = {
    "assemble_stress_mass": (
        "body", lambda s, b, p: asm.assemble_stress_mass(b, s["smap"])),
    "assemble_div_div": (
        "body", lambda s, b, p: asm.assemble_div_div(b, s["smap"])),
    "assemble_divergence": (
        "body", lambda s, b, p: asm.assemble_divergence(
            b, s["smap"], s["vmap"])),
    "assemble_body_mass": (
        "body", lambda s, b, p: asm.assemble_body_mass(b, s["vmap"])),
    "project_to_Vh": (
        "body", lambda s, b, p: asm.project_to_Vh(
            b, s["vmap"], s["case"].f_body)),
    "assemble_interface_coupling/body": (
        "body", lambda s, b, p: asm.assemble_interface_coupling(
            b, s["smap"], s["plate"], s["pmap"], s["faces"], s["cells"])),
    "assemble_interface_coupling/plate": (
        "plate", lambda s, b, p: asm.assemble_interface_coupling(
            s["body"], s["smap"], p, s["pmap"], s["faces"], s["cells"])),
    "BodyOperator": (
        "body", lambda s, b, p: dd.BodyOperator(
            b, s["smap"], s["vmap"], s["params"], s["case"].traction)),
    "SchurProduct": (
        "plate", lambda s, b, p: dd.SchurProduct(
            p, s["pmap"], s["params"],
            dd.build_interface_dof_set(s["plate"], s["pmap"]))),
    "PlateOperator": (
        "plate", lambda s, b, p: dd.PlateOperator(p, s["pmap"], s["params"])),
    "build_interface_dof_set": (
        "plate", lambda s, b, p: dd.build_interface_dof_set(p, s["pmap"])),
    "SolutionFields/body": (
        "body", lambda s, b, p: _fields(s, b, s["plate"])),
    "SolutionFields/plate": (
        "plate", lambda s, b, p: _fields(s, s["body"], p)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_mesh_other_than_the_maps_own_is_refused(setting, entry):
    arg, call = ENTRY_POINTS[entry]
    body, plate = moved_body(setting["body"]), moved_plate(setting["plate"])
    # The moved copies share the maps' topology, so only identity tells
    # them apart.
    assert np.array_equal(body.tets, setting["body"].tets)
    assert not np.array_equal(body.vertices, setting["body"].vertices)
    assert not np.array_equal(plate.vertices, setting["plate"].vertices)
    with pytest.raises(ValueError, match=rf"^{arg} is not the mesh its"):
        call(setting, body, plate)


def test_the_body_forms_read_the_maps_one_stress_batch(monkeypatch):
    """A mixed system, the four reference assemblers on its stress map and
    its A and B build one ``StressBatch`` between them, the one
    ``StressDofMap.stress`` holds."""
    built = []
    init = fe_elements.StressBatch.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(fe_elements.StressBatch, "__init__", counted)
    body, plate = build_body_mesh(1), build_plate_mesh(4)
    case = default_case()
    system = asm.build_mixed_system(body, plate, case)
    smap, vmap = system.smap, system.vmap
    asm.assemble_compliance(smap, case.params)
    asm.assemble_stress_mass(body, smap)
    asm.assemble_div_div(body, smap)
    asm.assemble_divergence(body, smap, vmap)
    _ = system.A, system.B
    assert len(built) == 1
