"""The vectorized DOF maps against per-element loop references.

``StressDofMap`` and ``PlateDofMap`` number faces and edges with ``np.unique``
on sorted vertex tuples, renumbered in first-seen order.  The references
below walk the elements one at a time with a dictionary, the way the maps
were first written; every array the maps expose, the lazily built record and
index views, and the interface DOF set of the domain decomposition must be
bitwise equal to theirs, on structured and on jittered meshes.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given

from bodyplate import fe_elements
from bodyplate import verification_cli as vcli
from bodyplate.domain_decomposition import build_interface_dof_set
from bodyplate.fe_elements import (
    MorleyBatch,
    PlateDofMap,
    StressBatch,
    StressDofMap,
)
from bodyplate.geometry_mesh import (
    GAMMA_HALF_WIDTH,
    TET_LOCAL_FACES,
    Diagonal,
    FaceTag,
    build_body_mesh,
    build_plate_mesh,
)
from bodyplate.manufactured import default_case
from mesh_families import SETTINGS, build, meshes


def reference_stress_map(mesh):
    """Face records [vertices, owner, owner_local, neighbor, tag], ltg,
    sign and the essential DOFs, tet by tet."""
    index, records = {}, []
    for t in range(mesh.n_tets):
        for f in range(4):
            key = tuple(sorted(int(v) for v in mesh.tets[t, TET_LOCAL_FACES[f]]))
            if key in index:
                records[index[key]][3] = t
            else:
                index[key] = len(records)
                records.append([key, t, f, -1, -1])
    tags = {tuple(sorted(int(v) for v in tri)): int(tag)
            for tri, tag in zip(mesh.boundary_faces, mesh.boundary_tags)}
    for rec in records:
        if rec[3] == -1:
            rec[4] = tags[rec[0]]
    n_face_dofs = 9 * len(records)
    ltg = np.zeros((mesh.n_tets, 42), dtype=np.int64)
    sign = np.ones((mesh.n_tets, 42))
    for t in range(mesh.n_tets):
        for f in range(4):
            lv = mesh.tets[t, TET_LOCAL_FACES[f]]
            fid = index[tuple(sorted(int(v) for v in lv))]
            ranks = np.argsort(np.argsort(lv))
            for a in range(3):
                for c in range(3):
                    ltg[t, 9 * f + 3 * a + c] = 9 * fid + 3 * ranks[a] + c
                    sign[t, 9 * f + 3 * a + c] = 1.0 if records[fid][1] == t else -1.0
        ltg[t, 36:] = np.arange(n_face_dofs + 6 * t, n_face_dofs + 6 * t + 6)
    ess = [d for i, rec in enumerate(records) if rec[4] == int(FaceTag.FREE)
           for d in range(9 * i, 9 * i + 9)]
    return records, index, ltg, sign, np.asarray(ess, dtype=np.int64)


def reference_plate_map(mesh):
    """Edges, edge index, ltg arrays, signs and constrained flags, triangle
    by triangle."""
    nv = mesh.n_vertices
    index, edges = {}, []
    mem = np.zeros((mesh.n_triangles, 6), dtype=np.int64)
    mor = np.zeros((mesh.n_triangles, 6), dtype=np.int64)
    sign = np.ones((mesh.n_triangles, 6))
    for t in range(mesh.n_triangles):
        tri = mesh.triangles[t]
        for a in range(3):
            mem[t, 2 * a: 2 * a + 2] = [2 * int(tri[a]), 2 * int(tri[a]) + 1]
            mor[t, a] = 2 * nv + int(tri[a])
        for e in range(3):
            va, vb = int(tri[(e + 1) % 3]), int(tri[(e + 2) % 3])
            key = (min(va, vb), max(va, vb))
            if key not in index:
                index[key] = len(edges)
                edges.append(key)
            mor[t, 3 + e] = 3 * nv + index[key]
            sign[t, 3 + e] = 1.0 if va < vb else -1.0
    constrained = np.zeros(3 * nv + len(edges), dtype=bool)
    for v in set(int(v) for v in mesh.boundary_edges.ravel()):
        constrained[[2 * v, 2 * v + 1, 2 * nv + v]] = True
    for ed in mesh.boundary_edges:
        constrained[3 * nv + index[tuple(sorted(int(v) for v in ed))]] = True
    return edges, index, mem, mor, sign, constrained


def reference_interface_dofs(plate, index):
    on_gamma = np.max(np.abs(plate.vertices), axis=1) <= GAMMA_HALF_WIDTH + 1e-9
    nv = plate.n_vertices
    dofs = []
    for v in np.flatnonzero(on_gamma):
        dofs.extend([2 * v, 2 * v + 1, 2 * nv + v])
    for (va, vb), eid in index.items():
        if on_gamma[va] and on_gamma[vb]:
            dofs.append(3 * nv + eid)
    return np.asarray(sorted(dofs), dtype=np.int64)


def assert_same(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)


def check_stress_map(body):
    records, index, ltg, sign, ess = reference_stress_map(body)
    smap = StressDofMap(body)
    assert smap.n_faces == len(records)
    assert smap.n_dofs == 9 * len(records) + 6 * body.n_tets
    assert [[r.vertices, r.owner, r.owner_local, r.neighbor, r.tag]
            for r in smap.faces] == records
    assert smap.face_index == index
    assert_same(smap.face_vertices, np.array([r[0] for r in records]))
    assert_same(smap.face_owner, np.array([r[1] for r in records]))
    assert_same(smap.face_owner_local, np.array([r[2] for r in records]))
    assert_same(smap.face_neighbor, np.array([r[3] for r in records]))
    assert_same(smap.face_tag, np.array([r[4] for r in records]))
    assert_same(smap.ltg, ltg)
    assert_same(smap.sign, sign)
    assert_same(smap.essential_dofs, ess)
    for tag, ids in ((FaceTag.FREE, smap.free_face_ids),
                     (FaceTag.INTERFACE, smap.interface_face_ids)):
        assert_same(ids, np.array([i for i, r in enumerate(records)
                                   if r[4] == int(tag)], dtype=np.int64))


def check_plate_map(plate):
    edges, index, mem, mor, sign, constrained = reference_plate_map(plate)
    pmap = PlateDofMap(plate)
    assert pmap.n_edges == len(edges)
    assert pmap.n_dofs == 3 * plate.n_vertices + len(edges)
    assert_same(pmap.edges, np.array(edges, dtype=np.int64))
    assert_same(pmap.mem_ltg, mem)
    assert_same(pmap.mor_ltg, mor)
    assert_same(pmap.mor_sign, sign)
    assert_same(pmap.constrained, constrained)
    assert_same(pmap.boundary_vertices,
                np.array(sorted(set(plate.boundary_edges.ravel().tolist())),
                         dtype=np.int64))
    assert_same(build_interface_dof_set(plate, pmap),
                reference_interface_dofs(plate, index))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stress_map_matches_loop(n):
    check_stress_map(build_body_mesh(n))


@pytest.mark.parametrize("n", [4, 8, 12, 16])
@pytest.mark.parametrize("diagonal", list(Diagonal))
def test_plate_map_matches_loop(n, diagonal):
    check_plate_map(build_plate_mesh(n, diagonal))


@SETTINGS
@given(meshes)
def test_maps_match_loop_on_jittered_meshes(example):
    body, plate = build(example)
    check_stress_map(body)
    check_plate_map(plate)


def test_missing_boundary_face_raises():
    body = build_body_mesh(1)
    cut = replace(body, boundary_faces=body.boundary_faces[1:],
                  boundary_owners=body.boundary_owners[1:],
                  boundary_tags=body.boundary_tags[1:])
    with pytest.raises(ValueError, match="boundary face table"):
        StressDofMap(cut)


def test_stress_element_is_built_on_first_read():
    # The stress map holds the body's stress element: none until the first
    # read, then the element of every tet, the same object on every read.
    body = build_body_mesh(2)
    smap = StressDofMap(body)
    assert "stress" not in vars(smap)
    k = smap.stress
    assert vars(smap)["stress"] is k and smap.stress is k
    ref = vars(StressBatch(body.vertices[body.tets]))
    assert sorted(vars(k)) == sorted(ref)
    for name, a in ref.items():
        assert_same(getattr(k, name), a)


def test_plate_element_is_built_once_per_map(monkeypatch):
    # The plate map holds the Morley element: none until the first read,
    # then the element of every triangle, the same object on every read.
    # One solve and its norms build it once: the stiffness, the load and the
    # plate norms all read the solve's plate map.
    plate = build_plate_mesh(8, Diagonal.FLIPPED)
    pmap = PlateDofMap(plate)
    assert "morley" not in vars(pmap)
    m = pmap.morley
    assert vars(pmap)["morley"] is m and pmap.morley is m
    ref = vars(MorleyBatch(plate.vertices[plate.triangles]))
    assert sorted(vars(m)) == sorted(ref)
    for name, a in ref.items():
        assert_same(getattr(m, name), a)

    built = []
    init = fe_elements.MorleyBatch.__init__

    def counted(self, verts):
        built.append(len(verts))
        init(self, verts)

    monkeypatch.setattr(fe_elements.MorleyBatch, "__init__", counted)
    case = default_case()
    sol = vcli.solve_mixed(build_body_mesh(2), plate, case)[0]
    vcli.compute_error_norms(sol, case)
    assert built == [plate.n_triangles]
