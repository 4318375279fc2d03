"""The body's per-tet work, streamed in ``LOCAL_CHUNK`` tet chunks.

``build_mixed_system`` builds the body's per-tet data and the body load, and
``hybrid.condense`` the local blocks, their elimination and the condensed
system S, one chunk of tets at a time.  Here the chunk size must not change
a single bit of the kept arrays or of the solution, a refused tet must be
named by its index in the mesh, and the temporaries must stay at the size
of a chunk.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from bodyplate import assembly as asm
from bodyplate import fe_elements, hybrid
from bodyplate import verification_cli as vcli
from bodyplate.geometry_mesh import Diagonal, build_body_mesh, build_plate_mesh
from bodyplate.manufactured import default_case
from mesh_families import SETTINGS, build, flattened_body, meshes

#: A chunk size that leaves a ragged last chunk on every mesh used here.
RAGGED_CHUNK = 7


def streamed_arrays(body, plate, chunk):
    """Every kept array of the set-up and the seven error norms, with
    LOCAL_CHUNK = ``chunk``."""
    case = default_case()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fe_elements, "LOCAL_CHUNK", chunk)
        system = asm.build_mixed_system(body, plate, case)
        hb = hybrid.condense(system)[0]
        sol, _ = vcli.solve_mixed(body, plate, case)
    return {
        **{f"stress.{name}": a
           for name, a in vars(system.smap.stress).items()},
        "coupling.tet": system.coupling.tet,
        "coupling.rows": system.coupling.rows,
        "coupling.blocks": system.coupling.blocks, "f_V": system.f_V,
        "L_inv": hb.L_inv, "LS_inv": hb.LS_inv, "Z": hb.Z,
        **{f"S.{block}.{name}": getattr(getattr(hb.S, block), name)
           for block in ("ll", "lw", "ww")
           for name in ("data", "indices", "indptr")},
        "norms": np.array(vcli.compute_error_norms(sol, case).as_tuple()),
    }


def assert_chunk_invariant(body, plate):
    whole = streamed_arrays(body, plate, body.n_tets)
    ragged = streamed_arrays(body, plate, RAGGED_CHUNK)
    assert body.n_tets % RAGGED_CHUNK
    for name, ref in whole.items():
        assert np.array_equal(ragged[name], ref), name


@pytest.mark.parametrize("n_body, n_plate, diagonal", [
    (2, 4, Diagonal.SAME_AS_BODY), (2, 8, Diagonal.FLIPPED),
    (3, 12, Diagonal.FLIPPED)])
def test_chunks_change_no_bit(n_body, n_plate, diagonal):
    assert_chunk_invariant(build_body_mesh(n_body),
                           build_plate_mesh(n_plate, diagonal))


@SETTINGS
@given(meshes)
def test_chunks_change_no_bit_on_jittered_meshes(example):
    assert_chunk_invariant(*build(example))


# ---------------------------------------------------------------------------
# A refused tet is named by its index in the mesh.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lift, message", [
    (0.0, "tet 10 is degenerate or negatively oriented"),
    (1e-11, "stress DOF matrix of tet 10 is ill-conditioned")])
def test_refused_tet_in_a_later_chunk_is_named(monkeypatch, lift, message):
    # Chunks of four: tet 10 is the third chunk's tet 2.
    monkeypatch.setattr(fe_elements, "LOCAL_CHUNK", 4)
    body = flattened_body(lift)
    with pytest.raises(ValueError, match=message):
        asm.build_mixed_system(body, build_plate_mesh(4), default_case())


def test_hand_built_solution_refuses_the_flat_tet_in_the_norms():
    # No solve reaches the norms of this body, so they check its stress
    # element themselves, by the rule of the solve.
    body, plate = flattened_body(1e-11), build_plate_mesh(4)
    smap, vmap, pmap = (fe_elements.StressDofMap(body),
                        fe_elements.BodyDGDofMap(body),
                        fe_elements.PlateDofMap(plate))
    case = default_case()
    sol = vcli.SolutionFields(
        method="mixed-nc", body=body, plate=plate, params=case.params,
        u=np.zeros(vmap.n_dofs), w=np.zeros(pmap.n_dofs), pmap=pmap,
        sigma=np.zeros(smap.n_dofs), smap=smap, vmap=vmap)
    with pytest.raises(ValueError, match="stress DOF matrix of tet 10 is "
                       "ill-conditioned"):
        vcli.compute_error_norms(sol, case)


# ---------------------------------------------------------------------------
# Temporaries stay at the size of a chunk.
# ---------------------------------------------------------------------------

def traced(call):
    """The result of ``call()`` with the bytes it keeps and the peak of the
    bytes it allocates, both measured by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept - base, peak - base


def test_setup_temporaries_stay_at_chunk_size(monkeypatch):
    # The unit is one chunk of local saddle blocks, 16 x 54 x 54 doubles
    # (373 KB).  At body 4 / plate 8 the build allocates about 3 units
    # beyond what it keeps, and the condensation, which forms and
    # eliminates each chunk's blocks, about 5.  One whole-mesh array
    # of the kind the chunks replaced is more than the margin of 6:
    # (384, 42, 42) doubles, a compliance or coefficient array, is 14.5
    # units, (384, 36, 36), the multiplier part of the local inverses, is
    # 10.7, and the body load's quadrature data on every tet at once is 7.
    chunk = 16
    monkeypatch.setattr(fe_elements, "LOCAL_CHUNK", chunk)
    unit = chunk * 54 * 54 * 8
    body, plate, case = build_body_mesh(4), build_plate_mesh(8), default_case()
    # Untraced first calls fill the cached rules and tables.
    hybrid.condense(asm.build_mixed_system(body, plate, case))
    system, kept, peak = traced(
        lambda: asm.build_mixed_system(body, plate, case))
    assert peak <= kept + 6 * unit
    _, kept, peak = traced(lambda: hybrid.condense(system))
    assert peak <= kept + 6 * unit
