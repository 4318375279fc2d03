"""The solvers off the built meshes' square: moved and scaled pairs.

A rigid motion of both meshes, with the exact solution moved alike
(``mesh_families.moved``, ``moved_case``), must leave every error norm as it
was: the library takes Gamma and |Gamma| from the meshes, not from where the
builders put them (the metamorphic test of Chen et al. 2018, ACM Comput.
Surv. 51(1):4, applied to manufactured solutions).  A scaled pair solves as
well; its clamped data are not ``default_case``'s, so the monolithic oracle
checks the solve there.
"""

from dataclasses import replace

import numpy as np
import pytest

from bodyplate import domain_decomposition as dd
from bodyplate import verification_cli as vcli
from bodyplate.geometry_mesh import (
    Diagonal,
    build_body_mesh,
    build_plate_mesh,
    validate_mesh,
)
from bodyplate.manufactured import default_case
from mesh_families import (
    delaunay_body,
    jittered_body,
    jittered_plate,
    moved,
    moved_case,
    rotation,
)
from test_hybrid import (
    assert_matches_oracle,
    monolithic_fields,
    relative_difference,
)

#: A rotation by 30 degrees about x3 and a shift in the plane.
Q, C = rotation(np.pi / 6), np.array([0.3, -0.2, 0.0])

#: Body n = 2 pairs on and off the Kuhn lattice.
PAIRS = {
    "matching": lambda: (build_body_mesh(2), build_plate_mesh(4)),
    "kuhn": lambda: (build_body_mesh(2), build_plate_mesh(8, Diagonal.FLIPPED)),
    "jittered": lambda: (jittered_body(2, 0),
                         jittered_plate(8, Diagonal.FLIPPED, 1)),
    "delaunay": lambda: (delaunay_body(2, 0.2, 0),
                         build_plate_mesh(8, Diagonal.FLIPPED)),
}

SOLVERS = {
    "mixed": lambda body, plate, case: vcli.solve_mixed(body, plate, case)[0],
    "dd": dd.solve_dd,
    "displacement": lambda body, plate, case: vcli.solve_displacement(
        body, plate, case)[0],
}


def norms(solver, body, plate, case):
    sol = SOLVERS[solver](body, plate, case)
    return np.array(vcli.compute_error_norms(sol, case).as_tuple())


@pytest.mark.parametrize("solver, pair", [
    ("mixed", "kuhn"), ("mixed", "jittered"), ("mixed", "delaunay"),
    ("dd", "kuhn"), ("dd", "jittered"), ("dd", "delaunay"),
    ("displacement", "matching"),
])
def test_moved_pair_keeps_the_norms(solver, pair):
    body, plate = PAIRS[pair]()
    moved_body, moved_plate = moved(body, Q, C), moved(plate, Q, C)
    assert validate_mesh(moved_body) == validate_mesh(moved_plate) == []
    case = default_case()
    before = norms(solver, body, plate, case)
    after = norms(solver, moved_body, moved_plate, moved_case(case, Q, C))
    assert np.all(np.abs(after - before) <= 1e-12 * before)


@pytest.mark.parametrize("pair", ["kuhn", "jittered"])
def test_scaled_pair_matches_the_oracle(pair):
    body, plate = PAIRS[pair]()
    body = replace(body, vertices=0.8 * body.vertices)
    plate = replace(plate, vertices=0.8 * plate.vertices)
    assert validate_mesh(body) == validate_mesh(plate) == []
    case = default_case()
    assert_matches_oracle(body, plate, case)
    sol = dd.solve_dd(body, plate, case)
    ref = monolithic_fields(body, plate, case)
    assert relative_difference((sol.sigma, sol.u, sol.w), ref) <= 1e-5
