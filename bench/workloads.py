"""The benchmark's workloads: inputs, solve calls and output checks.

Every call into the library goes through a module attribute looked up at
call time (``bp.verification_cli.solve_mixed``), so the traced run sees the
wrappers that ``layertrace`` installs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Largest relative drift of any of the seven error norms from the stored
#: reference.  Refactors that only reorder floating-point sums move the norms
#: by about 1e-13; any change to the discretization moves them by far more.
NORM_RTOL = 1e-7

#: Interface CG junction residual bound, as in the DD test suite.
JUNCTION_BOUND = 1e-5

NORM_NAMES = ("sigma", "u", "umem_h1", "umem_l2", "u3_h2", "u3_h1", "u3_l2")


# Sizes: every workload fits several solves into a 50 s run.  On the 2-core
# reference machine, speed drifts by up to 1.5x over seconds to minutes, so
# a run's median needs many samples spread across its window.  That rules
# out the matching body n=6 / plate n=12 pair for mixed_lu (16-24 s per
# solve) and plate n=64 for dd_fine_plate (16 s).


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "mixed" or "dd"
    body_n: int
    plate_n: int
    diagonal: str  # a bodyplate.Diagonal member name
    #: The seven error norms of the solution.
    reference: tuple[float, ...]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "mixed_lu", "mixed", 5, 12, "SAME_AS_BODY",
            (25.584388936088594, 0.09360154635478826, 1.621862964913081,
             0.07874982871864143, 3.3414674025306987, 0.20585335778140215,
             0.12699924617880037),
        ),
        Workload(
            "dd_fine_plate", "dd", 4, 32, "FLIPPED",
            (31.888894654030626, 0.04474655887214407, 0.6175210750295939,
             0.02757956786300194, 1.2840691790027385, 0.032562501262887705,
             0.019958958369940934),
        ),
    )
}


@dataclass
class Inputs:
    case: object
    body: object
    plate: object
    #: (StressDofMap, BodyDGDofMap, PlateDofMap) for wrapping a DD solution.
    dd_maps: tuple | None = None


def setup(bp, wl: Workload) -> Inputs:
    """Build the workload's inputs: the manufactured case and the meshes,
    plus DOF maps for wrapping a DD solution."""
    gm = bp.geometry_mesh
    case = bp.manufactured.default_case()
    body = gm.build_body_mesh(wl.body_n)
    plate = gm.build_plate_mesh(wl.plate_n, gm.Diagonal[wl.diagonal])
    maps = None
    if wl.method == "dd":
        fe = bp.fe_elements
        maps = (fe.StressDofMap(body), fe.BodyDGDofMap(body),
                fe.PlateDofMap(plate))
    return Inputs(case, body, plate, maps)


def check_inputs(bp, inp: Inputs) -> list[str]:
    """Mesh validity."""
    gm = bp.geometry_mesh
    return gm.validate_mesh(inp.body) + gm.validate_mesh(inp.plate)


def solve(bp, wl: Workload, inp: Inputs):
    """The workload's solve call.  Returns (SolutionFields or None, DDSolution
    or None)."""
    vc = bp.verification_cli
    if wl.method == "mixed":
        return vc.solve_mixed(inp.body, inp.plate, inp.case)[0], None
    return None, bp.domain_decomposition.solve_dd(inp.body, inp.plate, inp.case)


def verify(bp, wl: Workload, inp: Inputs, sol, dd) -> tuple[float, ...]:
    """The seven error norms (quadrature degree 8, the library default)."""
    vc = bp.verification_cli
    if dd is not None:
        smap, vmap, pmap = inp.dd_maps
        sol = vc.SolutionFields(
            method="mixed-nc", body=inp.body, plate=inp.plate,
            params=inp.case.params, u=dd.u, w=dd.w, pmap=pmap,
            sigma=dd.sigma, smap=smap, vmap=vmap,
        )
    return tuple(float(v) for v in vc.compute_error_norms(sol, inp.case).as_tuple())


def check_output(wl: Workload, norms: tuple[float, ...], dd) -> list[str]:
    """Problems with one solve's output; empty when it is correct."""
    problems = []
    if not all(np.isfinite(norms)):
        problems.append(f"non-finite error norms {norms}")
        return problems
    for name, got, ref in zip(NORM_NAMES, norms, wl.reference):
        if abs(got - ref) > NORM_RTOL * abs(ref):
            problems.append(f"{name} = {got!r} drifts from reference {ref!r}")
    if dd is not None:
        if not dd.report.converged:
            problems.append(f"interface CG did not converge in "
                            f"{dd.report.iterations} iterations")
        if not dd.junction_residual <= JUNCTION_BOUND:
            problems.append(f"junction residual {dd.junction_residual:.3e} "
                            f"above {JUNCTION_BOUND:.0e}")
    return problems
