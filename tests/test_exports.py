"""Every name a ``bodyplate`` module lists in ``__all__`` exists, no
signature takes a mesh beside the DOF map that holds it, and none takes a
material beside the case that holds it."""

import dataclasses
import importlib
import inspect
import pkgutil
from dataclasses import replace

import pytest

import bodyplate
from bodyplate import domain_decomposition as dd
from bodyplate.fe_elements import PlateDofMap
from bodyplate.geometry_mesh import Diagonal, build_body_mesh, build_plate_mesh
from bodyplate.manufactured import default_case

MODULES = ["bodyplate"] + [
    f"bodyplate.{m.name}" for m in pkgutil.iter_modules(bodyplate.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


#: Library entry points whose mesh-plus-map signatures the acceptance suite
#: fixes; each refuses a mesh that is not its map's own
#: (``fe_elements.check_own_mesh``).
CHECKED_MESH_AND_MAP = {
    "assembly.assemble_stress_mass",
    "assembly.assemble_div_div",
    "assembly.assemble_divergence",
    "assembly.assemble_body_mass",
    "assembly.project_to_Vh",
    "assembly.assemble_interface_coupling",
    "domain_decomposition.BodyOperator",
    "domain_decomposition.SchurProduct",
    "domain_decomposition.PlateOperator",
    "domain_decomposition.build_interface_dof_set",
    "solvers.SolutionFields",
}

DOF_MAPS = {"smap", "vmap", "cmap", "pmap"}
MESHES = {"body", "plate"}


def _parameter_lists(module):
    """(qualified name, parameter names) of every function, class
    constructor, method and dataclass defined in ``module``."""
    short = module.__name__.removeprefix("bodyplate.")
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", inspect.signature(obj).parameters
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                yield (f"{short}.{name}",
                       [f.name for f in dataclasses.fields(obj)])
            elif "__init__" in vars(obj):
                yield f"{short}.{name}", inspect.signature(obj).parameters
            for m, fn in vars(obj).items():
                if inspect.isfunction(fn) and m != "__init__":
                    yield (f"{short}.{name}.{m}",
                           inspect.signature(fn).parameters)


def test_no_mesh_beside_its_dof_map():
    """A DOF map holds its mesh (``.mesh``), so no signature or record takes
    the mesh again beside it, except the checked entry points."""
    both = sorted(
        qual for mod in MODULES
        for qual, params in _parameter_lists(importlib.import_module(mod))
        if DOF_MAPS & set(params) and MESHES & set(params))
    assert both == sorted(CHECKED_MESH_AND_MAP)


#: The one signature whose material slot beside its case the acceptance
#: suite fixes; it accepts only ``case.params``.
CHECKED_PARAMS_AND_CASE = {"domain_decomposition.solve_dd"}


def test_no_material_beside_its_case():
    """A manufactured case holds its material (``case.params``), so no
    signature or record takes the material again beside it, except the
    checked entry point."""
    both = sorted(
        qual for mod in MODULES
        for qual, params in _parameter_lists(importlib.import_module(mod))
        if {"params", "case"} <= set(params))
    assert both == sorted(CHECKED_PARAMS_AND_CASE)


def test_solve_dd_refuses_a_material_not_the_cases():
    case = default_case()
    with pytest.raises(ValueError, match="params"):
        dd.solve_dd(build_body_mesh(2), build_plate_mesh(8, Diagonal.FLIPPED),
                    case, replace(case.params, e_alpha=200.0))


def test_schur_product_refuses_a_region_not_all():
    plate = build_plate_mesh(4)
    pmap = PlateDofMap(plate)
    gamma = dd.build_interface_dof_set(plate, pmap)
    with pytest.raises(ValueError, match="region"):
        dd.SchurProduct(plate, pmap, default_case().params, gamma,
                        region="omit_interface")
