"""Every name a ``bodyplate`` module lists in ``__all__`` exists, no
signature takes a mesh beside the DOF map that holds it, none takes a
material beside the case that holds it, and no module of the library, the
tests or the demos imports a name it never reads."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from dataclasses import replace
from pathlib import Path

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


#: The trees whose modules ``test_no_unused_imports`` scans.
SCANNED = ("src/bodyplate", "tests", "demos")


def _unused_imports(path: Path) -> list[str]:
    """The names that the module at ``path`` imports and never reads, as
    "line: name".  Names it lists in ``__all__``, ``from __future__``
    imports and imports marked ``# noqa: F401`` are not counted."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [a.asname or a.name for a in node.names]
        else:
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        unused += [f"{node.lineno}: {name}" for name in bound
                   if name not in read | exported | {"*"}]
    return unused


def test_no_unused_imports():
    """No lint tool runs on the repository, so this is the check that every
    imported name is read; the package ``__init__`` only re-exports."""
    root = Path(__file__).resolve().parents[1]
    paths = [p for d in SCANNED for p in sorted((root / d).rglob("*.py"))
             if p != root / "src/bodyplate/__init__.py"]
    assert len(paths) > 30
    unused = {str(p.relative_to(root)): u for p in paths
              if (u := _unused_imports(p))}
    assert unused == {}


def _mentions(path: Path, names: set[str]) -> list[tuple[int, str, str, bool]]:
    """(line, name, enclosing function or "", whether it is read) of every
    name, attribute or import of one of ``names`` in the module at
    ``path``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute)
                    else child.name if isinstance(child, ast.alias) else None)
            if name in names:
                read = not isinstance(getattr(child, "ctx", None), ast.Store)
                line = getattr(child, "lineno", getattr(node, "lineno", 0))
                found.append((line, name, function, read))
            visit(child, inner)

    visit(ast.parse(path.read_text()), "")
    return found


def test_gamma_is_taken_from_the_meshes():
    """|Gamma| is the area of the body's interface faces: no code names a
    constant for it, and only the plate builder reads the half width of the
    square it meshes."""
    root = Path(__file__).resolve().parents[1]
    paths = [p for d in SCANNED for p in sorted((root / d).rglob("*.py"))]
    named = [f"{p.relative_to(root)}:{line}"
             for p in paths for line, *_ in _mentions(p, {"GAMMA_AREA"})]
    read = [f"{p.relative_to(root)}:{line} in {function or 'module'}"
            for p in sorted((root / "src/bodyplate").rglob("*.py"))
            for line, _, function, is_read in _mentions(
                p, {"GAMMA_HALF_WIDTH"})
            if is_read and function != "build_plate_mesh"]
    assert named == [] and read == []


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
