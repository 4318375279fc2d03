"""Per-layer tracing for the benchmark's traced run.

The library has no tracing of its own, so this module wraps the public
functions and classes of each bodyplate layer from the outside.  A wrapper is
installed on every ``bodyplate.*`` module attribute that refers to the
original object, because callers look names up in their own module:
``solve_dd`` finds ``bodyplate.domain_decomposition.SparseFactor``, not
``bodyplate.solvers.SparseFactor``.  Classes are replaced by a subclass whose
constructor and listed methods are timed, so ``isinstance`` against the
original class still holds.  ``Tracer.installed()`` restores every attribute
on exit.

Each wrapped call records one span (name, start, end, parent span, run id)
plus counters taken at the same boundary.  Counters that need work of their
own (reading the LU factors, a residual) are taken after the span closed, and
their time is taken out of every span still open, so no layer is charged
for the tracer's work.  Spans stay in memory; the caller writes them out when
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

#: The layers, in dependency order.  ``quadrature``, ``materials`` and
#: ``manufactured`` are leaf helpers called from inside assembly and the error
#: norms; their time is part of their callers' self time.
LAYERS = (
    "geometry_mesh",
    "fe_elements",
    "interface_overlay",
    "assembly",
    "solvers",
    "domain_decomposition",
    "verification_cli",
)

#: Functions that get a span per call.
FUNCTIONS = {
    "geometry_mesh": ("build_body_mesh", "build_plate_mesh"),
    "interface_overlay": ("extract_interface_triangulation",
                          "intersect_triangulations"),
    "assembly": ("build_mixed_system", "assemble_compliance",
                 "assemble_divergence", "assemble_interface_coupling",
                 "assemble_plate_stiffness", "assemble_loads",
                 "impose_traction_bc"),
    "solvers": ("solve_saddle_point",),
    "domain_decomposition": ("solve_dd", "cg_interface_solve"),
    "verification_cli": ("solve_mixed", "compute_error_norms"),
}

#: Classes whose constructor gets a span, with the methods that get one too.
CLASSES = {
    "fe_elements": {"StressDofMap": (), "BodyDGDofMap": (), "PlateDofMap": (),
                    "HuMaElement": (), "MorleyElement": ()},
    "assembly": {"BlockSystem": ("monolithic",), "Constraints": ("reduce",)},
    "solvers": {"SparseFactor": ("solve",)},
    "domain_decomposition": {"SchurProduct": (),
                             "BodyOperator": ("solve",),
                             "PlateOperator": ("solve",)},
}

#: Hot helpers that are only counted, on the enclosing span, to keep the
#: traced run close to the untraced one.
COUNTED = {"interface_overlay": ("clip_convex_polygon",)}


class Span:
    __slots__ = ("span_id", "parent", "name", "run", "start", "end",
                 "excluded", "counters")

    def __init__(self, span_id, parent, name, run):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.run = run
        self.start = 0.0
        self.end = 0.0
        #: Tracer work done while this span was open, not charged to it.
        self.excluded = 0.0
        self.counters = {}

    @property
    def duration(self) -> float:
        return self.end - self.start - self.excluded

    def as_dict(self) -> dict:
        return {"id": self.span_id, "parent": self.parent, "name": self.name,
                "run": self.run, "start": self.start, "end": self.end,
                "excluded": self.excluded, "counters": self.counters}


class Recorder:
    """In-memory span store with a stack of open spans (single thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.run = "untagged"

    def open(self, name: str) -> Span:
        parent = self._open[-1].span_id if self._open else None
        span = Span(len(self.spans), parent, name, self.run)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    @contextlib.contextmanager
    def unaccounted(self):
        """The tracer's own work: its time is taken out of every open span."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            for s in self._open:
                s.excluded += dt

    def count(self, key: str) -> None:
        """Add one to a counter of the innermost open span."""
        if self._open:
            c = self._open[-1].counters
            c[key] = c.get(key, 0) + 1

    def run_spans(self, run: str) -> list[Span]:
        return [s for s in self.spans if s.run == run]


# ---------------------------------------------------------------------------
# Counters observed on results (called after the span closed, unaccounted).
# ---------------------------------------------------------------------------

def _observe_body_mesh(rec, span, args, result):
    span.counters["n_tets"] = int(result.n_tets)


def _observe_plate_mesh(rec, span, args, result):
    span.counters["n_triangles"] = int(result.n_triangles)


def _observe_cells(rec, span, args, result):
    span.counters["n_cells"] = len(result)


def _observe_direct_solve(rec, span, args, result):
    span.counters["relative_residual"] = float(result[1].relative_residual)


def _observe_cg(rec, span, args, result):
    report = result[1]
    span.counters["iterations"] = int(report.iterations)
    span.counters["converged"] = bool(report.converged)
    span.counters["rho_avg"] = float(report.rho_avg)


def _observe_dd(rec, span, args, result):
    span.counters["junction_residual"] = float(result.junction_residual)


def _observe_factor(rec, span, args, obj):
    """Size and fill of one factorization.  ``lu.L`` and ``lu.U`` are CSC
    copies that scipy builds on access; the bytes are computed from their
    arrays (values, row indices, column pointers), not measured."""
    span.counters["n"] = int(obj.M.shape[0])
    span.counters["nnz"] = int(obj.M.nnz)
    L, U = obj.lu.L, obj.lu.U
    span.counters["fill_nnz"] = int(L.nnz + U.nnz)
    span.counters["factor_bytes"] = sum(
        int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes) for m in (L, U))


def _observe_factor_solve(rec, span, args, x):
    obj, b = args[0], np.asarray(args[1], dtype=float)
    nb = np.linalg.norm(b)
    rel = float(np.linalg.norm(b - obj.M @ x) / nb) if nb else 0.0
    span.counters["relative_residual"] = rel


OBSERVERS = {
    "geometry_mesh.build_body_mesh": _observe_body_mesh,
    "geometry_mesh.build_plate_mesh": _observe_plate_mesh,
    "interface_overlay.intersect_triangulations": _observe_cells,
    "solvers.solve_saddle_point": _observe_direct_solve,
    "domain_decomposition.cg_interface_solve": _observe_cg,
    "domain_decomposition.solve_dd": _observe_dd,
    "solvers.SparseFactor": _observe_factor,
    "solvers.SparseFactor.solve": _observe_factor_solve,
}


# ---------------------------------------------------------------------------
# Wrappers.
# ---------------------------------------------------------------------------

def _timed(rec: Recorder, name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if observe is not None:
            with rec.unaccounted():
                observe(rec, span, args, result)
        return result

    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _traced_class(rec: Recorder, name: str, cls, methods):
    observe = OBSERVERS.get(name)
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        span = rec.open(name)
        try:
            init(self, *args, **kwargs)
        finally:
            rec.close(span)
        if observe is not None:
            with rec.unaccounted():
                observe(rec, span, args, self)

    ns = {"__init__": __init__, "__module__": cls.__module__,
          "__qualname__": cls.__qualname__, "__doc__": cls.__doc__}
    for m in methods:
        ns[m] = _timed(rec, f"{name}.{m}", getattr(cls, m))
    return type(cls.__name__, (cls,), ns)


class Tracer:
    """Installs span wrappers on the bodyplate layer modules."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def _wrappers(self) -> dict[int, tuple[object, object]]:
        rec = self.recorder
        out: dict[int, tuple[object, object]] = {}

        def add(original, wrapper):
            out[id(original)] = (original, wrapper)

        for layer, names in FUNCTIONS.items():
            mod = sys.modules[f"bodyplate.{layer}"]
            for attr in names:
                fn = getattr(mod, attr)
                add(fn, _timed(rec, f"{layer}.{attr}", fn))
        for layer, classes in CLASSES.items():
            mod = sys.modules[f"bodyplate.{layer}"]
            for attr, methods in classes.items():
                cls = getattr(mod, attr)
                add(cls, _traced_class(rec, f"{layer}.{attr}", cls, methods))
        for layer, names in COUNTED.items():
            mod = sys.modules[f"bodyplate.{layer}"]
            for attr in names:
                fn = getattr(mod, attr)
                add(fn, _counted(rec, f"{layer}.{attr}", fn))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Wrap every bodyplate module attribute bound to a traced object;
        restore the originals on exit."""
        wrappers = self._wrappers()
        patched = []
        try:
            for modname, mod in list(sys.modules.items()):
                if modname != "bodyplate" and not modname.startswith("bodyplate."):
                    continue
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(mod, attr, hit[1])
                        patched.append((mod, attr, value))
            yield
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)


# ---------------------------------------------------------------------------
# Span analysis.
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the part of it that its
    child spans cover.  Spans come from one thread, so children of a span
    are disjoint and their durations add.  Durations are net of unaccounted
    tracer work, which a parent's exclusion covers for its children too."""
    child_time = {s.span_id: 0.0 for s in spans}
    for s in spans:
        if s.parent in child_time:
            child_time[s.parent] += s.duration
    return {s.span_id: s.duration - child_time[s.span_id] for s in spans}


class SpanTable:
    """Totals by span name over one run id."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        for s in spans:
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.total[s.name] = self.total.get(s.name, 0.0) + s.duration

    def seconds(self, *names: str) -> float:
        return sum(self.total.get(n, 0.0) for n in names)

    def n_calls(self, name: str) -> int:
        return self.calls.get(name, 0)

    def counter_sum(self, name: str, key: str) -> float:
        return sum(s.counters.get(key, 0) for s in self.spans if s.name == name)

    def counter_max(self, names: tuple[str, ...], key: str) -> float:
        vals = [s.counters[key] for s in self.spans
                if s.name in names and key in s.counters]
        return max(vals, default=0.0)

    def layer_self_seconds(self) -> dict[str, float]:
        own = self_times(self.spans)
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            if layer in out:
                out[layer] += own[s.span_id]
        return out


def setup_metrics(table: SpanTable) -> dict[str, float]:
    """Per-layer metrics of the workload's set-up (mesh construction)."""
    g = "geometry_mesh."
    return {
        g + "build_body_mesh_s": table.seconds(g + "build_body_mesh"),
        g + "build_plate_mesh_s": table.seconds(g + "build_plate_mesh"),
        g + "n_tets": table.counter_sum(g + "build_body_mesh", "n_tets"),
        g + "n_plate_triangles": table.counter_sum(g + "build_plate_mesh",
                                                   "n_triangles"),
    }


def iteration_metrics(table: SpanTable, n_tets: int) -> dict[str, float]:
    """Per-layer metrics of one traced solve + error norms."""
    fe, ov, asm = "fe_elements.", "interface_overlay.", "assembly."
    so, dd = "solvers.", "domain_decomposition."
    huma = table.n_calls(fe + "HuMaElement")
    clips = table.counter_sum(ov + "intersect_triangulations",
                              ov + "clip_convex_polygon")
    cells = table.counter_sum(ov + "intersect_triangulations", "n_cells")
    m = {
        fe + "stress_dof_map_s": table.seconds(fe + "StressDofMap"),
        fe + "plate_dof_map_s": table.seconds(fe + "PlateDofMap"),
        fe + "huma_built": huma,
        fe + "huma_build_s": table.seconds(fe + "HuMaElement"),
        fe + "huma_built_per_tet": huma / n_tets,
        fe + "morley_built": table.n_calls(fe + "MorleyElement"),
        fe + "morley_build_s": table.seconds(fe + "MorleyElement"),
        ov + "intersect_s": table.seconds(ov + "intersect_triangulations"),
        ov + "extract_s": table.seconds(ov + "extract_interface_triangulation"),
        ov + "n_cells": cells,
        ov + "clip_calls": clips,
        ov + "clip_yield": cells / clips if clips else 0.0,
        asm + "compliance_s": table.seconds(asm + "assemble_compliance"),
        asm + "divergence_s": table.seconds(asm + "assemble_divergence"),
        asm + "plate_stiffness_s": table.seconds(asm + "assemble_plate_stiffness"),
        asm + "plate_stiffness_calls": table.n_calls(asm + "assemble_plate_stiffness"),
        asm + "loads_s": table.seconds(asm + "assemble_loads"),
        asm + "coupling_s": table.seconds(asm + "assemble_interface_coupling"),
        asm + "traction_bc_s": table.seconds(asm + "impose_traction_bc"),
        asm + "monolithic_s": table.seconds(asm + "BlockSystem.monolithic",
                                            asm + "Constraints.reduce"),
        so + "factor_s": table.seconds(so + "SparseFactor"),
        so + "factor_calls": table.n_calls(so + "SparseFactor"),
        so + "direct_solve_s": table.seconds(so + "solve_saddle_point"),
        so + "n_unknowns": table.counter_sum(so + "SparseFactor", "n"),
        so + "matrix_nnz": table.counter_sum(so + "SparseFactor", "nnz"),
        so + "fill_nnz": table.counter_sum(so + "SparseFactor", "fill_nnz"),
        so + "factor_bytes_computed": table.counter_sum(so + "SparseFactor",
                                                        "factor_bytes"),
        so + "apply_calls": table.n_calls(so + "SparseFactor.solve"),
        so + "apply_s": table.seconds(so + "SparseFactor.solve"),
        so + "max_relative_residual": table.counter_max(
            (so + "solve_saddle_point", so + "SparseFactor.solve"),
            "relative_residual"),
        dd + "cg_iterations": table.counter_sum(dd + "cg_interface_solve",
                                                "iterations"),
        dd + "cg_s": table.seconds(dd + "cg_interface_solve"),
        dd + "body_solves": table.n_calls(dd + "BodyOperator.solve"),
        dd + "body_solve_s": table.seconds(dd + "BodyOperator.solve"),
        dd + "plate_solves": table.n_calls(dd + "PlateOperator.solve"),
        dd + "plate_solve_s": table.seconds(dd + "PlateOperator.solve"),
        dd + "schur_setup_s": table.seconds(dd + "SchurProduct"),
        dd + "body_operator_setup_s": table.seconds(dd + "BodyOperator"),
        dd + "plate_operator_setup_s": table.seconds(dd + "PlateOperator"),
        dd + "junction_residual": table.counter_max((dd + "solve_dd",),
                                                    "junction_residual"),
        dd + "rho_avg": table.counter_max((dd + "cg_interface_solve",),
                                          "rho_avg"),
        "verification_cli.error_norms_s": table.seconds(
            "verification_cli.compute_error_norms"),
    }
    for layer, seconds in table.layer_self_seconds().items():
        if layer != "geometry_mesh":  # meshes are built in set-up
            m[f"{layer}.self_s"] = seconds
    return m
