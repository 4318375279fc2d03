"""Tests of the benchmark itself, on small meshes.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

bp = run.import_bodyplate()

NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Small versions of the two solve paths.
SMALL = {
    "mixed": workloads.Workload("small_mixed", "mixed", 2, 8, "FLIPPED", ()),
    "dd": workloads.Workload("small_dd", "dd", 2, 8, "FLIPPED", ()),
}


def untraced_norms(wl, inp):
    sol, dd = workloads.solve(bp, wl, inp)
    return workloads.verify(bp, wl, inp, sol, dd)


def module_attributes():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "bodyplate" or name.startswith("bodyplate.")
            for attr, value in vars(mod).items()}


@pytest.fixture(scope="module", params=sorted(SMALL))
def small(request):
    """A small workload whose stored reference is its own untraced norms."""
    wl = SMALL[request.param]
    inp = workloads.setup(bp, wl)
    return replace(wl, reference=untraced_norms(wl, inp)), inp


def test_inputs_are_valid_meshes(small):
    _, inp = small
    assert workloads.check_inputs(bp, inp) == []


def test_output_check_rejects_drifted_norms(small):
    wl, _ = small
    assert workloads.check_output(wl, wl.reference, None) == []
    drifted = (wl.reference[0] * (1 + 1e-6),) + wl.reference[1:]
    assert workloads.check_output(wl, drifted, None)


def test_traced_norms_equal_untraced_bitwise(small):
    wl, inp = small
    rec = layertrace.Recorder()
    with layertrace.Tracer(rec).installed():
        traced = untraced_norms(wl, inp)
    assert traced == wl.reference
    names = {s.name for s in rec.spans}
    assert "verification_cli.compute_error_norms" in names
    assert "solvers.SparseFactor" in names
    assert all(s.end >= s.start for s in rec.spans)


def test_traced_run_restores_module_attributes(small):
    wl, inp = small
    before = module_attributes()
    rec = layertrace.Recorder()
    loop = run.Loop(bp, wl, inp, run.Clock())
    run.run_traced(loop, rec, layertrace.Tracer(rec), seconds=0)
    loop.check_norms_repeat()
    after = module_attributes()
    assert loop.failed == 0, loop.problems
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_metric_names(small):
    wl, inp = small
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in declared)
    assert len(set(declared)) == len(declared)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)

    rec = layertrace.Recorder()
    tracer = layertrace.Tracer(rec)
    rec.run = "setup"
    with tracer.installed():
        workloads.setup(bp, wl)
    produced = layertrace.setup_metrics(layertrace.SpanTable(rec.run_spans("setup")))
    produced.update(run.run_traced(run.Loop(bp, wl, inp, run.Clock()), rec,
                                   tracer, seconds=0))
    assert all(NAME.fullmatch(n) for n in produced)
    assert set(produced) == {m["name"] for m in spec["per_layer"]}


def test_self_time_subtracts_children():
    spans = []
    for sid, parent, start, end in ((0, None, 0.0, 10.0), (1, 0, 1.0, 4.0),
                                    (2, 1, 2.0, 3.0), (3, 0, 5.0, 6.0)):
        s = layertrace.Span(sid, parent, f"x.{sid}", "r")
        s.start, s.end = start, end
        spans.append(s)
    assert layertrace.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_unaccounted_work_is_charged_to_no_span():
    rec = layertrace.Recorder()
    with rec.span("x.outer") as outer:
        with rec.span("x.inner") as inner:
            pass
        with rec.unaccounted():
            time.sleep(0.05)
    assert inner.excluded == 0.0
    assert outer.excluded >= 0.05
    assert 0.0 <= outer.duration < 0.05


def test_clock_speed_factor_is_nominal_over_mean_reference():
    clock = run.Clock()
    times = iter([0.2, 0.4])
    clock.timeline = [("reference", 0.1)]
    clock.reference = lambda: next(times)
    assert clock.record("solve_s", 3.0) == 3.0
    assert clock.record("solve_s", 5.0) == 5.0
    assert clock.samples("solve_s") == [3.0, 5.0]
    assert clock.speed_factor() == pytest.approx(clock.nominal / (0.7 / 3))
