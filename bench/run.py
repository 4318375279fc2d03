"""bodyplate benchmark: time to a verified solution, with a per-layer trace.

Run from the root of a checkout:

    python3 bench/run.py --workload mixed_lu --seed 1 --seconds 50 --trace 0

One process, closed loop: one solve at a time, each started after the
previous one and its error norms finished, until the next would end after
``--seconds``.  The run is pinned to one CPU and BLAS to one thread.  Each
timing is reported as its raw median times the run's host-speed factor
(``Clock``; see ``calibrate.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Run details (environment, every sample, and in
traced runs every span) go to ``.bench_out/`` in the checkout.

The library is imported from ``src/`` of the checkout and nowhere else.
"""

import os

# Before numpy is imported anywhere: single-threaded BLAS was both faster and
# steadier for this code's many tiny dense calls on a 2-core machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Fresh processes timed for ``setup_s`` before the measured loop and again
#: after it; one more runs after each solve and its norms.  So the median
#: spans the run: set-up is mostly imports and follows the machine's speed,
#: which drifts over tens of seconds.
SETUP_PROBES_EACH_SIDE = 2

#: Error norms of each solution are repeated until they have taken this
#: long; one ``verify_s`` sample is the batch's time per call.  The host's
#: speed switches between a fast and a slow state (up to 2x) every few
#: seconds, so single 0.5-1 s calls give a two-humped spread of samples whose
#: median jumps between the humps from run to run.
VERIFY_BATCH_S = 2.0

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "verify_s": "s",
                    "peak_rss_mb": "MB"}


def import_bodyplate():
    """Import the checkout's library, refusing any other copy."""
    if not (SRC / "bodyplate" / "__init__.py").is_file():
        raise SystemExit(f"bench: no library source at {SRC / 'bodyplate'}")
    sys.path.insert(0, str(SRC))
    import bodyplate
    import bodyplate.verification_cli  # noqa: F401  (binds the submodules)

    if Path(bodyplate.__file__).resolve().parent != SRC / "bodyplate":
        raise SystemExit(f"bench: imported bodyplate from {bodyplate.__file__}")
    return bodyplate


def git_commit() -> str | None:
    """The checkout's commit; None when the checkout is not the top of a git
    repository, or git is missing."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def summarize(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (none below 20 samples)."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    n = len(samples)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        ordered = sorted(samples)
        out[f"p{pct}"] = ordered[min(n - 1, int(pct / 100 * n))]
    return out


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------

def setup_probe(workload: str, spawned_at: float) -> None:
    """Child-process body of one ``setup_s`` sample: import the library,
    build the case and meshes, print the time since the parent spawned this
    process.  ``perf_counter`` is CLOCK_MONOTONIC, shared across processes."""
    bp = import_bodyplate()
    import workloads

    workloads.setup(bp, workloads.WORKLOADS[workload])
    print(f"SETUP {time.perf_counter() - spawned_at!r}")


def measure_setup(clock: "Clock", workload: str, seed: int, probes: int
                  ) -> None:
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             repr(t0), "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        line = proc.stdout.strip().splitlines()[-1:] if proc.stdout else []
        if proc.returncode != 0 or not line or not line[0].startswith("SETUP "):
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        clock.record("setup_s", float(line[0].split()[1]))


# ---------------------------------------------------------------------------
# The measured loop.
# ---------------------------------------------------------------------------

class Clock:
    """Keeps the run's timed samples and the host speed they ran at.

    The reference computation (``calibrate.Reference``) runs before the first
    sample and after each one.  The run's speed factor is
    ``calibrate.NOMINAL_S`` over the mean reference time.  An adjusted
    timing is a raw median times that factor: the run's seconds at the
    reference machine's usual speed.  One factor per run follows the drift
    of the host's speed from run to run; a factor per sample would add the
    noise of each short reference call.  The mean, not the median, weighs
    the fast and slow states by the time spent in them; a median of
    two-humped reference times jumps between the humps."""

    def __init__(self):
        import calibrate

        self.nominal = calibrate.NOMINAL_S
        self.reference = calibrate.Reference()
        #: (name, seconds) in the order measured; name "reference" or a metric.
        self.timeline: list[tuple[str, float]] = [("reference", self.reference())]

    def record(self, metric: str, seconds: float) -> float:
        """Keep one raw sample, then time the reference; returns the sample."""
        self.timeline.append((metric, seconds))
        self.timeline.append(("reference", self.reference()))
        return seconds

    def samples(self, name: str) -> list[float]:
        return [s for n, s in self.timeline if n == name]

    def speed_factor(self) -> float:
        return self.nominal / statistics.mean(self.samples("reference"))


class Loop:
    """Counts attempts and failures; times solve and verify of each one."""

    def __init__(self, bp, wl, inp, clock: Clock):
        self.bp, self.wl, self.inp, self.clock = bp, wl, inp, clock
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Every error-norm tuple computed, traced or not.
        self.norms_seen: set[tuple[float, ...]] = set()

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)
        for p in problems:
            print(f"bench: FAILED: {p}", file=sys.stderr)

    def iteration(self, verify_batch_s: float):
        """One solve, then its error norms, repeated until they have taken
        ``verify_batch_s`` (at least once).  Records ``solve_s`` and
        ``verify_s`` (time per norms call).  Returns the adjusted solve time
        and the norms; either is None when the attempt failed."""
        import workloads

        gc.collect()
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            solution = workloads.solve(self.bp, self.wl, self.inp)
            solve_s = self.clock.record("solve_s", time.perf_counter() - t0)
            calls = 0
            t0 = time.perf_counter()
            while calls == 0 or time.perf_counter() - t0 < verify_batch_s:
                norms = workloads.verify(self.bp, self.wl, self.inp, *solution)
                self.norms_seen.add(norms)
                calls += 1
            self.clock.record("verify_s", (time.perf_counter() - t0) / calls)
        except Exception:  # a raising solve is a failed attempt, not a crash
            self.fail([traceback.format_exc()])
            return None, None
        problems = workloads.check_output(self.wl, norms, solution[1])
        if problems:
            self.fail(problems)
            return solve_s, None
        return solve_s, norms

    def check_norms_repeat(self) -> None:
        """Every solve and norms call of the run, traced or not, must have
        given bitwise-equal norms."""
        if len(self.norms_seen) > 1:
            self.fail([f"error norms differ between repeated or traced "
                       f"solves: {self.norms_seen}"])


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(loop: Loop, seconds: float, seed: int) -> float:
    """Solve + norms batch + one set-up probe, until the next solve would end
    after ``seconds``; set-up probes also run before and after.  So every
    timing has samples spread over the window.

    Returns the peak RSS read after the first solve and its norms.  Later
    solves add allocator growth that varies with the hash seed (10-35 MB on
    dd_fine_plate), so they are left out of the peak."""
    name = loop.wl.name
    measure_setup(loop.clock, name, seed, SETUP_PROBES_EACH_SIDE)
    rss_mb = None
    solves = 0
    start = time.perf_counter()
    while True:
        loop.iteration(VERIFY_BATCH_S)
        solves += 1
        if rss_mb is None:
            rss_mb = peak_rss_mb()
        measure_setup(loop.clock, name, seed, 1)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / solves > seconds:
            break
    measure_setup(loop.clock, name, seed, SETUP_PROBES_EACH_SIDE)
    return rss_mb


def run_traced(loop: Loop, rec, tracer, seconds: float) -> dict:
    """Pairs of one untraced and one traced iteration (alternating which
    goes first) until time is up; each computes its norms once.  Per-layer
    metrics are medians over the traced iterations."""
    import layertrace

    untraced, traced, per_iter = [], [], []
    start = time.perf_counter()
    pair = 0
    while True:
        order = (False, True) if pair % 2 == 0 else (True, False)
        for with_trace in order:
            if not with_trace:
                untraced.append(loop.iteration(0.0)[0])
                continue
            rec.run = f"iteration-{pair}"
            with tracer.installed(), rec.span("bench.iteration"):
                traced.append(loop.iteration(0.0)[0])
            table = layertrace.SpanTable(rec.run_spans(rec.run))
            per_iter.append(layertrace.iteration_metrics(
                table, loop.inp.body.n_tets))
        pair += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / pair > seconds:
            break
    metrics = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
    traced = [t for t in traced if t is not None] or [0.0]
    untraced = [t for t in untraced if t is not None] or [1.0]
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0)
    return metrics


# ---------------------------------------------------------------------------
# Main.
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=float, default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_dir = str(Path(__file__).resolve().parent)
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    if args.setup_probe is not None:
        setup_probe(args.workload, args.setup_probe)
        return 0

    # One CPU for the whole run, set-up probes included: the host slows each
    # CPU on its own, so the reference must run where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bp = import_bodyplate()
    import layertrace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    details = {"workload": wl.name, "trace": args.trace,
               "seconds": args.seconds, "environment": env}

    if args.trace:
        units = per_layer_units()
        rec = layertrace.Recorder()
        tracer = layertrace.Tracer(rec)
        rec.run = "setup"
        with tracer.installed():
            inp = workloads.setup(bp, wl)
    else:
        inp = workloads.setup(bp, wl)

    loop = Loop(bp, wl, inp, Clock())
    input_problems = workloads.check_inputs(bp, inp)
    if input_problems:
        loop.attempted += 1
        loop.fail(input_problems)
    if args.trace:
        metrics = layertrace.setup_metrics(
            layertrace.SpanTable(rec.run_spans("setup")))
        metrics.update(run_traced(loop, rec, tracer, args.seconds))
        loop.check_norms_repeat()
        details["spans"] = [s.as_dict() for s in rec.spans]
        values = {k: metrics[k] for k in units}
        result_metrics = {k: {"value": v, "unit": units[k]}
                          for k, v in values.items()}
    else:
        rss_mb = run_untraced(loop, args.seconds, args.seed)
        loop.check_norms_repeat()
        clock = loop.clock
        factor = clock.speed_factor()
        details["timeline"] = clock.timeline
        details["speed_factor"] = factor
        details["raw_summary"] = {
            k: summarize(clock.samples(k) or [0.0])
            for k in ("setup_s", "solve_s", "verify_s")}
        details["summary"] = {
            k: {q: v * factor if q != "n" else v for q, v in s.items()}
            for k, s in details["raw_summary"].items()}
        values = {k: s["median"] for k, s in details["summary"].items()}
        values["peak_rss_mb"] = rss_mb
        result_metrics = {k: {"value": values[k], "unit": u}
                          for k, u in END_TO_END_UNITS.items()}

    fail_frac = loop.failed / loop.attempted
    details.update(attempted=loop.attempted, failed=loop.failed,
                   fail_frac=fail_frac, problems=loop.problems,
                   metrics=result_metrics)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details))

    print(f"environment: {json.dumps(env)}")
    for k, s in details.get("summary", {}).items():
        extra = "".join(f", {q} {v:.6g}" for q, v in s.items()
                        if q not in ("median", "n"))
        raw = details["raw_summary"][k]["median"]
        print(f"{k}: median {s['median']:.6g} {END_TO_END_UNITS[k]} "
              f"over {s['n']} samples{extra} (raw wall-clock median "
              f"{raw:.6g}, speed factor {factor:.4g})")
    if "peak_rss_mb" in result_metrics:
        print(f"peak_rss_mb: {result_metrics['peak_rss_mb']['value']:.6g} MB")
    print(f"fail_frac: {fail_frac:.6g} ratio ({loop.failed} of "
          f"{loop.attempted} solves)")
    print(f"details: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
