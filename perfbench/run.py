"""Benchmark for prudentwalks: one workload per process, every output checked.

    python3 perfbench/run.py --workload series|enumerate|sample \\
        --seed N --seconds S --trace 0|1

Runs from the root of a source tree and imports the library from its
``src/``; it exits 2 without a result when there is none.  Set-up is
repeated SETUP_REPS times and its median reported.  Then the workload's job
list runs in passes until S seconds have gone by, and each metric is the
median over passes.  End-to-end times are scaled to a reference machine
speed, measured by a calibration kernel timed around every job and set-up
(see ``calibrate``).  With ``--trace 0`` the last line of stdout reports the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes alternate,
and it reports the per-layer metrics from the traced passes, plus the
tracing overhead.  The full record, with run metadata, per-pass times,
counters and (when traced) every span, goes to
``.perfbench/<workload>-seed<N>-trace<T>.json``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 5
IMPORT_REPS = 7
MIN_PASSES = 5
MIN_TRACED_PASSES = 6  # three untraced, three traced
# A typical time of the calibration kernel on the 2-core VM where the
# benchmark was defined; every end-to-end time is scaled to that speed.
CAL_REF_S = 0.010

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")]

# Per-layer metrics: self seconds of the spans of that name (``_s``), exact
# counters from the returned objects (``count``), rates derived from both,
# module self times, and the tracing figures.
LAYER_TIMES = [
    "series.tseries_mul", "series.tseries_inv", "series.tseries_sqrt",
    "series.ts_compose", "series.cpoly_mul", "series.cpoly_divided_difference",
    "series.cpoly_substitute",
    "funceq.solve_2sided", "funceq.solve_3sided", "funceq.solve_4sided",
    "funceq.solve_triangular", "funceq.solve_refined", "funceq.rhs_check",
    "closedforms.two_sided", "closedforms.three_sided",
    "closedforms.three_sided_full", "closedforms.triangular",
    "closedforms.residuals",
    "asymptotics.growth_estimate", "asymptotics.constants",
    "walks.oracle_1sided", "walks.oracle_2sided",
    "walks.oracle_3sided", "walks.oracle_4sided", "walks.oracle_triangular",
    "walks.tri_box", "walks.endpoint_stats", "walks.membership",
    "labels.l_children",
    "sampler.ext_table_2sided", "sampler.ext_table_3sided",
    "sampler.ext_table_4sided", "sampler.ext_table_triangular",
    "sampler.draw", "sampler.short_draw", "sampler.exact_distribution",
    "sampler.kinetic",
    "render.svg", "cli.sample", "verify.run_verify",
]
COUNTERS = [
    "series.max_coeff_bits", "funceq.monomials", "funceq.max_coeff_bits",
    "walks.oracle_walks", "walks.membership_steps", "labels.l_children_calls",
    "sampler.ext_table_entries", "sampler.draw_steps", "sampler.kinetic_steps",
]
RATES = [("walks.oracle_walks_per_s", "1/s"), ("sampler.draws_per_s", "1/s")]
MODULES = [
    "series", "walks", "funceq", "closedforms", "asymptotics", "labels",
    "sampler", "render", "verify", "cli", "bench",
]
TRACE = [("trace.run_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count")]
PER_LAYER = (
    [(n + "_s", "s") for n in LAYER_TIMES]
    + [("walks.oracle_s", "s")]
    + [(n, "count") for n in COUNTERS]
    + RATES
    + [(m + ".self_s", "s") for m in MODULES]
    + TRACE
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("series", "enumerate", "sample"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import prudentwalks from this tree's src/, or return None."""
    if not (SRC / "prudentwalks" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import prudentwalks

    if Path(prudentwalks.__file__).resolve().parent != SRC / "prudentwalks":
        return None
    return prudentwalks


def calibrate():
    """Seconds for a fixed kernel of dict updates and integer arithmetic,
    the kind of work the library does.  Timed around every job and set-up,
    it measures how fast the machine runs at that moment.  It allocates no
    tracked objects and runs with the collector off, so the garbage the
    previous job left cannot make it slow."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = {}
        for i in range(50_000):
            key = i % 4093
            acc[key] = acc.get(key, 0) + i * i
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(seconds, cal_before, cal_after):
    """``seconds`` at the reference machine speed."""
    return seconds * CAL_REF_S * 2 / (cal_before + cal_after)


def time_import():
    """Scaled seconds from launching a fresh interpreter to its having
    imported every library module.  The child reads the same system-wide
    monotonic clock when it is done, so the parent's polling wait adds
    nothing."""
    code = (
        "import sys, time; sys.path.insert(0, %r); import prudentwalks.cli; "
        "print(repr(time.monotonic()))" % str(SRC)
    )
    cal = calibrate()
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=60,
    )
    return scaled(float(done.stdout) - t0, cal, calibrate())


def git_revision():
    if not (ROOT / ".git").exists():  # e.g. an exported source tree
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            stdin=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


class Run:
    """One benchmark process: set-up, passes, checks and their bookkeeping."""

    def __init__(self, lib, workload, seed, tracer, null_tracer):
        self.lib = lib  # the workloads module
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.null = null_tracer
        self.refs = lib.Refs()
        self.attempted = 0
        self.failures = []
        self.counters = None  # from the first pass; every pass must match
        self.setup_counters = None
        self.passes = []
        self.setups = []

    def fail(self, where, message):
        self.failures.append({"where": where, "error": message})
        print("FAIL %s: %s" % (where, message), file=sys.stderr)

    def same_counters(self, where, first, now):
        if first is None:
            return now
        if now != first:
            self.fail(where, "exact counters changed: %r != %r" % (now, first))
        return first

    def setup(self, traced):
        tr = self.tracer if traced else self.null
        gc.collect()
        cal = calibrate()
        t0 = time.perf_counter()
        with tr.span("setup") as gid:
            state = self.wl.setup(tr, self.seed)
        seconds = time.perf_counter() - t0
        self.setups.append({"seconds": seconds, "scaled": scaled(seconds, cal, calibrate()), "group": gid})
        self.attempted += 1
        try:
            counters = self.wl.setup_check(state, self.refs)
        except Exception:
            self.fail("setup", traceback.format_exc())
        else:
            self.setup_counters = self.same_counters("setup", self.setup_counters, counters)
        return state

    def one_pass(self, state, traced):
        tr = self.tracer if traced else self.null
        lib = self.lib
        ctx = lib.Context(self.seed, state, self.refs)
        first_span = len(self.tracer.spans) if traced else 0
        jobs = {}
        scaled_jobs = {}
        errors = {}
        with tr.span("pass") as gid:
            cal = calibrate()
            for job in self.wl.jobs:
                t0 = time.perf_counter()
                try:
                    with tr.span("job:" + job.name):
                        ctx.results[job.name] = job.run(tr, ctx)
                except Exception:
                    errors[job.name] = traceback.format_exc()
                jobs[job.name] = time.perf_counter() - t0
                cal_after = calibrate()
                scaled_jobs[job.name] = scaled(jobs[job.name], cal, cal_after)
                cal = cal_after
        record = {"traced": traced, "jobs": jobs, "scaled": scaled_jobs, "group": gid}
        if traced:
            record["spans"] = len(self.tracer.spans) - first_span
        counters = {}
        failed_before = len(self.failures)
        for job in self.wl.jobs:
            self.attempted += 1
            where = "pass %d %s" % (len(self.passes), job.name)
            if job.name in errors:
                self.fail(where, errors[job.name])
                continue
            try:
                lib.merge_counters(counters, job.check(ctx.results[job.name], ctx))
            except lib.CheckError as exc:
                self.fail(where, str(exc))
            except Exception:
                self.fail(where, traceback.format_exc())
        if len(self.failures) == failed_before:  # partial counters prove nothing
            self.counters = self.same_counters("pass %d" % len(self.passes), self.counters, counters)
        self.passes.append(record)


def median_run_s(passes):
    """Scaled wall time of one pass of the jobs: the sum over jobs of each
    job's median over the passes, so that a burst of machine noise in one
    pass moves only one sample of the jobs it hit."""
    return sum(statistics.median(p["scaled"][name] for p in passes) for name in passes[0]["scaled"])


def layer_metrics(run, tracer):
    """Per-layer metrics: the median over traced groups of each name's self time."""

    def medians(groups):
        per = [tracer.self_times(g["group"]) for g in groups]
        names = {n for d in per for n in d}
        return {n: statistics.median(d.get(n, 0.0) for d in per) for n in names}

    traced = [p for p in run.passes if p["traced"]]
    times = medians(traced)
    times.update(medians(run.setups))
    out = {}
    for name in LAYER_TIMES:
        out[name + "_s"] = times.get(name, 0.0)
    out["walks.oracle_s"] = sum((v for k, v in times.items() if k.startswith("walks.oracle_")), 0.0)
    counters = dict(run.counters or {})
    counters.update(run.setup_counters or {})
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    out["walks.oracle_walks_per_s"] = (
        counters.get("walks.oracle_walks", 0) / out["walks.oracle_s"] if out["walks.oracle_s"] else 0.0
    )
    out["sampler.draws_per_s"] = (
        counters.get("sampler.draws", 0) / out["sampler.draw_s"] if out["sampler.draw_s"] else 0.0
    )
    for m in MODULES:
        prefix = "job:" if m == "bench" else m + "."
        out[m + ".self_s"] = sum((v for k, v in times.items() if k.startswith(prefix)), 0.0)
    traced_run = median_run_s(traced)
    plain_run = median_run_s([p for p in run.passes if not p["traced"]])
    out["trace.run_s"] = traced_run
    out["trace.overhead_s"] = traced_run - plain_run
    out["trace.spans"] = statistics.median(p["spans"] for p in traced)
    return out


def main(argv=None):
    args = parse_args(argv)
    if import_library() is None:
        print("error: no prudentwalks package under %s" % SRC, file=sys.stderr)
        return 2
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    run = Run(workloads, wl, args.seed, tracer, spans.NullTracer())

    import_s = statistics.median(time_import() for _ in range(IMPORT_REPS))
    for _ in range(SETUP_REPS):
        state = None  # let the previous tables go before building the next
        state = run.setup(traced=bool(args.trace))
    setup_s = import_s + statistics.median(s["scaled"] for s in run.setups)

    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(run.passes) % 2 == 1
        run.one_pass(state, traced)
        need = MIN_TRACED_PASSES if args.trace else MIN_PASSES
        if time.perf_counter() - start >= args.seconds and len(run.passes) >= need:
            break

    if args.trace:
        metrics = layer_metrics(run, tracer)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "run_s": median_run_s(run.passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    meta = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": nproc(),
        "git_revision": git_revision(),
        "setup_reps": SETUP_REPS,
        "import_s": import_s,
        "params": wl.params,
        "jobs": [{"name": j.name, "params": j.params} for j in wl.jobs],
    }
    record = {
        "meta": meta,
        "result": result,
        "fail_ratio": len(run.failures) / run.attempted,
        "failures": run.failures,
        "counters": run.counters,
        "setup_counters": run.setup_counters,
        "setups": run.setups,
        "passes": run.passes,
    }
    if tracer is not None:
        record["spans"] = tracer.to_json()
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / ("%s-seed%d-trace%d.json" % (wl.name, args.seed, args.trace))
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    for name, unit in units:
        print("%-40s %16.6f %s" % (name, metrics[name], unit))
    print("fail_ratio %d/%d, %d passes, record in %s"
          % (result["failed"], result["attempted"], len(run.passes), out_file.relative_to(ROOT)))
    print(json.dumps({"meta": meta}, sort_keys=True, default=str))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
