"""detcurve benchmark: one workload per process, result as the last line.

Run from the repository root:

    python3 bench/run.py --workload forms-exact --seed 0 --seconds 30 --trace 0

Workloads: scenario-report, forms-exact, curvature-sweep (see NOTES.md).
The benchmark writes the seeded inputs under .bench_work/, imports the
package from src/, runs one untimed warm-up pass and then timed passes
over the workload's operations until --seconds have passed, checking every
operation's output.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (wall_s, peak_rss_mb,
passed_frac, setup_s).  --trace 1 reports the per-layer metrics of
tracing.METRICS: it alternates untraced, traced and single-thread passes,
so it also gives the tracing overhead and the 1-to-n thread speed-up, and
writes all spans to .bench_work/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import inputs

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("scenario-report", "forms-exact", "curvature-sweep")
SETUP_REPEATS = 3  # before the passes; --trace 0 adds one after each pass
MAX_LOGGED_FAILURES = 10

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "passed_frac": "ratio",
                    "setup_s": "s"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


# ---------------------------------------------------------------------------
# set-up


def timed_import() -> float:
    """Package import time in a fresh interpreter, as a CLI user pays it."""
    code = ("import time; t = time.perf_counter(); import detcurve; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def setup(workload: str, seed: int, directory: str):
    """Import the package and write the inputs once.

    Returns the input files and the time both took.
    """
    t_import = timed_import()
    t0 = time.perf_counter()
    files = inputs.make_inputs(workload, seed, directory)
    return files, t_import + time.perf_counter() - t0


def machine_record(nproc: int, workers: int) -> dict:
    from detcurve import reporting

    caches = {}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True,
                              timeout=30, env=dict(os.environ, LC_ALL="C"),
                              check=True).stdout
    except (OSError, subprocess.SubprocessError):
        text = ""
    scale = {"K": 1, "M": 1024, "G": 1024 ** 2}
    for level in ("L2", "L3"):
        found = re.search(rf"^{level} cache:\s*([\d.]+)\s*([KMG])", text, re.M)
        caches[f"{level.lower()}_kib"] = (
            float(found.group(1)) * scale[found.group(2)] if found else 0.0)
    return {"nproc": nproc, "workers": workers,
            "DETCURVE_THREADS": os.environ.get("DETCURVE_THREADS"),
            "versions": reporting.runtime_versions(), **caches}


# ---------------------------------------------------------------------------
# passes


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, op_name: str, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_LOGGED_FAILURES:
            print(f"bench: FAILED {op_name}: {message}", file=sys.stderr)


def run_pass(workload, index: int, tally: Tally) -> float:
    """Run every operation once; returns the summed call time (checks excluded)."""
    from workloads import CheckFailed

    gc.collect()
    elapsed = 0.0
    for op in workload.operations(index):
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # a failing operation must not stop the run
            elapsed += time.perf_counter() - t0
            tally.fail(op.name, traceback.format_exc())
            continue
        elapsed += time.perf_counter() - t0
        try:
            op.check(result)
        except CheckFailed as exc:
            tally.fail(op.name, str(exc))
        except Exception:
            tally.fail(op.name, traceback.format_exc())
    return elapsed


def quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)} median={values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} median={q2:.4f} q3={q3:.4f}"


def untraced_run(workload, seconds: int, tally: Tally, between) -> list:
    """Timed passes for `seconds`; calls between() after each pass."""
    times = []
    start = time.perf_counter()
    index = 1
    while not times or time.perf_counter() - start < seconds:
        times.append(run_pass(workload, index, tally))
        between()
        index += 1
    return times


def traced_run(workload, seconds: int, tally: Tally):
    """Cycle untraced, traced and single-thread passes for `seconds`."""
    import tracing

    tracer = tracing.Tracer()
    times = {"untraced": [], "traced": [], "single": []}
    modes = itertools.cycle(times)
    start = time.perf_counter()
    index = 1
    while (not all(times.values())
           or time.perf_counter() - start < seconds):
        mode = next(modes)
        if mode == "traced":
            tracer.pass_index = index
            tracer.install()
        elif mode == "single":
            threads = os.environ.get("DETCURVE_THREADS")
            os.environ["DETCURVE_THREADS"] = "1"
        try:
            times[mode].append(run_pass(workload, index, tally))
        finally:
            if mode == "traced":
                tracer.uninstall()
            elif mode == "single":
                if threads is None:
                    del os.environ["DETCURVE_THREADS"]
                else:
                    os.environ["DETCURVE_THREADS"] = threads
        index += 1
    traced_indices = sorted({i for i, _ in tracer.spans})
    metrics = tracing.median_metrics(
        [tracer.pass_metrics(i) for i in traced_indices])
    base = statistics.median(times["untraced"])
    metrics["parallel.speedup_1_to_n"] = statistics.median(times["single"]) / base
    metrics["trace.overhead_s"] = statistics.median(times["traced"]) - base
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / base
    return metrics, times, tracer


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "detcurve", "__init__.py")):
        print("bench: src/detcurve not found; run from the repository root",
              file=sys.stderr)
        return 2
    directory = os.path.join(WORK, args.workload)
    shutil.rmtree(directory, ignore_errors=True)
    os.environ.pop("DETCURVE_THREADS", None)

    # Set-up is repeated and the median reported.  The repeats after the
    # first rewrite the same bytes; those made between the timed passes
    # sample the host's speed over the same window as the passes do.
    input_dir = os.path.join(directory, "inputs")
    files, first = setup(args.workload, args.seed, input_dir)
    setup_times = [first] + [setup(args.workload, args.seed, input_dir)[1]
                             for _ in range(SETUP_REPEATS - 1)]

    def repeat_setup():
        setup_times.append(setup(args.workload, args.seed, input_dir)[1])

    sys.path.insert(0, SRC)
    import detcurve
    from detcurve import parallel

    if not os.path.abspath(detcurve.__file__).startswith(SRC + os.sep):
        print(f"bench: imported detcurve from {detcurve.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads  # imports detcurve, so only once src/ is on the path

    nproc = len(os.sched_getaffinity(0))
    if parallel.worker_count() > nproc:
        os.environ["DETCURVE_THREADS"] = str(nproc)
    workers = parallel.worker_count()

    workload = workloads.WORKLOADS[args.workload](
        files, args.seed, os.path.join(directory, "out"))
    tally = Tally()
    run_pass(workload, 0, tally)  # warm-up: lazy imports, caches

    if args.trace:
        import tracing

        values, times, tracer = traced_run(workload, args.seconds, tally)
        machine = machine_record(nproc, workers)
        values.update({"machine.nproc": nproc, "machine.workers": workers,
                       "machine.l2_kib": machine["l2_kib"],
                       "machine.l3_kib": machine["l3_kib"]})
        missing = set(dict(tracing.METRICS)) ^ set(values)
        if missing:
            raise RuntimeError(f"per-layer metrics out of step: {missing}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.METRICS}
        record = {"workload": args.workload, "seed": args.seed,
                  "machine": machine, "computed": list(tracing.COMPUTED),
                  "pass_seconds": times, "metrics": metrics,
                  "span_fields": ["id", "parent", "name", "t0", "t1",
                                  "thread", "pass", "tag", "counts"],
                  "spans": tracer.dump()}
        path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, default=lambda o: o.item())
        summary = "  ".join(f"{mode}: {quartiles(t)}"
                            for mode, t in times.items())
    else:
        times = untraced_run(workload, args.seconds, tally, repeat_setup)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        machine = machine_record(nproc, workers)
        # The fastest pass, not the median: other load on the host slows
        # every pass it overlaps, by up to 1.6x for tens of seconds at a
        # time, and the fastest pass is the one it touched least.  On ten-run
        # sets its spread stayed below the bound where the median's and the
        # mean's did not (NOTES.md, run-to-run spread).
        values = {"wall_s": min(times), "peak_rss_mb": peak_mb,
                  "passed_frac": 1.0 - tally.failed / tally.attempted,
                  "setup_s": statistics.median(setup_times)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        summary = f"pass wall_s: {quartiles(times)}"
        print(json.dumps({"pass_seconds": times}))

    print(json.dumps({"machine": machine}, sort_keys=True))
    print(f"bench: {args.workload} seed={args.seed} {summary} "
          f"attempted={tally.attempted} failed={tally.failed}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
