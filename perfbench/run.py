"""The repository benchmark: one command, four workloads, a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload city_batch --seed 2017 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one summary

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics,
a self-time table and the tracing overhead.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("city_batch", "city_stream", "study_greedy", "exact_n50")
DEFAULT_SEED = 2017
SETUP_PROBES = 3
#: Stop starting passes after this long, whatever --seconds says, so a run
#: on a slow host still ends well inside three minutes.
HARD_STOP_S = 110.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Counts that must repeat exactly across passes at one seed.
REPEATING_COUNTS = (
    "allocation.bnb_nodes",
    "proven_fraction",
    "kernels.placements",
    "service.ingest_rows",
    "robustness.rows_repaired",
)

#: Every CPU this process may run on, taken before any pinning.
ALL_CPUS = tuple(sorted(os.sched_getaffinity(0)))


def _bootstrap() -> None:
    """Import the program from this checkout's ``src`` or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def host_probe_ms() -> float:
    """Time a fixed pure-Python loop: a gauge of the host's current speed."""
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i
    return (time.perf_counter() - started) * 1e3


def pin_to_quietest_cpu() -> None:
    """Move this process onto the CPU that runs the probe loop fastest.

    Host contention lands on one vCPU at a time, for seconds at a stretch.
    The workloads are single-threaded, so where they run does not change
    what they compute.
    """
    if len(ALL_CPUS) < 2:
        return
    best, best_ms = ALL_CPUS[0], float("inf")
    for cpu in ALL_CPUS:
        os.sched_setaffinity(0, {cpu})
        ms = min(host_probe_ms() for _ in range(2))
        if ms < best_ms:
            best, best_ms = cpu, ms
    os.sched_setaffinity(0, {best})


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker this process started, and reap it.

    The city workloads pack shards into shared memory, which makes
    :mod:`multiprocessing` start a tracker process.  Left alone it outlives
    this interpreter by a moment and is never reaped; closing its pipe
    stops it and ``_stop`` waits for it to end.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default-seed reference outputs and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ set-up


def setup_probe(args) -> None:
    """Child mode: import and build one workload, print the elapsed time.

    ``--t0`` is the parent's ``time.monotonic()`` just before it started
    this interpreter (the clock is system-wide), so the figure covers
    interpreter start, imports and construction, but not teardown.
    """
    _bootstrap()
    import workloads

    workloads.build(args.workload, args.seed, OUT_DIR)
    print(repr(time.monotonic() - args.t0))


def measure_setup(args) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        pin_to_quietest_cpu()  # the probe interpreter inherits the CPU
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--t0", repr(t0)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# --------------------------------------------------------------- reference


def load_reference():
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else None


def reference_failures(reference, config, name, seed, result) -> dict:
    """Per-unit mismatches against the default-seed reference (else none)."""
    if reference is None or seed != reference["seed"]:
        return {}
    if reference["config"] != config:
        return {"reference": ["reference.json was recorded for another config"]}
    expected = reference["units"][name]
    failures = {}
    for unit in sorted(set(expected) | set(result.units)):
        if expected.get(unit) != result.units.get(unit):
            failures[unit] = ["output differs from the default-seed reference"]
    proven = reference["bnb_proven_costs"].get(name, {})
    for unit in sorted(set(proven) | set(result.proven)):
        if proven.get(unit) != result.proven.get(unit):
            failures.setdefault(unit, []).append("B&B proven cost differs from the reference")
    return failures


def write_reference() -> None:
    _bootstrap()
    import workloads

    workdir = OUT_DIR / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reference = {"seed": DEFAULT_SEED, "config": workloads.config(),
                     "units": {}, "bnb_proven_costs": {}}
        for name in WORKLOADS:
            workload = workloads.build(name, DEFAULT_SEED, workdir)
            result = workload.run_pass()
            workload.check(result)
            if result.failures:
                raise SystemExit(f"{name}: checks failed: {result.failures}")
            reference["units"][name] = result.units
            if result.proven:
                reference["bnb_proven_costs"][name] = result.proven
            print(f"{name}: {len(result.units)} units recorded", file=sys.stderr)
        (HERE / "reference.json").write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------- the run


def run_all(args) -> int:
    """Run every workload in its own interpreter and summarize."""
    ok = True
    summary = []
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            ok = False
            summary.append(f"  {name:13s} CRASHED (exit {done.returncode})")
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                          for k, v in result["metrics"].items() if k in END_TO_END_UNITS
                          or k.startswith("trace."))
        summary.append(f"  {name:13s} correct={result['correct']} "
                       f"failed={result['failed']}/{result['attempted']}  {shown}")
    print("\nsummary")
    print("\n".join(summary))
    return 0 if ok else 1


def measure(args, workload, tracer, reference, config):
    """Repeat passes until ``--seconds`` is used up; check each one.

    Returns the untraced and traced pass results, the per-pass tracer
    summaries, the span lines and the host probe readings.
    """
    from repro.allocation.arrays import compile_cache_stats, reset_compile_cache

    untraced, traced, summaries, span_lines, host = [], [], [], [], []
    min_passes = 4 if tracer else 2
    loop_start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(untraced) > len(traced)
        pin_to_quietest_cpu()
        before = host_probe_ms()
        reset_compile_cache(stats_only=True)
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                result = workload.run_pass()
            finally:
                tracer.uninstall()
        else:
            result = workload.run_pass()
        host.append((before, host_probe_ms()))
        workload.check(result)
        result.raw = None

        if use_trace:
            stats = compile_cache_stats()
            lookups = stats["hits"] + stats["misses"]
            summaries.append({
                "self": tracer.self_times(),
                "root": tracer.root_time(),
                "counters": dict(tracer.counters),
                "hit_ratio": stats["hits"] / lookups if lookups else 0.0,
            })
            span_lines.extend(tracer.jsonl_lines(len(untraced) + len(traced)))
            # The tracer counts where the work happens; the outputs must agree.
            for key in ("kernels.placements", "allocation.bnb_nodes"):
                derived, counted = result.counts.get(key), tracer.counters.get(key, 0)
                if derived is not None and derived != counted:
                    result.fail("trace", f"{key}: traced {counted} != outputs {derived}")
            result.counts["robustness.rows_repaired"] = tracer.counters.get(
                "robustness.rows_repaired", 0)
            traced.append(result)
        else:
            untraced.append(result)
        for unit, problems in reference_failures(
            reference, config, args.workload, args.seed, result
        ).items():
            for problem in problems:
                result.fail(unit, problem)

        elapsed = time.perf_counter() - loop_start
        walls = [p.wall_s for p in untraced + traced]
        if elapsed > HARD_STOP_S or (
            len(walls) >= min_passes and elapsed + statistics.median(walls) > args.seconds
        ):
            return untraced, traced, summaries, span_lines, host


def self_check(untraced, traced) -> list:
    """Outputs and counts must repeat exactly across passes at one seed."""
    problems = []
    first = untraced[0]
    for i, p in enumerate(untraced + traced):
        if p.units != first.units:
            problems.append(f"pass {i}: outputs differ from the first pass")
    for group, label in ((untraced, "untraced"), (traced, "traced")):
        for p in group[1:]:
            for key in REPEATING_COUNTS:
                if p.counts.get(key) != group[0].counts.get(key):
                    problems.append(f"{label} {key}: {p.counts.get(key)} "
                                    f"!= {group[0].counts.get(key)}")
    if traced:
        for key in REPEATING_COUNTS:
            a, b = untraced[0].counts.get(key), traced[0].counts.get(key)
            if a is not None and b is not None and a != b:
                problems.append(f"{key}: untraced {a} != traced {b}")
    return problems


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.write_reference:
        write_reference()
        return 0
    if args.workload == "all":
        return run_all(args)

    _bootstrap()
    import tracing
    import workloads

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_samples = measure_setup(args)
        # A study pass is a chain of study runs: each starts on the CPU
        # that is quieter at that moment, since contention moves faster
        # than a whole pass.
        workload = workloads.build(
            args.workload, args.seed, workdir, between_runs=pin_to_quietest_cpu)
        tracer = tracing.Tracer() if args.trace else None
        started = time.perf_counter()
        untraced, traced, summaries, span_lines, host = measure(
            args, workload, tracer, load_reference(), workloads.config())
        measured_s = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = self_check(untraced, traced)
    passes = untraced + traced
    attempted = sum(max(len(p.units), 1) for p in passes)
    failed = attempted if problems else sum(
        min(len(p.failures), max(len(p.units), 1)) for p in passes)

    # Host contention only ever slows work down, in phases of seconds to
    # minutes, so each block's fastest untraced time is the steadiest
    # estimate of the program's own speed (README.md, "Noise").
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(map(min, zip(*(p.block_s for p in untraced)))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced"
          f" + {len(traced)} traced passes in {measured_s:.1f} s")
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"wall_median_s {statistics.median(p.wall_s for p in untraced):.6g} s")
    print(f"failed_fraction {failed / attempted:.6g} fraction ({failed}/{attempted})")
    latencies = [x for p in untraced for x in p.latencies_ms]
    if latencies:
        print(f"submit_p50_ms {percentile(latencies, 0.50):.6g} ms"
              f" ({len(latencies)} calls)")
        print(f"submit_p99_ms {percentile(latencies, 0.99):.6g} ms"
              f" ({len(latencies)} calls, {len(latencies) // 100} beyond)")
    if "proven_fraction" in untraced[0].counts:
        print(f"proven_fraction {untraced[0].counts['proven_fraction']:.6g} fraction")
    messages = problems + [f"{unit}: {m}" for p in passes
                           for unit, ms in sorted(p.failures.items()) for m in ms]
    for message in messages[:20]:
        print(f"CHECK FAILED {message}")
    print("# meta " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_samples_s": setup_samples,
        "untraced_block_s": [p.block_s for p in untraced],
        "traced_wall_s": [p.wall_s for p in traced],
        "host_probe_ms_before_after": host,
    }))

    if args.trace:
        metrics = traced_metrics(
            tracing, traced, summaries, min(p.wall_s for p in untraced))
        print_table(args.workload, metrics)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        trace_path.write_text("\n".join(span_lines) + "\n")
        print(f"spans written to {trace_path}")
        units = tracing.PER_LAYER_UNITS
    else:
        metrics, units = e2e, END_TO_END_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


# ----------------------------------------------------------- traced output


def traced_metrics(tracing, traced, summaries, untraced_wall_s) -> dict:
    """Per-layer metrics from the fastest traced pass.

    One pass supplies every figure, so its stage self times plus the
    driver's remainder add up exactly to its wall time; it is the fastest
    one for the same reason ``wall_s`` is.
    """
    pick = min(range(len(traced)), key=lambda i: traced[i].wall_s)
    result, summary = traced[pick], summaries[pick]
    metrics = {f"{stage}_s": summary["self"].get(stage, 0.0) for stage in tracing.STAGES}
    for name, unit in tracing.PER_LAYER_UNITS.items():
        if unit != "s":
            metrics[name] = float(summary["counters"].get(name, result.counts.get(name, 0)))
    metrics["allocation.compile_cache_hit_ratio"] = summary["hit_ratio"]
    metrics["trace.wall_s"] = result.wall_s
    metrics["trace.untraced_wall_s"] = untraced_wall_s
    metrics["trace.overhead_s"] = result.wall_s - untraced_wall_s
    metrics["trace.driver_s"] = result.wall_s - summary["root"]
    return {name: metrics[name] for name in tracing.PER_LAYER_UNITS}


def print_table(workload, metrics) -> None:
    wall = metrics["trace.wall_s"]
    rows = [(name, value) for name, value in metrics.items()
            if name.endswith("_s") and not name.startswith("trace.")]
    rows.append(("driver (remainder)", metrics["trace.driver_s"]))
    print(f"\nself time, fastest traced pass of {workload}")
    for name, value in sorted(rows, key=lambda r: -r[1]):
        if value:
            print(f"  {name:34s} {value:10.4f} s  {100 * value / wall:5.1f}%")
    print(f"  {'sum = traced wall_s':34s} {sum(v for _, v in rows):10.4f} s"
          f"  (wall {wall:.4f} s)")
    print(f"  tracing overhead {metrics['trace.overhead_s']:+.4f} s against"
          f" untraced wall_s {metrics['trace.untraced_wall_s']:.4f} s")
    for name, value in metrics.items():
        if not name.endswith("_s"):
            print(f"  {name:34s} {value:.6g}")


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)
