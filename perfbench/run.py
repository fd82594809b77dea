"""gausscond benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload small_fresh --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory. With --trace 0 the run measures the end-to-end metrics
with tracing off; with --trace 1 it wraps the library's layers (see
spans.py) and reports per-layer counts and times instead. Every result
is checked against the independent reference in reference.py. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`failed` counts operations that raised or disagreed with the reference;
`correct` is false when any returned result disagreed. Each failed
operation is printed with the command that replays it alone
(--replay INDEX). Workload choices and metric definitions: README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
# One BLAS thread: the matrices are small, and on a shared machine a
# second thread adds more noise than speed. Fixed before numpy loads.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("small_fresh", "large_fresh")
# A timed run lasts --seconds, cut into SEGMENTS segments of equal length.
# Each segment starts with its probes -- one set-up in a fresh
# interpreter, one `check all` call and one `gausscond condition` process
# -- and gives the rest of its time to the closed loop. So every metric
# samples the machine across the whole run: its speed drifts on a scale
# of seconds to minutes.
SEGMENTS = 10
PROBE_TIMEOUT_S = 120
# Traced runs stop at this many operations, which bounds the span list.
TRACE_MAX_OPS = 1000

# Per-layer metrics of the traced run as (name, unit, source). Source "op"
# is per operation of the workload's traced loop; "condition" and "check"
# are per call of the traced in-process `gausscond condition` and
# `gausscond check all`.
_CHAIN = ("condition", "lift_observation", "evaluate", "decompose")
PER_LAYER = (
    [("spectral.eig_sym." + f, u, "op") for f, u in (("calls", "count/op"), ("busy_s", "s/op"), ("n3_sum", "count/op"))]
    + [("spectral.decomposition.calls", "count/op", "op"), ("spectral.decomposition.hit_ratio", "ratio", "op")]
    + [
        (f"spectral.{name}.{f}", u, "op")
        for name in ("Projector", "orthonormal_columns", "invertible_left_factor")
        for f, u in (("calls", "count/op"), ("busy_s", "s/op"))
    ]
    + [("gaussian.Gaussian." + f, u, "op") for f, u in (("calls", "count/op"), ("busy_s", "s/op"), ("self_s", "s/op"))]
    + [("gaussian._psd_clamped." + f, u, "op") for f, u in (("calls", "count/op"), ("busy_s", "s/op"))]
    + [
        (f"conditioning.{name}.{f}", u, "op")
        for name in _CHAIN
        for f, u in (("calls", "count/op"), ("busy_s", "s/op"), ("self_s", "s/op"), ("failed", "count"))
    ]
    + [
        (name + ".busy_s", "s/call", "check")
        for name in (
            "gaussian.sample", "oracle.ginv_condition", "oracle.mc_conditional_moments",
            "oracle.mc_independence", "regression.partial_out", "checks.check_spectral",
            "checks.check_conditioning", "checks.check_oracle", "checks.check_regression",
        )
    ]
    + [(f"io.{name}.busy_s", "s/call", "condition") for name in ("load_model", "load_matrix", "load_vector", "dump")]
    + [("cli.main.busy_s", "s/call", "condition"), ("cli.main.self_s", "s/call", "condition")]
    + [("trace.overhead_frac", "ratio", "op")]
)

# Layers that must record at least one call in every traced run; a miss
# means the wrappers no longer reach that layer.
REQUIRED = {
    "op": [
        "spectral.eig_sym", "spectral.decomposition", "spectral.Projector",
        "spectral.orthonormal_columns", "spectral.invertible_left_factor",
        "gaussian.Gaussian", "gaussian._psd_clamped",
    ] + [f"conditioning.{name}" for name in _CHAIN],
    "condition": ["io.load_model", "io.load_matrix", "io.load_vector", "io.dump", "cli.main"],
    "check": [
        "gaussian.sample", "oracle.ginv_condition", "oracle.mc_conditional_moments",
        "oracle.mc_independence", "regression.partial_out", "checks.check_spectral",
        "checks.check_conditioning", "checks.check_oracle", "checks.check_regression",
    ],
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def environment() -> dict:
    """Where a result was measured, so results of different machines are not compared."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def setup_probe(args, env: dict) -> dict:
    """One set-up in a fresh interpreter: its import_s and build_s."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--setup-probe"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def timed_run(args) -> dict:
    import workloads as wl

    cls = wl.WORKLOADS[args.workload]
    workload = cls(args.seed)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loop, setup, cli, check = wl.Tally(cls.fixed), [], [], []
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as workdir, wl.CheckWorker(ROOT, env) as checker:
        condition_cli = wl.ConditionCli(args.seed, ROOT, Path(workdir), env)
        start = time.perf_counter()
        for k in range(SEGMENTS):
            setup.append(setup_probe(args, env))
            check.append(checker.run_one(k))
            cli.append(wl.run_one(condition_cli, k))
            # The fixed instances all run, whatever the speed: the last
            # segment does not end before they are done.
            wl.run_loop(workload, start + (k + 1) * args.seconds / SEGMENTS, loop,
                        min_ops=cls.fixed if k == SEGMENTS - 1 else 0)
    # The probes ran in other processes, so this is the loop's process alone.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = loop_summary(loop)
    metrics = {
        "throughput_ops_s": metric(summary["throughput_ops_s"], "1/s"),
        "latency_ms.p50": metric(summary["p50_ms"], "ms"),
        "latency_ms.p90": metric(summary["p90_ms"], "ms"),
        "setup_s": metric(statistics.median(p["import_s"] + p["build_s"] for p in setup), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "cli_condition_s": metric(statistics.median(o.seconds for o in cli), "s"),
        "check_all_s": metric(statistics.median(o.seconds for o in check), "s"),
    }
    print(f"workload {args.workload} seed {args.seed}: {loop.count} operations, "
          f"{len(loop.failures)} failed; closed loop, 1 caller, {loop.busy_s:.3f} s busy")
    for name, m in metrics.items():
        print(f"  {name:18s} {m['value']:.6g} {m['unit']}")
    print(f"  {'':18s} latency samples n={len(loop.latencies_ms)}; medians of {len(setup)} set-ups "
          f"(import {statistics.median(p['import_s'] for p in setup):.4f} s, "
          f"build {statistics.median(p['build_s'] for p in setup):.4f} s), "
          f"{len(cli)} cli and {len(check)} check calls")
    print(f"  {'error_rate':18s} {summary['error_rate']:.6g} "
          f"({loop.fixed_failed} of the {cls.fixed} fixed instances)")
    return result(args, [loop], {"gausscond condition": cli, "check all": check}, metrics)


def loop_summary(loop) -> dict:
    """End-to-end figures of one closed loop of operations.

    Latency samples are the operations that returned (a raised one has no
    result to time); throughput counts verified operations per second of
    time spent in all of them; error_rate counts failures among the fixed
    instances, which every run executes whatever its speed.
    """
    latencies = loop.latencies_ms or [loop.busy_s / loop.count * 1e3]
    return {
        "throughput_ops_s": loop.verified / loop.busy_s,
        "p50_ms": percentile(latencies, 50),
        "p90_ms": percentile(latencies, 90),
        "error_rate": loop.fixed_failed / loop.fixed,
    }


def result(args, loops, probes: dict, metrics) -> dict:
    """The closing JSON object; also prints each failure, with a replay command for loop operations."""
    replay = f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} --replay"
    wrong = 0
    for loop in loops:
        for o in loop.failures:
            wrong += not o.raised
            print(f"FAIL {args.workload} seed={args.seed} index={o.index}: {'; '.join(o.errors)} "
                  f"(replay: {replay} {o.index})")
    for name, outcomes in probes.items():
        for o in outcomes:
            if not o.ok:
                wrong += not o.raised
                print(f"FAIL {name} call {o.index} (seed {args.seed}): {'; '.join(o.errors)}")
    return {
        "correct": wrong == 0,
        "attempted": sum(loop.count for loop in loops) + sum(map(len, probes.values())),
        "failed": sum(len(loop.failures) for loop in loops)
        + sum(not o.ok for outcomes in probes.values() for o in outcomes),
        "metrics": metrics,
    }


def layer_metrics(rows: dict, ops: int, overhead: float) -> dict:
    """The PER_LAYER values from span totals grouped by source ("op", "condition", "check")."""
    out = {}
    for name, unit, source in PER_LAYER:
        if name == "trace.overhead_frac":
            out[name] = metric(overhead, unit)
            continue
        layer, field = name.rsplit(".", 1)
        row = rows[source].get(layer)
        per = ops if source == "op" else 1
        if row is None:
            value = 0.0
        elif field == "hit_ratio":
            value = row["hits"] / row["calls"]
        elif field == "failed":
            value = row["failed"]
        else:
            value = row["work" if field == "n3_sum" else field] / per
        out[name] = metric(value, unit)
    return out


def traced_run(args) -> dict:
    import spans
    import workloads as wl

    workload = wl.WORKLOADS[args.workload](args.seed)
    # One discarded operation first, so lazy caches fill before either phase.
    wl.run_one(workload, 0)
    untraced = wl.Tally(workload.fixed)
    wl.run_loop(workload, time.perf_counter() + args.seconds / 2.0, untraced,
                min_ops=workload.fixed, max_ops=TRACE_MAX_OPS)
    traced = wl.Tally(workload.fixed)
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        for i in range(untraced.count):
            recorder.op = i
            traced.add(wl.run_one(workload, i))
        with tempfile.TemporaryDirectory(dir=BUILD_DIR) as workdir:
            recorder.op = "condition"
            cli = [wl.run_one(wl.ConditionCli(args.seed, ROOT, Path(workdir)), 0)]
        recorder.op = "check"
        check = [wl.run_one(wl.CheckAll(), 0)]
    finally:
        uninstall()
        recorder.op = None

    rows = {
        "op": spans.aggregate(recorder.spans, set(range(traced.count))),
        "condition": spans.aggregate(recorder.spans, {"condition"}),
        "check": spans.aggregate(recorder.spans, {"check"}),
    }
    overhead = traced.busy_s / untraced.busy_s - 1.0
    missing = [f"{n} ({source})" for source, names in REQUIRED.items() for n in names if n not in rows[source]]
    if missing:
        raise SystemExit(f"error: traced run recorded no call of {', '.join(missing)}")

    print(f"workload {args.workload} seed {args.seed}: traced {traced.count} operations "
          f"(same inputs as {untraced.count} untraced); overhead {overhead:+.3f}; "
          "one thread and no queue, so no wait time is reported")
    print(f"  {'layer':42s} {'calls/op':>10s} {'busy s/op':>12s} {'self s/op':>12s} {'failed':>6s}")
    n = traced.count
    for name, row in sorted(rows["op"].items(), key=lambda kv: -kv[1]["busy_s"]):
        print(f"  {name:42s} {row['calls'] / n:10.4g} {row['busy_s'] / n:12.4g} "
              f"{row['self_s'] / n:12.4g} {row['failed']:6d}")
    metrics = layer_metrics(rows, n, overhead)
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")

    out_path = BUILD_DIR / f"spans_{args.workload}_seed{args.seed}.json"
    out_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op", "failed", "work"],
                                    "spans": recorder.spans}))
    print(f"  spans written to {out_path.relative_to(ROOT)}")
    return result(args, [untraced, traced], {"gausscond condition": cli, "check all": check}, metrics)


def replay(args) -> int:
    import workloads as wl

    outcome = wl.run_one(wl.WORKLOADS[args.workload](args.seed), args.replay)
    print(f"{args.workload} seed={args.seed} index={args.replay}: {outcome.seconds:.6f} s, "
          + ("ok" if outcome.ok else "; ".join(outcome.errors)))
    return 0 if outcome.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of a run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, default=None, metavar="INDEX",
                        help="run operation INDEX of this workload and seed alone")
    # Modes of the processes a timed run starts; see setup_probe and workloads.CheckWorker.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--check-worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.check_worker:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    src = ROOT / "src"
    if not (src / "gausscond" / "__init__.py").is_file():
        print(f"error: no gausscond sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import gausscond  # noqa: F401  (timed: import is part of set-up)

    import_s = time.perf_counter() - start
    import workloads as wl

    if args.check_worker:
        wl.serve_checks(sys.stdin, sys.stdout)
        return 0
    if args.setup_probe:
        start = time.perf_counter()
        wl.WORKLOADS[args.workload](args.seed)
        print(json.dumps({"import_s": import_s, "build_s": time.perf_counter() - start}))
        return 0
    if args.replay is not None:
        return replay(args)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    print("env " + json.dumps(environment()))
    result = traced_run(args) if args.trace else timed_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
