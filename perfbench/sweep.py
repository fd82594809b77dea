"""Run every workload over several seeds and summarize the end-to-end metrics.

    python3 perfbench/sweep.py --seeds 0-9 --out perfbench/trajectory/<label>.json

Each (workload, seed) is one `run.py --trace 0` process of the length
BENCHMARK.json gives. For each metric the summary holds the ten values,
their median and quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, which the metric's bound must exceed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="a range like 0-9 or a list like 1,5,7")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", type=Path, default=None, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in seed_list(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            summary["env"] = json.loads(lines[0].removeprefix("env "))
            wall_s = time.perf_counter() - start
            runs.append({k: result[k] for k in ("correct", "attempted", "failed")} | {"seed": seed, "wall_s": wall_s})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, f"{wall_s:.1f} s", {k: result[k] for k in ("correct", "attempted", "failed")},
                  flush=True)
        stats = {}
        for name, vals in values.items():
            stats[name] = quartiles(vals) | {"values": vals}
            print(f"  {workload:20s} {name:18s} median {stats[name]['median']:.6g}  "
                  f"spread {stats[name]['spread']:.3f} (bound {bounds[name]}, a third {bounds[name] / 3:.3f})",
                  flush=True)
        summary["workloads"][workload] = {"runs": runs, "metrics": stats}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
