"""Run the benchmark over several seeds and summarise its spread.

Usage (from the root of a densitopo checkout):

    python3 perfbench/record.py --seeds 10 [--workload gmm2d ...] [--out FILE]

For each workload, runs ``perfbench/run.py`` untraced once per seed
0..N-1 and prints, per end-to-end metric, the median and the distance
between the first and third quartile as a share of the median (the
run-to-run spread the bounds in BENCHMARK.json are held against).  With
``--out`` it also makes one traced run at seed 0 and writes the medians,
spreads, layer shares, artifact hashes and machine facts to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, THREAD_VARS, child_env
from workloads import WORKLOADS


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values), "values": values}


def machine_facts() -> dict:
    import numpy
    import scipy

    env = child_env()
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": {v: env[v] for v in THREAD_VARS}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]

    doc = {"run_seconds": seconds, "seeds": args.seeds, "machine": machine_facts(),
           "workloads": {}}
    for name in names:
        per_metric: dict[str, list[float]] = {}
        for seed in range(args.seeds):
            result, _ = bench_run(name, seed, seconds, 0)
            if not result["correct"]:
                print(f"{name} seed {seed}: checks failed", file=sys.stderr)
                return 1
            for metric, value in result["metrics"].items():
                per_metric.setdefault(metric, []).append(value["value"])
        why = next((w["why"] for w in bench["workloads"] if w["name"] == name),
                   "not in BENCHMARK.json; see perfbench/README.md")
        entry = {"why": why, "end_to_end": {m: spread(v) for m, v in per_metric.items()}}
        for metric, s in entry["end_to_end"].items():
            s["bound"] = bounds[metric]
            print(f"{name:10s} {metric:14s} median {s['median']:.4g}  "
                  f"iqr/median {s['iqr_share']:.4f}  bound {bounds[metric]}", flush=True)
        if args.out is not None:
            result, lines = bench_run(name, 0, seconds, 1)
            entry["traced_seed0"] = {m: e["value"] for m, e in result["metrics"].items()}
            entry["traced_report_seed0"] = [line for line in lines
                                            if not line.startswith("run ")]
        doc["workloads"][name] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
