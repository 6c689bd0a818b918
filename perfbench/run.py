"""densitopo benchmark: one workload through the real ``densitopo run`` path.

Usage (from the root of a densitopo checkout):

    python3 perfbench/run.py --workload gmm2d --seed 0 --seconds 36 --trace 0

Set-up generates the workload's input files from ``--seed`` once and warms
them into the page cache, then times a few bare imports of
``densitopo.cli``.  The measuring window that follows runs
``densitopo.cli.run_pipeline`` in a fresh interpreter per run, one run at a
time, while the next run is likely to end within ``--seconds`` (and for at
least ``MIN_RUNS`` runs), and
checks every run's artifacts.  The host speed probe (calibrate.py) is timed
just before and just after every child, and each reported time is rescaled
by the probes around its own child, so that a host slower for a while
reports the same figures.
``--trace 1`` alternates untraced runs with runs under the outside-in
tracer (perfbench/spans.py) and reports the per-layer metrics instead of
the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from BENCHMARK.json.  Everything read or written stays inside
the checkout, under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, reference_work
from checks import check_run, log_rho_rmse, sha256_of_dir
from spans import TIMED, layer_metrics
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

MIN_RUNS = 3            # per kind of run (untraced, traced) in one window
SETUP_PROBES = 3        # bare imports timed in set-up, on top of one per run
CHILD_TIMEOUT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    """Environment of every child: the checkout's source, threads <= nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    return env


def run_child(spec: dict, env: dict, log_path: Path) -> tuple[float, dict | None, float]:
    """Start child.py on ``spec`` and wait for it, with a speed probe either side.

    Returns (setup_s, result, probe_s): setup_s is the time from process
    start to ``densitopo.cli`` imported; result is the child's JSON line, or
    None for a bare import; probe_s is the mean of the two probe times.  The
    probes run here, not in the child, so the child's peak RSS is its own.
    Raises RuntimeError when the child fails.
    """
    probe_before = reference_work()
    start = time.perf_counter()
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)],
                                stdout=subprocess.PIPE, stderr=log, text=True,
                                env=env, cwd=ROOT)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    probe_s = (probe_before + reference_work()) / 2
    if proc.returncode != 0 or ready.strip() != "ready":
        tail = log_path.read_text(encoding="utf-8").strip().splitlines()[-1:]
        raise RuntimeError(f"child exited with {proc.returncode}: {' '.join(tail)}")
    if "run" not in spec:
        return setup_s, None, probe_s
    result = json.loads(out.strip().splitlines()[-1])
    if Path(result["program"]).resolve().parent != SRC / "densitopo":
        raise RuntimeError(f"program imported from {result['program']}, not {SRC}")
    return setup_s, result, probe_s


def listing(directory: Path) -> dict[str, int]:
    return {p.name: p.stat().st_size for p in sorted(directory.iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "densitopo" / "cli.py").is_file() or not bench_path.is_file():
        print(f"perfbench: {SRC / 'densitopo'} or {bench_path} missing; "
              "run from the root of a densitopo checkout", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    print(f"workload {workload.name} seed {args.seed}: {workload.kind} n={workload.n} "
          f"dim={workload.dim} format={workload.fmt} z={workload.z}; "
          f"threads={env[THREAD_VARS[0]]}", flush=True)

    # ---- set-up: inputs once, then untimed warm import, then timed imports
    start = time.perf_counter()
    inputs = make_inputs(workload, args.seed, work / "input")
    inputs_s = time.perf_counter() - start
    input_files = listing(inputs.input_path.parent)
    print(f"inputs_s {inputs_s:.3f} s (generated and warmed once, before timing; "
          f"{sum(input_files.values()) / 1e6:.1f} MB)", flush=True)
    try:
        run_child({}, env, work / "warm.log")
        setup, probes = [], []
        for i in range(SETUP_PROBES):
            setup_s, _, probe_s = run_child({}, env, work / f"import-{i}.log")
            setup.append((setup_s, probe_s))
            probes.append(probe_s)
    except RuntimeError as exc:
        print(f"perfbench: the program does not import: {exc}", file=sys.stderr)
        return 1

    # ---- measuring window
    outdir = work / "out"
    run_spec = {"input": str(inputs.input_path), "outdir": str(outdir),
                "format": workload.fmt, "z": workload.z, "truth": str(inputs.truth_path)}
    runs = []
    reference = None
    rmse = None
    starts = []
    deadline = time.perf_counter() + args.seconds
    while True:
        now = time.perf_counter()
        n_traced = sum(r["traced"] for r in runs)
        enough = (len(runs) - n_traced >= MIN_RUNS
                  and (n_traced >= MIN_RUNS or not args.trace))
        # start no run that would likely end after the deadline
        if enough and now + statistics.median(
                [b - a for a, b in zip(starts, starts[1:] + [now])]) > deadline:
            break
        starts.append(now)
        i = len(runs)
        traced = bool(args.trace) and i % 2 == 1
        shutil.rmtree(outdir, ignore_errors=True)
        spec = {"run": run_spec}
        if traced:
            spec["trace_out"] = str(work / f"trace-{i}.json")
        record = {"traced": traced, "problems": []}
        runs.append(record)
        try:
            setup_s, result, probe_s = run_child(spec, env, work / f"run-{i}.log")
        except (RuntimeError, ValueError) as exc:
            record["problems"].append(str(exc))
            print(f"run {i}: FAILED {exc}", flush=True)
            continue
        setup.append((setup_s, probe_s))
        probes.append(probe_s)
        record.update(run_s=result["run_s"], run_ref_s=result["run_s"] * REFERENCE_S / probe_s,
                      peak_rss_mb=result["peak_rss_mb"],
                      summary=result["summary"])
        problems, log_rho = check_run(outdir, workload, inputs.n, result["summary"])
        hashes = sha256_of_dir(outdir)
        if reference is None and not problems:
            reference = hashes
            rmse = log_rho_rmse(log_rho, inputs.log_rho_true)
        elif reference is not None and hashes != reference:
            changed = sorted(k for k in set(hashes) | set(reference)
                             if hashes.get(k) != reference.get(k))
            problems.append("artifacts differ from the first passing run: "
                            + ", ".join(changed))
        if listing(inputs.input_path.parent) != input_files:
            problems.append("the run changed the input directory")
        record["problems"] = problems
        if traced:
            trace = json.loads(Path(spec["trace_out"]).read_text(encoding="utf-8"))
            record["layers"] = layer_metrics(trace)
            record["output_mb"] = sum(p.stat().st_size for p in outdir.iterdir()) / 1e6
        print(f"run {i}{' traced' if traced else ''}: run_s {record['run_s']:.3f} s, "
              f"import {setup_s:.3f} s, peak RSS {record['peak_rss_mb']:.1f} MB, "
              f"{'ok' if not problems else 'FAILED ' + '; '.join(problems)}", flush=True)

    failed = sum(1 for r in runs if r["problems"])
    good = [r for r in runs if not r["problems"]]
    plain = [r["run_s"] for r in good if not r["traced"]]
    plain_ref = [r["run_ref_s"] for r in good if not r["traced"]]
    traced_runs = [r for r in good if r["traced"]]
    if not plain or (args.trace and not traced_runs):
        print("perfbench: no run of a needed kind passed its checks", file=sys.stderr)
        return 1
    summary = good[0]["summary"]

    for name, digest in (reference or {}).items():
        print(f"artifact sha256 {name} {digest}")
    print(f"d_hat {summary['d_hat']!r}  n_clusters {summary['n_clusters']}  "
          f"n_halo {summary['n_halo']}")
    # Each time is rescaled by the speed probes around its own child
    # (calibrate.py): seconds on a host where the probe takes REFERENCE_S.
    setup_wall = [s for s, _ in setup]
    values = {
        "run_s": statistics.median(plain_ref),
        "setup_s": statistics.median([s * REFERENCE_S / p for s, p in setup]),
        "peak_rss_mb": statistics.median(
            [r["peak_rss_mb"] for r in good if not r["traced"]]),
        "log_rho_rmse": rmse,
        "bench.run_wall_s": statistics.median(plain),
        "bench.setup_wall_s": statistics.median(setup_wall),
        "bench.probe_s": statistics.median(probes),
    }
    print(f"speed probe {values['bench.probe_s']:.4f} s (median of {len(probes)}; "
          f"reference {REFERENCE_S} s)")
    print(f"run_s {values['run_s']:.4f} s (median of {len(plain)} untraced runs, "
          f"max {max(plain_ref):.4f} s; no percentile above the median has ten runs "
          f"beyond it at this count); wall time median {statistics.median(plain):.4f} s")
    print(f"setup_s {values['setup_s']:.4f} s (median of {len(setup)} imports); "
          f"wall time median {statistics.median(setup_wall):.4f} s")
    print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    print(f"failed_frac {failed / len(runs):.4g} ratio ({failed} of {len(runs)} runs)")
    print(f"nmi {summary['nmi']!r} (non-halo points against generator labels)")
    print(f"log_rho_rmse {rmse!r} nats")

    if args.trace:
        layers = [r["layers"] for r in traced_runs]
        traced_s = statistics.median([r["run_s"] for r in traced_runs])
        for name in layers[0]["metrics"]:
            values[name] = statistics.median([lay["metrics"][name] for lay in layers])
        values["cli.output_mb"] = statistics.median([r["output_mb"] for r in traced_runs])
        values["bench.inputs_s"] = inputs_s
        values["bench.traced_run_s"] = traced_s
        values["bench.trace_overhead_s"] = traced_s - values["bench.run_wall_s"]
        values["bench.unaccounted_s"] = statistics.median(
            [r["run_s"] - r["layers"]["top_s"] for r in traced_runs])
        self_s = {name: statistics.median([lay["self_s"][name] for lay in layers])
                  for name in TIMED}
        print(f"traced run_s {traced_s:.4f} s over {len(traced_runs)} runs; "
              f"tracing overhead {values['bench.trace_overhead_s']:+.4f} s; "
              f"outside every top-level span {values['bench.unaccounted_s']:.4f} s")
        for name in sorted(TIMED, key=lambda k: -self_s[k]):
            print(f"  {name + '_s':26s} total {values[name + '_s']:8.4f} s  "
                  f"self {self_s[name]:8.4f} s  {100 * self_s[name] / traced_s:5.1f}%")
        top = max(TIMED, key=lambda k: self_s[k])
        print(f"largest self time: {top}_s")
        chosen = bench["per_layer"]
    else:
        chosen = bench["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
