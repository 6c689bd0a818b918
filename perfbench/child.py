"""One benchmark run in a fresh interpreter.

Usage: python3 child.py '<spec json>'

Prints ``ready`` as soon as ``densitopo.cli`` is imported, so the parent
can time interpreter start plus import.  A spec without ``"run"`` stops
there.  Otherwise the child calls ``densitopo.cli.run_pipeline`` once,
optionally under the outside-in tracer, and prints one JSON line with the
run time, the process's peak RSS and the run summary.
"""

import json
import sys
import time

import densitopo.cli as cli


def peak_rss_mb() -> float:
    """Peak RSS of this process in MB (10^6 bytes), from VmHWM.

    VmHWM belongs to the address space this process got at exec.
    ``ru_maxrss`` is not used: on Linux it keeps the parent's peak across
    fork and exec, so it would report the benchmark's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6  # kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    print("ready", flush=True)
    spec = json.loads(sys.argv[1])
    run = spec.get("run")
    if run is None:
        return 0
    tracer = None
    if spec.get("trace_out"):
        from spans import install

        tracer = install()
    config = cli.RunConfig(input=run["input"], outdir=run["outdir"], format=run["format"],
                           z=run["z"], truth=run["truth"])
    start = time.perf_counter()
    summary = cli.run_pipeline(config)
    run_s = time.perf_counter() - start
    if tracer is not None:
        with open(spec["trace_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)
    print(json.dumps({"run_s": run_s, "peak_rss_mb": peak_rss_mb(),
                      "summary": summary, "program": cli.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
