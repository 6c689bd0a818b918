"""Output checks on the artifacts of one ``run_pipeline`` call.

The checks parse every artifact with the benchmark's own code, never the
program's readers, so a reader bug cannot hide a writer bug.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

ARTIFACTS = ("density.tsv", "assignment.tsv", "topography.json", "dendrogram.nwk",
             "network.dot", "run_config.txt", "confusion.tsv", "purity.tsv")


def sha256_of_dir(directory: Path) -> dict[str, str]:
    """sha256 of every regular file in an output directory, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def _tsv_rows(path: Path, n_cols: int) -> list[list[str]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != n_cols:
            raise ValueError(f"{path.name}: expected {n_cols} fields, got {len(cols)}")
        rows.append(cols)
    return rows


def check_run(outdir: Path, workload, n: int,
              summary: dict) -> tuple[list[str], np.ndarray | None]:
    """Check one run's artifacts and summary.

    Returns (problems, log_rho): an empty problem list means the run
    passed; log_rho is the density column when density.tsv parsed.
    """
    problems = []
    missing = [name for name in ARTIFACTS if not (outdir / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"], None

    log_rho = None
    try:
        rows = _tsv_rows(outdir / "density.tsv", 6)
        if len(rows) != n:
            problems.append(f"density.tsv has {len(rows)} rows, expected {n}")
        log_rho = np.array([float(r[2]) for r in rows])
        err = np.array([float(r[3]) for r in rows])
        if not np.isfinite(log_rho).all():
            problems.append("density.tsv: non-finite log_rho")
        if not (np.isfinite(err).all() and (err > 0).all()):
            problems.append("density.tsv: err not finite and positive")

        k = summary["n_clusters"]
        labels = [int(r[1]) for r in _tsv_rows(outdir / "assignment.tsv", 10)]
        if len(labels) != n or min(labels) < 0 or max(labels) != k - 1:
            problems.append(f"assignment.tsv: labels do not cover 0..{k - 1} on {n} rows")
        topo = json.loads((outdir / "topography.json").read_text(encoding="utf-8"))
        if len(topo["clusters"]) != k:
            problems.append(f"topography.json lists {len(topo['clusters'])} clusters, "
                            f"the run reported {k}")
        newick = (outdir / "dendrogram.nwk").read_text(encoding="utf-8")
        if not newick.rstrip().endswith(";"):
            problems.append("dendrogram.nwk: no terminating ';'")
        dot = (outdir / "network.dot").read_text(encoding="utf-8").strip()
        if not (dot.startswith("graph") and dot.endswith("}")):
            problems.append("network.dot: not a graph block")
        config_lines = (outdir / "run_config.txt").read_text(encoding="utf-8").splitlines()
        if not config_lines or any(" = " not in line for line in config_lines):
            problems.append("run_config.txt: not key = value lines")
        for name in ("confusion.tsv", "purity.tsv"):
            for row in (outdir / name).read_text(encoding="utf-8").splitlines()[1:]:
                [float(v) for v in row.split("\t")]
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"artifact does not parse: {exc}")

    d_lo, d_hi = workload.d_hat_range
    if not d_lo <= summary["d_hat"] <= d_hi:
        problems.append(f"d_hat {summary['d_hat']} outside [{d_lo}, {d_hi}]")
    if workload.clusters is not None and summary["n_clusters"] != workload.clusters:
        problems.append(f"{summary['n_clusters']} clusters, expected {workload.clusters}")
    if workload.min_nmi is not None and not summary.get("nmi", -1.0) >= workload.min_nmi:
        problems.append(f"nmi {summary.get('nmi')} below {workload.min_nmi}")
    return problems, log_rho


def log_rho_rmse(log_rho: np.ndarray, log_rho_true: np.ndarray) -> float:
    """RMS of log_rho - log n - log rho_true; log_rho estimates n * rho."""
    resid = log_rho - math.log(log_rho.shape[0]) - log_rho_true
    return float(np.sqrt(np.mean(resid ** 2)))
