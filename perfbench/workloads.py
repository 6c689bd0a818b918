"""Benchmark workloads: what each one feeds the program, and the truth to check against.

Every input is generated from the workload seed before any timed run and
written as the TSV files a user would hand to ``densitopo run``.  The
program receives only those files; the generator labels and the
generating density stay with the benchmark for the output checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GMM_K = 5
GMM_SEPARATION = 10.0


@dataclass(frozen=True)
class Workload:
    """One fixed input shape and flag set for ``densitopo.cli.run_pipeline``.

    Attributes:
        kind: generator, "gmm" (``synth_gmm``) or "uniform" (``synth_uniform``).
        fmt: how the program receives the input, "coords" or a full
            Euclidean distance "matrix".
        clusters: exact cluster count the run must report, or None.
        min_nmi: lowest acceptable NMI against the generator labels, or None.
            Uniform data has one population, so its truth file has one
            label and its NMI is 0 by convention; it is not checked.
        d_hat_range: accepted interval of the two-NN dimension estimate.
    """

    name: str
    kind: str
    n: int
    dim: int
    z: float
    fmt: str
    d_hat_range: tuple[float, float]
    clusters: int | None = None
    min_nmi: float | None = None


# Sizes keep one run of each workload at a few seconds on a 2-core machine,
# so that every run of the benchmark holds several pipeline runs.  Each
# workload loads a different stage most heavily (see perfbench/README.md).
WORKLOADS = {w.name: w for w in (
    Workload("gmm2d", "gmm", n=10000, dim=2, z=1.5, fmt="coords",
             d_hat_range=(1.75, 2.25), clusters=GMM_K, min_nmi=0.95),
    Workload("gmm20d", "gmm", n=1500, dim=20, z=1.0, fmt="coords",
             d_hat_range=(8.0, 24.0)),
    Workload("uniform2d", "uniform", n=6000, dim=2, z=1.0, fmt="coords",
             d_hat_range=(1.75, 2.25)),
    Workload("matrix2k", "gmm", n=2000, dim=2, z=1.5, fmt="matrix",
             d_hat_range=(1.75, 2.25)),
)}


@dataclass
class Inputs:
    """Files written for one workload and seed, plus the benchmark's truth."""

    input_path: Path
    truth_path: Path
    log_rho_true: np.ndarray

    @property
    def n(self) -> int:
        return self.log_rho_true.shape[0]


def _write_rows(rows, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(map(repr, row)))
            fh.write("\n")


def _gmm_log_density(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Log density of equal-weight unit-variance Gaussians at the label means."""
    dim = points.shape[1]
    means = np.stack([points[labels == c].mean(axis=0) for c in np.unique(labels)])
    sq = ((points[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    top = (-0.5 * sq).max(axis=1)
    lse = top + np.log(np.exp(-0.5 * sq - top[:, None]).sum(axis=1))
    return lse - math.log(means.shape[0]) - 0.5 * dim * math.log(2.0 * math.pi)


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Generate the workload's input files in ``directory`` and warm them.

    Uses the program's own generators, so the points are the ones
    ``densitopo synth`` would draw for the same seed.
    """
    from densitopo import synth

    directory.mkdir(parents=True, exist_ok=True)
    if workload.kind == "gmm":
        points, labels = synth.synth_gmm(k=GMM_K, n=workload.n, dim=workload.dim,
                                         separation=GMM_SEPARATION, seed=seed)
        log_rho_true = _gmm_log_density(points, labels)
    else:
        points = synth.synth_uniform(n=workload.n, dim=workload.dim, seed=seed)
        labels = np.zeros(workload.n, dtype=np.int64)
        log_rho_true = np.zeros(workload.n)  # unit hypercube: density 1
    # every workload passes --truth, so the evaluation stage always runs
    truth_path = directory / "truth.tsv"
    truth_path.write_text("".join(f"{i}\t{int(c)}\n" for i, c in enumerate(labels)),
                          encoding="utf-8")

    if workload.fmt == "matrix":
        from scipy.spatial.distance import cdist

        input_path = directory / "distances.tsv"
        _write_rows(cdist(points, points).tolist(), input_path)
    else:
        input_path = directory / "points.tsv"
        _write_rows(points.tolist(), input_path)

    for path in (input_path, truth_path):
        with open(path, "rb") as fh:  # pull the file into the page cache
            while fh.read(1 << 24):
                pass
    return Inputs(input_path=input_path, truth_path=truth_path,
                  log_rho_true=log_rho_true)
