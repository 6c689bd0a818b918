"""Recover the two arms of a noisy double spiral and print the topography.

Example:
    python scripts/two_spirals_topography.py --n 10000 --z 3.0 --outdir /tmp/spirals
"""

import argparse
import time
from pathlib import Path

from densitopo import (LabeledPartition, PairwiseDistances, PointSet,
                       build_neighbor_graph, cluster_points, estimate_density, nmi,
                       purity, synth_spirals, twonn_estimate)
from densitopo.cli import write_topography


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10000)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--z", type=float, default=3.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default=None, help="write topography files here")
    args = ap.parse_args()

    t0 = time.perf_counter()
    points, truth = synth_spirals(n=args.n, noise=args.noise, seed=args.seed)
    graph = build_neighbor_graph(PointSet(points))
    d_hat = twonn_estimate(graph).d_hat
    estimate = estimate_density(graph, d_hat)
    result = cluster_points(graph, estimate, PairwiseDistances(coords=points), z=args.z)
    elapsed = time.perf_counter() - t0

    assignment = result.assignment
    part = LabeledPartition(predicted=assignment.labels, truth=truth)
    worst = min(purity(part).values())
    print(f"n={args.n} d_hat={d_hat:.3f} putative={len(result.putative_centers)} "
          f"clusters={assignment.n_clusters} min_purity={worst:.4f} "
          f"nmi={nmi(part):.4f} halo={int(assignment.is_halo.sum())} "
          f"elapsed={elapsed:.1f}s")

    if args.outdir is not None:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_topography(outdir, assignment, result.saddles, estimate)
        print(f"wrote topography files to {outdir}")


if __name__ == "__main__":
    main()
