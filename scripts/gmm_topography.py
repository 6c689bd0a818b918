"""Sweep the merge threshold z on a Gaussian mixture and report cluster counts.

The number of surviving clusters shrinks monotonically as z grows; at z=0
no merges fire and the putative peak count is reported unchanged.

Example:
    python scripts/gmm_topography.py --k 5 --n 20000 --separation 10
"""

import argparse
import time

from densitopo import (LabeledPartition, PairwiseDistances, PointSet,
                       build_neighbor_graph, cluster_points, estimate_density, nmi,
                       synth_gmm, twonn_estimate)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--n", type=int, default=20000)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--separation", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--z-grid", type=float, nargs="+",
                    default=[0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
    args = ap.parse_args()

    t0 = time.perf_counter()
    points, truth = synth_gmm(k=args.k, n=args.n, dim=args.dim,
                              separation=args.separation, seed=args.seed)
    graph = build_neighbor_graph(PointSet(points))
    d_hat = twonn_estimate(graph).d_hat
    estimate = estimate_density(graph, d_hat)
    pairwise = PairwiseDistances(coords=points)
    print(f"n={args.n} k={args.k} d_hat={d_hat:.3f} "
          f"setup={time.perf_counter() - t0:.1f}s")

    for z in args.z_grid:
        result = cluster_points(graph, estimate, pairwise, z=z)
        assignment = result.assignment
        part = LabeledPartition(predicted=assignment.labels, truth=truth)
        print(f"z={z:<4} putative={len(result.putative_centers):<3} "
              f"clusters={assignment.n_clusters:<3} nmi={nmi(part):.4f} "
              f"halo={int(assignment.is_halo.sum())}")


if __name__ == "__main__":
    main()
