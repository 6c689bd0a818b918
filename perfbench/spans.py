"""Outside-in tracing of one ``run_pipeline`` call.

The tracer replaces the public names that ``densitopo.cli.run_pipeline``
and ``densitopo.clustering.cluster_points`` look up with wrappers that
record a span (name, start, end, parent span) around each call, and
counts ``PairwiseDistances.row`` calls.  Nothing in the program changes;
spans stay in memory until the run ends and are then written out whole.

``layer_metrics`` turns one run's spans and counters into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

# (module attribute, span name) for every call wrapped in densitopo.cli
CLI_SPANS = (
    ("read_points_tsv", "neighbors.read"),
    ("read_distance_matrix_tsv", "neighbors.read"),
    ("build_neighbor_graph", "neighbors.graph"),      # kNN from coordinates
    ("ingest_distance_matrix", "neighbors.graph"),    # kNN from a distance matrix
    ("twonn_estimate", "intrinsic_dim.twonn"),
    ("estimate_density", "density.estimate"),
    ("cluster_points", "clustering.total"),
    ("build_topography", "topography.total"),
    ("single_linkage", "topography.total"),
    ("mds_layout", "topography.total"),
    ("topography_to_json", "topography.total"),
    ("dendrogram_newick", "topography.total"),
    ("network_dot", "topography.total"),
    ("density_tsv_text", "cli.write"),
    ("assignment_tsv_text", "cli.write"),
    ("read_truth_tsv", "metrics.evaluate"),
    ("nmi", "metrics.evaluate"),
    ("confusion_matrix", "metrics.evaluate"),
    ("majority_labels", "metrics.evaluate"),
    ("purity", "metrics.evaluate"),
)

# calls wrapped in densitopo.clustering, all children of clustering.total
CLUSTERING_SPANS = (
    ("compute_delta_parent", "clustering.delta_parent"),
    ("detect_putative_centers", "clustering.centers"),
    ("assign_points", "clustering.assign"),
    ("find_borders_saddles", "clustering.saddles"),
    ("merge_clusters", "clustering.merge"),
    ("flag_halo", "clustering.halo"),
)

TIMED = ("neighbors.read", "neighbors.graph", "intrinsic_dim.twonn",
         "density.estimate", "clustering.total", "clustering.delta_parent",
         "clustering.centers", "clustering.assign", "clustering.saddles",
         "clustering.merge", "clustering.halo", "topography.total", "cli.write",
         "metrics.evaluate")


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span per call.

        ``observe(result)`` may return counters taken from the call's result.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if observe is not None:
                self.counts.update(observe(result))
            return result

        setattr(owner, attr, traced)

    def count_calls(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        self.counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _graph_counts(graph) -> dict:
    nbytes = graph.neighbor_ids.nbytes + graph.neighbor_dists.nbytes
    return {"neighbors.graph_mb": nbytes / 1e6}


def _density_counts(estimate) -> dict:
    k_hat = estimate.k_hat
    return {"density.fallback_frac": float(estimate.fallback.mean()),
            "density.k_hat_mean": float(k_hat.mean()),
            "density.k_hat_p99": float(np.percentile(k_hat, 99)),
            "density.shell_terms": int(k_hat.sum())}


def _cluster_counts(result) -> dict:
    return {"clustering.putative_centers": len(result.putative_centers),
            "clustering.merges": len(result.merge_log),
            "clustering.final_clusters": result.assignment.n_clusters,
            "clustering.halo_points": int(result.assignment.is_halo.sum())}


def _saddle_counts(saddles) -> dict:
    return {"clustering.saddle_pairs": len(saddles.entries)}


def install() -> Tracer:
    """Wrap the program's public names; returns the tracer collecting spans."""
    import pathlib

    import densitopo.cli as cli
    import densitopo.clustering as clustering
    import densitopo.neighbors as neighbors

    tracer = Tracer()
    observers = {"build_neighbor_graph": _graph_counts,
                 "ingest_distance_matrix": _graph_counts,
                 "estimate_density": _density_counts,
                 "cluster_points": _cluster_counts}
    for attr, name in CLI_SPANS:
        tracer.wrap(cli, attr, name, observers.get(attr))
    for attr, name in CLUSTERING_SPANS:
        tracer.wrap(clustering, attr, name,
                    _saddle_counts if attr == "find_borders_saddles" else None)
    # every artifact reaches disk through Path.write_text in run_pipeline
    tracer.wrap(pathlib.Path, "write_text", "cli.write")
    tracer.count_calls(neighbors.PairwiseDistances, "row", "neighbors.pairwise_rows")
    return tracer


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run.

    Returns span totals per layer (``<layer>_s``), the traced counters, the
    self time of every layer (its spans minus the spans they enclose), and
    ``top_s``, the summed duration of spans with no parent.
    """
    total = defaultdict(float)
    child = defaultdict(float)
    top = 0.0
    for span in trace["spans"]:
        dur = span["end"] - span["start"]
        total[span["name"]] += dur
        if span["parent"] is None:
            top += dur
        else:
            child[trace["spans"][span["parent"]]["name"]] += dur
    metrics = {f"{name}_s": total[name] for name in TIMED}
    metrics.update(trace["counts"])
    self_s = {name: total[name] - child[name] for name in TIMED}
    return {"metrics": metrics, "self_s": self_s, "top_s": top}
