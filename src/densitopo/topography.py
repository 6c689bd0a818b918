"""Cluster topography: peak heights, saddle matrix, dendrogram, network, layout.

Summarizes a merged clustering as a small weighted graph whose nodes are
clusters (peak density, population) and whose edges carry saddle
densities, plus derived artifacts: a single-linkage dendrogram over the
peak-to-saddle drop distances, a DOT rendering of the network, and a
classical 2-D scaling layout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .clustering import PeakAssignment, SaddleTable
from .density import DensityEstimate

_PENWIDTH_LO, _PENWIDTH_HI = 0.5, 5.0


@dataclass(frozen=True)
class ClusterSummary:
    label: int
    center: int
    peak_log_rho: float
    peak_err: float
    population: int


@dataclass
class Topography:
    """Peak and saddle structure of a clustering.

    saddle_matrix holds peak log densities on the diagonal and saddle log
    densities off it (NaN marks non-contacting pairs); cluster_dist is the
    drop distance max(peak_a, peak_b) - saddle (inf for no contact).
    """

    clusters: list[ClusterSummary]
    saddle_matrix: np.ndarray
    cluster_dist: np.ndarray
    saddles: SaddleTable

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


@dataclass
class Dendrogram:
    """Single-linkage merge tree over clusters.

    Leaves are cluster labels 0..K-1; internal node t (id K+t) joins two
    prior nodes at merge_heights[t].  sentinel_height is the artificial
    height joining disconnected parts, None when everything is connected.
    """

    n_leaves: int
    children: list[tuple[int, int]]
    merge_heights: list[float]
    is_sentinel: list[bool]
    sentinel_height: float | None
    leaf_order: list[int]
    leaf_x: list[float]
    leaf_width: list[float]
    branch_height: list[float]


def build_topography(assignment: PeakAssignment, saddles: SaddleTable,
                     estimate: DensityEstimate) -> Topography:
    """Collect per-cluster peaks, populations, and pairwise drop distances."""
    k = assignment.n_clusters
    clusters = []
    for label, center in enumerate(assignment.centers):
        clusters.append(ClusterSummary(
            label=label, center=int(center),
            peak_log_rho=float(estimate.log_rho[center]),
            peak_err=float(estimate.err[center]),
            population=int((assignment.labels == label).sum())))

    peaks = np.array([c.peak_log_rho for c in clusters])
    sm = np.full((k, k), np.nan)
    np.fill_diagonal(sm, peaks)
    dist = np.full((k, k), np.inf)
    np.fill_diagonal(dist, 0.0)
    for (a, b), info in saddles.entries.items():
        sm[a, b] = sm[b, a] = info.log_rho
        dist[a, b] = dist[b, a] = max(peaks[a], peaks[b]) - info.log_rho
    return Topography(clusters=clusters, saddle_matrix=sm, cluster_dist=dist,
                      saddles=saddles)


def _closed_distances(topography: Topography) -> tuple[np.ndarray, float | None]:
    """Drop distances with no-contact pairs at the sentinel height, and that sentinel."""
    dist = topography.cluster_dist.copy()
    off = dist[~np.eye(dist.shape[0], dtype=bool)]
    if not np.isinf(off).any():
        return dist, None
    finite = off[np.isfinite(off)]
    if finite.size == 0 or finite.max() <= 0.0:
        sentinel = 1.0
    else:
        sentinel = 1.05 * float(finite.max())
    dist[np.isinf(dist)] = sentinel
    return dist, sentinel


def single_linkage(topography: Topography) -> Dendrogram:
    """Single-linkage dendrogram of the drop-distance matrix.

    Disconnected components join last at a sentinel height of 1.05 times
    the largest finite height so consumers can tell real merges apart.
    """
    k = topography.n_clusters
    pops = [c.population for c in topography.clusters]
    heights_of_leaf = [c.peak_log_rho for c in topography.clusters]
    if k == 1:
        return Dendrogram(n_leaves=1, children=[], merge_heights=[],
                          is_sentinel=[], sentinel_height=None, leaf_order=[0],
                          leaf_x=[0.5], leaf_width=[1.0],
                          branch_height=heights_of_leaf)

    dist, sentinel = _closed_distances(topography)
    children, merge_heights = _mst_single_linkage(dist)
    is_sentinel = [sentinel is not None and h == sentinel for h in merge_heights]

    ordered = _ordered_children(k, children)
    leaf_order: list[int] = []
    stack = [2 * k - 2]
    while stack:
        node = stack.pop()
        if node < k:
            leaf_order.append(node)
            continue
        first, second = ordered[node - k]
        stack.append(second)
        stack.append(first)

    total = float(sum(pops))
    widths = [pops[leaf] / total for leaf in leaf_order]
    xs, cursor = [], 0.0
    for w in widths:
        xs.append(cursor + w / 2.0)
        cursor += w
    # report per leaf label, not per drawing position
    leaf_x = [0.0] * k
    leaf_width = [0.0] * k
    for pos, leaf in enumerate(leaf_order):
        leaf_x[leaf] = xs[pos]
        leaf_width[leaf] = widths[pos]
    return Dendrogram(n_leaves=k, children=children, merge_heights=merge_heights,
                      is_sentinel=is_sentinel, sentinel_height=sentinel,
                      leaf_order=leaf_order, leaf_x=leaf_x, leaf_width=leaf_width,
                      branch_height=heights_of_leaf)


def _mst_single_linkage(dist: np.ndarray) -> tuple[list[tuple[int, int]], list[float]]:
    """Merges and heights of single linkage, as scipy's ``mst_single_linkage``.

    Prim's algorithm grows a minimum spanning tree from leaf 0, taking the
    first of equally near leaves; a stable sort orders its edges by height;
    a union-find then names each merge by its two roots, the smaller first,
    and the root of merge t is node K + t.
    """
    k = dist.shape[0]
    merged = np.zeros(k, dtype=bool)
    nearest = np.full(k, np.inf)
    edges, x = [], 0
    for _ in range(k - 1):
        merged[x] = True
        closer = (dist[x] < nearest) & ~merged
        nearest[closer] = dist[x][closer]
        y = int(np.argmin(np.where(merged, np.inf, nearest)))
        edges.append((x, y, float(nearest[y])))
        x = y
    edges.sort(key=lambda edge: edge[2])
    parent = list(range(2 * k - 1))

    def find(node: int) -> int:
        while parent[node] != node:
            node = parent[node]
        return node

    children = []
    for t, (a, b, _) in enumerate(edges):
        a, b = sorted((find(a), find(b)))
        parent[a] = parent[b] = k + t
        children.append((a, b))
    return children, [h for _, _, h in edges]


def _ordered_children(k: int, children: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Each merge's two children, the one holding the smaller leaf first.

    Both the drawing's depth-first leaf order and the Newick text visit
    children in this order, so each is deterministic and they agree.
    """
    min_leaf = list(range(k))
    ordered = []
    for a, b in children:
        if min_leaf[b] < min_leaf[a]:
            a, b = b, a
        ordered.append((a, b))
        min_leaf.append(min_leaf[a])
    return ordered


def dendrogram_newick(dendrogram: Dendrogram) -> str:
    """Newick text of the merge tree.

    Edge lengths are height differences between a node and its parent
    (leaves sit at height zero), so cumulative depth from the root
    recovers every merge height.
    """
    k = dendrogram.n_leaves
    ordered = _ordered_children(k, dendrogram.children)

    def render(node: int, parent_h: float | None) -> str:
        # the root has no parent and so no edge length
        if node < k:
            text, h = str(node), 0.0
        else:
            a, b = ordered[node - k]
            h = dendrogram.merge_heights[node - k]
            text = f"({render(a, h)},{render(b, h)})"
        return text if parent_h is None else f"{text}:{parent_h - h!r}"

    return render(2 * k - 2, None) + ";"


def network_dot(topography: Topography, layout: np.ndarray | None = None) -> str:
    """Graphviz DOT rendering of the cluster network.

    Node width scales with the square root of population; edge penwidth
    scales linearly from 0.5 to 5.0 over the saddle density range.
    """
    max_pop = max(c.population for c in topography.clusters)
    lines = ["graph topography {", "  node [shape=circle style=filled fillcolor=lightgray];"]
    for c in topography.clusters:
        width = 2.0 * math.sqrt(c.population / max_pop)
        attrs = [f"width={round(width, 4)!r}", "fixedsize=true",
                 f"population={c.population}", f"peak_log_rho=\"{c.peak_log_rho!r}\""]
        if layout is not None:
            x, y = layout[c.label]
            attrs.append(f"pos=\"{float(x)!r},{float(y)!r}!\"")
        lines.append(f"  {c.label} [{' '.join(attrs)}];")
    entries = sorted(topography.saddles.entries.items())
    weights = [info.log_rho for _, info in entries]
    lo, span = (min(weights), max(weights) - min(weights)) if weights else (0.0, 0.0)
    for (a, b), info in entries:
        width = (_PENWIDTH_LO + (_PENWIDTH_HI - _PENWIDTH_LO) * (info.log_rho - lo) / span
                 if span > 0.0 else _PENWIDTH_HI)
        lines.append(f"  {a} -- {b} [penwidth={round(width, 4)!r} "
                     f"saddle_log_rho=\"{info.log_rho!r}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def mds_layout(topography: Topography) -> np.ndarray | None:
    """Classical 2-D scaling of the drop-distance matrix.

    Non-contacting pairs are placed at the sentinel distance.  Signs are
    fixed so cluster 0 has a non-negative first coordinate and cluster 1 a
    non-negative second coordinate, making the layout deterministic.
    Returns None for fewer than two clusters.
    """
    k = topography.n_clusters
    if k < 2:
        return None
    dist, _ = _closed_distances(topography)
    d2 = dist ** 2
    centering = np.eye(k) - np.full((k, k), 1.0 / k)
    b = -0.5 * centering @ d2 @ centering
    vals, vecs = np.linalg.eigh(b)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    coords = np.zeros((k, 2))
    for axis in range(2):
        if vals[axis] > 0.0:
            coords[:, axis] = vecs[:, axis] * math.sqrt(vals[axis])
    if coords[0, 0] < 0.0:
        coords[:, 0] = -coords[:, 0]
    if coords[1, 1] < 0.0:
        coords[:, 1] = -coords[:, 1]
    return coords


def _json_safe(x: float) -> float | None:
    return None if not math.isfinite(x) else x


def topography_to_json(topography: Topography,
                       dendrogram: Dendrogram | None = None,
                       layout: np.ndarray | None = None) -> str:
    """Serialize the topography (plus optional dendrogram/layout) as JSON.

    Non-contacting distances appear as null; floats use shortest
    round-trip formatting so parsing reproduces them bit-exactly.
    """
    doc = {
        "clusters": [{
            "id": c.label, "center": c.center,
            "peak_log_rho": c.peak_log_rho, "peak_err": c.peak_err,
            "population": c.population,
        } for c in topography.clusters],
        "saddles": [{
            "a": a, "b": b, "log_rho": info.log_rho, "err": info.err,
            "border_point": info.border_point,
        } for (a, b), info in sorted(topography.saddles.entries.items())],
        "distances": [[_json_safe(float(v)) for v in row]
                      for row in topography.cluster_dist],
    }
    if dendrogram is not None:
        doc["dendrogram"] = {
            "n_leaves": dendrogram.n_leaves,
            "children": [list(c) for c in dendrogram.children],
            "merge_heights": dendrogram.merge_heights,
            "is_sentinel": dendrogram.is_sentinel,
            "sentinel_height": dendrogram.sentinel_height,
            "leaf_order": dendrogram.leaf_order,
            "leaf_x": dendrogram.leaf_x,
            "leaf_width": dendrogram.leaf_width,
            "branch_height": dendrogram.branch_height,
        }
    if layout is not None:
        doc["mds"] = [[float(x), float(y)] for x, y in layout]
    return json.dumps(doc, indent=2)
