"""Density topography of point clouds.

Adaptive k-nearest-neighbor density estimation with per-point error bars,
intrinsic dimension estimation, density-peak clustering with statistical
merging of non-significant peaks, and topography outputs (saddle matrix,
single-linkage dendrogram, cluster network, planar layout).
"""

from .clustering import (ClusterResult, PeakAssignment, SaddleInfo, SaddleTable,
                         cluster_points)
from .density import DensityEstimate, estimate_density
from .errors import (ConfigError, DataError, DegenerateDataError,
                     InternalInvariantError)
from .intrinsic_dim import IdEstimate, twonn_estimate
from .metrics import (LabeledPartition, confusion_matrix, majority_labels, nmi,
                      purity)
from .neighbors import (NeighborGraph, PairwiseDistances, PointSet,
                        build_neighbor_graph, ingest_distance_matrix)
from .synth import synth_gmm, synth_spirals, synth_uniform
from .topography import (ClusterSummary, Dendrogram, Topography, build_topography,
                         dendrogram_newick, mds_layout, network_dot,
                         single_linkage, topography_to_json)
from .tsv import (ingest_knn_file, read_distance_matrix_tsv, read_points_tsv,
                  write_points_tsv)

__version__ = "0.1.0"

__all__ = [
    "ClusterResult", "ClusterSummary", "ConfigError",
    "DataError", "DegenerateDataError", "Dendrogram",
    "DensityEstimate", "IdEstimate", "InternalInvariantError",
    "LabeledPartition", "NeighborGraph", "PairwiseDistances", "PeakAssignment",
    "PointSet", "SaddleInfo", "SaddleTable", "Topography",
    "build_neighbor_graph", "build_topography", "cluster_points",
    "confusion_matrix", "dendrogram_newick", "estimate_density",
    "ingest_distance_matrix", "ingest_knn_file", "majority_labels", "mds_layout",
    "network_dot", "nmi", "purity",
    "read_distance_matrix_tsv", "read_points_tsv",
    "single_linkage", "synth_gmm", "synth_spirals", "synth_uniform",
    "topography_to_json", "twonn_estimate", "write_points_tsv",
]
