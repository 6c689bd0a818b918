"""Density topography of point clouds.

Adaptive k-nearest-neighbor density estimation with per-point error bars,
intrinsic dimension estimation, density-peak clustering with statistical
merging of non-significant peaks, and topography outputs (saddle matrix,
single-linkage dendrogram, cluster network, planar layout).
"""

from .clustering import (ClusterConfig, ClusterResult, PeakAssignment, SaddleInfo,
                         SaddleTable, assign_points, cluster_points,
                         compute_delta_parent, compute_g, detect_putative_centers,
                         find_borders_saddles, flag_halo, merge_clusters)
from .density import (DensityConfig, DensityEstimate, estimate_density, knn_mle,
                      log_density_error, unit_ball_volume)
from .errors import (ConfigError, DataError, DegenerateDataError,
                     InternalInvariantError)
from .intrinsic_dim import IdEstimate, twonn_estimate
from .metrics import (LabeledPartition, confusion_matrix, majority_labels, nmi,
                      purity)
from .neighbors import (NeighborGraph, PairwiseDistances, PointSet,
                        build_neighbor_graph,
                        ingest_distance_matrix, ingest_knn_file,
                        read_distance_matrix_tsv, read_points_tsv,
                        write_points_tsv)
from .synth import synth_gmm, synth_spirals, synth_uniform
from .topography import (ClusterSummary, Dendrogram, Topography, build_topography,
                         dendrogram_newick, mds_layout, network_dot,
                         network_export, single_linkage, topography_from_json,
                         topography_to_json)

__version__ = "0.1.0"

__all__ = [
    "ClusterConfig", "ClusterResult", "ClusterSummary", "ConfigError",
    "DataError", "DegenerateDataError", "Dendrogram", "DensityConfig",
    "DensityEstimate", "IdEstimate", "InternalInvariantError",
    "LabeledPartition", "NeighborGraph", "PairwiseDistances", "PeakAssignment",
    "PointSet", "SaddleInfo", "SaddleTable", "Topography",
    "assign_points", "build_neighbor_graph", "build_topography", "cluster_points",
    "compute_delta_parent", "compute_g", "confusion_matrix",
    "dendrogram_newick", "detect_putative_centers",
    "estimate_density", "find_borders_saddles",
    "flag_halo",
    "ingest_distance_matrix", "ingest_knn_file", "knn_mle",
    "log_density_error", "majority_labels", "mds_layout",
    "merge_clusters", "network_dot", "network_export", "nmi", "purity",
    "read_distance_matrix_tsv", "read_points_tsv",
    "single_linkage", "synth_gmm", "synth_spirals", "synth_uniform",
    "topography_from_json", "topography_to_json", "twonn_estimate",
    "unit_ball_volume", "write_points_tsv",
]
