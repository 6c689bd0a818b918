"""Command-line interface: staged subcommands plus a fused pipeline runner.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
invariant violation.  Options may come from a flat ``key = value`` config
file; explicit flags win over the file, the file wins over defaults.
Identical inputs and settings produce byte-identical outputs.  Files are
published only when every stage succeeds: a failed command leaves the
outputs of an earlier one untouched.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import synth
from .clustering import PeakAssignment, SaddleTable, _check_z, cluster_points
from .density import DensityEstimate, estimate_density
from .errors import (EXIT_CONFIG, EXIT_DATA, EXIT_INTERNAL, EXIT_OK, ConfigError,
                     DataError, InternalInvariantError)
from .intrinsic_dim import twonn_estimate
from .metrics import (LabeledPartition, confusion_matrix, majority_labels, nmi,
                      purity)
from .neighbors import (_METRICS, NeighborGraph, PairwiseDistances, build_neighbor_graph,
                        ingest_distance_matrix)
from .topography import (build_topography, dendrogram_newick, mds_layout,
                         network_dot, single_linkage, topography_to_json)
from .tsv import (PURITY, TRUTH, assignment_tsv_text, confusion_spec, density_tsv_text,
                  ingest_knn_file, read_assignment_tsv, read_density_tsv,
                  read_distance_matrix_tsv, read_points_tsv, read_saddles_tsv,
                  read_truth_tsv, saddles_tsv_text, table_text, write_points_tsv)

_FORMATS = ("coords", "matrix", "knn")


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# configuration

# one entry per RunConfig field: the config file keys and their types
_CONFIG_CASTS = {
    "input": str, "outdir": str, "format": str, "metric": str,
    "k_max": int, "z": float, "d": float, "truth": str,
}


@dataclass
class RunConfig:
    """Settings of the fused run and of every pipeline subcommand."""

    input: str | None = None
    outdir: str | None = None
    format: str = "coords"
    metric: str = "euclidean"
    k_max: int | None = None
    z: float = 1.0
    d: float | None = None
    truth: str | None = None

    def echo_text(self) -> str:
        """The set fields as sorted ``key = value`` lines a config file accepts."""
        lines = []
        for key, value in sorted(vars(self).items()):
            if value is None:
                continue
            if _CONFIG_CASTS[key] is float:
                value = _fmt(value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


def read_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` config file with '#' comments."""
    out = {}
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: byte {exc.start + 1} is not "
                                  f"UTF-8 text") from None
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_CASTS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = _CONFIG_CASTS[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return out


def _settings(args: argparse.Namespace) -> RunConfig:
    """Resolve every setting once: the flag, else the config file, else the default."""
    values = read_config_file(args.config) if args.config else {}
    values.update((key, value) for key, value in vars(args).items()
                  if key in _CONFIG_CASTS and value is not None)
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# shared stage helpers

def _load_graph(cfg: RunConfig, need_pairwise: bool):
    """Ingest cfg.input per cfg.format; return (graph, pairwise), pairwise None for knn.

    A kNN file holds its own neighbor count; cfg.k_max, when set, keeps that
    many of its columns and may not exceed it.
    """
    if cfg.format not in _FORMATS:
        raise ConfigError(f"format must be one of {_FORMATS}, got {cfg.format!r}")
    if cfg.input is None:
        raise ConfigError("--input is required")
    if cfg.metric not in _METRICS:
        raise ConfigError(f"metric must be one of {_METRICS}, got {cfg.metric!r}")

    if cfg.format == "coords":
        points = read_points_tsv(cfg.input)
        graph = build_neighbor_graph(points, k_max=cfg.k_max, metric=cfg.metric)
        return graph, PairwiseDistances(coords=points.coords, metric=cfg.metric)
    if cfg.format == "matrix":
        matrix = read_distance_matrix_tsv(cfg.input)
        try:
            graph = ingest_distance_matrix(matrix, k_max=cfg.k_max)
        except DataError as exc:
            raise DataError(f"{cfg.input}: {exc}") from None
        return graph, PairwiseDistances(matrix=matrix)
    if need_pairwise:
        raise ConfigError(
            "this stage needs exact distances between arbitrary points; "
            "a kNN file cannot provide them, pass coordinates or a distance matrix")
    graph = ingest_knn_file(cfg.input)
    if cfg.k_max is None:
        return graph, None
    if not 1 <= cfg.k_max <= graph.k_max:
        raise ConfigError(f"k_max must be in [1, {graph.k_max}]: {cfg.input} holds "
                          f"{graph.k_max} neighbors per point, got {cfg.k_max}")
    return NeighborGraph(graph.neighbor_ids[:, :cfg.k_max],
                         graph.neighbor_dists[:, :cfg.k_max]), None


def _dimension(cfg: RunConfig, graph: NeighborGraph) -> float:
    """cfg.d when set, else the two-NN estimate; estimate_density validates it."""
    if cfg.d is not None:
        return float(cfg.d)
    return twonn_estimate(graph).d_hat


def write_topography(outdir: Path, assignment: PeakAssignment, saddles: SaddleTable,
                     estimate: DensityEstimate):
    """Write topography.json, dendrogram.nwk and network.dot; return the layout."""
    topo = build_topography(assignment, saddles, estimate)
    dendro = single_linkage(topo)
    layout = mds_layout(topo)
    (outdir / "topography.json").write_text(
        topography_to_json(topo, dendro, layout) + "\n", encoding="utf-8")
    (outdir / "dendrogram.nwk").write_text(dendrogram_newick(dendro) + "\n",
                                           encoding="utf-8")
    (outdir / "network.dot").write_text(network_dot(topo, layout), encoding="utf-8")
    return layout


def _evaluate(outdir: Path, assignment: PeakAssignment, truth_path: str,
              exclude_halo: bool) -> float:
    """Write confusion.tsv and purity.tsv against the truth file; return the NMI."""
    n = assignment.labels.shape[0]
    truth = read_truth_tsv(truth_path, n)
    include = ~assignment.is_halo if exclude_halo else np.ones(n, dtype=bool)
    if not include.any():
        raise DataError("every point is halo; nothing to evaluate")
    part = LabeledPartition(predicted=assignment.labels, truth=truth, include=include)
    score = nmi(part)
    matrix, labels = confusion_matrix(part)
    (outdir / "confusion.tsv").write_text(
        table_text(confusion_spec(labels), [labels, *matrix.T]), encoding="utf-8")
    major, pure = majority_labels(part), purity(part)
    clusters, population = np.unique(part.active()[0], return_counts=True)
    (outdir / "purity.tsv").write_text(table_text(PURITY, [
        clusters, [major[c] for c in clusters.tolist()],
        [pure[c] for c in clusters.tolist()], population]), encoding="utf-8")
    return score


@contextlib.contextmanager
def _staged(outdir: str | Path | None):
    """Yield a scratch directory whose files are moved into outdir on success.

    The scratch directory sits inside outdir, so each move is an atomic
    rename.  It is removed either way, so a failure publishes nothing and
    leaves the files already in outdir as they were.  A path the operating
    system refuses (a regular file where a directory must be, no permission)
    is a ConfigError naming that path.
    """
    if outdir is None:
        raise ConfigError("--outdir is required")
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix=".partial-", dir=outdir))
    except FileExistsError:
        raise ConfigError(f"cannot write into {outdir}: not a directory") from None
    except OSError as exc:
        raise ConfigError(f"cannot write into {outdir}: {exc.strerror}") from None
    try:
        yield scratch
        for path in sorted(scratch.iterdir()):
            target = outdir / path.name
            try:
                os.replace(path, target)
            except OSError as exc:
                raise ConfigError(f"cannot write {target}: {exc.strerror}") from None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


@contextlib.contextmanager
def _staged_files(*outs: str | None):
    """Yield, per output file, a scratch path published on success (None: stdout).

    Every file's directory is opened through :func:`_staged` on entry, so a
    path the operating system refuses fails before the stage in the block
    runs, and no file appears unless the whole block succeeds.
    """
    with contextlib.ExitStack() as stack:
        yield [None if out is None
               else stack.enter_context(_staged(Path(out).parent)) / Path(out).name
               for out in outs]


def _emit(text: str, path: Path | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# fused pipeline

def run_pipeline(config: RunConfig) -> dict:
    """Run ingest, dimension, density, clustering, and topography stages.

    Writes density.tsv, assignment.tsv, topography.json, dendrogram.nwk,
    and network.dot (plus run_config.txt and, with a truth file,
    confusion.tsv and purity.tsv) into the output directory, prints a one
    line summary, and returns the summary values.  The files appear only
    when every stage succeeds; on failure the error names the failing
    stage and the output directory keeps what it held before.
    """
    _check_z(config.z)
    with _staged(config.outdir) as out:
        stage = "ingest"
        try:
            graph, pairwise = _load_graph(config, need_pairwise=True)

            stage = "intrinsic-dim"
            d_hat = _dimension(config, graph)

            stage = "density"
            estimate = estimate_density(graph, d_hat)
            (out / "density.tsv").write_text(density_tsv_text(estimate), encoding="utf-8")

            stage = "cluster"
            result = cluster_points(graph, estimate, pairwise, config.z)
            assignment = result.assignment
            (out / "assignment.tsv").write_text(assignment_tsv_text(assignment, estimate),
                                                encoding="utf-8")

            stage = "topography"
            write_topography(out, assignment, result.saddles, estimate)

            summary = {
                "n": graph.n_points, "d_hat": d_hat, "n_clusters": assignment.n_clusters,
                "n_halo": int(assignment.is_halo.sum()),
            }
            if config.truth is not None:
                stage = "evaluate"
                summary["nmi"] = _evaluate(out, assignment, config.truth,
                                           exclude_halo=True)

            (out / "run_config.txt").write_text(config.echo_text(), encoding="utf-8")
        except (ConfigError, DataError, InternalInvariantError) as exc:
            raise type(exc)(f"stage {stage}: {exc}") from None

    line = (f"n={summary['n']} d_hat={_fmt(summary['d_hat'])} "
            f"n_clusters={summary['n_clusters']} n_halo={summary['n_halo']}")
    if "nmi" in summary:
        line += f" nmi={_fmt(summary['nmi'])}"
    print(line)
    return summary


# ---------------------------------------------------------------------------
# subcommands

def _cmd_estimate_id(args) -> int:
    cfg = _settings(args)
    graph, _ = _load_graph(cfg, need_pairwise=False)
    est = twonn_estimate(graph)
    print(f"{_fmt(est.d_hat)}\t{est.n_used}")
    return EXIT_OK


def _cmd_density(args) -> int:
    cfg = _settings(args)
    with _staged_files(args.out) as (out,):
        graph, _ = _load_graph(cfg, need_pairwise=False)
        estimate = estimate_density(graph, _dimension(cfg, graph))
        _emit(density_tsv_text(estimate), out)
    return EXIT_OK


def _cmd_cluster(args) -> int:
    cfg = _settings(args)
    with _staged_files(args.out, args.saddles_out) as (out, saddles_out):
        graph, pairwise = _load_graph(cfg, need_pairwise=True)
        estimate = read_density_tsv(args.density, graph.k_max)
        if estimate.n_points != graph.n_points:
            raise DataError(f"{args.density}: density file covers {estimate.n_points} "
                            f"points but the input has {graph.n_points}")
        result = cluster_points(graph, estimate, pairwise, cfg.z)
        _emit(assignment_tsv_text(result.assignment, estimate), out)
        if args.saddles_out is not None:
            _emit(saddles_tsv_text(result.saddles), saddles_out)
    return EXIT_OK


def _cmd_topography(args) -> int:
    with _staged(args.outdir) as out:
        assignment, estimate = read_assignment_tsv(args.assignment)
        saddles = read_saddles_tsv(args.saddles, assignment.n_clusters, estimate.n_points)
        layout = write_topography(out, assignment, saddles, estimate)
    if layout is None:
        print("layout skipped: fewer than two clusters")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    assignment, _ = read_assignment_tsv(args.assignment)
    with _staged(args.outdir) as out:
        score = _evaluate(out, assignment, args.truth, args.exclude_halo)
    print(f"nmi={_fmt(score)}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.kind == "gmm":
        points, labels = synth.synth_gmm(k=args.k, n=args.n, dim=args.dim,
                                         separation=args.separation, seed=args.seed)
    elif args.kind == "spirals":
        points, labels = synth.synth_spirals(n=args.n, noise=args.noise,
                                             seed=args.seed)
    elif args.truth_out is not None:
        raise ConfigError("uniform data has no reference labels")
    else:
        points, labels = synth.synth_uniform(n=args.n, dim=args.dim,
                                             seed=args.seed), None
    with _staged_files(args.out, args.truth_out) as (out, truth_out):
        write_points_tsv(points, out)
        if args.truth_out is not None:
            _emit(table_text(TRUTH, [np.arange(len(labels)), labels]), truth_out)
    return EXIT_OK


def _cmd_run(args) -> int:
    run_pipeline(_settings(args))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_common(p: argparse.ArgumentParser, formats=_FORMATS) -> None:
    p.add_argument("--input", help="input data file (TSV)")
    p.add_argument("--format", choices=list(formats), default=None,
                   help="input layout (default coords)")
    p.add_argument("--metric", choices=list(_METRICS), default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None,
                   help="neighbors per point (default min(n-1, 512))")
    p.add_argument("--config", default=None,
                   help="flat key = value config file; flags win over it")


def _add_dimension_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=float, default=None,
                   help="intrinsic dimension override (default: estimate)")


def _add_cluster_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--z", type=float, default=None,
                   help="merge significance threshold (default 1.0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densitopo",
        description="Density topography of point clouds: adaptive density "
                    "estimates, density-peak clustering, saddle analysis.")
    # no abbreviated flags: cluster --d would pass as --density
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("estimate-id", help="estimate the intrinsic dimension")
    _add_common(p)
    p.set_defaults(handler=_cmd_estimate_id)

    p = sub.add_parser("density", help="adaptive density estimate per point")
    _add_common(p)
    _add_dimension_opt(p)
    p.add_argument("--out", default=None, help="density TSV (default stdout)")
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("cluster", help="density-peak clustering of a density TSV")
    _add_common(p, formats=("coords", "matrix"))
    _add_cluster_opt(p)
    p.add_argument("--density", required=True, help="density TSV written by density")
    p.add_argument("--out", default=None, help="assignment TSV (default stdout)")
    p.add_argument("--saddles-out", dest="saddles_out", default=None,
                   help="also write the saddle table TSV")
    p.set_defaults(handler=_cmd_cluster)

    p = sub.add_parser("topography", help="saddle matrix, dendrogram, network")
    p.add_argument("--assignment", required=True, help="assignment TSV written by cluster")
    p.add_argument("--saddles", required=True, help="saddle TSV written by cluster")
    p.add_argument("--outdir", required=True)
    p.set_defaults(handler=_cmd_topography)

    p = sub.add_parser("evaluate", help="compare an assignment against truth labels")
    p.add_argument("--assignment", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--exclude-halo", dest="exclude_halo", action="store_true")
    p.add_argument("--outdir", default=".")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("synth", help="generate synthetic datasets")
    p.add_argument("kind", choices=["gmm", "spirals", "uniform"])
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--separation", type=float, default=6.0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", dest="truth_out", default=None)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("run", help="fused pipeline into an output directory")
    _add_common(p, formats=("coords", "matrix"))
    _add_dimension_opt(p)
    _add_cluster_opt(p)
    p.add_argument("--truth", default=None)
    p.add_argument("--outdir", default=None)
    p.set_defaults(handler=_cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
