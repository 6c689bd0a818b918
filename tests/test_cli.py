"""End-to-end tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from densitopo import (
    PointSet,
    build_neighbor_graph,
    synth_gmm,
    write_points_tsv,
)
from densitopo import _blocks, cli, tsv
from densitopo.cli import main, read_config_file
from oracles import export_knn_file

PIPELINE_FILES = ("density.tsv", "assignment.tsv", "topography.json",
                  "dendrogram.nwk", "network.dot")


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small three-blob sample with a truth file, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli_data")
    points, labels = synth_gmm(k=3, n=400, dim=2, separation=8.0, seed=1)
    pts_path = root / "points.tsv"
    write_points_tsv(points, pts_path)
    truth_path = root / "truth.tsv"
    truth_path.write_text(
        "".join(f"{i}\t{int(l)}\n" for i, l in enumerate(labels)),
        encoding="utf-8")
    return {"points": pts_path, "truth": truth_path, "labels": labels,
            "coords": points}


def _run(argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# fused pipeline


def test_run_writes_all_outputs_and_summary(dataset, tmp_path, capsys):
    outdir = tmp_path / "out"
    code = _run(["run", "--input", dataset["points"], "--outdir", outdir,
                 "--k-max", "32", "--z", "1.5"])
    assert code == 0
    for name in PIPELINE_FILES + ("run_config.txt",):
        assert (outdir / name).is_file(), name
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("n=400 d_hat=")
    assert "n_clusters=" in line and "n_halo=" in line
    assert "nmi=" not in line


def test_run_repeats_are_byte_identical(dataset, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for outdir in (out_a, out_b):
        assert _run(["run", "--input", dataset["points"], "--outdir", outdir,
                     "--k-max", "32", "--z", "1.5"]) == 0
    for name in PIPELINE_FILES:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_run_with_truth_evaluates(dataset, tmp_path, capsys):
    outdir = tmp_path / "out"
    code = _run(["run", "--input", dataset["points"], "--outdir", outdir,
                 "--k-max", "32", "--z", "1.5", "--truth", dataset["truth"]])
    assert code == 0
    assert (outdir / "confusion.tsv").is_file()
    assert (outdir / "purity.tsv").is_file()
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert "nmi=" in line
    assert float(line.rsplit("nmi=", 1)[1]) > 0.9


def test_run_cleans_partial_outputs_on_failure(dataset, tmp_path, capsys):
    bad_truth = tmp_path / "bad_truth.tsv"
    # valid shape, but labels one point beyond the input range
    bad_truth.write_text("9999\t0\n", encoding="utf-8")
    outdir = tmp_path / "out"
    code = _run(["run", "--input", dataset["points"], "--outdir", outdir,
                 "--k-max", "32", "--truth", bad_truth])
    assert code == 3
    assert "stage evaluate" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("failure,code", [("bad_truth", 3), ("negative_z", 2)])
def test_failed_run_leaves_earlier_outputs_untouched(dataset, tmp_path, failure, code):
    outdir = tmp_path / "out"
    assert _run(["run", "--input", dataset["points"], "--outdir", outdir,
                 "--k-max", "32", "--z", "1.5", "--truth", dataset["truth"]]) == 0
    before = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert "confusion.tsv" in before and "run_config.txt" in before

    if failure == "bad_truth":
        bad_truth = tmp_path / "bad_truth.tsv"
        bad_truth.write_text("9999\t0\n", encoding="utf-8")
        extra = ["--truth", bad_truth]
    else:
        extra = ["--z", "-1"]
    assert _run(["run", "--input", dataset["points"], "--outdir", outdir,
                 "--k-max", "32"] + extra) == code
    assert sorted(p.name for p in outdir.iterdir()) == sorted(before)
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before


def test_run_reports_failing_stage_for_bad_input(tmp_path, capsys):
    missing = tmp_path / "nope.tsv"
    code = _run(["run", "--input", missing, "--outdir", tmp_path / "out"])
    assert code == 3
    assert "stage ingest" in capsys.readouterr().err


def test_run_empty_input_is_data_error(tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    assert _run(["run", "--input", empty, "--outdir", tmp_path / "out"]) == 3


def test_run_k_max_at_point_count_is_config_error(dataset, tmp_path, capsys):
    code = _run(["run", "--input", dataset["points"], "--outdir",
                 tmp_path / "out", "--k-max", "400"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_run_negative_z_is_config_error(dataset, tmp_path, monkeypatch):
    # cluster settings are checked before any stage runs
    def no_graph(*args, **kwargs):
        raise AssertionError("kNN graph built before the settings were checked")

    monkeypatch.setattr(cli, "build_neighbor_graph", no_graph)
    assert _run(["run", "--input", dataset["points"], "--outdir",
                 tmp_path / "out", "--k-max", "32", "--z", "-1"]) == 2
    cfg = tmp_path / "z.cfg"
    cfg.write_text("z = -1\n", encoding="utf-8")
    assert _run(["run", "--config", cfg, "--input", dataset["points"],
                 "--outdir", tmp_path / "out", "--k-max", "32"]) == 2


def test_run_bad_format_in_config_names_format(dataset, tmp_path, capsys):
    cfg = tmp_path / "fmt.cfg"
    cfg.write_text("format = bogus\n", encoding="utf-8")
    assert _run(["run", "--config", cfg, "--input", dataset["points"],
                 "--outdir", tmp_path / "out"]) == 2
    assert "format must be one of ('coords', 'matrix', 'knn')" in capsys.readouterr().err


def test_run_requires_outdir_and_input(dataset, tmp_path):
    assert _run(["run", "--input", dataset["points"]]) == 2
    assert _run(["run", "--outdir", tmp_path / "out"]) == 2


# ---------------------------------------------------------------------------
# config file handling


def test_config_file_supplies_options(dataset, tmp_path):
    outdir = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# pipeline settings\n"
        f"input = {dataset['points']}\n"
        f"outdir = {outdir}\n"
        "k_max = 32\n"
        "z = 1.5\n"
        "\n",
        encoding="utf-8")
    assert _run(["run", "--config", cfg]) == 0
    echo = (outdir / "run_config.txt").read_text(encoding="utf-8")
    assert "z = 1.5\n" in echo
    assert "k_max = 32\n" in echo


def test_run_config_echo_reproduces_the_run(dataset, tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    assert _run(["run", "--input", dataset["points"], "--outdir", first,
                 "--k-max", "32", "--z", "1.5", "--truth", dataset["truth"]]) == 0
    assert _run(["run", "--config", first / "run_config.txt",
                 "--outdir", again]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        if name != "run_config.txt":
            assert (first / name).read_bytes() == (again / name).read_bytes(), name
    echo = (again / "run_config.txt").read_text(encoding="utf-8")
    assert echo == (first / "run_config.txt").read_text(encoding="utf-8").replace(
        f"outdir = {first}\n", f"outdir = {again}\n")


def test_flags_override_config_file(dataset, tmp_path):
    outdir_cfg, outdir_flag = tmp_path / "cfg_out", tmp_path / "flag_out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {dataset['points']}\n"
                   f"outdir = {outdir_cfg}\n"
                   "k_max = 32\nz = 1.5\n", encoding="utf-8")
    assert _run(["run", "--config", cfg, "--z", "2.5",
                 "--outdir", outdir_flag]) == 0
    assert not outdir_cfg.exists()
    echo = (outdir_flag / "run_config.txt").read_text(encoding="utf-8")
    assert "z = 2.5\n" in echo


def test_config_unknown_key_rejected(dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("zz_top = 1\n", encoding="utf-8")
    code = _run(["run", "--config", cfg, "--input", dataset["points"],
                 "--outdir", tmp_path / "out"])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_inert_seed_and_out_settings_rejected(dataset, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["run", "--input", dataset["points"], "--outdir", tmp_path / "out",
              "--seed", "3"])
    assert exc.value.code == 2
    cfg = tmp_path / "inert.cfg"
    for line in ("out = x.tsv", "seed = 3", "halo = false", "discard_fraction = 0.2"):
        cfg.write_text(line + "\n", encoding="utf-8")
        assert _run(["density", "--config", cfg, "--input", dataset["points"]]) == 2
        assert "unknown config key" in capsys.readouterr().err


def test_config_malformed_line_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(Exception):
        read_config_file(cfg)
    cfg.write_text("k_max = not_a_number\n", encoding="utf-8")
    with pytest.raises(Exception):
        read_config_file(cfg)


def test_config_parses_comments_and_types(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("# comment\n\nk_max = 16\nz = 0.5\n"
                   "metric = manhattan\n", encoding="utf-8")
    values = read_config_file(cfg)
    assert values == {"k_max": 16, "z": 0.5, "metric": "manhattan"}


# ---------------------------------------------------------------------------
# staged stages equal the fused run


@pytest.mark.parametrize("fmt", ["coords", "matrix"])
def test_staged_pipeline_matches_fused(dataset, tmp_path, fmt):
    data = dataset["points"]
    if fmt == "matrix":
        data = tmp_path / "matrix.tsv"
        write_points_tsv(cdist(dataset["coords"], dataset["coords"]), data)
    source = ["--input", data, "--format", fmt, "--k-max", "32"]
    fused = tmp_path / "fused"
    assert _run(["run", *source, "--outdir", fused, "--z", "1.5",
                 "--truth", dataset["truth"]]) == 0

    staged = tmp_path / "staged"
    staged.mkdir()
    density = staged / "density.tsv"
    assert _run(["density", *source, "--out", density]) == 0
    assert density.read_bytes() == (fused / "density.tsv").read_bytes()

    assignment = staged / "assignment.tsv"
    saddles = staged / "saddles.tsv"
    assert _run(["cluster", *source, "--z", "1.5", "--density", density,
                 "--out", assignment, "--saddles-out", saddles]) == 0
    assert assignment.read_bytes() == (fused / "assignment.tsv").read_bytes()

    topo_dir = tmp_path / "staged_topo"
    assert _run(["topography", "--assignment", assignment, "--saddles",
                 saddles, "--outdir", topo_dir]) == 0
    for name in ("topography.json", "dendrogram.nwk", "network.dot"):
        assert (topo_dir / name).read_bytes() == (fused / name).read_bytes(), name

    # the fused run evaluates without halo points
    eval_dir = tmp_path / "staged_eval"
    assert _run(["evaluate", "--assignment", assignment, "--truth",
                 dataset["truth"], "--exclude-halo", "--outdir", eval_dir]) == 0
    for name in ("confusion.tsv", "purity.tsv"):
        assert (eval_dir / name).read_bytes() == (fused / name).read_bytes(), name


def test_matrix_run_matches_coords_run(dataset, tmp_path):
    # the matrix's row blocks and the kd leaves select the same graph, and the
    # matrix rows equal the coordinate distance rows, so every artifact agrees
    matrix = tmp_path / "matrix.tsv"
    write_points_tsv(cdist(dataset["coords"], dataset["coords"]), matrix)
    common = ["--k-max", "32", "--z", "1.5", "--truth", dataset["truth"]]
    assert _run(["run", "--input", dataset["points"], "--outdir", tmp_path / "coords",
                 *common]) == 0
    assert _run(["run", "--input", matrix, "--format", "matrix", "--outdir",
                 tmp_path / "matrix", *common]) == 0
    for name in PIPELINE_FILES + ("confusion.tsv", "purity.tsv"):
        assert (tmp_path / "matrix" / name).read_bytes() == \
            (tmp_path / "coords" / name).read_bytes(), name


def test_topography_staged_needs_both_files(dataset, tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(["topography", "--assignment", tmp_path / "a.tsv",
              "--outdir", tmp_path / "t"])
    assert exc.value.code == 2


# a command takes only the flags of the stages it runs; any other flag is a usage error
@pytest.mark.parametrize("argv", [
    ["topography", "--input", "p.tsv", "--outdir", "t"],
    ["topography", "--assignment", "a.tsv", "--saddles", "s.tsv", "--outdir", "t",
     "--z", "9"],
    ["cluster", "--input", "p.tsv", "--k-max", "32", "--out", "a.tsv"],
    ["cluster", "--input", "p.tsv", "--density", "d.tsv", "--d", "9"],
    ["cluster", "--input", "p.tsv", "--density", "d.tsv", "--discard-fraction", "0.5"],
    ["run", "--input", "p.tsv", "--outdir", "o", "--no-halo"],
    ["cluster", "--input", "p.tsv", "--density", "d.tsv", "--halo"],
    ["estimate-id", "--input", "p.tsv", "--discard-fraction", "0.2"],
    ["density", "--input", "p.tsv", "--discard-fraction", "0.2"],
    ["run", "--input", "p.tsv", "--outdir", "o", "--discard-fraction", "0.2"],
], ids=["topography-input", "topography-z", "cluster-no-density", "cluster-d",
        "cluster-discard-fraction", "run-no-halo", "cluster-halo",
        "estimate-id-discard-fraction", "density-discard-fraction",
        "run-discard-fraction"])
def test_staged_command_rejects_other_stages_flags(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# individual subcommands


def test_density_writes_to_stdout_by_default(dataset, capsys):
    assert _run(["density", "--input", dataset["points"], "--k-max", "32",
                 "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# point_id\tk_hat\tlog_rho")
    assert len(out.strip().splitlines()) == 401


def test_estimate_id_prints_dimension(dataset, capsys):
    assert _run(["estimate-id", "--input", dataset["points"],
                 "--k-max", "8"]) == 0
    d_hat, n_used = capsys.readouterr().out.split()
    assert 1.0 < float(d_hat) < 4.0
    assert int(n_used) > 300


def test_estimate_id_accepts_knn_format(dataset, tmp_path, capsys):
    graph = build_neighbor_graph(PointSet(dataset["coords"]), 8)
    knn_path = tmp_path / "graph.knn"
    export_knn_file(graph, knn_path)
    assert _run(["estimate-id", "--format", "knn", "--input", knn_path]) == 0
    d_from_knn = capsys.readouterr().out.split()[0]
    assert _run(["estimate-id", "--input", dataset["points"],
                 "--k-max", "8"]) == 0
    assert capsys.readouterr().out.split()[0] == d_from_knn


def test_module_entry_point_exits_and_prints_as_main_does(dataset, tmp_path, capsys):
    # python3 -m densitopo, in a fresh interpreter
    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "densitopo", *map(str, argv)], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            timeout=120)

    assert module("run", "--outdir", tmp_path / "out").returncode == 2
    bad = tmp_path / "bad.tsv"
    write_points_tsv(dataset["coords"][:30], bad)
    _replace_field(bad, 5, 1, b"x")
    done = module("estimate-id", "--input", bad)
    assert done.returncode == 3 and f"{bad}:5:" in done.stderr
    assert "Traceback" not in done.stderr
    argv = ["estimate-id", "--input", dataset["points"], "--k-max", "8"]
    done = module(*argv)
    assert _run(argv) == 0
    assert done.returncode == 0 and done.stdout == capsys.readouterr().out


def test_density_knn_file_honours_k_max(dataset, tmp_path, capsys):
    graph = build_neighbor_graph(PointSet(dataset["coords"]), 10)
    knn_path = tmp_path / "graph.knn"
    export_knn_file(graph, knn_path)
    assert _run(["density", "--format", "knn", "--input", knn_path,
                 "--k-max", "6", "--d", "2"]) == 0
    from_knn = capsys.readouterr().out
    assert _run(["density", "--input", dataset["points"], "--k-max", "6",
                 "--d", "2"]) == 0
    assert capsys.readouterr().out == from_knn


@pytest.mark.parametrize("k_max", ["11", "0"])
def test_density_knn_file_rejects_k_max_it_cannot_give(dataset, tmp_path, capsys, k_max):
    graph = build_neighbor_graph(PointSet(dataset["coords"]), 10)
    knn_path = tmp_path / "graph.knn"
    export_knn_file(graph, knn_path)
    code = _run(["density", "--format", "knn", "--input", knn_path,
                 "--k-max", k_max, "--d", "2"])
    _assert_rejected(code, capsys, 2, f"{knn_path} holds 10 neighbors per point")


# at 300 and 341 the unit ball is a float, but the data's balls underflow to 0
@pytest.mark.parametrize("d", ["300", "341", "400", "1e308"])
def test_density_dimension_beyond_floating_point_is_config_error(dataset, capsys, d):
    code = _run(["density", "--input", dataset["points"], "--k-max", "32", "--d", d])
    _assert_rejected(code, capsys, 2, f"intrinsic dimension {float(d)} is too large")


def test_cluster_rejects_knn_format_via_config(dataset, tmp_path, capsys):
    graph = build_neighbor_graph(PointSet(dataset["coords"]), 8)
    knn_path = tmp_path / "graph.knn"
    export_knn_file(graph, knn_path)
    cfg = tmp_path / "knn.cfg"
    cfg.write_text(f"format = knn\ninput = {knn_path}\n", encoding="utf-8")
    code = _run(["cluster", "--config", cfg, "--density", tmp_path / "density.tsv"])
    assert code == 2
    assert "cannot provide" in capsys.readouterr().err


def test_cluster_density_point_count_mismatch(dataset, tmp_path, capsys):
    density = tmp_path / "density.tsv"
    assert _run(["density", "--input", dataset["points"], "--k-max", "32",
                 "--d", "2", "--out", density]) == 0
    short = tmp_path / "short.tsv"
    short.write_text("".join(
        line + "\n" for line in
        density.read_text(encoding="utf-8").splitlines()[:100]),
        encoding="utf-8")
    code = _run(["cluster", "--input", dataset["points"], "--k-max", "32",
                 "--density", short, "--out", tmp_path / "a.tsv"])
    assert code == 3
    assert "covers 99 points" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate


def _write_perfect_assignment(path):
    header = ("# point_id\tlabel\tis_center\tis_halo\tg\tlog_rho\terr\t"
              "k_hat\tdelta\tparent\n")
    rows = []
    for pid in range(6):
        label = 0 if pid < 3 else 1
        center = 1 if pid in (0, 3) else 0
        rows.append(f"{pid}\t{label}\t{center}\t0\t1.0\t1.0\t0.1\t4\t2.0\t-1")
    path.write_text(header + "\n".join(rows) + "\n", encoding="utf-8")


def test_evaluate_perfect_assignment(tmp_path, capsys):
    assignment = tmp_path / "assignment.tsv"
    _write_perfect_assignment(assignment)
    truth = tmp_path / "truth.tsv"
    truth.write_text("".join(f"{i}\t{7 if i < 3 else 9}\n" for i in range(6)),
                     encoding="utf-8")
    code = _run(["evaluate", "--assignment", assignment, "--truth", truth,
                 "--outdir", tmp_path])
    assert code == 0
    assert capsys.readouterr().out.strip() == "nmi=1.0"
    confusion = (tmp_path / "confusion.tsv").read_text(encoding="utf-8")
    assert confusion.splitlines()[1] == "7\t3\t0"
    purity_text = (tmp_path / "purity.tsv").read_text(encoding="utf-8")
    assert purity_text.splitlines()[1] == "0\t7\t1.0\t3"


def test_evaluate_missing_truth_label(tmp_path, capsys):
    assignment = tmp_path / "assignment.tsv"
    _write_perfect_assignment(assignment)
    truth = tmp_path / "truth.tsv"
    truth.write_text("0\t1\n", encoding="utf-8")
    code = _run(["evaluate", "--assignment", assignment, "--truth", truth,
                 "--outdir", tmp_path])
    assert code == 3
    assert "no label for point" in capsys.readouterr().err


def test_evaluate_exclude_halo_changes_metrics(dataset, tmp_path, capsys):
    outdir = tmp_path / "out"
    assert _run(["run", "--input", dataset["points"], "--outdir", outdir,
                 "--k-max", "32", "--z", "1.5"]) == 0
    capsys.readouterr()
    assignment = outdir / "assignment.tsv"
    for extra in ([], ["--exclude-halo"]):
        code = _run(["evaluate", "--assignment", assignment, "--truth",
                     dataset["truth"], "--outdir", tmp_path] + extra)
        assert code == 0
    # both calls print a score; excluding halo cannot lower a clean split
    lines = [l for l in capsys.readouterr().out.splitlines() if "nmi=" in l]
    assert len(lines) == 2
    assert float(lines[1].split("=")[1]) >= float(lines[0].split("=")[1]) - 1e-9


# ---------------------------------------------------------------------------
# malformed or unreadable inputs: exit 3 (2 for a config file) naming
# file:line, never a traceback


def _assert_rejected(code, capsys, expected, where):
    err = capsys.readouterr().err
    assert code == expected
    assert str(where) in err
    assert "Traceback" not in err


def _replace_field(path, lineno, col, value):
    lines = path.read_bytes().splitlines()
    fields = lines[lineno - 1].split(b"\t")
    fields[col] = value
    lines[lineno - 1] = b"\t".join(fields)
    path.write_bytes(b"\n".join(lines) + b"\n")


@pytest.mark.parametrize("col,value", [(1, b"abc"), (2, b"nan"), (3, b"inf"),
                                       (4, b"-inf"), (2, b"0.\xe9"),
                                       (1, b"99999999999999999999"), (1, b"0"),
                                       (3, b"-5.0"), (3, b"0.0"), (4, b"-1.0"),
                                       (1, b"33"), (1, b"9999"), (5, b"2")])
def test_cluster_bad_density_field_names_line(dataset, tmp_path, capsys, col, value):
    density = tmp_path / "density.tsv"
    assert _run(["density", "--input", dataset["points"], "--k-max", "32",
                 "--d", "2", "--out", density]) == 0
    _replace_field(density, 5, col, value)
    code = _run(["cluster", "--input", dataset["points"], "--k-max", "32",
                 "--density", density, "--out", tmp_path / "a.tsv"])
    _assert_rejected(code, capsys, 3, f"{density}:5:")


@pytest.mark.parametrize("value", [b"x", b"1.0\t2.0", b"nan", b"inf", b"0.\xe9"],
                         ids=["bad-field", "ragged-row", "nan", "inf", "not-utf8"])
@pytest.mark.parametrize("fmt", ["coords", "matrix"])
def test_bad_point_or_matrix_field_names_line(dataset, tmp_path, capsys, monkeypatch,
                                              fmt, value):
    coords = dataset["coords"][:30]
    path = tmp_path / f"{fmt}.tsv"
    write_points_tsv(coords if fmt == "coords" else cdist(coords, coords), path)
    rows = path.read_bytes()
    path.write_bytes(b"# a comment line counts\n" + rows)
    _replace_field(path, 5, 1, value)
    code = _run(["estimate-id", "--format", fmt, "--input", path])
    _assert_rejected(code, capsys, 3, f"{path}:5:")
    # parsed on two CPUs in 64-byte chunks, a fault on the last line fails
    # the forked parse, and the one-CPU parse that follows names it
    monkeypatch.setattr(_blocks, "PART_ENTRIES", 1)
    monkeypatch.setattr(tsv, "_CHUNK_BYTES", 64)
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: 2)
    forks = []
    if hasattr(os, "fork"):
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    path.write_bytes(rows)
    _replace_field(path, 30, 1, value)
    code = _run(["estimate-id", "--format", fmt, "--input", path])
    _assert_rejected(code, capsys, 3, f"{path}:30:")
    assert len(forks) == (hasattr(os, "fork") and sys.version_info < (3, 12))


@pytest.mark.parametrize("text,where", [
    (b"   # indented note\n1\t2\n3\t4\nx\t5\n", ":4: column 1:"),
    (b"1\t2\t# first row\n3\t4\nx\t5\n", ":3: column 1:"),
    (b"1\t2\n3\t4 # note\n5\tx\n", ":3: column 2:"),
    (b"# only\n\n  # comments\n", ": empty input file"),
], ids=["indented-comment", "comment-after-tab", "comment-after-value", "comments-only"])
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("fmt", ["coords", "matrix"])
def test_point_or_matrix_fault_skips_comments_as_numpy_does(tmp_path, capsys, monkeypatch,
                                                            fmt, cpus, text, where):
    # 4-byte chunks: each file holds enough of them to fork on two CPUs
    monkeypatch.setattr(_blocks, "PART_ENTRIES", 1)
    monkeypatch.setattr(tsv, "_CHUNK_BYTES", 4)
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: cpus)
    forks = []
    if hasattr(os, "fork"):
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    path = tmp_path / f"{fmt}.tsv"
    path.write_bytes(text)
    code = _run(["estimate-id", "--format", fmt, "--input", path])
    _assert_rejected(code, capsys, 3, f"{path}{where}")
    # a file without a data line is not parsed
    parsed = "empty" not in where and hasattr(os, "fork") and sys.version_info < (3, 12)
    assert len(forks) == (cpus - 1) * parsed


@pytest.mark.parametrize("fmt,rows", [
    ("coords", [[0.0, 1.0]]),
    ("matrix", [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]]),
    ("matrix", [[0.0, 1.0], [2.0, 0.0]]),
], ids=["one-point", "not-square", "asymmetric"])
def test_point_or_matrix_content_fault_names_file(tmp_path, capsys, fmt, rows):
    path = tmp_path / f"{fmt}.tsv"
    write_points_tsv(np.array(rows), path)
    code = _run(["estimate-id", "--format", fmt, "--input", path])
    _assert_rejected(code, capsys, 3, f"data error: {path}: ")


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("fmt", ["coords", "matrix"])
def test_unreadable_point_or_matrix_file_is_data_error(tmp_path, capsys, fmt, kind):
    path = tmp_path if kind == "directory" else tmp_path / "p.tsv"
    code = _run(["estimate-id", "--format", fmt, "--input", path])
    _assert_rejected(code, capsys, 3, path)


@pytest.mark.parametrize("col,value", [(1, b"x"), (4, b"nan"), (5, b"inf"),
                                       (6, b"nan"), (7, b"1.5"), (1, b"9"), (1, b"-1"),
                                       (8, b"\xff"), (7, b"0"), (6, b"-0.1"), (6, b"0.0"),
                                       (2, b"2"), (3, b"-1")])
def test_evaluate_bad_assignment_field_names_line(tmp_path, capsys, col, value):
    assignment = tmp_path / "assignment.tsv"
    _write_perfect_assignment(assignment)
    _replace_field(assignment, 3, col, value)
    truth = tmp_path / "truth.tsv"
    truth.write_text("".join(f"{i}\t0\n" for i in range(6)), encoding="utf-8")
    code = _run(["evaluate", "--assignment", assignment, "--truth", truth,
                 "--outdir", tmp_path])
    _assert_rejected(code, capsys, 3, f"{assignment}:3:")


@pytest.mark.parametrize("col,value", [(0, b"a"), (2, b"nan"), (3, b"inf"),
                                       (4, b"2.5"), (1, b"\x80")])
def test_topography_bad_saddle_field_names_line(tmp_path, capsys, col, value):
    assignment = tmp_path / "assignment.tsv"
    _write_perfect_assignment(assignment)
    saddles = tmp_path / "saddles.tsv"
    saddles.write_text("# cluster_a\tcluster_b\tlog_rho\terr\tborder_point\n"
                       "0\t1\t0.5\t0.1\t2\n", encoding="utf-8")
    _replace_field(saddles, 2, col, value)
    code = _run(["topography", "--assignment", assignment, "--saddles", saddles,
                 "--outdir", tmp_path / "topo"])
    _assert_rejected(code, capsys, 3, f"{saddles}:2:")


# the assignment has clusters 0 and 1 over points 0..5
@pytest.mark.parametrize("rows,lineno", [
    ("7\t1\t0.5\t0.1\t2\n", 2),                      # cluster beyond K-1
    ("0\t-1\t0.5\t0.1\t2\n", 2),                     # negative cluster
    ("0\t1\t0.5\t0.1\t2\n1\t1\t0.5\t0.1\t2\n", 3),     # a == b
    ("0\t1\t0.5\t0.1\t2\n1\t0\t0.4\t0.1\t3\n", 3),     # pair given twice
    ("0\t1\t0.5\t0.1\t6\n", 2),                      # border point beyond n-1
    ("0\t1\t0.5\t0.1\t-1\n", 2),                     # negative border point
])
def test_topography_inconsistent_saddles_name_line(tmp_path, capsys, rows, lineno):
    assignment = tmp_path / "assignment.tsv"
    _write_perfect_assignment(assignment)
    saddles = tmp_path / "saddles.tsv"
    saddles.write_text("# cluster_a\tcluster_b\tlog_rho\terr\tborder_point\n" + rows,
                       encoding="utf-8")
    code = _run(["topography", "--assignment", assignment, "--saddles", saddles,
                 "--outdir", tmp_path / "topo"])
    _assert_rejected(code, capsys, 3, f"{saddles}:{lineno}:")
    assert not (tmp_path / "topo" / "topography.json").exists()


@pytest.mark.parametrize("text", [b"0\t1\n1\tb\n", b"0\t1\nz\t1\n",
                                  b"0\t1\n9\t1\n", b"0\t1\n0\t2\n1\t3\n",
                                  b"0\t1\n1\t\xc3\n", b"0\t1\n1\t99999999999999999999\n"])
def test_evaluate_bad_truth_row_names_line(tmp_path, capsys, text):
    assignment = tmp_path / "assignment.tsv"
    _write_perfect_assignment(assignment)
    truth = tmp_path / "truth.tsv"
    truth.write_bytes(text)
    code = _run(["evaluate", "--assignment", assignment, "--truth", truth,
                 "--outdir", tmp_path])
    _assert_rejected(code, capsys, 3, f"{truth}:2:")


@pytest.mark.parametrize("kind", ["missing", "directory", "negative_id"])
def test_unreadable_knn_file_is_data_error(tmp_path, capsys, kind):
    path = tmp_path if kind == "directory" else tmp_path / "g.knn"
    where = path
    if kind == "negative_id":
        path.write_text("0\t1\t1.0\n1\t0\t1.0\n-1\t0\t2.0\n", encoding="utf-8")
        where = f"{path}:3:"
    code = _run(["estimate-id", "--format", "knn", "--input", path])
    _assert_rejected(code, capsys, 3, where)


def test_config_file_not_utf8_is_config_error(dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"k_max = 8\nmetric = \xe9uclidean\n")
    code = _run(["estimate-id", "--config", cfg, "--input", dataset["points"]])
    _assert_rejected(code, capsys, 2, f"{cfg}:2:")


# ---------------------------------------------------------------------------
# synth subcommand


def test_synth_gmm_with_truth(tmp_path):
    out = tmp_path / "pts.tsv"
    truth = tmp_path / "truth.tsv"
    assert _run(["synth", "gmm", "--k", "2", "--n", "50", "--dim", "2",
                 "--separation", "8", "--seed", "3", "--out", out,
                 "--truth-out", truth]) == 0
    coords = np.loadtxt(out)
    assert coords.shape == (50, 2)
    labels = np.loadtxt(truth, dtype=np.int64)
    assert labels.shape == (50, 2)
    assert set(labels[:, 1].tolist()) == {0, 1}


def test_synth_uniform_has_no_truth(tmp_path, capsys):
    out = tmp_path / "pts.tsv"
    code = _run(["synth", "uniform", "--n", "20", "--dim", "2", "--out", out,
                 "--truth-out", tmp_path / "truth.tsv"])
    assert code == 2
    assert "no reference labels" in capsys.readouterr().err


def test_synth_spirals_odd_n_rejected(tmp_path, capsys):
    code = _run(["synth", "spirals", "--n", "101", "--out",
                 tmp_path / "pts.tsv"])
    assert code == 2
    assert "must be even" in capsys.readouterr().err


def test_synth_output_reusable_by_run(tmp_path, capsys):
    pts = tmp_path / "pts.tsv"
    assert _run(["synth", "gmm", "--k", "2", "--n", "300", "--dim", "2",
                 "--separation", "10", "--seed", "5", "--out", pts]) == 0
    assert _run(["run", "--input", pts, "--outdir", tmp_path / "out",
                 "--k-max", "32", "--z", "2"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert "n=300" in line


# ---------------------------------------------------------------------------
# output paths the operating system refuses


def test_synth_out_under_a_regular_file_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("keep\n", encoding="utf-8")
    code = _run(["synth", "gmm", "--n", "20", "--out", blocker / "x.tsv"])
    _assert_rejected(code, capsys, 2, blocker)
    assert blocker.read_text(encoding="utf-8") == "keep\n"


def test_synth_out_creates_missing_directory(tmp_path):
    out = tmp_path / "missing_dir" / "x.tsv"
    assert _run(["synth", "gmm", "--n", "20", "--out", out]) == 0
    assert np.loadtxt(out).shape == (20, 2)
    assert sorted(p.name for p in out.parent.iterdir()) == ["x.tsv"]


def test_run_outdir_that_is_a_regular_file_is_config_error(dataset, tmp_path, capsys):
    blocker = tmp_path / "F"
    blocker.write_text("keep\n", encoding="utf-8")
    code = _run(["run", "--input", dataset["points"], "--outdir", blocker,
                 "--k-max", "32"])
    _assert_rejected(code, capsys, 2, blocker)
    assert blocker.read_text(encoding="utf-8") == "keep\n"


def _graph_never_built(*args, **kwargs):
    raise AssertionError("the stage ran before its output path was checked")


def test_density_out_under_a_regular_file_is_config_error(dataset, tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(cli, "build_neighbor_graph", _graph_never_built)
    blocker = tmp_path / "F"
    blocker.write_text("keep\n", encoding="utf-8")
    code = _run(["density", "--input", dataset["points"], "--k-max", "32",
                 "--out", blocker / "x.tsv"])
    _assert_rejected(code, capsys, 2, blocker)
    assert blocker.read_text(encoding="utf-8") == "keep\n"


def test_cluster_saddles_out_under_a_regular_file_is_config_error(dataset, tmp_path,
                                                                  capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_neighbor_graph", _graph_never_built)
    blocker = tmp_path / "F"
    blocker.write_text("keep\n", encoding="utf-8")
    code = _run(["cluster", "--input", dataset["points"], "--k-max", "32",
                 "--density", tmp_path / "density.tsv", "--out", tmp_path / "assignment.tsv",
                 "--saddles-out", blocker / "saddles.tsv"])
    _assert_rejected(code, capsys, 2, blocker)
    assert blocker.read_text(encoding="utf-8") == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]
