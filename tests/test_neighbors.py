"""Graph construction, ingestion formats, and their validation rules."""

import os
import signal
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitopo import (ConfigError, DataError, NeighborGraph, PairwiseDistances,
                       PointSet, build_neighbor_graph, ingest_distance_matrix,
                       ingest_knn_file, read_points_tsv, write_points_tsv)
from densitopo import _blocks, neighbors
from densitopo._blocks import Scratch
from densitopo.neighbors import _distances, _exact_knn_rows, _knn_among, _tree_knn
from oracles import argsort_matrix_knn, brute_knn, export_knn_file

# public metric name -> scipy metric name, for the tests that call cdist
_CDIST_METRIC = {"euclidean": "euclidean", "manhattan": "cityblock"}


def test_line_points_by_inspection():
    points = PointSet(np.array([[0.0], [1.0], [3.0]]))
    graph = build_neighbor_graph(points, k_max=2)
    assert graph.neighbor_ids[0].tolist() == [1, 2]
    assert graph.neighbor_dists[0].tolist() == [1.0, 3.0]


def test_coincident_pair_is_tie_free():
    points = PointSet(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    graph = build_neighbor_graph(points, k_max=2)
    assert graph.neighbor_ids[0].tolist() == [1, 2]
    assert graph.neighbor_dists[0][0] == 0.0
    assert graph.neighbor_ids[1].tolist() == [0, 2]
    assert graph.neighbor_dists[1][0] == 0.0


def test_thousand_uniform_points_match_brute_force():
    rng = np.random.default_rng(42)
    coords = rng.random((1000, 2))
    graph = build_neighbor_graph(PointSet(coords), k_max=50)
    ids, dists = brute_knn(coords, 50)
    np.testing.assert_array_equal(graph.neighbor_ids, ids)
    np.testing.assert_array_equal(graph.neighbor_dists, dists)


def test_lattice_ties_match_brute_force():
    # integer lattice points produce many exactly-equal distances
    xs, ys = np.meshgrid(np.arange(15.0), np.arange(15.0))
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    for metric in ("euclidean", "manhattan"):
        graph = build_neighbor_graph(PointSet(coords), k_max=30, metric=metric)
        ids, dists = brute_knn(coords, 30, metric)
        np.testing.assert_array_equal(graph.neighbor_ids, ids)
        np.testing.assert_array_equal(graph.neighbor_dists, dists)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_small_instances_equal_brute_force(data):
    n = data.draw(st.integers(min_value=2, max_value=30))
    dim = data.draw(st.integers(min_value=1, max_value=8))
    k_max = data.draw(st.integers(min_value=1, max_value=n - 1))
    metric = data.draw(st.sampled_from(["euclidean", "manhattan"]))
    # coarse grid coordinates make distance ties likely
    cells = data.draw(st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=dim, max_size=dim),
        min_size=n, max_size=n))
    coords = np.asarray(cells, dtype=np.float64) * 0.5
    graph = build_neighbor_graph(PointSet(coords), k_max=k_max, metric=metric)
    ids, dists = brute_knn(coords, k_max, metric)
    np.testing.assert_array_equal(graph.neighbor_ids, ids)
    np.testing.assert_array_equal(graph.neighbor_dists, dists)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(neighbors, "_LEAF_SIZE", 3)  # many leaves: candidates are pruned
        tree_ids, tree_dists = _tree_knn(coords, k_max, metric)
    np.testing.assert_array_equal(tree_ids, ids)
    np.testing.assert_array_equal(tree_dists, dists)


# ---------------------------------------------------------------------------
# the kd-leaf path, and full distance rows (its redo), against the oracle


def _lattice(side, dim=2):
    axes = np.meshgrid(*[np.arange(float(side))] * dim)
    return np.column_stack([a.ravel() for a in axes])


def _random_points():
    return np.random.default_rng(21).standard_normal((300, 3)), 20


def _horizon_ties():
    # on the square lattice the 10th neighbor of an interior point lies
    # inside a shell of equal distances, for both metrics
    return _lattice(12), 10


def _duplicates():
    # each point three times: ties at distance zero, in and across leaves
    base = np.random.default_rng(22).random((60, 2))
    return np.vstack([base, base, base]), 7


def _one_dim():
    rng = np.random.default_rng(23)
    return np.vstack([rng.standard_normal((150, 1)), _lattice(50, dim=1)]), 12


def _all_neighbors():
    return np.random.default_rng(24).random((40, 2)), 39


def _eight_dim():
    return np.random.default_rng(25).standard_normal((150, 8)), 15


def _twenty_dim():
    # full rank: the kd leaves prune little
    return np.random.default_rng(31).standard_normal((200, 20)), 25


def _padded_lattice():
    # the horizon ties of the square lattice, padded with 18 zero coordinates
    coords, k_max = _horizon_ties()
    return np.hstack([coords, np.zeros((coords.shape[0], 18))]), k_max


KNN_CASES = {"random": _random_points, "horizon_ties": _horizon_ties,
             "duplicates": _duplicates, "one_dim": _one_dim,
             "k_max_n_minus_1": _all_neighbors, "eight_dim": _eight_dim,
             "twenty_dim": _twenty_dim, "padded_lattice": _padded_lattice}


def _brute_knn(coords, k_max, metric):
    """Brute force: the selection step over every point, as the redo runs it."""
    n = coords.shape[0]
    ids, dists = np.empty((n, k_max), dtype=np.int32), np.empty((n, k_max))
    everyone = np.arange(n)
    _knn_among(everyone, everyone,
               lambda part, cand, scratch: _distances(coords[part], coords, metric, scratch),
               ids, dists, Scratch())
    return ids, dists


@pytest.mark.parametrize("knn", [_brute_knn, _tree_knn])
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("case", sorted(KNN_CASES))
def test_knn_paths_match_oracle(knn, metric, case):
    coords, k_max = KNN_CASES[case]()
    ids, dists = brute_knn(coords, k_max, metric)
    got_ids, got_dists = knn(coords, k_max, metric)
    assert got_ids.dtype == np.int32
    np.testing.assert_array_equal(got_ids, ids)
    assert got_dists.tobytes() == dists.tobytes()


# ---------------------------------------------------------------------------
# the row-block driver: the bytes out do not depend on the CPU count or on
# how the rows are cut into blocks

_BLOCK_ROWS = 7  # no case has a multiple of 7 points: the last block is short
_LEAF = 8  # kd leaves of at most 8 points: most leaves see only part of the cloud


def _small_blocks(monkeypatch, cpus, coords, k_max):
    """Pretend to have ``cpus`` CPUs and a forked part of any work; cut
    full-row passes into 7-row blocks and the kd-leaf pass into leaves of
    at most 8 points."""
    n = coords.shape[0]
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(_blocks, "PART_ENTRIES", 1)
    monkeypatch.setattr(_blocks, "WORKER_ENTRIES", _BLOCK_ROWS * n)
    monkeypatch.setattr(neighbors, "_LEAF_SIZE", _LEAF)


def _recording_redo(monkeypatch):
    """Hook the selection step; return a function that runs ``_tree_knn`` and
    returns its graph and, per point, how many times its row was selected
    again (the kd-leaf path's redo)."""
    selected = []

    def knn_among(rows, *args):
        selected.append(rows.copy())
        return real(rows, *args)

    def tree_knn(coords, k_max, metric):
        selected.clear()
        ids, dists = _tree_knn(coords, k_max, metric)
        counts = np.bincount(np.concatenate(selected), minlength=coords.shape[0])
        assert counts.min() >= 1  # every row is selected among its leaf's candidates
        return ids, dists, counts - 1

    real = neighbors._knn_among
    monkeypatch.setattr(neighbors, "_knn_among", knn_among)
    return tree_knn


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("case", sorted(KNN_CASES))
def test_row_blocks_match_oracle(cpus, metric, case, monkeypatch):
    coords, k_max = KNN_CASES[case]()
    assert coords.shape[0] % _BLOCK_ROWS
    _small_blocks(monkeypatch, cpus, coords, k_max)
    ids, dists = brute_knn(coords, k_max, metric)
    # the redo is counted on one CPU: a forked part's selections are not seen here
    counted = cpus == 1
    tree_knn = _recording_redo(monkeypatch) if counted else lambda *a: (*_tree_knn(*a), None)
    forks = _count_forks(monkeypatch)
    got_ids, got_dists, redone = tree_knn(coords, k_max, metric)
    np.testing.assert_array_equal(got_ids, ids)
    assert got_dists.tobytes() == dists.tobytes()
    assert not counted or not redone.any()  # ties and duplicates are exact inside the candidates
    # a margin no row clears forces every pruned row through the redo
    monkeypatch.setattr(neighbors, "_TREE_RTOL", 1.0)
    got_ids, got_dists, redone = tree_knn(coords, k_max, metric)
    np.testing.assert_array_equal(got_ids, ids)
    assert got_dists.tobytes() == dists.tobytes()
    # each of the two builds forks one process per CPU after the first, in
    # each of its passes
    assert len(forks) == 2 * _kd_passes(coords, k_max) * _forks_per_pass(
        cpus, len(neighbors._kd_leaves(coords)))
    if counted:
        assert redone.max() <= 1  # each row is redone at most once
    if counted and case in ("horizon_ties", "duplicates", "padded_lattice"):
        leaf_of = np.empty(coords.shape[0], dtype=np.int64)
        for leaf, members in enumerate(neighbors._kd_leaves(coords)):
            leaf_of[members] = leaf
        assert np.unique(leaf_of[redone == 1]).size > 1


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("case", sorted(KNN_CASES))
def test_matrix_rows_match_kd_leaves(cpus, metric, case, monkeypatch):
    # a distance matrix's row blocks and the kd leaves share one selection step
    from scipy.spatial.distance import cdist

    coords, k_max = KNN_CASES[case]()
    _small_blocks(monkeypatch, cpus, coords, k_max)
    forks = _count_forks(monkeypatch)
    by_matrix = ingest_distance_matrix(cdist(coords, coords, _CDIST_METRIC[metric]),
                                       k_max=k_max)
    by_coords = build_neighbor_graph(PointSet(coords), k_max=k_max, metric=metric)
    n = coords.shape[0]
    assert len(forks) == (
        _forks_per_pass(cpus, len(_blocks.row_blocks(n, n, _blocks.WORKER_ENTRIES)))
        + _kd_passes(coords, k_max) * _forks_per_pass(cpus, len(neighbors._kd_leaves(coords))))
    assert by_matrix.neighbor_ids.tobytes() == by_coords.neighbor_ids.tobytes()
    assert by_matrix.neighbor_dists.tobytes() == by_coords.neighbor_dists.tobytes()


# ---------------------------------------------------------------------------
# the kNN passes on several CPUs: a part that fails gives the one-CPU bytes,
# and a part that raises gives the one-CPU error

FORKS = hasattr(os, "fork") and sys.version_info < (3, 12)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forks_per_pass(cpus, items):
    """Processes a kNN pass over ``items`` leaves or blocks forks when any
    work makes a part: one per CPU after the first, up to one per item."""
    assert cpus == 1 or items >= cpus  # every case here runs on all its CPUs
    return min(cpus, items) - 1 if FORKS else 0


def _kd_passes(coords, k_max):
    """The kd passes that fork when any work makes a part: the selection,
    and the bounds unless the bounding leaves are every leaf."""
    n = coords.shape[0]
    assert 2 * (k_max + 1) >= n or 2 * (k_max + 1) <= n - _LEAF  # either way for every leaf
    return 1 if 2 * (k_max + 1) >= n else 2


def _knn_stage(stage, monkeypatch, cpus):
    """300 random points, kd leaves of 8 and matrix blocks of 7 rows on
    ``cpus`` pretend CPUs; return the stage's build and its items: the rows
    of each leaf or block, in the order one CPU runs them."""
    from scipy.spatial.distance import cdist

    coords = np.random.default_rng(26).random((300, 3))
    _small_blocks(monkeypatch, cpus, coords, 5)
    if stage == "kd_leaves":
        items = neighbors._kd_leaves(coords)
        build = lambda: build_neighbor_graph(PointSet(coords), k_max=5)
    else:
        n = coords.shape[0]
        items = [np.arange(s, e) for s, e in _blocks.row_blocks(n, n, _blocks.WORKER_ENTRIES)]
        matrix = cdist(coords, coords)
        build = lambda: ingest_distance_matrix(matrix, k_max=5)
    assert len(items) > 2 * cpus
    return build, items


# forked passes per stage: the kd leaves' bounds and selection, the matrix's rows
_STAGE_PASSES = {"kd_leaves": 2, "matrix_rows": 1}


def _knn_outcome(build):
    """The bytes of the graph, or the error's text."""
    try:
        graph = build()
    except RuntimeError as exc:
        return str(exc)
    return graph.neighbor_ids.tobytes(), graph.neighbor_dists.tobytes()


def _count_forks(monkeypatch) -> list[int]:
    """Log every ``os.fork`` call from now on."""
    log = []
    if hasattr(os, "fork"):
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: log.append(1) or fork())
    return log


@pytest.mark.parametrize("cpus,n,any_work", [(1, 300, True), (2, 60, True), (2, 300, False)],
                         ids=["one_cpu", "one_block", "little_work"])
def test_lone_knn_part_runs_in_the_caller(cpus, n, any_work, monkeypatch):
    # one CPU, a single kd leaf or matrix block, or too little work for two
    # parts (at most 300 x 300 distances a pass): no process is forked
    from scipy.spatial.distance import cdist

    coords = np.random.default_rng(26).random((n, 3))
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: cpus)
    if any_work:
        monkeypatch.setattr(_blocks, "PART_ENTRIES", 1)
    forks = _count_forks(monkeypatch)
    by_coords = build_neighbor_graph(PointSet(coords), k_max=5)
    by_matrix = ingest_distance_matrix(cdist(coords, coords), k_max=5)
    assert forks == []
    ids, dists = brute_knn(coords, 5, "euclidean")
    for graph in (by_coords, by_matrix):
        np.testing.assert_array_equal(graph.neighbor_ids, ids)
        assert graph.neighbor_dists.tobytes() == dists.tobytes()


@pytest.mark.skipif(not FORKS, reason="the kNN passes fork only before Python 3.12")
@pytest.mark.parametrize("stage", ["kd_leaves", "matrix_rows"])
def test_knn_pass_forks_by_the_distances_it_reads(stage, monkeypatch):
    # 300 20-D points at k_max 5 make a table of 1,500 entries, but a matrix
    # row block copies whole rows and 20-D kd leaves prune no candidate: each
    # selection reads 300 x 300 distances, enough for two parts of n^2 / 4.
    # The kd bounds read a few leaves per row, too few to fork.
    from scipy.spatial.distance import cdist

    coords = np.random.default_rng(27).standard_normal((300, 20))
    _small_blocks(monkeypatch, 2, coords, 5)
    monkeypatch.setattr(_blocks, "PART_ENTRIES", 300 * 300 // 4)
    forks = _count_forks(monkeypatch)
    graph = (build_neighbor_graph(PointSet(coords), k_max=5) if stage == "kd_leaves"
             else ingest_distance_matrix(cdist(coords, coords), k_max=5))
    assert len(forks) == 1
    ids, dists = brute_knn(coords, 5, "euclidean")
    np.testing.assert_array_equal(graph.neighbor_ids, ids)
    assert graph.neighbor_dists.tobytes() == dists.tobytes()


@pytest.mark.skipif(not FORKS, reason="the kNN passes fork only before Python 3.12")
@pytest.mark.parametrize("how", ["exit-code", "signal", "exception"])
@pytest.mark.parametrize("cpus", [2, 5])  # 5: more processes than most machines have cores
@pytest.mark.parametrize("stage", ["kd_leaves", "matrix_rows"])
def test_failed_knn_part_gives_the_one_cpu_bytes(stage, cpus, how, monkeypatch):
    build, _ = _knn_stage(stage, monkeypatch, 1)
    want = _knn_outcome(build)
    build, _ = _knn_stage(stage, monkeypatch, cpus)
    caller, knn_among = os.getpid(), neighbors._knn_among

    def failing(*args):
        if os.getpid() != caller:
            if how == "exit-code":
                os._exit(3)
            if how == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("part failed")
        return knn_among(*args)

    monkeypatch.setattr(neighbors, "_knn_among", failing)
    forks = _count_forks(monkeypatch)
    assert _knn_outcome(build) == want
    # the kd leaves fork their bounds, which do not fail, then their selection
    assert len(forks) == _STAGE_PASSES[stage] * (cpus - 1)
    _no_child_left()


@pytest.mark.parametrize("where", ["caller-part", "worker-part", "every-part"])
@pytest.mark.parametrize("cpus", [2, 5])
@pytest.mark.parametrize("stage", ["kd_leaves", "matrix_rows"])
def test_knn_part_error_is_the_one_cpu_error(stage, cpus, where, monkeypatch):
    # part p runs items p, p + cpus, ...; with a fault in every part, the
    # caller's first faulty item is item cpus, and a one-CPU run names item 1
    build, items = _knn_stage(stage, monkeypatch, cpus)
    faulty = {"caller-part": [0], "worker-part": [cpus - 1],
              "every-part": list(range(1, cpus + 1))}[where]
    bad = np.concatenate([items[m] for m in faulty])
    knn_among = neighbors._knn_among

    def failing(rows, *args):
        if np.isin(rows, bad).any():
            raise RuntimeError(f"rows from point {rows[0]} failed")
        return knn_among(rows, *args)

    monkeypatch.setattr(neighbors, "_knn_among", failing)
    with monkeypatch.context() as m:
        m.setattr(_blocks, "usable_cpus", lambda: 1)
        want = _knn_outcome(build)
    assert want == f"rows from point {items[faulty[0]][0]} failed"
    forks = _count_forks(monkeypatch)
    assert _knn_outcome(build) == want
    assert len(forks) == (_STAGE_PASSES[stage] * (cpus - 1) if FORKS else 0)
    _no_child_left()


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_lattice_needs_no_redo(metric, monkeypatch):
    # every row of a 70 x 70 grid ties inside its k_max = 60 neighbors and at
    # the 60th; the candidates hold every tie, so no row is selected again.
    # One CPU: every leaf runs in this process, where the redo is counted.
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: 1)
    coords = _lattice(70)
    ids, dists, redone = _recording_redo(monkeypatch)(coords, 60, metric)
    assert not redone.any()
    want_ids, want_dists = _brute_knn(coords, 60, metric)
    np.testing.assert_array_equal(ids, want_ids)
    assert dists.tobytes() == want_dists.tobytes()
    assert (dists[:, 1:] == dists[:, :-1]).any(axis=1).all()


def test_horizon_case_has_ties_at_k_max():
    coords, k_max = _horizon_ties()
    for metric in ("euclidean", "manhattan"):
        _, dists = brute_knn(coords, k_max + 1, metric)
        assert (dists[:, k_max - 1] == dists[:, k_max]).sum() > 50


def test_rebuild_is_byte_identical():
    rng = np.random.default_rng(3)
    coords = rng.random((300, 3))
    g1 = build_neighbor_graph(PointSet(coords), k_max=40)
    g2 = build_neighbor_graph(PointSet(coords.copy()), k_max=40)
    assert g1.neighbor_ids.tobytes() == g2.neighbor_ids.tobytes()
    assert g1.neighbor_dists.tobytes() == g2.neighbor_dists.tobytes()


def test_k_max_at_least_n_rejected():
    points = PointSet(np.zeros((5, 2)))
    with pytest.raises(ConfigError):
        build_neighbor_graph(points, k_max=5)
    with pytest.raises(ConfigError):
        build_neighbor_graph(points, k_max=0)


@pytest.mark.parametrize("n,expected", [(30, 29), (600, neighbors.DEFAULT_K_MAX)])
def test_k_max_defaults_to_n_minus_one_up_to_the_cap(n, expected):
    coords = np.random.default_rng(n).random((n, 2))
    assert build_neighbor_graph(PointSet(coords)).k_max == expected
    matrix = PairwiseDistances(coords=coords)
    full = np.array([matrix.row(i) for i in range(n)])
    assert ingest_distance_matrix((full + full.T) / 2).k_max == expected


def test_non_finite_coordinate_names_row():
    coords = np.ones((4, 2))
    coords[2, 1] = np.nan
    with pytest.raises(DataError, match="row 2"):
        PointSet(coords)


def test_unknown_metric_rejected():
    points = PointSet(np.zeros((3, 1)))
    with pytest.raises(ConfigError):
        build_neighbor_graph(points, k_max=1, metric="cosine")


def test_graph_rejects_decreasing_distances():
    ids = np.array([[1, 2], [0, 2], [0, 1]])
    dists = np.array([[2.0, 1.0], [1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(DataError):
        NeighborGraph(ids, dists)


def test_graph_rejects_self_loops():
    ids = np.array([[0, 2], [0, 2], [0, 1]])
    dists = np.ones((3, 2))
    with pytest.raises(DataError):
        NeighborGraph(ids, dists)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_graph_checks_ids_before_narrowing_them(dtype):
    # 2**32 + 1 is 1 once cast to int32: a valid id, were it checked after the cast
    ids = np.array([[1, 2], [2**32 + 1, 2], [0, 1]], dtype=dtype)
    with pytest.raises(DataError, match="out of range"):
        NeighborGraph(ids, np.ones((3, 2)))


@pytest.mark.parametrize("bad,message", [
    (1.7, "whole numbers"), (0.2, "whole numbers"), (np.nan, "whole numbers"),
    (np.inf, "out of range")], ids=["fraction", "below_one", "nan", "inf"])
def test_graph_rejects_ids_that_are_not_whole_numbers(bad, message):
    # a cast to an integer dtype would truncate 1.7 to the valid id 1
    ids = np.array([[1.0, 2.0], [0.0, 2.0], [0.0, 1.0]])
    ids[0, 0] = bad
    with pytest.raises(DataError, match=message):
        NeighborGraph(ids, np.ones((3, 2)))


def test_graph_stores_int32_ids():
    graph = NeighborGraph(np.array([[1, 2], [0, 2], [0, 1]]), np.ones((3, 2)))
    assert graph.neighbor_ids.dtype == np.int32
    np.testing.assert_array_equal(graph.neighbor_ids, [[1, 2], [0, 2], [0, 1]])


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_graph_stores_tables_in_c_order(dtype):
    # the passes over the graph gather by flat index into the stored tables
    ids = np.asfortranarray([[1, 2], [0, 2], [0, 1]], dtype=dtype)
    dists = np.ones((3, 4))[:, ::2]
    graph = NeighborGraph(ids, dists)
    assert graph.neighbor_ids.flags.c_contiguous and graph.neighbor_dists.flags.c_contiguous
    np.testing.assert_array_equal(graph.neighbor_ids, ids)
    np.testing.assert_array_equal(graph.neighbor_dists, dists)


def _nan(ids, dists):
    dists[6, 1] = np.nan


def _negative(ids, dists):
    dists[6, 0] = -1.0


def _decreasing(ids, dists):
    dists[6, 0] = 3.0


def _too_large(ids, dists):
    ids[6, 1] = 7


def _self(ids, dists):
    ids[6, 0] = 6


@pytest.mark.parametrize("fault,message", [
    (_nan, "non-finite"), (_negative, "negative"), (_decreasing, "non-decreasing"),
    (_too_large, "out of range"), (_self, "itself")])
def test_graph_checks_reach_the_last_row_block(fault, message, monkeypatch):
    monkeypatch.setattr(_blocks, "BLOCK_ENTRIES", 4)  # two-row blocks; row 6 is alone
    ids = (np.arange(7)[:, None] + np.arange(1, 3)) % 7
    dists = np.tile([1.0, 2.0], (7, 1))
    NeighborGraph(ids, dists)
    fault(ids, dists)
    with pytest.raises(DataError, match=message):
        NeighborGraph(ids, dists)


# ---------------------------------------------------------------------------
# distance-matrix ingestion

def test_matrix_row_sort_example():
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 5.0], [2.0, 5.0, 0.0]])
    graph = ingest_distance_matrix(m, k_max=2)
    assert graph.neighbor_ids[0].tolist() == [1, 2]
    assert graph.neighbor_dists[0].tolist() == [1.0, 2.0]


def test_matrix_all_equal_offdiagonals_order_by_id():
    m = np.full((4, 4), 7.0)
    np.fill_diagonal(m, 0.0)
    graph = ingest_distance_matrix(m, k_max=3)
    assert graph.neighbor_ids[0].tolist() == [1, 2, 3]
    assert graph.neighbor_ids[2].tolist() == [0, 1, 3]


def test_matrix_random_matches_row_sort_oracle():
    rng = np.random.default_rng(11)
    raw = rng.random((50, 50))
    m = (raw + raw.T) / 2.0
    np.fill_diagonal(m, 0.0)
    graph = ingest_distance_matrix(m, k_max=49)
    for i in range(50):
        order = sorted((m[i, j], j) for j in range(50) if j != i)
        assert graph.neighbor_ids[i].tolist() == [j for _, j in order]
        assert graph.neighbor_dists[i].tolist() == [d for d, _ in order]


def _integer_matrix(seed):
    # small integer distances: most rows tie at the k_max-th neighbor
    rng = np.random.default_rng(seed)
    raw = rng.integers(1, 4, size=(60, 60)).astype(np.float64)
    m = np.triu(raw, 1)
    return m + m.T


def _duplicate_points_matrix(seed):
    # every point appears three times: zero off-diagonal distances
    rng = np.random.default_rng(seed)
    coords = np.repeat(rng.integers(0, 6, size=(20, 2)).astype(np.float64), 3, axis=0)
    return np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)


# 60-point matrices: k_max from a few of each row's columns to all the
# others (59), with 39 and 40 either side of two thirds of the row
_MATRIX_CASES = pytest.mark.parametrize("make,k_max", [
    (_integer_matrix, 7), (_integer_matrix, 39), (_integer_matrix, 40),
    (_integer_matrix, 59), (_duplicate_points_matrix, 4),
    (_duplicate_points_matrix, 39), (_duplicate_points_matrix, 40),
    (_duplicate_points_matrix, 59)],
    ids=["integer", "integer-partition-edge", "integer-sort-edge", "integer-n-1",
         "duplicates", "duplicates-partition-edge", "duplicates-sort-edge",
         "duplicates-n-1"])


def _assert_matrix_matches_stable_argsort(m, k_max):
    before = m.copy()
    graph = ingest_distance_matrix(m, k_max=k_max)
    np.testing.assert_array_equal(m, before)  # the caller's matrix is untouched
    ids, dists = argsort_matrix_knn(m, k_max)
    if k_max < 59:  # some row ties across its selection boundary
        wider = argsort_matrix_knn(m, k_max + 1)[1]
        assert (wider[:, k_max - 1] == wider[:, k_max]).any()
    assert graph.neighbor_ids.dtype == np.int32
    np.testing.assert_array_equal(graph.neighbor_ids, ids)
    np.testing.assert_array_equal(graph.neighbor_dists, dists)


@_MATRIX_CASES
def test_matrix_matches_stable_argsort(make, k_max):
    _assert_matrix_matches_stable_argsort(make(5), k_max)


@_MATRIX_CASES
@pytest.mark.parametrize("cpus", [1, 2])
def test_matrix_row_blocks_match_stable_argsort(make, k_max, cpus, monkeypatch):
    m = make(5)
    _small_blocks(monkeypatch, cpus, m, k_max)
    monkeypatch.setattr(_blocks, "BLOCK_ENTRIES", _BLOCK_ROWS * m.shape[0])
    _assert_matrix_matches_stable_argsort(m, k_max)


@_MATRIX_CASES
def test_matrix_in_fortran_order_matches_stable_argsort(make, k_max, monkeypatch):
    # a block's rows are copied out of the matrix as one slice, in any memory order
    m = np.asfortranarray(make(5))
    _small_blocks(monkeypatch, 2, m, k_max)
    _assert_matrix_matches_stable_argsort(m, k_max)


def test_matrix_asymmetry_names_worst_pair():
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 5.0], [2.0, 5.5, 0.0]])
    with pytest.raises(DataError, match=r"d\[1,2\]"):
        ingest_distance_matrix(m, k_max=2)


@pytest.mark.parametrize("budget", [1, 7 * 9, 10**6], ids=["row", "7_rows", "whole"])
def test_matrix_asymmetry_names_first_worst_pair_across_blocks(budget, monkeypatch):
    monkeypatch.setattr(_blocks, "BLOCK_ENTRIES", budget)
    m = np.ones((9, 9))
    np.fill_diagonal(m, 0.0)
    m[1, 3] = m[8, 5] = 1.5  # a smaller gap in an early row
    m[7, 2] = m[4, 6] = m[8, 7] = 3.0  # equal largest gaps: the first in row order
    with pytest.raises(DataError, match=r"d\[2,7\] - d\[7,2\]\| = 2 "):
        ingest_distance_matrix(m, k_max=2)


def test_matrix_negative_entry_rejected():
    m = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(DataError):
        ingest_distance_matrix(m, k_max=1)


def test_matrix_nonzero_diagonal_rejected():
    m = np.array([[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(DataError):
        ingest_distance_matrix(m, k_max=1)


# ---------------------------------------------------------------------------
# kNN file format

def test_knn_file_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    coords = rng.random((20, 2))
    graph = build_neighbor_graph(PointSet(coords), k_max=5, metric="manhattan")
    path = tmp_path / "g.knn"
    export_knn_file(graph, path, metric="manhattan")
    back = ingest_knn_file(path)
    assert back.neighbor_ids.dtype == np.int32
    np.testing.assert_array_equal(back.neighbor_ids, graph.neighbor_ids)
    np.testing.assert_array_equal(back.neighbor_dists, graph.neighbor_dists)
    again = tmp_path / "again.knn"
    export_knn_file(back, again, metric="manhattan")
    assert again.read_bytes() == path.read_bytes()
    # the int32 ids write the text the oracle's int64 ids give
    ids, dists = brute_knn(coords, 5, "manhattan")
    assert ids.dtype == np.int64
    assert path.read_text(encoding="utf-8") == "# metric=manhattan\n" + "".join(
        f"{i}\t{j}\t{d!r}\n" for i in range(20)
        for j, d in zip(ids[i].tolist(), dists[i].tolist()))


def test_knn_file_decreasing_distance_names_line(tmp_path):
    path = tmp_path / "bad.knn"
    path.write_text("0\t1\t2.0\n0\t2\t1.0\n1\t0\t1.0\n1\t2\t1.5\n2\t0\t1.0\n2\t1\t1.5\n")
    with pytest.raises(DataError, match=":2"):
        ingest_knn_file(path)


def test_knn_file_missing_column_names_line(tmp_path):
    path = tmp_path / "bad.knn"
    path.write_text("0\t1\t1.0\n0\t2\n")
    with pytest.raises(DataError, match=":2"):
        ingest_knn_file(path)


def test_knn_file_non_contiguous_group_rejected(tmp_path):
    path = tmp_path / "bad.knn"
    path.write_text("0\t1\t1.0\n1\t0\t1.0\n0\t2\t2.0\n")
    with pytest.raises(DataError, match="contiguous"):
        ingest_knn_file(path)


def test_knn_file_self_neighbor_rejected(tmp_path):
    path = tmp_path / "bad.knn"
    path.write_text("0\t0\t0.0\n")
    with pytest.raises(DataError, match="itself"):
        ingest_knn_file(path)


# ---------------------------------------------------------------------------
# coordinate TSV round-trip and pairwise views

def test_points_tsv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    coords = rng.standard_normal((17, 3)) * 1e3
    path = tmp_path / "pts.tsv"
    write_points_tsv(coords, path)
    back = read_points_tsv(path)
    np.testing.assert_array_equal(back.coords, coords)


def test_points_tsv_empty_rejected(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_points_tsv(path)


def test_pairwise_views_agree():
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(9)
    coords = rng.random((30, 5))
    for metric in ("euclidean", "manhattan"):
        matrix = cdist(coords, coords, metric=_CDIST_METRIC[metric])
        by_coords = PairwiseDistances(coords=coords, metric=metric)
        by_matrix = PairwiseDistances(matrix=matrix)
        for i in (0, 7, 29):
            assert by_coords.row(i).tobytes() == by_matrix.row(i).tobytes()
            assert by_coords.row(i)[i] == 0.0


# ---------------------------------------------------------------------------
# the numpy distance kernel and the row selection, against their oracles

@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_distances_equal_cdist_bitwise(metric):
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(28)
    for dim in range(1, 65):
        for rows, cols in [(1, 1), (7, 13), (1, 31), (33, 1), (5, 64)]:
            a = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-3, 4)
            b = rng.standard_normal((cols, dim)) * 10.0 ** rng.integers(-3, 4)
            want = cdist(a, b, metric=_CDIST_METRIC[metric])
            assert _distances(a, b, metric, Scratch()).tobytes() == want.tobytes(), \
                (dim, rows, cols)
            # a transposed gather, as the kd-leaf path passes its candidates
            assert _distances(a, np.ascontiguousarray(b.T).T, metric,
                              Scratch()).tobytes() == want.tobytes()


def _stable_rows(block, k_max):
    ids = np.argsort(block, axis=1, kind="stable")[:, :k_max]
    return ids, np.take_along_axis(block, ids, axis=1)


def _self_excluded(coords, metric="euclidean", rows=slice(None)):
    """Distances from ``coords[rows]`` to every point, +inf to itself."""
    own = np.arange(coords.shape[0])[rows]
    block = _distances(coords[own], coords, metric, Scratch())
    block[np.arange(own.size), own] = np.inf
    return block


def _injected_ties(seed):
    # random rows where about a third of the entries repeat an earlier one
    rng = np.random.default_rng(seed)
    block = rng.random((40, 90))
    src = rng.integers(0, 90, size=block.shape)
    copy = rng.random(block.shape) < 0.3
    block[copy] = np.take_along_axis(block, src, axis=1)[copy]
    return block


@pytest.mark.parametrize("make", [
    lambda: _self_excluded(_horizon_ties()[0]),
    lambda: _self_excluded(_duplicates()[0], "manhattan"),
    lambda: _self_excluded(_lattice(70), rows=slice(None, None, 7)),
    lambda: _injected_ties(29),
    lambda: np.random.default_rng(30).random((25, 70))],
    ids=["horizon_ties", "duplicates", "lattice70", "injected_ties", "tie_free"])
def test_exact_knn_rows_matches_stable_sort(make):
    block = make()
    before = block.copy()
    width = block.shape[1]
    # from one column to every other one, and either side of two thirds of
    # the row
    for k_max in sorted({1, 7, 10, 60, (2 * width) // 3 - 1, (2 * width + 2) // 3,
                         width - 1}):
        ids, dists = _exact_knn_rows(block, k_max, Scratch())
        want_ids, want_dists = _stable_rows(block, k_max)
        np.testing.assert_array_equal(ids, want_ids)
        assert dists.tobytes() == want_dists.tobytes()
    np.testing.assert_array_equal(block, before)
