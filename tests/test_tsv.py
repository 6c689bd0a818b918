"""Table files: every column spec round-trips bit for bit through one writer and reader."""

import importlib.util
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitopo import DataError, _blocks, cli, clustering
from densitopo import tsv
from forking import FORKS, count_forks, no_child_left, pretend_cpus

SPECS = {"density": tsv.DENSITY, "assignment": tsv.ASSIGNMENT, "saddles": tsv.SADDLES,
         "truth": tsv.TRUTH, "purity": tsv.PURITY, "knn": tsv.KNN,
         "confusion": tsv.confusion_spec(np.array([-3, 0, 7]))}

INT64 = np.iinfo(np.int64)
EDGE_INTS = [INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max]
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.1,
               1.7976931348623157e308, -1.7976931348623157e308, 1e22, 2.0 ** 53 + 2]

# values of every cast: floats that parse back finite, or any non-NaN float
CAST_VALUES = {
    tsv._int: st.integers(INT64.min, INT64.max),
    tsv._flag: st.booleans(),
    tsv._finite: st.floats(allow_nan=False, allow_infinity=False),
    float: st.floats(allow_nan=False),
}


def _round_trip(spec, columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.tsv"
        path.write_text(tsv.table_text(spec, columns), encoding="utf-8")
        return tsv.read_table(path, spec, allow_empty=True)


def _assert_bit_equal(spec, columns, back_lines, back):
    n = len(columns[0])
    np.testing.assert_array_equal(back_lines, np.arange(2, n + 2))
    for (name, cast, _), col, got in zip(spec, columns, back):
        want = np.array(col, dtype=tsv._DTYPES.get(cast, np.float64))
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("name", sorted(SPECS))
def test_edge_values_round_trip_bit_equal(name):
    spec = SPECS[name]
    values = {tsv._int: EDGE_INTS, tsv._flag: [True, False] * 5 + [True],
              tsv._finite: EDGE_FLOATS, float: EDGE_FLOATS[:-2] + [np.inf, -np.inf]}
    n = min(len(v) for v in values.values())
    columns = [values[cast][:n] for _, cast, _ in spec]
    _assert_bit_equal(spec, columns, *_round_trip(spec, columns))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(SPECS)),
       n=st.integers(min_value=0, max_value=12))
def test_every_spec_round_trips_bit_equal(data, name, n):
    spec = SPECS[name]
    columns = [data.draw(st.lists(CAST_VALUES[cast], min_size=n, max_size=n), label=col)
               for col, cast, _ in spec]
    _assert_bit_equal(spec, columns, *_round_trip(spec, columns))


def test_header_comes_from_the_spec():
    text = tsv.table_text(tsv.TRUTH, [[0, 1], [5, 6]])
    assert text == "# point_id\tlabel\n0\t5\n1\t6\n"
    assert tsv.table_text(tsv.SADDLES, []) == (
        "# cluster_a\tcluster_b\tlog_rho\terr\tborder_point\n")


@pytest.mark.parametrize("body,where", [
    (b"0\t99999999999999999999\n", ":2: label:"),
    (b"0\t-9223372036854775809\n", ":2: label:"),
    (b"0\t1\n1\t\xff\n", ":3:"),
    (b"0\t1\t2\n", ":2:"),
])
def test_reader_names_path_line_and_column(tmp_path, body, where):
    path = tmp_path / "t.tsv"
    path.write_bytes(b"# point_id\tlabel\n" + body)
    with pytest.raises(DataError, match=str(path) + where):
        tsv.read_table(path, tsv.TRUTH)


def test_reader_skips_text_from_a_hash_as_numpy_does(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes(b"# point_id\tlabel\n  # indented\n0\t5 # note\n \t\n1\t6#x\n")
    lines, (point_id, label) = tsv.read_table(path, tsv.TRUTH)
    assert lines.tolist() == [3, 5]
    assert point_id.tolist() == [0, 1] and label.tolist() == [5, 6]


@pytest.mark.parametrize("make", [lambda p: p / "missing.tsv", lambda p: p])
def test_reader_maps_unopenable_paths_to_data_error(tmp_path, make):
    path = make(tmp_path)
    with pytest.raises(DataError, match=str(path)):
        tsv.read_table(path, tsv.TRUTH)


def test_traced_names_resolve():
    # the benchmark tracer wraps these module attributes by name
    spans_path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, table in ((cli, spans.CLI_SPANS), (clustering, spans.CLUSTERING_SPANS)):
        for attr, _ in table:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


# ---------------------------------------------------------------------------
# point and matrix files parsed on every usable CPU

@pytest.fixture
def forks(monkeypatch):
    """Parse every file as a large one, in 64-byte chunks; return the fork log."""
    monkeypatch.setattr(_blocks, "PART_ENTRIES", 1)
    monkeypatch.setattr(tsv, "_CHUNK_BYTES", 64)
    return count_forks(monkeypatch)


def _matrix(n=23, seed=3):
    coords = np.random.default_rng(seed).standard_normal((n, 3)) * 50
    return np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(axis=2))


def _tsv_bytes(rows, newline=b"\n"):
    return newline.join(b"\t".join(repr(float(x)).encode() for x in row)
                        for row in rows) + newline


def _assert_same_as_loadtxt(path):
    want = np.loadtxt(path, comments="#", ndmin=2, dtype=np.float64)
    got = [tsv.read_distance_matrix_tsv(path), tsv.read_points_tsv(path).coords]
    for arr in got:
        assert arr.dtype == np.float64 and arr.shape == want.shape
        assert arr.flags.c_contiguous and arr.flags.writeable
        assert arr.tobytes() == want.tobytes()


def _comments_at_a_cut():
    """Rows with a comment line ending the first 64-byte read, so the first
    chunk ends in a comment line and the second starts with one."""
    rows = _tsv_bytes(np.arange(400.0).reshape(200, 2))
    head = rows[:rows.index(b"\n", 20) + 1]
    note = b"# " + b"c" * (63 - len(head) - 2) + b"\n"
    text = head + note + b"# after the cut\n" + rows[len(head):]
    assert text[63:64] == b"\n" and text[64:65] == b"#" and b"\n#" in text[:64]
    return text


PARALLEL_FILES = {
    "plain": _tsv_bytes(_matrix()),
    "crlf": _tsv_bytes(_matrix(), b"\r\n"),
    "no-final-newline": _tsv_bytes(_matrix())[:-1],
    "inline-comment": _tsv_bytes(_matrix()).replace(b"\n", b"\t# row\n", 7),
    "leading-comment": b"# distances\n" + _tsv_bytes(_matrix()),
    "leading-blank": b"\n" + _tsv_bytes(_matrix()),
    "trailing-blank": _tsv_bytes(_matrix()) + b"\n",
    "trailing-blank-crlf": _tsv_bytes(_matrix(), b"\r\n") + b"\r\n",
    "whitespace-line": _tsv_bytes(_matrix()).replace(b"\n", b"\n \t \n", 3),
    "comments-at-a-cut": _comments_at_a_cut(),
    # one-character values: a row takes no more bytes than its values need
    "short-values-and-blank-lines": b"0\t1\n\n1\t0\n\n" * 60,
}


@pytest.mark.parametrize("cpus", [2, 5])  # 5: more processes than most machines have cores
@pytest.mark.parametrize("name", sorted(PARALLEL_FILES))
def test_forked_parse_equals_loadtxt(tmp_path, monkeypatch, forks, name, cpus):
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: cpus)
    path = tmp_path / "m.tsv"
    path.write_bytes(PARALLEL_FILES[name])
    _assert_same_as_loadtxt(path)
    assert len(forks) == (2 * (cpus - 1) if FORKS else 0)
    no_child_left()


def test_comment_or_blank_line_further_down_forks_and_equals_loadtxt(tmp_path,
                                                                      monkeypatch, forks):
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: 2)
    lines = _tsv_bytes(_matrix()).splitlines(keepends=True)
    path = tmp_path / "m.tsv"
    for extra in (b"# late comment\n", b"\n", b"  \n"):
        path.write_bytes(b"".join(lines[:3] + [extra] + lines[3:17] + [extra] + lines[17:]))
        _assert_same_as_loadtxt(path)
        no_child_left()
    assert len(forks) == (6 if FORKS else 0)


def test_fork_selection_follows_usable_cpus(tmp_path, forks):
    # one CPU (as under ``taskset -c 0``) parses in the calling process
    path = tmp_path / "m.tsv"
    path.write_bytes(PARALLEL_FILES["plain"])
    _assert_same_as_loadtxt(path)
    want = 2 * (_blocks.usable_cpus() - 1) if FORKS else 0
    assert len(forks) == want


def test_no_more_workers_than_parts_of_part_bytes(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: 5)
    path = tmp_path / "m.tsv"
    path.write_bytes(PARALLEL_FILES["plain"])
    monkeypatch.setattr(_blocks, "PART_ENTRIES", path.stat().st_size // 12)
    _assert_same_as_loadtxt(path)
    assert len(forks) == (2 * 2 if FORKS else 0)  # three parts per read


@pytest.mark.parametrize("case", ["small-file", "one-cpu", "second-thread"])
def test_serial_unless_every_condition_holds(tmp_path, monkeypatch, forks, case):
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: 1 if case == "one-cpu" else 2)
    path = tmp_path / "m.tsv"
    path.write_bytes(PARALLEL_FILES["plain"])
    if case == "small-file":
        monkeypatch.setattr(_blocks, "PART_ENTRIES", path.stat().st_size // 8 + 1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "second-thread":
        thread.start()
    try:
        _assert_same_as_loadtxt(path)
    finally:
        stop.set()
        if case == "second-thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


# in 64-byte reads each of these rows is a chunk of its own, and part p of
# two takes chunks p, p + 2, ...: line 23 is chunk 22, line 2 chunk 1
@pytest.mark.parametrize("line", [23, 2], ids=["caller-part", "worker-part"])
@pytest.mark.parametrize("value", [b"x", b"nan", b"1.0\t2.0"])
def test_forked_fault_reads_again_serially_and_reaps(tmp_path, monkeypatch, forks,
                                                     line, value):
    path = tmp_path / "m.tsv"
    lines = _tsv_bytes(_matrix()).splitlines()
    lines[line - 1] = lines[line - 1].replace(b"\t", b"\t" + value + b"\t", 1)
    path.write_bytes(b"\n".join(lines) + b"\n")
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: 1)
    with pytest.raises(DataError) as serial:
        tsv.read_distance_matrix_tsv(path)
    assert forks == []
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: 2)
    with pytest.raises(DataError) as forked:
        tsv.read_distance_matrix_tsv(path)
    assert len(forks) == (1 if FORKS else 0)
    assert str(forked.value) == str(serial.value)
    assert f"{path}:{line}:" in str(forked.value)
    no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_wide_first_line_is_a_data_error_before_a_table_is_sized(tmp_path, monkeypatch,
                                                                 cpus):
    # a table of one row per line as wide as the first would hold 10^5 x 10^5
    # values, 80 GB; each chunk holds no more rows of that width than its
    # bytes can, here one
    pretend_cpus(monkeypatch, cpus)
    path = tmp_path / "wide.tsv"
    path.write_bytes(b"\t".join([b"0"] * 10**5) + b"\n" + b"1\t2\n" * 10**5)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=f"{path}:2: expected 100000 fields, got 2"):
            tsv.read_points_tsv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the re-read that names the line holds a buffer per column, near 28 MB
    assert peak < 64 * path.stat().st_size
    no_child_left()


def test_finiteness_check_finds_nan_and_infinities():
    arr = np.ones((4, 5))
    assert tsv._all_finite(arr)
    for bad in (np.nan, np.inf, -np.inf):
        arr[2, 3] = bad
        assert not tsv._all_finite(arr)
