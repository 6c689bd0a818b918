"""Table files: every column spec round-trips bit for bit through one writer and reader."""

import importlib.util
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densitopo import DataError, cli, clustering
from densitopo import tsv

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
