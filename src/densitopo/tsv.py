"""Tab-separated tables: one column spec per file, one writer, one reader.

A spec is a tuple of ``(name, cast, formatter)`` columns.  The writer puts
the names on a ``#`` header line and formats every column with its
formatter; the reader skips blank and ``#`` lines, casts every field, and
returns whole columns.  Floats are written with ``repr``, the shortest text
that parses back to the same double, so ``read(write(x))`` is bit-equal.
Every failure to read a table is a :class:`DataError` naming the path and,
when a row is at fault, ``path:line`` and the column.
"""

from __future__ import annotations

import io
import os
import warnings
from array import array
from pathlib import Path

import numpy as np

from ._blocks import fork_cpus, forked
from .clustering import PeakAssignment, SaddleInfo, SaddleTable
from .density import DensityEstimate
from .errors import DataError
from .neighbors import NeighborGraph, PointSet


def _int(text: str) -> int:
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{text!r} is outside the int64 range")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"flag must be 0 or 1, got {text!r}")
    return text == "1"


_DTYPES = {_int: np.int64, _flag: np.bool_}  # views of a flag's 0/1 bytes; else float64
_TYPECODES = {_int: "q", _flag: "b"}  # read buffers; any other cast reads into "d"
_bit = "{:d}".format  # a flag is written as 0 or 1

DENSITY = (("point_id", _int, str), ("k_hat", _int, str), ("log_rho", _finite, repr),
           ("err", _finite, repr), ("r_khat", _finite, repr), ("fallback", _flag, _bit))
ASSIGNMENT = (("point_id", _int, str), ("label", _int, str), ("is_center", _flag, _bit),
              ("is_halo", _flag, _bit), ("g", _finite, repr), ("log_rho", _finite, repr),
              ("err", _finite, repr), ("k_hat", _int, str), ("delta", float, repr),
              ("parent", _int, str))
SADDLES = (("cluster_a", _int, str), ("cluster_b", _int, str), ("log_rho", _finite, repr),
           ("err", _finite, repr), ("border_point", _int, str))
TRUTH = (("point_id", _int, str), ("label", _int, str))
PURITY = (("cluster", _int, str), ("majority_label", _int, str), ("purity", _finite, repr),
          ("population", _int, str))
KNN = (("point_id", _int, str), ("neighbor_id", _int, str), ("distance", float, repr))


def confusion_spec(labels: np.ndarray) -> tuple:
    """Spec of a confusion table: the truth label, then one column per label."""
    return tuple((name, _int, str) for name in ["truth\\pred", *map(str, labels.tolist())])


def table_text(spec: tuple, columns) -> str:
    """The table as text: a ``#`` header of the column names, then one row per entry."""
    header = "# " + "\t".join(name for name, _, _ in spec)
    cells = [map(fmt, np.asarray(col).tolist()) for (_, _, fmt), col in zip(spec, columns)]
    return "\n".join([header] + ["\t".join(row) for row in zip(*cells)]) + "\n"


def read_table(path: str | Path, spec: tuple,
               allow_empty: bool = False) -> tuple[np.ndarray, list[np.ndarray]]:
    """Return the line number of every data row and one array per column.

    Rows are cast field by field into one typed buffer per column, so a
    row costs the bytes of its values, not a list of Python objects.  The
    arrays returned are views of those buffers, not copies.
    """
    lines = array("q")
    columns = [array(_TYPECODES.get(cast, "d")) for _, cast, _ in spec]
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(str(exc)) from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{lineno}: byte {exc.start + 1} is not "
                                f"UTF-8 text") from None
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != len(spec):
                raise DataError(f"{path}:{lineno}: expected {len(spec)} fields, "
                                f"got {len(fields)}")
            for (name, cast, _), text, column in zip(spec, fields, columns):
                try:
                    column.append(cast(text))
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {name}: {exc}") from None
            lines.append(lineno)
    if not lines and not allow_empty:
        raise DataError(f"{path}: empty input file")
    return np.frombuffer(lines, dtype=np.int64), [
        np.frombuffer(column, dtype=_DTYPES.get(cast, np.float64))
        for (_, cast, _), column in zip(spec, columns)]


def _reject(path: Path, lines: np.ndarray, bad: np.ndarray, why) -> None:
    """Raise a DataError at the first row where ``bad`` holds; ``why(row)`` says why."""
    hits = np.flatnonzero(bad)
    if hits.size:
        row = int(hits[0])
        raise DataError(f"{path}:{lines[row]}: {why(row)}")


def _reject_outside(path, lines, values: np.ndarray, stop: int, what: str) -> None:
    _reject(path, lines, (values < 0) | (values >= stop),
            lambda r: f"{what} {values[r]} outside 0..{stop - 1}")


def _reject_estimates(path, lines, k_hat: np.ndarray, err: np.ndarray) -> None:
    """Reject a neighborhood size below 1 or an error bar that is not positive."""
    _reject(path, lines, k_hat < 1, lambda r: f"k_hat: {k_hat[r]} is below 1")
    _reject(path, lines, err <= 0, lambda r: f"err: {float(err[r])!r} is not positive")


def _reject_repeats(path, lines, keys: np.ndarray, why) -> None:
    """Reject the first row holding an earlier row's key; ``why(row, earlier line)``."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    first = first[inverse]
    _reject(path, lines, first != np.arange(first.size),
            lambda r: why(r, lines[first[r]]))


# ---------------------------------------------------------------------------
# point and distance-matrix files

# Fewest bytes of a point or matrix file per forked part: a file is parsed
# by one process per usable CPU, but by no more than it holds parts of this
# size (see _forked_rows), so a file below twice this size is read by one
# np.loadtxt call.  On 2 CPUs (median of 21 reads each) a fork costs
# 5-10 ms: a 2 MB distance matrix took 33 ms forked against 30 ms serial,
# 4 MB 46 against 55 ms, 8 MB 84 against 110 ms, and a 74 MB one 0.62
# against 1.0 s.
_PART_BYTES = 1 << 21
# Bytes per read while counting lines, and per np.loadtxt call of a forked
# parse: 64 KiB chunks took 0.69-1.09 s on that 74 MB file, 256 KiB and
# 1 MiB 0.60-0.71 s.
_CHUNK_BYTES = 1 << 18


def _all_finite(arr: np.ndarray) -> bool:
    """No NaN or infinity in ``arr``; min and max propagate NaN, so no mask is built."""
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _loadtxt(data: bytes) -> np.ndarray:
    """``data`` parsed as ``np.loadtxt`` parses a file holding those bytes."""
    return np.loadtxt(io.TextIOWrapper(io.BytesIO(data)), comments="#", ndmin=2,
                      dtype=np.float64)


def _parse_range(path, lo: int, hi: int, out: np.ndarray) -> None:
    """Parse the whole lines in bytes ``lo..hi`` of ``path`` into the rows of ``out``.

    Raises ValueError unless every line gives one finite row as wide as ``out``.
    """
    row, tail, pos = 0, b"", lo
    with open(path, "rb") as fh:
        fh.seek(lo)
        while pos < hi:
            data = fh.read(min(_CHUNK_BYTES, hi - pos))
            if not data:
                raise ValueError("file shrank while read")
            pos += len(data)
            data = tail + data
            end = data.rfind(b"\n") + 1 if pos < hi else len(data)
            lines, tail = data[:end], data[end:]
            if not lines:
                continue
            rows = lines.count(b"\n") + (not lines.endswith(b"\n"))
            block = _loadtxt(lines)
            if block.shape != (rows, out.shape[1]) or not _all_finite(block):
                raise ValueError("not one finite row of equal width per line")
            out[row:row + rows] = block
            row += rows
    if row != out.shape[0]:
        raise ValueError("line count changed while read")


def _forked_rows(path) -> np.ndarray | None:
    """The float rows of a large file, parsed on every usable CPU; None if not.

    The file is cut at line boundaries into one part per usable CPU, but
    no more parts than it holds ``_PART_BYTES``.  The calling process
    parses the first part and one forked process each other part, all in
    chunks written straight into a shared anonymous mapping, which becomes
    the array returned (see :func:`_blocks.forked`).  None, for the
    caller to read the file serially, when :func:`_blocks.fork_cpus`
    gives one CPU, the file is below twice ``_PART_BYTES``, its first line
    is blank or a comment, its last line is blank, or any part faults (a
    line that is not one finite row of the first line's width, such as a
    bad field, a comment or blank line, or a worker exit other than 0).
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            workers = min(fork_cpus(), size // _PART_BYTES)
            if workers < 2:
                return None
            first = fh.readline()
            fh.seek(max(size - 4, 0))
            end = fh.read()
            if (first.startswith(b"#") or not first.strip()
                    or end.endswith((b"\n\n", b"\n\r\n"))):
                return None  # a comment or blank line first, or a blank line last
            width = _loadtxt(first).shape[1]
            cuts = [0]
            for i in range(1, workers):
                fh.seek(size * i // workers)
                fh.readline()
                cuts.append(fh.tell())
            cuts = sorted(set(cuts) | {size})
            part_rows = []
            fh.seek(0)
            for lo, hi in zip(cuts, cuts[1:]):
                part_rows.append(sum(fh.read(min(_CHUNK_BYTES, hi - at)).count(b"\n")
                                     for at in range(lo, hi, _CHUNK_BYTES)))
            part_rows[-1] += not end.endswith(b"\n")
    except (OSError, ValueError):
        return None
    stops = np.cumsum(part_rows).tolist()
    if stops[-1] * width > (size + 1) // 2:  # each value but the last ends in a separator
        return None
    starts = [0, *stops]

    def parse(part: int, rows: np.ndarray) -> None:
        _parse_range(path, cuts[part], cuts[part + 1], rows[starts[part]:stops[part]])

    out = forked(len(stops), [((stops[-1], width), np.float64)], parse)
    return None if out is None else out[0]


def _float_rows(path: str | Path) -> np.ndarray:
    """Every field of a TSV as a finite float, one row per data line.

    Large files are parsed by :func:`_forked_rows`; the rest, and any file
    it declines or faults on, by one ``np.loadtxt`` call.  A file numpy
    cannot read, or one holding a non-finite value, is read again as a
    table of finite columns as wide as its first data row, so the error
    names ``path:line`` and the column.
    """
    try:
        try:
            with warnings.catch_warnings():
                # an empty file is reported by the re-read, not as a numpy warning
                warnings.simplefilter("ignore", UserWarning)
                arr = _forked_rows(path)
                if arr is not None:
                    return arr
                arr = np.loadtxt(path, comments="#", ndmin=2, dtype=np.float64)
            if arr.size and _all_finite(arr):
                return arr
            fault = "non-finite value"
        except ValueError as exc:
            fault = exc
        with open(path, "rb") as fh:
            first = next((raw for raw in fh if raw.strip() and not raw.startswith(b"#")), b"")
    except OSError as exc:
        raise DataError(str(exc)) from None
    read_table(path, tuple((f"column {j + 1}", _finite, repr)
                           for j in range(first.count(b"\t") + 1)))
    raise DataError(f"{path}: {fault}")


def read_points_tsv(path: str | Path) -> PointSet:
    """Read a coordinate TSV (one point per row, '#' lines ignored).

    A file of 4 MiB or more is parsed on every usable CPU, one forked
    process per extra CPU.  It stays on one CPU when only one is usable,
    another Python thread runs, ``os.fork`` is missing, Python is 3.12 or
    later, or some line is not a row of numbers as wide as the first (a
    comment or blank line among them).  Either way the coordinates are the
    bytes ``np.loadtxt`` gives, and a fault is reported by the serial
    reader, naming ``path:line``.
    """
    rows = _float_rows(path)
    try:
        return PointSet(rows)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_points_tsv(points: np.ndarray, path: str | Path) -> None:
    """Write coordinates as TSV with shortest round-trip float formatting."""
    arr = np.asarray(points, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        for row in arr:
            fh.write("\t".join(repr(float(x)) for x in row) + "\n")


def read_distance_matrix_tsv(path: str | Path) -> np.ndarray:
    """Read a full pairwise distance matrix from TSV ('#' lines ignored).

    Parsed on every usable CPU, or on one, by the rule of
    :func:`read_points_tsv`: a file of 4 MiB or more whose every line is a
    row of numbers as wide as the first, with several CPUs usable and one
    Python thread running on a Python before 3.12 that has ``os.fork``.
    The matrix holds the same bytes either way: a C-contiguous, writable
    float64 array.
    """
    return _float_rows(path)


# ---------------------------------------------------------------------------
# stage files

def density_tsv_text(estimate: DensityEstimate) -> str:
    return table_text(DENSITY, [np.arange(estimate.n_points), estimate.k_hat,
                                estimate.log_rho, estimate.err, estimate.r_khat,
                                estimate.fallback])


def read_density_tsv(path: str | Path, k_max: int) -> DensityEstimate:
    lines, (point_id, k_hat, log_rho, err, r_khat, fallback) = read_table(path, DENSITY)
    _reject(path, lines, point_id != np.arange(point_id.size),
            lambda r: f"point ids must be dense and ordered, saw {point_id[r]} at row {r}")
    _reject_estimates(path, lines, k_hat, err)
    _reject(path, lines, k_hat > k_max,
            lambda r: f"k_hat: {k_hat[r]} is above the graph's k_max {k_max}")
    _reject(path, lines, r_khat < 0, lambda r: f"r_khat: {float(r_khat[r])!r} is negative")
    return DensityEstimate(k_hat=k_hat, log_rho=log_rho, err=err, r_khat=r_khat,
                           fallback=fallback)


def assignment_tsv_text(assignment: PeakAssignment, estimate: DensityEstimate) -> str:
    return table_text(ASSIGNMENT, [
        np.arange(estimate.n_points), assignment.labels, assignment.is_center,
        assignment.is_halo, assignment.g, estimate.log_rho, estimate.err,
        estimate.k_hat, assignment.delta, assignment.parent])


def read_assignment_tsv(path: str | Path) -> tuple[PeakAssignment, DensityEstimate]:
    """Rebuild assignment state (and the density columns it embeds).

    The centre rows carry the labels 0..K-1 once each; every row one of them.
    """
    lines, (point_id, labels, is_center, is_halo, g, log_rho, err, k_hat, delta,
            parent) = read_table(path, ASSIGNMENT)
    n = point_id.size
    _reject(path, lines, point_id != np.arange(n),
            lambda r: f"point ids must be dense and ordered, saw {point_id[r]} at row {r}")
    _reject_estimates(path, lines, k_hat, err)
    center_ids = np.flatnonzero(is_center)
    centers = center_ids[np.argsort(labels[center_ids], kind="stable")]
    if not np.array_equal(labels[centers], np.arange(centers.size)):
        raise DataError(f"{path}: center rows do not cover labels 0..K-1")
    _reject_outside(path, lines, labels, centers.size, "label")
    assignment = PeakAssignment(g=g, delta=delta, parent=parent, labels=labels,
                                is_center=is_center, is_halo=is_halo,
                                centers=centers.tolist())
    return assignment, DensityEstimate(
        k_hat=k_hat, log_rho=log_rho, err=err, r_khat=np.full(n, np.nan),
        fallback=np.zeros(n, dtype=bool))


def saddles_tsv_text(saddles: SaddleTable) -> str:
    rows = [(a, b, *info) for (a, b), info in sorted(saddles.entries.items())]
    return table_text(SADDLES, list(zip(*rows)))


def read_saddles_tsv(path: str | Path, n_clusters: int, n_points: int) -> SaddleTable:
    """Read the saddles between clusters 0..n_clusters-1 of points 0..n_points-1.

    Each row pairs two different clusters, and no pair is given twice.
    """
    lines, (a, b, log_rho, err, border) = read_table(path, SADDLES, allow_empty=True)
    _reject_outside(path, lines, a, n_clusters, "cluster")
    _reject_outside(path, lines, b, n_clusters, "cluster")
    _reject(path, lines, a == b, lambda r: f"cluster {a[r]} paired with itself")
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    _reject_repeats(path, lines, lo * n_clusters + hi,
                    lambda r, line: f"clusters {lo[r]} and {hi[r]} already paired "
                                    f"on line {line}")
    _reject_outside(path, lines, border, n_points, "border point")
    return SaddleTable(entries={
        (x, y): SaddleInfo(log_rho=rho, err=e, border_point=p)
        for x, y, rho, e, p in zip(lo.tolist(), hi.tolist(), log_rho.tolist(),
                                   err.tolist(), border.tolist())})


def read_truth_tsv(path: str | Path, n_points: int) -> np.ndarray:
    """Reference labels of points 0..n_points-1, each labelled exactly once."""
    lines, (point_id, label) = read_table(path, TRUTH)
    _reject_outside(path, lines, point_id, n_points, "point id")
    _reject_repeats(path, lines, point_id,
                    lambda r, line: f"point id {point_id[r]} already labelled on line {line}")
    if point_id.size < n_points:
        missing = np.setdiff1d(np.arange(n_points), point_id)[0]
        raise DataError(f"{path}: no label for point {missing}")
    truth = np.empty(n_points, dtype=np.int64)
    truth[point_id] = label
    return truth


def ingest_knn_file(path: str | Path) -> NeighborGraph:
    """Build a NeighborGraph from a kNN table (point_id, neighbor_id, distance rows).

    Rows are grouped by point id with distances non-decreasing inside each
    group, and every point 0..n-1 has the same number of neighbors.
    """
    lines, (point_id, neighbor_id, dist) = read_table(path, KNN)
    _reject(path, lines, ~np.isfinite(dist) | (dist < 0),
            lambda r: f"invalid distance {float(dist[r])!r}")
    _reject(path, lines, point_id == neighbor_id,
            lambda r: f"point {point_id[r]} lists itself as neighbor")
    _reject(path, lines, point_id < 0, lambda r: f"negative point id {point_id[r]}")
    start = np.flatnonzero(np.r_[True, point_id[1:] != point_id[:-1]])
    group = point_id[start]
    _reject_repeats(path, lines[start], group,
                    lambda j, _: f"rows for point {group[j]} are not contiguous")
    _reject(path, lines[1:], (point_id[1:] == point_id[:-1]) & (dist[1:] < dist[:-1]),
            lambda r: f"distances for point {point_id[r + 1]} decrease "
                      f"({float(dist[r + 1])!r} after {float(dist[r])!r})")
    order = np.argsort(group)
    gap = np.flatnonzero(group[order] != np.arange(group.size))
    if gap.size:
        raise DataError(f"{path}: missing neighbor rows for point {gap[0]}")
    counts = np.diff(np.r_[start, point_id.size])
    if (counts != counts[0]).any():
        raise DataError(f"{path}: inconsistent neighbor count across points")
    _reject_outside(path, lines, neighbor_id, group.size, "neighbor id")
    k_max = int(counts[0])
    ids, dists = neighbor_id.reshape(-1, k_max), dist.reshape(-1, k_max)
    if (group != np.arange(group.size)).any():  # gather only rows out of point order
        ids, dists = ids[order], dists[order]
    try:
        return NeighborGraph(ids, dists)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
