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
import warnings
from array import array
from pathlib import Path

import numpy as np

from ._blocks import fill_parts
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


def text_lines(path: str | Path, error: type[Exception]):
    """``(line number, text)`` of each line of ``path`` as UTF-8, its line end
    dropped; a file that cannot be opened, or a byte that is not UTF-8, raises
    ``error`` naming it."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise error(str(exc)) from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{lineno}: byte {exc.start + 1} is not UTF-8 text") from None
            yield lineno, text.rstrip("\r\n")


def read_table(path: str | Path, spec: tuple, allow_empty: bool = False,
               sep: str | None = "\t") -> tuple[np.ndarray, list[np.ndarray]]:
    """Return the line number of every data row and one array per column.

    Text from a ``#`` to the end of its line is skipped, as ``np.loadtxt``
    skips it, and so is a line left blank.  Fields are split at ``sep``,
    or at any run of whitespace when it is None, as numpy splits them.
    Rows are cast field by field into one typed buffer per column, so a
    row costs the bytes of its values, not a list of Python objects.  The
    arrays returned are views of those buffers, not copies.
    """
    lines = array("q")
    columns = [array(_TYPECODES.get(cast, "d")) for _, cast, _ in spec]
    for lineno, line in text_lines(path, DataError):
        line = line.partition("#")[0]
        if not line.strip():
            continue
        fields = line.split(sep)
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

# Bytes per read while counting lines, and so about the bytes of each chunk
# one np.loadtxt call parses: forked on 2 CPUs, 64 KiB chunks read a 74 MB
# distance matrix in 0.69-1.09 s, 256 KiB and 1 MiB chunks in 0.60-0.71 s.
# On one CPU (min of 3 reads) 64 KiB took 1.00-1.24 s and 256 KiB to 4 MiB
# 0.94-1.02 s, where one np.loadtxt call of the whole file took 0.90-0.97 s.
_CHUNK_BYTES = 1 << 18


def _all_finite(arr: np.ndarray) -> bool:
    """No NaN or infinity in ``arr``; min and max propagate NaN, so no mask is built."""
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _loadtxt(data: bytes) -> np.ndarray:
    """``data`` parsed as ``np.loadtxt`` parses a file holding those bytes."""
    return np.loadtxt(io.TextIOWrapper(io.BytesIO(data)), comments="#", ndmin=2,
                      dtype=np.float64)


def _width(fh) -> int:
    """Fields on the first line of ``fh`` that holds any, split as numpy splits
    them: at whitespace, with text from a ``#`` on skipped; 0 if no line does."""
    return next((len(f) for f in (raw.partition(b"#")[0].split() for raw in fh) if f), 0)


def _parsed_rows(path) -> np.ndarray:
    """The rows of ``path`` parsed chunk by chunk (see :func:`_float_rows`).

    Raises ValueError unless every row is finite and as wide as the first.
    """
    with open(path, "rb") as fh:
        width = _width(fh)
        fh.seek(0)
        cuts, lines, at = [0], [], 0  # a chunk ends after the last newline of a read
        for data in iter(lambda: fh.read(_CHUNK_BYTES), b""):
            if b"\n" in data:
                cuts.append(at + data.rfind(b"\n") + 1)
                lines.append(data.count(b"\n"))
            at += len(data)
        if cuts[-1] < at:  # a last line without a newline
            cuts.append(at)
            lines.append(1)
    if not width:
        return np.empty((0, 0))
    # a chunk holds no more rows than lines, nor than its bytes can: each
    # value but the file's last ends in a separator or a newline
    room = [min(n, (hi - lo + 1) // (2 * width)) for lo, hi, n in zip(cuts, cuts[1:], lines)]
    starts = np.cumsum([0, *room]).tolist()

    def fill(mine: np.ndarray, table: np.ndarray, used: np.ndarray) -> None:
        with open(path, "rb") as fh:
            for c in mine.tolist():
                fh.seek(cuts[c])
                data = fh.read(cuts[c + 1] - cuts[c])
                block = _loadtxt(data)
                if (len(data) < cuts[c + 1] - cuts[c] or len(block) > room[c]
                        or len(block) and (block.shape[1] != width or not _all_finite(block))):
                    raise ValueError(f"not one finite row of {width} values per line")
                table[starts[c]:starts[c] + len(block)] = block
                used[c] = len(block)

    table, used = fill_parts(at // 4, len(room), [((starts[-1], width), np.float64),
                                                  ((len(room),), np.int64)], fill)
    if used.sum() < starts[-1]:  # comment or blank lines left rows unused
        table = np.concatenate([table[s:s + n] for s, n in zip(starts, used.tolist())])
    return table


def _float_rows(path: str | Path) -> np.ndarray:
    """Every field of a TSV as a finite float, one row per data line.

    One pass cuts the file into chunks of whole lines, about
    ``_CHUNK_BYTES`` each, and counts each chunk's lines.  The table is as
    wide as the first data line, with a row per line of each chunk, or as
    many as the chunk's bytes can hold at that width if fewer.  The chunks
    are the items of :func:`_blocks.fill_parts`, which parses each into its
    rows, on every usable CPU once the file holds two parts of
    ``4 * PART_ENTRIES`` bytes, 4 MiB.  Comment and blank lines leave rows
    unused, which are dropped by one copy at the end.  A file numpy cannot
    read, or one holding a non-finite value, is read again as a table of
    finite columns as wide as its first data line, so the error names
    ``path:line`` and the column.
    """
    try:
        try:
            with warnings.catch_warnings():
                # a chunk of comment or blank lines gives no rows, not a numpy warning
                warnings.simplefilter("ignore", UserWarning)
                arr = _parsed_rows(path)
            if arr.size:
                return arr
            fault = "no data rows"
        except ValueError as exc:
            fault = exc
        with open(path, "rb") as fh:
            width = _width(fh)
    except OSError as exc:
        raise DataError(str(exc)) from None
    read_table(path, tuple((f"column {j + 1}", _finite, repr) for j in range(width)), sep=None)
    raise DataError(f"{path}: {fault}")


def read_points_tsv(path: str | Path) -> PointSet:
    """Read a coordinate TSV (one point per row, text from a '#' on ignored).

    The coordinates are the bytes ``np.loadtxt`` gives.  A file of 4 MiB or
    more is parsed on every usable CPU, one forked process per extra CPU,
    unless a fork is unsafe (see :func:`_blocks.fork_cpus`); a fault is
    reported by the one-CPU parse, naming ``path:line`` and the column.
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
    """Read a full pairwise distance matrix from TSV (text from a '#' on ignored).

    Parsed as :func:`read_points_tsv` parses, into a C-contiguous, writable
    float64 array holding the bytes ``np.loadtxt`` gives, on any CPU count.
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
