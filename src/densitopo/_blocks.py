"""Row blocks, their scratch, and the CPUs they run on.

Every pass over the neighbor graph or a distance matrix reads it in row
blocks (:func:`row_blocks`), each pass with one :class:`Scratch`.  The point
and matrix reader, the kNN passes and the density estimate run in parts, one
per ``PART_ENTRIES`` of work up to the usable CPUs, part 0 in the caller and
each other in a forked process (:func:`fill_parts`).
"""

from __future__ import annotations

import math
import os
import sys
import threading

import numpy as np

# Entries of an n x k_max or n x n table per block of a serial pass: the
# graph's and a distance matrix's checks, the density retry and fits, and
# the clustering passes.  A pass holds a few bytes of temporaries per entry
# of one block, not of the table.  Its scratch is freed when it returns,
# below the arrays it made, so it stays resident as free heap: at 2^16
# entries a uniform2d run peaked 1.5 MB higher than at 2^15, in the same
# time.  :func:`row_blocks` reads it when a pass runs, so one setting
# reaches every pass.
BLOCK_ENTRIES = 1 << 15

# Distance entries per block of one kNN worker: the rows of a kd leaf's
# bounds, and of the selection against a leaf's candidates or every point.
# Each worker owns one scratch of this size, reused from block to block and
# resident until the call returns.  Each worker is a process of its own, so
# the caller holds one worker's scratch whatever the CPU count.  On 2 CPUs
# a 20k-point 3-D mixture at the default k_max built in 0.82-0.85 s at 2^15
# entries (the serial passes' size), 0.78-0.79 s at 2^17, 0.82-0.84 s at
# 2^18 and 0.78-0.80 s at 2^19, peaking at 155 MiB, and 159 MiB at 2^19.
WORKER_ENTRIES = 1 << 17

# Fewest entries of work per forked part (:func:`fill_parts`), so a pass
# forks from twice this, 1,048,576, on.  Every pass forked on 2 CPUs against
# one, in ms (median of 15 interleaved calls; entries read by each pass):
# 2-D kd kNN 11.3 against 0.9 at 5k + 10k, 20.4 against 10.8 at 187k + 301k,
# 34.8 against 31.5 at 626k + 1.0M and 63.9 against 73.9 at 2.1M + 2.0M; 20-D
# kd kNN 27.0 against 24.9 at 90k + 360k, 46.0 against 54.0 at 63k + 1.0M;
# matrices 13.2 against 7.8 at 640k, 18.5 against 13.9 at 1.2M, 28.9 against
# 30.1 at 2.3M, 81.7 against 98.8 at 9M; density 47 against 42 at 562k, 53
# against 55 at 1.0M, 97 against 139 at 1.5M.  Given up knowingly: the 20-D
# gain at 1.0M, and 4-5 ms forked on matrices of 1,024 to about 1,400 points.
PART_ENTRIES = 1 << 19


def row_blocks(n_rows: int, row_width: int, budget: int | None = None) -> list[tuple[int, int]]:
    """``(start, stop)`` of contiguous row blocks of at most ``budget`` entries
    (``BLOCK_ENTRIES`` by default); a block holds at least one row, however wide."""
    step = max(1, (BLOCK_ENTRIES if budget is None else budget) // row_width)
    return [(s, min(n_rows, s + step)) for s in range(0, n_rows, step)]


class Scratch:
    """Working arrays reused by every block one worker runs in one call.

    ``take(name, shape, dtype, offset)`` returns a C-contiguous view that
    starts ``offset`` bytes into the byte buffer called ``name`` and holds
    whatever an earlier block left there; the buffer is replaced by a larger
    one when a wider block asks for more.  Views of one name share its
    bytes, so arrays whose lives do not overlap can share a buffer.  Fresh
    block-sized temporaries are handed back to the kernel by malloc between
    blocks and faulted in again for the next one; reused buffers are faulted
    in once.  A caller makes one per worker for the length of one call, and
    the buffers are freed with it: kept any longer, they would raise the
    peak of later stages.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64,
             offset: int = 0) -> np.ndarray:
        dtype = np.dtype(dtype)
        end = offset + math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.size < end:
            buf = self._buffers[name] = None  # freed before its successor is made
            buf = self._buffers[name] = self._allocate(name, end)
        return buf[offset:end].view(dtype).reshape(shape)

    def _allocate(self, name: str, nbytes: int) -> np.ndarray:
        return np.empty(nbytes, dtype=np.uint8)


def take(table: np.ndarray, index: np.ndarray, out: np.ndarray | None,
         axis: int | None = None) -> np.ndarray:
    """``np.take(table, index, axis)``, written into ``out`` when given.

    The indices are in range: mode "clip" only keeps numpy from writing
    through a copy of ``out``, as it does in mode "raise".  ``table`` is
    C-contiguous, or numpy copies all of it first.
    """
    return np.take(table, index, axis=axis, out=out, mode="clip")


def take_rows(table: np.ndarray, cols: np.ndarray, flat: np.ndarray | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """``table[r, cols[r]]`` per row r, as take_along_axis but by flat index.

    The flat index is written into ``flat`` when given, shaped as ``cols``
    (``cols`` itself will do), and ``table`` is C-contiguous, or numpy
    would copy it.  On a 24 x 4,000 block at 512 columns it took 31 against
    76 us.
    """
    flat = np.add(cols, (np.arange(cols.shape[0]) * table.shape[1])[:, None], out=flat)
    return take(table, flat, out)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fork_cpus() -> int:
    """Processes a forked pass may run on: the usable CPUs, or 1 where a
    fork is unsafe: ``os.fork`` is missing, a second Python thread runs, or
    the interpreter is 3.12 or later (where forking a process with threads
    warns, and numpy's BLAS starts one)."""
    if (not hasattr(os, "fork") or threading.active_count() != 1
            or sys.version_info >= (3, 12)):
        return 1
    return usable_cpus()


def forked(parts: int, layout, fill) -> tuple[np.ndarray, ...] | None:
    """Run ``fill(part, *arrays)`` for each of ``parts`` parts, part 0 in the
    calling process and each other in a forked one; return the arrays.

    ``layout`` lists the ``(shape, dtype)`` of each array, and the arrays
    are zeros in one anonymous mapping that the forked processes share,
    the one way their results come back.  The result is None if any part
    raised an ``Exception`` or its process failed; a part that raises in a
    forked process exits with code 1, silently.  Every worker is reaped
    before this returns, and killed first if the caller's own part did not
    finish; an exception that is not an ``Exception``, such as
    ``KeyboardInterrupt``, then propagates.
    """
    # imported here: only a forked pass needs mmap and signal, and they add
    # 1-2 ms to the import of the package
    import mmap
    import signal

    nbytes = [math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layout]
    # each array starts at a multiple of 8 bytes, so every dtype is aligned
    starts = np.cumsum([0, *(-(-size // 8) * 8 for size in nbytes)]).tolist()
    pids = []
    try:
        buf = np.frombuffer(mmap.mmap(-1, starts[-1]), dtype=np.uint8)
        arrays = tuple(buf[at:at + size].view(dtype).reshape(shape)
                       for (shape, dtype), at, size in zip(layout, starts, nbytes))
        for part in range(1, parts):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    fill(part, *arrays)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        fill(0, *arrays)
    except BaseException as exc:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        if not isinstance(exc, Exception):
            raise
        arrays = None
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    return None if any(codes) else arrays


def fill_parts(work: int, items: int, layout, fill) -> tuple[np.ndarray, ...]:
    """Arrays of ``layout``, a list of ``(shape, dtype)``, filled by ``fill(part,
    parts, *arrays)``, each call one part of a pass over ``items`` independent items
    (chunks of a file, kd leaves, row blocks, points) writing only that part's
    entries.  ``work`` counts the entries the pass reads: a quarter of the bytes of
    a points or matrix file, the distances a kNN pass computes or copies, rows x
    candidates, and the n x cap table entries of the density.  The pass is
    cut into ``work // PART_ENTRIES`` parts, but no more than :func:`fork_cpus` or
    ``items``: part 0 runs in the caller and each other in a forked process
    (:func:`forked`).  With one part, or if any part raises or its process fails,
    ``fill(0, 1, *arrays)`` runs the whole pass in the caller, into arrays of its
    own: the result, and any error, are a one-CPU run's.
    """
    parts = min(work // PART_ENTRIES, fork_cpus(), items)
    arrays = forked(parts, layout, lambda p, *out: fill(p, parts, *out)) if parts > 1 else None
    if arrays is None:
        arrays = tuple(np.empty(shape, dtype) for shape, dtype in layout)
        fill(0, 1, *arrays)
    return arrays
