"""Row blocks, their scratch, and the CPUs they run on.

Every pass over the neighbor graph or a distance matrix reads it in row
blocks (:func:`row_blocks`), each pass with one :class:`Scratch`.  The kNN
passes run their blocks on a thread pool (:func:`map_blocks`); the density
estimate and the point and matrix reader run parts in forked processes
(:func:`forked`).
"""

from __future__ import annotations

import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

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
# resident until the call returns, so the stage's peak grows with the worker
# count.  On 2 CPUs a 20k-point 3-D mixture builds in about 1.05 s at 2^17,
# 2^18 and 2^19 entries per worker and peaks at 165, 170 and 185 MiB (1.38 s
# and 173 MiB at 2^19 with fresh scratch per block).  At 2^15, the serial
# passes' size, the kNN of a 10k-point 2-D mixture takes 0.60 against 0.43 s
# on 2 CPUs.
WORKER_ENTRIES = 1 << 17


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


def forked(parts: int, nbytes: int, fill) -> np.ndarray | None:
    """Run ``fill(out, part)`` for each of ``parts`` parts, part 0 in the
    calling process and each other in a forked one; return ``out``.

    ``out`` is ``nbytes`` zero bytes of an anonymous mapping that the forked
    processes share, the one way their results come back.  The result is
    None if any part raised an ``Exception`` or its process failed; a part
    that raises in a forked process exits with code 1, silently.  Every
    worker is reaped before this returns, and killed first if the caller's
    own part did not finish; an exception that is not an ``Exception``,
    such as ``KeyboardInterrupt``, then propagates.
    """
    # imported here: only a forked pass needs mmap and signal, and they add
    # 1-2 ms to the import of the package
    import mmap
    import signal

    pids = []
    try:
        out = np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.uint8)
        for part in range(1, parts):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    fill(out, part)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        fill(out, 0)
    except BaseException as exc:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        if not isinstance(exc, Exception):
            raise
        out = None
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    return None if any(codes) else out


def map_blocks(fn, blocks: list[tuple]) -> list:
    """Return ``[fn(scratch, *b) for b in blocks]``, in block order.

    The blocks run on a thread pool with one worker per usable CPU; the
    numpy kernels they call release the GIL.  With one CPU, or a single
    block, they run in the calling thread in order: scratch freed in a
    worker thread stays in that thread's malloc arena and raises the peak
    of later stages.  Each worker passes its blocks one :class:`Scratch`,
    freed when the call returns, so no result may be a view of it.  Callers
    size blocks by ``WORKER_ENTRIES``, the entries of one worker's scratch,
    so the CPU count is read here alone and the total scratch grows with
    it.  If a block raises, the blocks not yet started are cancelled and
    the exception propagates once the running ones have finished.
    """
    workers = min(usable_cpus(), len(blocks))
    if workers <= 1:
        scratch = Scratch()
        return [fn(scratch, *b) for b in blocks]
    by_thread: dict[int, Scratch] = {}

    def run(*b):
        ident = threading.get_ident()
        if ident not in by_thread:
            by_thread[ident] = Scratch()
        return fn(by_thread[ident], *b)

    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="densitopo-knn")
    try:
        futures = [pool.submit(run, *b) for b in blocks]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
