"""The block engine: row blocks on every usable CPU, and forked parts."""

import os
import sys
import time

import numpy as np
import pytest

from densitopo._blocks import forked
from densitopo.neighbors import _tree_knn
from oracles import brute_knn
from test_neighbors import _duplicates, _small_blocks


def test_row_blocks_under_rapid_thread_switching(monkeypatch):
    coords, k_max = _duplicates()
    _small_blocks(monkeypatch, 5, coords, k_max)  # more workers than cores
    ids, dists = brute_knn(coords, k_max, "manhattan")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got_ids, got_dists = _tree_knn(coords, k_max, "manhattan")
        np.testing.assert_array_equal(got_ids, ids)
        assert got_dists.tobytes() == dists.tobytes()
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# forked passes: the one fork, reap and kill path of the point, matrix and
# density readers' workers


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_tasks_write_shared_memory_and_report_worker_failure():
    def put(code=0, fault=None):
        def fill(part, flags, values):
            flags[part], values[part] = part + 1, part + 0.5
            if part and code:
                os._exit(code)
            if part == fault:
                1 / 0
        return fill

    def layout(parts):
        # 3 bytes of flags: the values start at the next multiple of 8
        return [((parts,), np.uint8), ((parts, 1), np.float64)]

    flags, values = forked(3, layout(3), put())
    assert flags.tolist() == [1, 2, 3]
    assert values.tolist() == [[0.5], [1.5], [2.5]]
    assert values.ctypes.data % 8 == 0 and values.ctypes.data >= flags.ctypes.data + 3
    assert forked(2, layout(2), put(code=4)) is None
    assert forked(3, layout(3), put(fault=2)) is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_workers_are_killed_when_the_caller_raises():
    def interrupted(part, out):
        if part == 0:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        forked(2, [((1,), np.uint8)], interrupted)
    assert time.monotonic() - start < 30  # the sleeping worker was killed, then reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_caller_error_kills_the_workers_and_gives_none():
    def failing(part, out):
        if part == 0:
            raise ValueError("the caller's part failed")
        time.sleep(60)

    start = time.monotonic()
    assert forked(3, [((1,), np.uint8)], failing) is None
    assert time.monotonic() - start < 30  # the sleeping workers were killed, then reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
