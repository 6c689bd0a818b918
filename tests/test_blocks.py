"""The block engine's forked parts: the one fork, reap and kill path of
the kNN, matrix, reader and density passes' workers, and the one rule for
how many parts a pass forks."""

import os
import time

import numpy as np
import pytest

from densitopo import _blocks
from densitopo._blocks import PART_ENTRIES, fill_parts, forked
from test_neighbors import FORKS, _count_forks


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


@pytest.mark.parametrize("cpus", [1, 2, 5])
@pytest.mark.parametrize("work,parts", [(2 * PART_ENTRIES - 1, 1), (2 * PART_ENTRIES, 2),
                                        (5 * PART_ENTRIES, 5)],
                         ids=["below_two_parts", "two_parts", "five_parts"])
def test_fill_parts_forks_one_part_per_part_entries_of_work(work, parts, cpus, monkeypatch):
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: cpus)
    forks = _count_forks(monkeypatch)

    def fill(part, of, owner):
        owner[part::of] = part

    owner, = fill_parts(work, 10, [((10,), np.int64)], fill)
    used = min(parts, cpus) if FORKS else 1
    assert len(forks) == used - 1
    assert owner.tolist() == [row % used for row in range(10)]
