"""The block engine's forked parts: the one fork, reap, kill and rerun path
of the kNN, matrix, reader and density passes, and the one rule for how
many parts a pass forks and which items each part takes."""

import os
import time

import numpy as np
import pytest

from densitopo import _blocks
from densitopo._blocks import PART_ENTRIES, fill_parts
from forking import FORKS, count_forks, no_child_left, pretend_cpus


def _caller_log(fill):
    """``fill``, logging in the calling process the items of each call it
    makes there; return the wrapped fill and the log."""
    caller, calls = os.getpid(), []

    def logged(mine, *arrays):
        if os.getpid() == caller:
            calls.append(mine.tolist())
        fill(mine, *arrays)

    return logged, calls


@pytest.mark.skipif(not FORKS, reason="a pass forks only before Python 3.12")
def test_forked_parts_write_shared_memory_and_a_failed_worker_reruns_in_the_caller(
        monkeypatch):
    pretend_cpus(monkeypatch, 3)
    forks = count_forks(monkeypatch)

    def put(code=0, fault=None):
        def fill(mine, flags, values):
            flags[mine], values[mine, 0] = mine + 1, mine + 0.5
            if mine[0] and code:
                os._exit(code)
            if mine[0] == fault:
                1 / 0
        return _caller_log(fill)

    # 3 bytes of flags: the values start at the next multiple of 8
    layout = [((3,), np.uint8), ((3, 1), np.float64)]
    fill, calls = put()
    flags, values = fill_parts(3, 3, layout, fill)
    assert flags.tolist() == [1, 2, 3]
    assert values.tolist() == [[0.5], [1.5], [2.5]]
    assert values.ctypes.data % 8 == 0 and values.ctypes.data >= flags.ctypes.data + 3
    assert calls == [[0]] and len(forks) == 2  # each worker's part came back shared
    for fault in ({"code": 4}, {"fault": 2}):  # a worker exits non-zero, or raises
        fill, calls = put(**fault)
        flags, values = fill_parts(3, 3, layout, fill)
        assert flags.tolist() == [1, 2, 3]
        assert values.tolist() == [[0.5], [1.5], [2.5]]
        assert calls == [[0], [0, 1, 2]]  # the whole pass ran again in the caller
    assert len(forks) == 6
    no_child_left()


@pytest.mark.skipif(not FORKS, reason="a pass forks only before Python 3.12")
def test_forked_workers_are_killed_when_the_caller_is_interrupted(monkeypatch):
    pretend_cpus(monkeypatch, 2)

    def interrupted(mine, out):
        if mine[0] == 0:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fill_parts(2, 2, [((2,), np.uint8)], interrupted)
    assert time.monotonic() - start < 30  # the sleeping worker was killed, then reaped
    no_child_left()


@pytest.mark.skipif(not FORKS, reason="a pass forks only before Python 3.12")
def test_caller_part_error_kills_the_workers_and_reruns_in_the_caller(monkeypatch):
    pretend_cpus(monkeypatch, 3)

    def failing(mine, out):
        if mine[0] == 0:
            raise ValueError("the caller's part failed")
        time.sleep(60)

    fill, calls = _caller_log(failing)
    start = time.monotonic()
    with pytest.raises(ValueError, match="the caller's part failed"):
        fill_parts(3, 3, [((3,), np.uint8)], fill)
    assert time.monotonic() - start < 30  # the sleeping workers were killed, then reaped
    assert calls == [[0], [0, 1, 2]]  # and the rerun met the error a one-CPU run meets
    no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 5])
@pytest.mark.parametrize("work,parts", [(2 * PART_ENTRIES - 1, 1), (2 * PART_ENTRIES, 2),
                                        (5 * PART_ENTRIES, 5)],
                         ids=["below_two_parts", "two_parts", "five_parts"])
def test_fill_parts_forks_one_part_per_part_entries_of_work(work, parts, cpus, monkeypatch):
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: cpus)
    forks = count_forks(monkeypatch)

    def fill(mine, owner):
        owner[mine] = mine[0]  # part p's first item is item p

    owner, = fill_parts(work, 10, [((10,), np.int64)], fill)
    used = min(parts, cpus) if FORKS else 1
    assert len(forks) == used - 1
    assert owner.tolist() == [row % used for row in range(10)]
