"""The pretend-CPU seam of the tests of forked passes: whether this
interpreter forks, a log of the forks, a check that every worker was
reaped, and a patch that pretends a CPU count with parts of any work."""

import os
import sys

import pytest

from densitopo import _blocks

# the interpreter half of ``_blocks.fork_cpus``: a pass forks only where
# ``os.fork`` exists, before Python 3.12
FORKS = hasattr(os, "fork") and sys.version_info < (3, 12)


def count_forks(monkeypatch) -> list[int]:
    """Log every ``os.fork`` call from now on."""
    log = []
    if hasattr(os, "fork"):
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: log.append(1) or fork())
    return log


def no_child_left() -> None:
    """Every forked worker has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pretend_cpus(monkeypatch, cpus: int) -> None:
    """``cpus`` usable CPUs, and a forked part of any work."""
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(_blocks, "PART_ENTRIES", 1)
