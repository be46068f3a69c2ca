"""The shared-memory leak guard (``tests/conftest.py::_no_shm_leaks``)
counts and unlinks only the rings this process created: another
process's live segment is left alone, and a ring this process leaks is
still reported and removed."""

from __future__ import annotations

import os

import pytest

from repro.runtime.shm import SHM_PREFIX, ShmRing
from tests.conftest import _no_shm_leaks, own_shm_segments

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a /dev/shm tmpfs"
)


def run_guard(body) -> None:
    """One test's worth of the guard around ``body``."""
    guard = _no_shm_leaks.__wrapped__()
    next(guard)
    body()
    with pytest.raises(StopIteration):
        next(guard)


@pytest.mark.parametrize(
    "pid", [os.getppid(), int(f"{os.getpid()}0")], ids=["parent", "pid_prefix"]
)
def test_foreign_segment_survives_the_guard(pid):
    """A segment named for another pid — the parent, or a pid this
    process's pid is a prefix of — is neither a leak nor unlinked."""
    path = f"/dev/shm/{SHM_PREFIX}{pid}_guard_probe"
    try:
        run_guard(lambda: open(path, "wb").close())
        assert os.path.exists(path)
        assert path not in own_shm_segments()
    finally:
        if os.path.exists(path):
            os.unlink(path)


def test_own_leak_is_reported_and_removed():
    rings = []
    with pytest.raises(AssertionError, match="leaked shared-memory segments"):
        run_guard(lambda: rings.append(ShmRing.create(64, 1)))
    (ring,) = rings
    assert not os.path.exists(f"/dev/shm/{ring.name}")
    ring.destroy()
