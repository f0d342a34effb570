"""Fixtures shared by the test modules."""

import builtins

import pytest

from skelcl import skeleton


class _FillingFile:
    """A file open for writing on a disk that fills after `budget` bytes:
    the write that crosses the budget writes what fits, then raises."""

    def __init__(self, fh, budget: int):
        self.fh = fh
        self.budget = budget

    def write(self, data) -> int:
        view = memoryview(data)
        if view.nbytes > self.budget:
            self.fh.write(view.cast("B")[: self.budget])
            self.budget = 0
            raise OSError("disk full")
        self.budget -= view.nbytes
        return self.fh.write(view)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture
def disk_fills_after(monkeypatch):
    """`disk_fills_after(n)`: from then on, every file the codec opens for
    writing sees the disk fill once n bytes in all have been written."""

    def install(budget: int) -> None:
        left = [budget]

        def opener(path, mode="r", *args, **kwargs):
            fh = builtins.open(path, mode, *args, **kwargs)
            if "w" not in mode:
                return fh
            filling = _FillingFile(fh, left[0])
            left[0] = 0  # one budget across every file
            return filling

        monkeypatch.setattr(skeleton, "open", opener, raising=False)

    return install
