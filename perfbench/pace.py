"""Host-speed reference for the benchmark's CPU-bound timings.

On the 2-core reference machine the cores' speed changes by up to 2x
over seconds to minutes (shared hardware); process CPU time moves with
wall time, so it is the cores that slow down, not the scheduler taking
them away.  A 30-second run cannot average that away.  So each
measuring process runs a short fixed piece of pure-Python work, a
*pace chunk*, between operations, at most every ``INTERVAL_S``, and
reports its times scaled to a reference speed:

    scaled seconds = measured seconds x NOMINAL_CHUNK_S / mean chunk seconds

with the chunks taken while the operation ran.  The chunk is the
benchmark's, not the program's, so a change to the program moves a
scaled time exactly as much as the raw one; a change of host speed
moves both alike and cancels in the scaled one.  Chunk time is kept out
of every measured time.
"""

from __future__ import annotations

import functools
import statistics
import time

from spans import replace

#: Iterations of one chunk: 3-6 ms on the reference machine.
CHUNK_LOOP = 5_000
#: Chunk seconds of the reference speed (about the median chunk on the
#: reference machine); scaled times read as if every chunk took this.
NOMINAL_CHUNK_S = 0.004
INTERVAL_S = 0.1


class _Node:
    __slots__ = ("kind", "value", "children")

    def __init__(self, kind: str, value: int) -> None:
        self.kind, self.value, self.children = kind, value, []

    def weight(self) -> int:
        return len(self.kind) + self.value % 7


def _chunk_work() -> int:
    """Object-heavy interpreted work like the program's own (small
    objects, method calls, dict and list updates, short strings): it
    follows the host's speed changes more closely than an arithmetic
    loop, which under-corrected them by ~20%."""
    table: dict[str, _Node] = {}
    total = 0
    for i in range(CHUNK_LOOP):
        key = "k" + str(i % 97)
        node = _Node(key, i)
        parent = table.get(key)
        if parent is not None and len(parent.children) < 4:
            parent.children.append(i)
        table[key] = node
        total += node.weight()
    return total


class Pace:
    """Chunks taken in this process, and the time they took."""

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self.spent = 0.0
        self._last = float("-inf")

    def chunk(self) -> None:
        start = time.perf_counter()
        _chunk_work()
        end = time.perf_counter()
        self.chunks.append(end - start)
        self.spent += end - start
        self._last = end

    def tick(self) -> None:
        """A chunk, if the last one is ``INTERVAL_S`` old."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.chunk()

    def factor(self, since: int = 0) -> float:
        """Scale factor from the chunks taken since mark ``since``."""
        return NOMINAL_CHUNK_S / statistics.fmean(self.chunks[since:])

    def install(self, targets) -> None:
        """Tick before every call of ``targets`` (``(module, path)``
        pairs, as in ``spans.TARGETS``), so chunks keep coming while
        the program runs a long operation."""
        def wrap(func):
            @functools.wraps(func)
            def ticking(*args, **kwargs):
                self.tick()
                return func(*args, **kwargs)

            return ticking

        for module_name, path in targets:
            replace(module_name, path, wrap)

    def measure(self, work):
        """Run ``work()`` between an opening and a closing chunk, ticking
        through ``install``'s targets; returns (result, raw seconds,
        scaled seconds), chunk time left out of both."""
        since = len(self.chunks)
        self.chunk()
        spent = self.spent
        start = time.perf_counter()
        result = work()
        raw = time.perf_counter() - start - (self.spent - spent)
        self.chunk()
        return result, raw, raw * self.factor(since)

    def scale_setup(self, setup: float) -> float:
        """Scaled set-up seconds, from three chunks taken right after."""
        since = len(self.chunks)
        for _ in range(3):
            self.chunk()
        return setup * self.factor(since)
