"""The host's speed, sampled while timed work runs, to scale wall times to a
reference speed.

The benchmark runs on a share of a host whose speed changes by up to two
times from one second to the next, and between spells of minutes, while CPU
time stays equal to wall time.  A wall time alone then measures the host as
much as the program.  ``Sampler`` interrupts the timed work every
``INTERVAL_S`` with a fixed probe of pure-Python work that does not touch
chaintop, and times the probe's second, warm pass.  The mean of
``REF_NS / probe_ns`` over the samples is the share of the reference speed
the host gave during the work; the work's wall time, less the time spent in
the probes, times that share is its time at the reference speed.  A change to
chaintop changes the wall time and leaves the probe alone, so it shows in full.

Only ``perf_counter_ns``, ``setitimer`` and ``SIGALRM`` are used, so a
sampled process stays single-threaded.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.01
# one warm probe pass at the reference speed; the fastest pass seen inside a
# sampled op on a shared 2-vCPU x86-64 host under Python 3.11 took 110 us
REF_NS = 100_000


class _Cell:
    __slots__ = ("key", "tag")

    def __init__(self, key: int, tag: int):
        self.key = key
        self.tag = tag

    def __lt__(self, other: "_Cell") -> bool:
        return self.key < other.key


def probe() -> int:
    """Fixed interpreter work: calls, small objects, a sort, a dict, int ops."""
    table: dict[int, int] = {}
    cells = []
    x = 12345
    for i in range(120):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        cells.append(_Cell(x >> 8, i))
        table[x & 63] = table.get(x & 63, 0) + 1
    cells.sort()
    acc = 0
    for c in cells:
        acc ^= c.key >> (c.tag & 7)
    return acc + len(table)


def probe_ns() -> tuple[int, int]:
    """Two probe passes with the collector held off: (warm pass, both)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        probe()
        t1 = time.perf_counter_ns()
        probe()
        t2 = time.perf_counter_ns()
    finally:
        if enabled:
            gc.enable()
    return t2 - t1, t2 - t0


class Sampler:
    """Samples the host's speed while a block runs; not reentrant."""

    def __init__(self):
        self.shares: list[float] = []
        self.overhead_ns = 0

    def _sample(self, signum, frame) -> None:
        warm, spent = probe_ns()
        self.shares.append(REF_NS / warm)
        self.overhead_ns += spent

    def __enter__(self) -> "Sampler":
        self.shares.clear()
        self.overhead_ns = 0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def share(self) -> float:
        """The mean share of the reference speed, probed once now if the
        block was shorter than one interval."""
        if not self.shares:
            self._sample(None, None)
        return sum(self.shares) / len(self.shares)

    def scaled_ns(self, wall_ns: int) -> float:
        """``wall_ns`` of the sampled block, less its probes, at the reference speed."""
        inside = self.overhead_ns
        return (wall_ns - inside) * self.share()
