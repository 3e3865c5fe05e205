"""Machine speed: a fixed probe computation timed while the program runs.

On a shared VM the same pure-Python code runs anywhere between 1.0x and
1.9x its fastest time, changing within fractions of a second and in spells
of up to minutes, and CPU time moves with wall time, so neither clock can
tell a slow machine from a slow program.  While an item runs, a SIGALRM
timer therefore interrupts it every INTERVAL_S of wall time to time a
short probe computation, which never changes with the program.  The item's
time, without the probes, is then scaled by

    PROBE_S / (mean probe time)

That is the item's time in *reference-speed seconds*: what the wall clock
would read with the machine at the speed where the probe takes PROBE_S.
The probe does the kind of work the program does: it filters integer
vertex masks of a small graph by a g-good-neighbour test and builds a few
frozensets, so it slows down with the program.  Probes also run just
before and just after the item, so a short item gets a few of them too.
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import statistics
import time

#: about the probe's fastest time on the 2-vCPU VM the benchmark was written on
PROBE_S = 0.00044
#: wall seconds between two probes while an item runs
INTERVAL_S = 0.02
#: probes run just before and just after each item
EDGE_PROBES = 3

#: adjacency masks of a fixed 3-regular graph on 16 vertices
_ADJ = [(1 << (v + 1) % 16) | (1 << (v - 1) % 16) | (1 << (v + 8) % 16) for v in range(16)]


def _admissible(adj: list[int], mask: int, g: int) -> bool:
    """Every vertex outside `mask` keeps at least `g` neighbours outside it."""
    for v in range(len(adj)):
        if not mask >> v & 1 and (adj[v] & ~mask).bit_count() < g:
            return False
    return True


def _probe_work() -> int:
    kept = [mask for mask in range(480) if _admissible(_ADJ, mask, 2)]
    groups = {frozenset(v for v in range(16) if mask >> v & 1) for mask in range(60)}
    return len(kept) + len(groups)


class Sampler:
    """Probe times taken while a block runs, and a clock that stops during probes."""

    def __init__(self):
        self.probes: list[float] = []
        self._probe_total = 0.0
        self._probing = False

    def probe(self, *_signal_args) -> None:
        if self._probing:  # a timer signal that arrived during a probe is dropped
            return
        self._probing = True
        # the collector is off meanwhile: a collection would walk every
        # object the program left alive and time the heap, not the machine
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _probe_work()
        elapsed = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.probes.append(elapsed)
        self._probe_total += elapsed
        self._probing = False

    def clock(self) -> float:
        """Wall seconds minus the time spent in probes."""
        return time.perf_counter() - self._probe_total

    @contextlib.contextmanager
    def sampling(self):
        """Probe before, every INTERVAL_S during, and after the block; yields self."""
        self.probes = []
        for _ in range(EDGE_PROBES):
            self.probe()
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(EDGE_PROBES):
            self.probe()

    def scale(self) -> float:
        """Factor from probe-free wall seconds to reference-speed seconds for the last block."""
        return PROBE_S / statistics.mean(self.probes)


def pin_to_fastest_cpu() -> None:
    """Pin this process (and the children it starts) to the CPU that runs the probe fastest now.

    The vCPUs change speed independently, so an item and its probes must
    run on one CPU; a process that migrated mid-item would be scaled by the
    wrong CPU's speed.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        return
    timings = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            sampler = Sampler()
            for _ in range(50):
                sampler.probe()
            timings[cpu] = statistics.median(sampler.probes)
        os.sched_setaffinity(0, {min(timings, key=timings.get)})
    except OSError:  # a CPU went away or pinning is refused: run unpinned
        os.sched_setaffinity(0, cpus)
