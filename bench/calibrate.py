"""Host-speed calibration: what makes host times comparable between runs.

On a shared box the same Python code runs up to twice as fast or as slow
from one ten seconds to the next (neighbours on the host), and CPU time
moves with wall time, so medians alone do not make two back-to-back runs
agree: in ``bench/aa_busy_host.json`` ten runs of untouched code spread
by 7-23 % in raw seconds, against 3-14 % calibrated, and the contract
allows no bound above 25 %.  On a quiet host (``bench/aa.json``) it is
3-11 % raw against 3-7 % calibrated.  The child therefore
times two fixed probes between operations and reports every end-to-end
*time* in calibrated seconds::

    calibrated = measured * reference seconds / probe seconds nearby

i.e. seconds on a machine on which the probe takes its reference time.
Neighbours slow two kinds of code differently, so there are two probes:
``interpreter`` (generator resumes, slot attributes, a small dict and
list: bytecode dispatch on a cache-resident working set) and ``memory``
(random reads of a large list, a growing dict, object allocation).  A
workload is calibrated by the one that resembles it, named in
``config.json``: those that run in one process (``soc_*``, ``rtl_gals``,
``sweep_cached``) follow the interpreter probe, those that fan out to
worker processes or start one per operation (``sweep_fresh``,
``sweep_warm``, ``sweep_incremental``, ``cli_verbs``) the memory probe.
Both A/A records have, per workload, the spreads under both probes and
raw.  The probes use nothing of ``src/repro``, so a change to the
program cannot move them.

A sample costs 30-80 ms and is taken before an operation when the last
one is older than 0.2 s, so one short operation in thirty or so starts
with cold caches; medians do not see it.

Do not edit :meth:`Calibrator.probe` or the constants: they define the
unit of every end-to-end time, and a change makes old and new readings
incomparable.
"""

from __future__ import annotations

import random
import statistics
import time

#: Seconds each probe takes on the quiet reference box (2 vCPU).
REFERENCE_SECONDS = {"interpreter": 0.0110, "memory": 0.0200}

TIGHT_ITERATIONS = 100_000
TABLE_SIZE = 200_000
RANDOM_READS = 40_000

#: Calibrate again before an operation when the last sample is older.
MAX_AGE_SECONDS = 0.2

#: Samples on each side of an interval that its factor is the median of.
WINDOW = 3


class _Box:
    __slots__ = ("value", "queue")

    def __init__(self) -> None:
        self.value = 0
        self.queue = []


class _Node:
    __slots__ = ("value", "key", "next")

    def __init__(self, value: int, key: int) -> None:
        self.value = value
        self.key = key
        self.next = None


def _ticker(box: _Box):
    while True:
        box.value += 1
        yield box.value


class Calibrator:
    """Calibration samples over a run, and the factor for any interval."""

    def __init__(self) -> None:
        t0 = time.perf_counter()
        rng = random.Random(1)
        self._table = list(range(TABLE_SIZE))
        self._reads = [rng.randrange(TABLE_SIZE) for _ in range(RANDOM_READS)]
        self.samples = []   # (taken at, seconds per probe), in time order
        self.spent = time.perf_counter() - t0   # seconds spent calibrating

    def probe(self) -> dict:
        """Seconds for one fixed run of each probe."""
        box = _Box()
        tick = _ticker(box)
        small = {}
        queue = box.queue
        table = self._table
        t0 = time.perf_counter()
        for i in range(TIGHT_ITERATIONS):
            x = next(tick)
            small[i & 255] = x
            queue.append(x)
            if len(queue) > 8:
                queue.pop(0)
        t1 = time.perf_counter()
        total, large, chain = 0, {}, None
        for i in self._reads:
            total += table[i]
            large[i] = total
            node = _Node(total, i)
            node.next = chain
            chain = node
        return {"interpreter": t1 - t0, "memory": time.perf_counter() - t1}

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            seconds = self.probe()
            self.samples.append((time.perf_counter(), seconds))
            self.spent += sum(seconds.values())

    def refresh(self) -> None:
        """Sample unless the last sample is recent enough."""
        if (not self.samples or time.perf_counter() - self.samples[-1][0]
                >= MAX_AGE_SECONDS):
            self.sample()

    def factors(self, start: float, end: float) -> dict:
        """Per probe, ``reference seconds / probe seconds`` around
        ``[start, end]``: the median of the ``WINDOW`` samples last taken
        before the interval and the ``WINDOW`` first taken after it.  One
        sample is too noisy to scale a single operation by."""
        before = [s for t, s in self.samples if t <= start][-WINDOW:]
        after = [s for t, s in self.samples if t >= end][:WINDOW]
        return {name: reference / statistics.median(
                    s[name] for s in before + after)
                for name, reference in REFERENCE_SECONDS.items()}
