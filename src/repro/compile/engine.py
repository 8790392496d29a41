"""The compiled engine: the kernel's lone-clock lane, plus provenance.

The dispatch loop is :class:`repro.kernel.lane.Lane`, which the threaded
kernel enters too.  A ``backend="compiled"`` request adds: the
capability check at the first run (:mod:`.capability`); the callback
and thread counts from attach, so one registered later, even between
runs, ends the engine (at run entry, or when the lane returns: the lane
itself runs it); and provenance — every run the lane serves is
recorded ``compiled``, and the first construct it leaves on detaches
the engine for good, recording that capability row.  Detaching
converts nothing: the lane has already filed its live threads back
into the wakeup buckets, and the same run continues on the same kernel.
"""

from __future__ import annotations

from typing import Optional

from ..kernel.backend import record_run
from ..kernel.capability import reason as capability_reason
from ..kernel.lane import exit_key

__all__ = ["CompiledEngine"]


class CompiledEngine:
    """A simulator's claim on the lone-clock lane for its single clock.

    Construct via :func:`repro.compile.try_attach`, never directly: the
    capability check (:mod:`repro.compile.capability`) must pass first.
    """

    __slots__ = ("sim", "clock", "_cb_count", "_thread_count")

    def __init__(self, sim, clock):
        self.sim = sim
        self.clock = clock
        self._cb_count = len(clock._callbacks)
        self._thread_count = len(sim._threads)

    def enter(self) -> None:
        """Run entry: detach unless the lane can take this run.  Threads
        made runnable between runs (an event notified outside any
        process) must file after the pollers, so the threaded loop orders
        that boundary."""
        sim = self.sim
        if sim._runnable:
            key = "boundary"
        else:
            key = exit_key(sim, self.clock) or self._registered()
        if key is not None:
            self.detach(key)

    def leave(self, key: Optional[str]) -> None:
        """The lane returned, left on guard ``key`` (None: the run ended):
        detach if it left, or if it ran a newly registered process."""
        key = self._registered() or key
        if key is not None:
            self.detach(key)

    def _registered(self) -> Optional[str]:
        """The row of a callback or thread registered since attach."""
        key = None
        if len(self.clock._callbacks) != self._cb_count:
            key = "midcallback"
        elif len(self.sim._threads) != self._thread_count:
            key = "midthread"
        return key

    def detach(self, key: str) -> None:
        """Hand the run to the threaded kernel and record the fallback of
        capability row ``key``."""
        sim = self.sim
        text = capability_reason(key, "compiled", name=self.clock.name,
                                 n=len(sim._clocks))
        sim._engine = None
        sim._backend_fallback = text
        record_run("threaded", text)

    def reset(self) -> None:
        """Snapshot restore: re-read the thread count (restore rewinds
        everything else through the snapshot base).  The engine stays
        attached for the next run."""
        self._thread_count = len(self.sim._threads)
