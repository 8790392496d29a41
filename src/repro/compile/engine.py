"""The compiled dispatch engine: a flat, allocation-free scheduler loop.

Where the threaded kernel re-derives the schedule every timestep — heap
peeks, wakeup-bucket dict churn, a generator resume for every polling
thread — this engine drives the design's one periodic clock in the
threaded kernel's phase order (edge, channel ticks, thread resumes)
with three elisions, each individually proven equivalent:

1. **Parked threads** — shared with the threaded kernel.  A thread that
   yields a shut :class:`~repro.kernel.Gate` (a gate owner's idle loop,
   or a ``pop()`` blocked on a parked channel) is parked on its clock by
   the one test both executors make (``Clock._park``): it leaves the
   live list at the yield until the gate opens (a message handler calls
   ``gate.open()``, or a watched channel's tick leaves data visible),
   when ``Clock._unpark`` has the engine re-insert it at its slot key
   (:meth:`CompiledEngine._place`) and credits the polls it skipped
   through the gate (``Gate._skipped``).
2. **Idle channels** — shared too: an empty channel core reports itself
   quiescent and the *clock* parks it, re-arms it and credits the
   skipped span, for both executors (see
   :meth:`repro.kernel.clock.Clock.on_edge`); a tick that leaves data
   visible opens the channel's wake gates itself.
3. **No per-cycle rescheduling** — the engine's own.  Pollers stay in a
   flat list sorted by slot key (key order = threaded resume order); a
   posedge is four integer updates instead of heap traffic, and a
   resumed poller is one ``next()`` with no bucket filing.

Everything the elisions cannot prove equivalent **detaches**: the engine
files every live thread back into the clock's wakeup bucket in slot
order (preserving the threaded resume order) and hands the very same
run back to the threaded loop.  Parked threads and channels stay
parked: the clock is the one registry both loops use, and slot keys
(``Thread._key``) are one key space, so nothing is converted.  Detach
triggers are cheap per-cycle guards: a stopped or paused clock, a timed
event in the heap, a channel/method/thread registered mid-run; and, at
run entry, a telemetry hub attached between runs.

Resume-order equivalence (the byte-identity argument, spelled out in
``docs/COMPILED_BACKEND.md``): the threaded kernel wakes a cycle's
bucket in subscription-chronological order.  Sleepers (``yield n``,
n > 1) subscribed on an earlier cycle than any poller's implicit
re-subscription, so due sleepers take keys ahead of every other
(``Clock._key_sleepers``) and *prepend* to the live list; pollers keep
their keys (re-subscription in resume order is order-preserving);
event-woken threads resume in a later delta and re-subscribe after
every poller, so they take keys behind every other
(``Clock._append_key``) and *append*.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter

from ..kernel.backend import record_run
from ..kernel.capability import reason as capability_reason
from ..kernel.simulator import (DeltaOverflow, Gate, TimeBudgetExceeded,
                                _TIME_BUDGET, _monotonic)

__all__ = ["CompiledEngine"]

#: _scan_idx value outside the live scan: any placed slot resumes next
#: cycle.
_NOT_SCANNING = 1 << 60
_KEY = attrgetter("_key")


class CompiledEngine:
    """Flat dispatch loop bound to one simulator and its single clock.

    Construct via :func:`repro.compile.try_attach`, never directly: the
    capability check (:mod:`repro.compile.capability`) must pass first.
    """

    __slots__ = ("sim", "clock", "_live", "_scan_idx", "_cb_count",
                 "_thread_count")

    def __init__(self, sim, clock):
        self.sim = sim
        self.clock = clock
        #: Dispatch slots: the runnable pollers, sorted by ``Thread._key``
        #: (prepends take decreasing keys, appends increasing ones, so
        #: key order IS the threaded resume order).  A thread its clock
        #: parks on a shut gate is *removed* from the scan; the gate's
        #: ``open()`` has it bisect-inserted back at its key
        #: (:meth:`_place`) — parked threads cost nothing per cycle, not
        #: even a skip test.  Starts empty: threads flow in from the
        #: wakeup buckets and from the clock's parked registry, which is
        #: what makes attach valid at any run boundary.
        self._live: list = []
        self._scan_idx = _NOT_SCANNING
        self._cb_count = len(self.clock._callbacks)
        self._thread_count = len(sim._threads)

    # ------------------------------------------------------------------
    # slot placement (called from Clock._unpark when a gate opens)
    # ------------------------------------------------------------------
    def _place(self, thread) -> bool:
        """Re-insert an unparked ``thread`` at its slot key; True if it
        resumes this cycle.

        Mid-scan semantics mirror the threaded kernel exactly: a thread
        whose slot lies *behind* the scan cursor polled earlier this
        cycle (before the opener ran) and so resumes next cycle — the
        cursor bump keeps it un-scanned; a slot *ahead* of the cursor is
        reached later this same cycle, just as the threaded bucket would
        reach the still-subscribed poller after the opener.  While the
        edge's callbacks run the cursor is -1 (every slot is ahead);
        between cycles it is ``_NOT_SCANNING``.
        """
        live = self._live
        pos = bisect_left(live, thread._key, key=_KEY)
        live.insert(pos, thread)
        scan = self._scan_idx
        if pos > scan:
            return True
        if scan != _NOT_SCANNING:
            self._scan_idx = scan + 1
        return False

    def _ahead(self, thread) -> bool:
        """Run exit after an exception cut a cycle short: is parked
        ``thread``'s slot ahead of the raiser at ``_scan_idx`` (every
        slot is while the edge's callbacks ran; none once the scan
        finished)?"""
        scan = self._scan_idx
        if scan < 0:
            return True
        live = self._live
        return scan < len(live) and thread._key > live[scan]._key

    # ------------------------------------------------------------------
    # detach: hand the simulation back to the threaded kernel
    # ------------------------------------------------------------------
    def detach(self, reason: str) -> None:
        """Hand the run to the threaded kernel and record the fallback.

        Live threads are re-filed into the next cycle's wakeup bucket
        at their slot keys: behind the sleepers already there (they
        subscribed chronologically earlier), ahead of a thread
        registered between runs — so bucket order, hence resume order,
        matches an uninterrupted threaded run.  Parked threads stay on
        their clock, keys stay on the threads.
        """
        clock = self.clock
        at = clock.cycles + 1
        for thread in self._live:
            clock._refile(thread, at)
        self._live = []
        sim = self.sim
        sim._engine = None
        sim._backend_fallback = reason
        record_run("threaded", reason)

    def reset(self) -> None:
        """Return to the just-attached state (snapshot restore path).

        Unlike :meth:`detach`, nothing is re-subscribed and no fallback
        is recorded: the kernel restore that calls this rewinds wakeup
        buckets, parked threads and slot keys through the snapshot base
        (and every channel re-arms itself as its state is restored), so
        the engine only clears its own dispatch state.  The engine stays
        attached for the next run.
        """
        self._live.clear()
        self._scan_idx = _NOT_SCANNING
        self._thread_count = len(self.sim._threads)

    def _settle(self) -> None:
        """Run exit: the clock has credited parked slots (asking
        :meth:`_ahead`); leave the scan."""
        self._scan_idx = _NOT_SCANNING

    # ------------------------------------------------------------------
    # the dispatch loop
    # ------------------------------------------------------------------
    def run(self, until, max_steps, stop_clock, stop_cycles):
        """Execute timesteps until a stop condition or a detach trigger.

        Returns ``(True, steps)`` when the run completed under the
        engine, ``(False, steps)`` after a detach — the caller's
        threaded loop then continues the same run with the remaining
        step budget.
        """
        sim = self.sim
        clock = self.clock
        # A hub may attach between runs; the engine keeps none of its
        # counters, so a run with telemetry is threaded.  Every other
        # observer works through ``sim._current`` and ``sim.trace``.
        if sim.telemetry is not None:
            self.detach(capability_reason("telemetry", "compiled"))
            return (False, 0)

        live = self._live
        trace = sim.trace
        active = clock._active
        queue = sim._queue
        wakeups = clock._wakeups
        callbacks = clock._callbacks
        threads = sim._threads
        cb_count = self._cb_count
        thread_count = self._thread_count
        dirty = sim._dirty_signals
        budget = _TIME_BUDGET  # stable list identity; usually empty
        steps = 0

        while True:
            if budget and _monotonic() >= budget[-1]:
                raise TimeBudgetExceeded(
                    f"simulation at t={sim.now} exceeded its wall-clock "
                    f"budget (see repro.kernel.time_budget)"
                )
            next_edge = clock.next_edge
            if until is not None and next_edge > until:
                sim.now = until
                record_run("compiled")
                return (True, steps)
            # Detach guards: constructs the engine does not cover.
            if (queue or clock._stopped
                    or clock._pause_until > next_edge
                    or len(callbacks) != cb_count
                    or sim._method_count
                    or len(threads) != thread_count):
                if queue:
                    key = "schedule"
                elif clock._stopped:
                    key = "midstop"
                elif clock._pause_until > next_edge:
                    key = "midpause"
                elif len(callbacks) != cb_count:
                    key = "midcallback"
                elif sim._method_count:
                    key = "midmethod"
                else:
                    key = "midthread"
                self.detach(capability_reason(key, "compiled",
                                              name=clock.name))
                return (False, steps)
            if (until is None and max_steps is None and not active
                    and not wakeups and not live):
                # The threaded loop's no-work test: nothing left can
                # act, so the run ends at the last executed edge.
                record_run("compiled")
                return (True, steps)

            # -- phase 1: the clock edge (four updates, no heap traffic)
            sim.now = next_edge
            clock.cycles = cycles = clock.cycles + 1
            clock.next_edge = next_edge + clock.period
            clock._seq = next(sim._seq)
            # Until the live scan starts every slot is ahead: a gate
            # opened by a tick resumes this cycle.
            self._scan_idx = -1

            # -- phase 2: edge callbacks, over the clock's own active
            # list (a channel that reports quiescent is parked until a
            # push/set_stall re-arms it at its slot; a tick that leaves
            # data visible opens its wake gates itself).
            clock._fire_callbacks()

            # -- phase 3: due sleepers take fresh slots ahead of every
            # poller (chronologically the earliest subscribers in this
            # cycle's threaded bucket), so the scan resumes them first.
            # (Right after attach the bucket also holds the threaded
            # loop's pollers, keyed already and in key order.)
            if wakeups:
                waiters = wakeups.pop(cycles, None)
                if waiters is not None:
                    if clock._next_wakeup == cycles:
                        clock._next_wakeup = (min(wakeups) if wakeups
                                              else None)
                    if waiters and waiters[0]._key is None:
                        clock._key_sleepers(waiters)
                    live[0:0] = [thread for thread in waiters
                                 if not thread.done]

            # -- the live scan (slot-key order = resume order), then one
            # more scan per extra delta: threads an event made runnable
            # re-enter at the END of the live list (threaded
            # re-subscription in a later delta lands after every
            # poller).  ``self._scan_idx`` is the cursor; resumed code
            # may open a gate, and ``_place`` bumps the cursor when it
            # inserts a slot at or behind it — so the cursor is re-read
            # after every ``next()`` and every removal happens at the
            # re-read index.
            self._scan_idx = 0
            deltas = 1
            while True:
                while True:
                    k = self._scan_idx
                    if k >= len(live):
                        sim._current = None
                        break
                    thread = sim._current = live[k]
                    try:
                        request = next(thread.gen)
                    except StopIteration:
                        thread.done = True
                        sim._thread_finished(thread)
                        del live[self._scan_idx]
                        continue
                    if request is None:
                        self._scan_idx += 1
                        continue
                    if type(request) is Gate:
                        # Parked on the clock: out of the scan until the
                        # gate's open() places the slot back at its key.
                        if clock._park(thread, request):
                            del live[self._scan_idx]
                        else:
                            self._scan_idx += 1  # a poll keeps its slot
                        continue
                    if isinstance(request, int) and request == 1:
                        self._scan_idx += 1  # a poller keeps its slot
                        continue
                    # Any other wait (a sleep, an event) leaves the scan;
                    # the thread files itself as under the threaded loop.
                    thread._wait(request)
                    del live[self._scan_idx]

                if not (sim._runnable or dirty):
                    break
                if dirty:
                    # Update phase (no methods exist: commit only).
                    for sig in dirty:
                        sig._dirty = False
                        nxt = sig._next
                        if nxt != sig._value:
                            sig._value = nxt
                            if trace is not None:
                                trace.record(sim.now, sig)
                    dirty.clear()
                runnable = sim._runnable
                if runnable:
                    deltas += 1
                    if deltas > sim.MAX_DELTAS_PER_STEP:
                        raise DeltaOverflow(
                            f"timestep at t={sim.now} did not converge "
                            f"after {sim.MAX_DELTAS_PER_STEP} delta cycles")
                    sim._runnable = []
                    sim._runnable_set.clear()
                    for thread in runnable:
                        if not thread.done:
                            thread._key = clock._append_key()
                            live.append(thread)
            self._scan_idx = _NOT_SCANNING

            steps += 1
            if max_steps is not None and steps >= max_steps:
                record_run("compiled")
                return (True, steps)
            if stop_clock is not None and stop_clock.cycles >= stop_cycles:
                record_run("compiled")
                return (True, steps)
