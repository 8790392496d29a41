"""The compiled dispatch engine: a flat, allocation-free scheduler loop.

Where the threaded kernel re-derives the schedule every timestep — heap
peeks, wakeup-bucket dict churn, a generator resume for every polling
thread, a ``_tick`` call for every channel — this engine executes the
static node schedule produced by :func:`repro.design.lower.lower` with
three elisions, each individually proven equivalent:

1. **Parked threads** — shared with the threaded kernel.  A thread that
   yields a shut :class:`~repro.kernel.Gate` (a gate owner's idle loop,
   or a ``pop()`` blocked on a parked channel) keeps its scheduling
   *slot* but leaves the live list at the yield until the gate opens (a
   message handler calls ``gate.open()``, or a watched channel's tick
   leaves data visible); the polls it skipped are credited through the
   gate (``Gate._skipped``).  The threaded kernel parks the same threads
   by the same rule (``Clock._gate_wait``).
2. **Idle channels** — shared too: an empty channel core reports itself
   quiescent and the *clock* parks it, re-arms it and credits the
   skipped span, for both executors (see
   :meth:`repro.kernel.clock.Clock.on_edge`); a tick that leaves data
   visible opens the channel's wake gates itself.
3. **No per-cycle rescheduling** — the engine's own.  Pollers stay in a
   flat order list (slot position = threaded resume order); a posedge
   is four integer updates instead of heap traffic, and a resumed
   poller is one ``next()`` with no bucket filing.

Everything the elisions cannot prove equivalent **detaches**: the engine
files every live thread back into the clock's wakeup bucket in slot
order (preserving the threaded resume order) and hands the very same
run back to the threaded loop; parked channels stay parked, the clock's
list being the one both loops walk.  Detach
triggers are cheap per-cycle guards: a stopped or paused clock, a timed
event in the heap, a channel/method/thread registered mid-run.

Resume-order equivalence (the byte-identity argument, spelled out in
``docs/COMPILED_BACKEND.md``): the threaded kernel wakes a cycle's
bucket in subscription-chronological order.  Sleepers (``yield n``,
n > 1) subscribed on an earlier cycle than any poller's implicit
re-subscription, so due sleepers *prepend* to the order list; pollers
keep their slots (re-subscription in resume order is order-preserving);
event-woken threads resume in a later delta and re-subscribe after
every poller, so they *append*.
"""

from __future__ import annotations

from bisect import bisect_left

from ..kernel.backend import record_run
from ..kernel.capability import OBSERVABILITY, reason as capability_reason
from ..kernel.simulator import (DeltaOverflow, Event, Gate, SimulationError,
                                TimeBudgetExceeded, _TIME_BUDGET, _monotonic)

__all__ = ["CompiledEngine"]

#: _scan_idx value outside the order scan: any unpark resumes next cycle.
_NOT_SCANNING = 1 << 60


class CompiledEngine:
    """Flat dispatch loop bound to one simulator and its single clock.

    Construct via :func:`repro.compile.try_attach`, never directly: the
    capability check (:mod:`repro.compile.capability`) must pass first.
    """

    __slots__ = ("sim", "clock", "schedule", "_live", "_live_keys",
                 "_parked_map", "_key_lo", "_key_hi", "_scan_idx",
                 "_cb_count", "_thread_count")

    def __init__(self, sim, schedule):
        self.sim = sim
        self.clock = schedule.clock
        self.schedule = schedule
        #: Dispatch slots: ``[key, thread, generator, gate, since]``
        #: (``gate``/``since``: a parked slot's gate and last poll
        #: cycle).  ``_live`` holds only runnable pollers, sorted by slot
        #: key (prepends take decreasing keys, appends increasing ones,
        #: so key order IS the threaded resume order).  An entry that
        #: yields a shut gate is *removed* from the scan and registered
        #: on the gate; the gate's ``open()`` bisect-inserts it back at
        #: its key — parked threads cost nothing per cycle, not even a
        #: skip test.  Starts empty: threads flow in from the wakeup
        #: buckets, which is what makes attach valid at any run boundary.
        self._live: list = []
        self._live_keys: list = []
        self._parked_map: dict = {}
        self._key_lo = 0
        self._key_hi = 0
        self._scan_idx = _NOT_SCANNING
        self._cb_count = len(self.clock._callbacks)
        self._thread_count = len(sim._threads)
        # Threads the threaded loop parked on gates are filed back at
        # their slots (their next resume is the poll the gate stood for).
        self.clock._release()

    # ------------------------------------------------------------------
    # gate hook (called from Gate.open when parked threads wait there)
    # ------------------------------------------------------------------
    def _unpark(self, entries) -> None:
        """Re-insert parked entries at their slot keys, crediting the
        polls they skipped.

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
        keys = self._live_keys
        parked_map = self._parked_map
        sim = self.sim
        cycles = self.clock.cycles
        for entry in entries:
            del parked_map[id(entry)]
            gate = entry[3]
            entry[3] = None
            key = entry[0]
            pos = bisect_left(keys, key)
            keys.insert(pos, key)
            live.insert(pos, entry)
            scan = self._scan_idx
            if pos <= scan:
                if scan != _NOT_SCANNING:
                    self._scan_idx = scan + 1
                gate._skipped(sim, cycles - entry[4])
            else:
                gate._skipped(sim, cycles - entry[4] - 1)

    # ------------------------------------------------------------------
    # detach: hand the simulation back to the threaded kernel
    # ------------------------------------------------------------------
    def detach(self, reason: str) -> None:
        """Restore exact threaded-kernel state and record the fallback.

        Live order-list threads are re-filed into the next cycle's
        wakeup bucket *in slot order*: sleepers already in that bucket
        subscribed chronologically earlier, so bucket order — hence
        resume order — matches an uninterrupted threaded run.
        """
        sim = self.sim
        clock = self.clock
        subscribe = clock._subscribe
        cycles = clock.cycles
        for entry in self._parked_map.values():
            gate = entry[3]
            gate._waiters = None  # re-filed as a poller below
            gate._skipped(sim, cycles - entry[4])
        entries = self._live + list(self._parked_map.values())
        entries.sort(key=lambda e: e[0])
        for entry in entries:
            if not entry[1].done:
                subscribe(entry[1])
        # The threaded kernel re-derives slot keys from bucket order at
        # the next wake (Clock._key_sleepers).
        for waiters in clock._wakeups.values():
            for thread in waiters:
                thread._key = None
        self._live = []
        self._live_keys = []
        self._parked_map.clear()
        sim._engine = None
        sim._backend_fallback = reason
        record_run("threaded", reason)

    def reset(self) -> None:
        """Return to the just-attached state (snapshot restore path).

        Unlike :meth:`detach`, nothing is re-subscribed and no fallback
        is recorded: the kernel restore that calls this rewinds wakeup
        buckets through the snapshot base (and every channel re-arms
        itself as its state is restored), so the engine only clears its
        own dispatch state.  The engine stays attached — the next run
        reuses the same lowered schedule with no re-attach cost.
        """
        for entry in self._parked_map.values():
            entry[3]._waiters = None
        self._live.clear()
        self._live_keys.clear()
        self._parked_map.clear()
        self._key_lo = 0
        self._key_hi = 0
        self._scan_idx = _NOT_SCANNING
        self._thread_count = len(self.sim._threads)

    def _settle(self) -> None:
        """Run exit: credit parked slots the polls skipped so far."""
        self._scan_idx = _NOT_SCANNING  # an exception may cut a cycle
        sim = self.sim
        cycles = self.clock.cycles
        for entry in self._parked_map.values():
            if cycles > entry[4]:
                entry[3]._skipped(sim, cycles - entry[4])
                entry[4] = cycles

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
        # Observability may attach between runs; it needs the threaded
        # kernel's instrumented delta loop.
        for row in OBSERVABILITY:
            if row.detect(sim):
                self.detach(capability_reason("observed", "compiled"))
                return (False, 0)

        live = self._live
        keys = self._live_keys
        parked_map = self._parked_map
        active = clock._active
        parked_ticks = clock._parked
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
            # Detach guards: constructs the schedule does not cover.
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

            # -- phase 2: edge callbacks.  Clock._fire_callbacks inlined
            # over the clock's own active list (a channel that reports
            # quiescent is parked until a push/set_stall re-arms it at
            # its slot; a tick that leaves data visible opens its wake
            # gates itself).
            i = 0
            while i < len(active):
                clock._cursor = i
                record = active[i]
                quiescent = record[1](clock)
                i = clock._cursor
                if quiescent:
                    record[2]._skip_from = cycles
                    parked_ticks[record[0]] = record
                    del active[i]
                else:
                    i += 1
            clock._cursor = -1

            # -- phase 3: due sleepers take fresh slots ahead of every
            # poller (chronologically the earliest subscribers in this
            # cycle's threaded bucket), so the scan resumes them first.
            if wakeups:
                waiters = wakeups.pop(cycles, None)
                if waiters is not None:
                    if clock._next_wakeup == cycles:
                        clock._next_wakeup = (min(wakeups) if wakeups
                                              else None)
                    front = [thread for thread in waiters if not thread.done]
                    if front:
                        key = self._key_lo = self._key_lo - len(front)
                        keys[0:0] = range(key, key + len(front))
                        live[0:0] = [[key + i, thread, thread.gen, None, 0]
                                     for i, thread in enumerate(front)]

            # -- the live scan (slot-key order = resume order), then one
            # more scan per extra delta: threads an event made runnable
            # re-enter at the END of the live list (threaded
            # re-subscription in a later delta lands after every
            # poller).  ``self._scan_idx`` is the cursor; resumed code
            # may open a gate, and ``_unpark`` bumps the cursor when it
            # inserts a slot at or behind it — so the cursor is re-read
            # after every ``next()`` and every removal happens at the
            # re-read index.
            self._scan_idx = 0
            deltas = 1
            while True:
                while True:
                    k = self._scan_idx
                    if k >= len(live):
                        break
                    entry = live[k]
                    try:
                        request = next(entry[2])
                    except StopIteration:
                        thread = entry[1]
                        thread.done = True
                        sim._thread_finished(thread)
                        k = self._scan_idx
                        del live[k]
                        del keys[k]
                        continue
                    if request is None:
                        self._scan_idx += 1
                        continue
                    kind = type(request)
                    if kind is Gate:
                        if request._open:  # opened since its last wait
                            request._open = False
                            self._scan_idx += 1
                            continue
                        # Park at the yield, as Clock._gate_wait does:
                        # out of the scan until the gate's open()
                        # re-inserts the slot at its key.
                        k = self._scan_idx
                        del live[k]
                        del keys[k]
                        entry[3] = request
                        entry[4] = cycles
                        waiters = request._waiters
                        if waiters is None:
                            request._waiters = (self, [entry])
                        else:
                            waiters[1].append(entry)
                        parked_map[id(entry)] = entry
                        continue
                    if kind is not int:
                        if isinstance(request, Event):
                            k = self._scan_idx
                            del live[k]
                            del keys[k]
                            clock._stop_parking()  # see Thread._resume
                            request._subscribe(entry[1])
                            continue
                        if not isinstance(request, int):
                            raise SimulationError(
                                f"thread {entry[1].name!r} yielded "
                                f"unsupported value {request!r}")
                        request = int(request)  # bool/IntEnum yields
                    elif request <= 0:
                        raise SimulationError(
                            f"thread {entry[1].name!r} yielded "
                            f"non-positive wait {request}")
                    if request == 1:
                        self._scan_idx += 1
                        continue
                    k = self._scan_idx
                    del live[k]
                    del keys[k]
                    clock._subscribe(entry[1], request)

                if not (sim._runnable or dirty):
                    break
                if dirty:
                    # Update phase (no methods exist: commit only).
                    for sig in dirty:
                        sig._dirty = False
                        nxt = sig._next
                        if nxt != sig._value:
                            sig._value = nxt
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
                    key = self._key_hi
                    for thread in runnable:
                        if not thread.done:
                            key += 1
                            keys.append(key)
                            live.append([key, thread, thread.gen, None, 0])
                    self._key_hi = key
            self._scan_idx = _NOT_SCANNING

            steps += 1
            if max_steps is not None and steps >= max_steps:
                record_run("compiled")
                return (True, steps)
            if stop_clock is not None and stop_clock.cycles >= stop_cycles:
                record_run("compiled")
                return (True, steps)
