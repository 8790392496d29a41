"""The lone-clock lane: the one dispatch loop for a design's only clock.

``Simulator._threaded_run`` enters the lane at any timestep boundary
where the design has one clock, periodic and live, an empty timed-event
heap and no combinational method, under either backend: a compiled
request (:mod:`repro.compile`) adds only its first-run verdict.  A
telemetry hub rides along: the lane keeps its kernel counters by the
general loop's rules (:meth:`Lane._dispatch`).
It runs each posedge in the general loop's phase order (edge, channel
ticks, thread resumes) with four elisions:
parked gate threads (``Clock._park``, re-inserted at their slot key by
:meth:`Lane._place`), parked idle channels (``Clock.on_edge``) and
idle-skip (``Clock._next_time``), all three shared with the general
loop, and its own: pollers stay on a flat list sorted by slot key, so
a posedge is four integer updates and a resumed poller one ``next()``,
with no bucket filing.

Key order is the general loop's resume order (the argument is spelled
out in ``docs/COMPILED_BACKEND.md``): due sleepers take keys ahead of
all and *prepend* (``Clock._key_sleepers``), pollers keep theirs,
event-woken threads take keys behind all and *append*
(``Clock._append_key``) — but a thread an edge callback's event woke
runs first, as in the general loop, so its key goes ahead of the due
sleepers' — and a thread registered by a running thread goes just
ahead of its registrant (:meth:`Lane._adopt`).

The lane **leaves** on its exit guards (:func:`exit_key`): at a
timestep boundary for a stopped or paused clock, a timed event or a
second clock; and mid-timestep for a timed event due now (once its
deltas converged) or a method registered this timestep (once that
delta's writes are committed).  Leaving files the live
threads into the next cycle's wakeup bucket in slot order, behind the
sleepers due there, and the general loop finishes the run, or the
timestep, and re-enters the lane at the next boundary that qualifies.
Parked threads and channels stay parked: the clock is the one registry
both loops use.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from time import perf_counter as _perf_counter

from .simulator import (DeltaOverflow, Gate, TimeBudgetExceeded,
                        _TIME_BUDGET, _monotonic)

__all__ = ["Lane", "exit_key"]

#: _scan_idx value outside the live scan: any placed slot resumes next
#: cycle.
_NOT_SCANNING = 1 << 60
#: What the scan takes from a generator that returned.
_FINISHED = object()
_KEY = attrgetter("_key")


def exit_key(sim, clock):
    """The lane's exit guards, in order: the name of the first construct
    that keeps ``clock`` off the lane, or None while the lane may run
    it."""
    if len(sim._clocks) != 1:
        return "clocks"
    if sim._queue:
        return "schedule"
    if clock._stopped:
        return "midstop"
    if clock._pause_until > clock.next_edge:
        return "midpause"
    if sim._method_count:
        return "midmethod"
    return None


class Lane:
    """One stay of ``clock``'s pollers on the lane, entry to leave."""

    __slots__ = ("sim", "clock", "_live", "_scan_idx")

    def __init__(self, sim, clock):
        self.sim = sim
        self.clock = clock
        #: The runnable pollers, sorted by ``Thread._key`` (prepends
        #: take decreasing keys, appends increasing ones, so key order IS
        #: the general loop's resume order).  Starts empty: threads flow
        #: in from the wakeup buckets and the clock's parked registry.
        self._live: list = []
        self._scan_idx = _NOT_SCANNING

    # ------------------------------------------------------------------
    # slot placement (Clock._unpark, Simulator.add_thread, Clock._settle)
    # ------------------------------------------------------------------
    def _place(self, thread) -> bool:
        """Re-insert an unparked ``thread`` at its slot key; True if it
        resumes this cycle.

        A slot *behind* the scan cursor polled earlier this cycle (before
        the opener ran), so it resumes next cycle and the cursor bump
        keeps it un-scanned; a slot *ahead* of the cursor is reached later
        this cycle, as the general loop's bucket would reach the poller
        after the opener.  While the edge's callbacks run the cursor is
        -1 (every slot is ahead); between cycles it is ``_NOT_SCANNING``.
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

    def _adopt(self, thread) -> bool:
        """A thread registered by the running thread: the general loop
        files it after the pollers that already polled this cycle and
        before its registrant, which is the slot at the cursor (taken
        behind the cursor, so it first resumes next cycle).  False while
        the edge's callbacks run: it is then filed ahead of every poller,
        where the next edge's bucket puts it."""
        scan = self._scan_idx
        if scan < 0:
            return False
        self._live.insert(scan, thread)
        self._scan_idx = scan + 1
        return True

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

    def _leave(self) -> None:
        """File the live threads into the next cycle's bucket, behind the
        sleepers due there, and release the clock.  After an exception,
        as the general loop: a raising edge callback's cycle woke no
        bucket, so the pollers join it; a raising thread is dropped with
        the slots behind it, the rest of its delta."""
        clock = self.clock
        clock._lane = None
        scan = self._scan_idx
        self._scan_idx = _NOT_SCANNING
        live = self._live
        at = clock.cycles + 1
        if scan < 0:
            at -= 1
        elif scan != _NOT_SCANNING:
            del live[scan:]
        if live:
            self._live = []
            bucket = clock._wakeups.get(at)
            if bucket is not None:
                bucket.extend(live)
            else:
                clock._wakeups[at] = live
                if clock._next_wakeup is None or at < clock._next_wakeup:
                    clock._next_wakeup = at

    # ------------------------------------------------------------------
    # the dispatch loop
    # ------------------------------------------------------------------
    def run(self, until, max_steps, stop_clock, stop_cycles):
        """Execute timesteps until a stop condition or an exit guard.

        Returns ``(steps, key, deltas)``: the timesteps completed, the
        :func:`exit_key` guard the lane left on (None: the run ended), and
        None at a timestep boundary, or, when it left mid-timestep at
        ``sim.now`` (deltas converged or a new method to run, timed
        events due now to fire), the delta cycles that timestep has run
        so far: the caller's ``Simulator._delta_loop(deltas)`` finishes
        it and counts them.  An exception leaves the lane attached:
        ``Clock._settle`` asks :meth:`_ahead`, then leaves it.
        """
        self.clock._lane = self
        outcome = self._dispatch(until, max_steps, stop_clock, stop_cycles)
        self._leave()
        return outcome

    def _dispatch(self, until, max_steps, stop_clock, stop_cycles):
        sim = self.sim
        clock = self.clock
        live = self._live
        trace = sim.trace
        # A telemetry hub's kernel counters, kept as the general loop
        # keeps them: an edge is an event, a completed timestep adds its
        # delta cycles, a resume is a wakeup timed from the previous
        # stamp.  Off, a resume pays one ``kstats is None`` test.
        hub = sim.telemetry
        kstats = hub.kernel if hub is not None else None
        observed = kstats is not None or trace is not None
        active = clock._active
        queue = sim._queue
        wakeups = clock._wakeups
        dirty = sim._dirty_signals
        budget = _TIME_BUDGET  # stable list identity; usually empty
        steps = 0

        while True:
            if budget and _monotonic() >= budget[-1]:
                raise TimeBudgetExceeded(
                    f"simulation at t={sim.now} exceeded its wall-clock "
                    f"budget (see repro.kernel.time_budget)"
                )
            # Exit guards before the horizon: a timed event due before
            # ``until`` belongs to this run.
            key = exit_key(sim, clock)
            if key is not None:
                return (steps, key, None)
            next_edge = clock.next_edge
            if until is not None and next_edge > until:
                sim.now = until
                return (steps, None, None)
            if not live and max_steps is None:
                # Idle-skip: with no thread polling, the clock names its
                # next edge with work (None: none, ever), and the edges
                # before it are bulk-advanced.  A step budget counts
                # edges, so it executes every one.
                t = clock._next_time()
                if t is None or (until is not None and t > until):
                    # Without a horizon the run ends at the last executed
                    # edge; with one, the idle clock ticks up to it.
                    if until is not None:
                        sim.now = until
                        clock._advance_idle(until, kstats)
                    return (steps, None, None)
                if t > next_edge:
                    clock._advance_idle(t - 1, kstats)
                    next_edge = t

            # -- phase 1: the clock edge (three updates, no heap traffic)
            sim.now = next_edge
            clock.cycles = cycles = clock.cycles + 1
            if kstats is not None:
                kstats.events_fired += 1
            # Until the live scan starts every slot is ahead: a gate
            # opened by a tick resumes this cycle.
            self._scan_idx = -1

            # -- phase 2: edge callbacks, over the clock's own active list
            if active:
                clock._fire_callbacks()
            # Placed where ``Clock._edge`` places it: after the callbacks
            # (which may change the period).
            clock.next_edge = next_edge + clock.period

            # -- phase 3: due sleepers take fresh slots ahead of every
            # poller (chronologically the earliest subscribers in this
            # cycle's bucket), so the scan resumes them first.  (Right
            # after entry the bucket also holds the pollers, keyed
            # already and in key order.)
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
            woken = sim._runnable
            if woken:
                # An edge callback notified an event: the general loop
                # runs its waiters first, ahead of this cycle's bucket,
                # so they take slots ahead of the due sleepers'.
                sim._runnable = []
                sim._runnable_set.clear()
                key = clock._key_lo = clock._key_lo - len(woken)
                for thread in woken:
                    thread._key = key
                    key += 1
                live[0:0] = woken
            # Stamped where ``Clock._edge`` stamps it: after the callbacks.
            clock._seq = next(sim._seq)

            # -- the live scan (slot-key order = resume order), then one
            # more scan per extra delta: threads an event made runnable
            # re-enter at the END of the live list.  ``self._scan_idx``
            # is the cursor; resumed code may open a gate, and ``_place``
            # bumps the cursor when it inserts a slot at or behind it —
            # so the cursor is re-read after every ``next()`` and every
            # removal happens at the re-read index.
            self._scan_idx = 0
            deltas = 1 if live or dirty else 0
            if not live and kstats is not None and clock._gated:
                # Nothing polls: parked gate threads may owe the delta
                # cycle their polls would have run (the general loop's
                # rule, counted by the general loop's helper).
                sim._owed_delta(kstats)
            while True:
                if kstats is not None:
                    stamp = _perf_counter()
                while True:
                    k = self._scan_idx
                    if k >= len(live):
                        sim._current = None
                        break
                    thread = sim._current = live[k]
                    try:
                        request = next(thread.gen)
                    except StopIteration:
                        request = _FINISHED
                    except BaseException:
                        if kstats is not None:  # a raiser is woken, untimed
                            kstats.thread_wakeups += 1
                        raise
                    if kstats is not None:
                        now = _perf_counter()
                        kstats.thread_wakeups += 1
                        kstats.add_proc_time(thread.name, now - stamp)
                        stamp = now
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
                    if request is _FINISHED:
                        thread.done = True
                        sim._thread_finished(thread)
                        del live[self._scan_idx]
                        continue
                    # Any other wait (a sleep, an event) leaves the scan;
                    # the thread files itself as under the general loop.
                    thread._wait(request)
                    del live[self._scan_idx]

                if not (sim._runnable or dirty):
                    break
                if dirty:
                    # Update phase: commit; only a method registered this
                    # timestep can watch a signal.
                    for sig in dirty:
                        sig._dirty = False
                        nxt = sig._next
                        if nxt != sig._value:
                            sig._value = nxt
                            if observed:
                                if kstats is not None:
                                    kstats.signal_commits += 1
                                if trace is not None:
                                    trace.record(sim.now, sig)
                            for method in sig._watchers or ():
                                sim._queue_method(method)
                    dirty.clear()
                if sim._method_count:
                    # Registered this timestep: the general delta loop
                    # runs the next delta, methods and threads alike.
                    self._scan_idx = _NOT_SCANNING
                    return (steps, exit_key(sim, clock), deltas)
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
            if queue and queue[0][0] == next_edge:
                # A timed event due now fires in this timestep, after
                # its deltas: the caller finishes and counts it.
                return (steps, exit_key(sim, clock), deltas)

            steps += 1
            if kstats is not None:
                kstats.timesteps += 1
                kstats.add_deltas(deltas)
            if max_steps is not None and steps >= max_steps:
                return (steps, None, None)
            if stop_clock is not None and stop_clock.cycles >= stop_cycles:
                return (steps, None, None)
