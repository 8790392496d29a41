"""Clocks, including pausible/adaptive clocks for fine-grained GALS.

A :class:`Clock` produces posedge events for the simulator.  Two
features beyond a plain synchronous clock support the paper's GALS
methodology (section 3.1):

* a per-edge ``generator`` callback can modulate the period cycle by
  cycle — this is how :mod:`repro.gals.clock_generator` models local
  adaptive clock generators tracking supply noise, and
* :meth:`pause_until` lets pausible-synchronizer logic stretch the next
  edge past a metastability window, the core mechanism of the pausible
  bisynchronous FIFO [Keller ASYNC'15].

Scheduling lanes (see ``docs/PERFORMANCE.md``) differ only in where
the next posedge waits; :meth:`Clock._edge` is the one posedge for both:

* **fast lane** — periodic clocks (``generator is None``) keep their
  next-edge time in :attr:`next_edge`, stamped with a heap sequence
  number; the simulator consults it directly against the event-heap
  top, so a posedge costs no heap push/pop.
* **general lane** — clocks with a ``generator`` push each next edge
  onto the simulator's timed-event heap exactly as a delayed callback
  would, because every edge needs the generator to compute the next
  period.

Sleeping threads are filed in per-clock *wakeup buckets* keyed by the
absolute cycle number at which they resume (``cycles + n`` for a thread
yielding ``n``), so a sleeping thread costs zero work per edge.  Both
lanes share the buckets.

Edge callbacks follow a *park / re-arm / credit* protocol shared by the
threaded kernel and the compiled engine: a callback that returns true
reports itself **quiescent** and leaves the list walked each posedge
until its owner re-arms it (``FastChannel`` does, from ``do_push`` /
``set_stall`` / ``_restore_state``); the owner's ``_credit(n)`` accounts
the skipped edges exactly.  A clock whose walked list is empty is idle
and can be bulk-advanced.

Idle threads leave the buckets altogether.  A thread that yields a shut
:class:`~repro.kernel.Gate` — a gate owner's idle loop, or a ``pop()``
blocked on a parked channel (the channel's pop gate) — is *parked*
(:meth:`Clock._park`): filed nowhere, it costs nothing per edge and does
not keep its clock awake.  ``Gate.open()`` files it back
(:meth:`Clock._unpark`) at the slot its per-edge poll would have held —
into this cycle's run while that slot is still ahead of whoever opened
the gate, else into the next cycle's bucket (the compiled engine's live
list while one is attached).  Slots are *keys* (``Thread._key``), one
key space for both executors: pollers keep theirs from cycle to cycle,
due sleepers take fresh keys ahead of all, threads registered between
runs (or made runnable by an event) behind all, so key order is bucket
order.  The clock is the only registry of parked threads, so attaching
or detaching the engine converts none of this state.  The polls a
parked thread skipped are credited through its gate at unpark and at
every run exit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Optional

__all__ = ["Clock"]

#: Slot-key bounds: a due sleeper (no key yet) sorts first, another
#: clock's process last (see Clock._order).
_FIRST = float("-inf")
_LAST = float("inf")


class Clock:
    """A self-scheduling clock source.

    Do not construct directly; use :meth:`Simulator.add_clock`.
    """

    __slots__ = (
        "sim",
        "name",
        "period",
        "cycles",
        "generator",
        "next_edge",
        "_seq",
        "_wakeups",
        "_next_wakeup",
        "_callbacks",
        "_active",
        "_parked",
        "_cursor",
        "_pause_until",
        "_stopped",
        "paused_edges",
        "total_pause_time",
        "_gated",
        "_parks",
        "_key_lo",
        "_key_hi",
        "_woke",
        "_woke_at",
        "_woke_now",
    )

    def __init__(self, sim, name: str, period: int, *, start: int = 0, generator=None):
        if period <= 0:
            raise ValueError(f"clock period must be positive, got {period}")
        self.sim = sim
        self.name = name
        self.period = period
        self.cycles = 0
        self.generator: Optional[Callable[["Clock"], int]] = generator
        #: Wakeup buckets: absolute cycle number -> threads resuming there.
        self._wakeups: dict[int, list] = {}
        self._next_wakeup: Optional[int] = None  # min key of _wakeups
        #: Every registered edge callback, registration order (what
        #: lowering, the capability table and the engine's guards read).
        self._callbacks: list[Callable[["Clock"], object]] = []
        #: ``(slot, callback, owner)`` records: ``_active`` is the
        #: slot-ordered subsequence walked each posedge, ``_parked`` maps
        #: the slots that left it to their records, awaiting re-arm.
        self._active: list[tuple] = []
        self._parked: dict[int, tuple] = {}
        #: Index into ``_active`` of the callback now running, else -1.
        self._cursor = -1
        self._pause_until = 0
        self._stopped = False
        self.paused_edges = 0
        self.total_pause_time = 0
        #: Threads parked on a shut Gate, under either executor:
        #: ``id(thread) -> [thread, gate, cycle of its last poll]`` (see
        #: :meth:`_park`).
        self._gated: dict = {}
        #: False once a shape slot keys cannot order appeared (an Event
        #: wait, a thread registered mid-run): gates then poll.
        self._parks = True
        #: Due sleepers take keys below ``_key_lo``, threads registered
        #: between runs (or woken by an event, under the engine) above
        #: ``_key_hi``.
        self._key_lo = 0
        self._key_hi = 0
        #: While threads are parked: the runnable list this edge queued
        #: its bucket into, where in it, and at what time.
        self._woke = None
        self._woke_at = 0
        self._woke_now = -1
        if generator is None:
            # Fast lane: the simulator polls next_edge, no heap events.
            self.next_edge = sim.now + start
            self._seq = next(sim._seq)
            sim._fast_clocks.append(self)
        else:
            self.next_edge = None
            self._seq = 0
            sim.schedule(start, self._edge)

    # ------------------------------------------------------------------
    # subscription
    # ------------------------------------------------------------------
    def _subscribe(self, thread, edges: int = 1) -> None:
        """File ``thread`` to resume ``edges`` posedges from now."""
        at = self.cycles + edges
        bucket = self._wakeups.get(at)
        if bucket is None:
            self._wakeups[at] = [thread]
            if self._next_wakeup is None or at < self._next_wakeup:
                self._next_wakeup = at
        else:
            bucket.append(thread)

    def on_edge(self, fn: Callable[["Clock"], object]) -> int:
        """Register a callback invoked at every posedge, before threads.

        Used for per-cycle bookkeeping (channel cores, stall injectors,
        statistics) that must observe state ahead of thread wakeups.
        Returns the callback's registration slot.

        A bound-method callback may return true to report its owner
        **quiescent**: nothing it does is observable until the owner is
        touched again.  The clock then *parks* it — stamps
        ``owner._skip_from`` with the current cycle and stops calling it
        — until the owner calls :meth:`_rearm` with its slot; the
        skipped edges are settled through ``owner._credit(n)`` at
        re-arm and at every run exit (:meth:`_settle`).  A clock with
        no un-parked callback, wakeup or pause is idle and may be
        bulk-advanced (:meth:`_next_time`).  Callbacks returning
        ``None`` run at every posedge.
        """
        slot = len(self._callbacks)
        self._callbacks.append(fn)
        self._active.append((slot, fn, getattr(fn, "__self__", None)))
        return slot

    # ------------------------------------------------------------------
    # edge machinery
    # ------------------------------------------------------------------
    def _wake_bucket(self) -> None:
        """Make every thread due at the current cycle runnable."""
        waiters = self._wakeups.pop(self.cycles, None)
        if waiters is None:
            return
        if waiters and waiters[0]._key is None:
            self._key_sleepers(waiters)
        make_runnable = self.sim._make_runnable
        for thread in waiters:
            make_runnable(thread)
        if self._next_wakeup == self.cycles:
            self._next_wakeup = min(self._wakeups) if self._wakeups else None

    def _fire_callbacks(self) -> None:
        """Run the active edge callbacks in slot order, parking the ones
        that report quiescent.  ``_cursor`` is re-read after each call:
        a re-arm behind it shifts the running callback one place up."""
        active = self._active
        i = 0
        while i < len(active):
            self._cursor = i
            record = active[i]
            quiescent = record[1](self)
            i = self._cursor
            if quiescent:
                record[2]._skip_from = self.cycles
                self._parked[record[0]] = record
                del active[i]
            else:
                i += 1
        self._cursor = -1

    def _rearm(self, slot: int) -> int:
        """Put parked callback ``slot`` back on the walked list and
        return how many edges it skipped.

        Called mid-walk, a slot *ahead* of the cursor still runs this
        edge (which is then not a skipped one); a slot behind it would
        already have run, so this edge counts as skipped and the cursor
        moves up with the running callback.
        """
        record = self._parked.pop(slot)
        active = self._active
        pos = bisect_left(active, (slot,))
        active.insert(pos, record)
        owner = record[2]
        skipped = self.cycles - owner._skip_from
        owner._skip_from = None
        cursor = self._cursor
        if cursor >= 0:
            if pos > cursor:
                skipped -= 1
            else:
                self._cursor = cursor + 1
        return skipped

    def _settle(self, cut: bool) -> None:
        """Credit every parked owner the edges skipped so far (run exit:
        counters must read exact whenever the simulation is observable).
        Owners stay parked; so do gate threads, credited the same way —
        except the poll of a slot still ahead of whatever raised the
        exception that ``cut`` the current cycle short (the attached
        engine's scan cursor tells, else :meth:`_ahead`): it never ran."""
        cycles = self.cycles
        for _slot, _fn, owner in self._parked.values():
            skipped = cycles - owner._skip_from
            if skipped:
                owner._skip_from = cycles
                owner._credit(skipped)
        engine = self.sim._engine
        for record in self._gated.values():
            skipped = cycles - record[2]
            if cut and skipped and (self._ahead(record[0]) is not None
                                    if engine is None
                                    else engine._ahead(record[0])):
                skipped -= 1
            record[2] = cycles
            record[1]._skipped(self.sim, skipped)
        self._cursor = -1  # an exception may have cut a walk short
        self._woke = None  # a run boundary ends every edge's deltas

    def _edge(self) -> None:
        """Posedge, on either lane: fired off the heap (general lane) or
        by the simulator at ``next_edge`` (fast lane).  Only placing the
        next edge differs: the fast lane stamps ``next_edge`` with a
        sequence number, the general lane pushes a heap event.  Both
        take the stamp at the same moment, so firing order does not
        depend on the lane."""
        if self._stopped:
            return
        sim = self.sim
        now = sim.now
        if now < self._pause_until:
            # Pausible clocking: the synchronizer is holding the clock low;
            # retry the edge once the blackout window has passed.
            self.paused_edges += 1
            self.total_pause_time += self._pause_until - now
            at = self._pause_until
        else:
            self.cycles += 1
            if self._active:
                self._fire_callbacks()
            if self._gated:
                self._mark_edge()
            if self._wakeups:
                self._wake_bucket()
            period = self.period
            if self.generator is not None:
                period = int(self.generator(self))
                if period <= 0:
                    raise ValueError(
                        f"clock {self.name!r} generator produced period {period}"
                    )
            at = now + period
        if self.next_edge is None:
            sim.schedule(at - now, self._edge)
        else:
            self.next_edge = at
            self._seq = next(sim._seq)

    def _next_time(self) -> Optional[int]:
        """Next timestamp at which this fast clock has work of its own.

        ``None`` means "never" (stopped, or idle with no pending wakeup
        — the simulator bulk-advances the cycle counter as time passes,
        see :meth:`_advance_idle`).  A clock with an un-parked edge
        callback, or a pending pause to resolve, needs every posedge
        executed.  Parked threads are no wakeup.  The simulator honours
        an answer past ``next_edge`` only where skipping is exact (see
        ``Simulator._run``).
        """
        if self._stopped:
            return None
        if self._active or self._pause_until > self.next_edge:
            return self.next_edge
        nw = self._next_wakeup
        if nw is None:
            return None
        # Idle-skip: the next interesting edge is the wakeup bucket's.
        return self.next_edge + (nw - self.cycles - 1) * self.period

    def _advance_idle(self, last: int, kstats) -> None:
        """Bulk-advance every posedge with timestamp <= ``last``.

        Only called for a fast-lane clock whose edge callbacks are all
        parked, when no wakeup bucket falls inside the range and no
        other fast clock is live, so each skipped edge would have been a
        timestep of its own with no observable work: the cycle counter,
        pause bookkeeping, and (when telemetry is on) the per-edge
        event/timestep/delta counters advance exactly as if each edge
        had executed individually.  Parked callbacks and threads are
        credited later, from the cycle counter (:meth:`_rearm`,
        :meth:`_unpark`, :meth:`_settle`).
        The sequence stamp is renewed as the last skipped edge would
        have renewed it: nothing else took a stamp since that edge, so
        firing order at a later shared timestamp is the per-edge one.
        """
        n = 0
        first = self.cycles
        while not self._stopped and self.next_edge <= last:
            if self._pause_until > self.next_edge:
                # The edge at next_edge defers itself to the pause end.
                self.paused_edges += 1
                self.total_pause_time += self._pause_until - self.next_edge
                self.next_edge = self._pause_until
                n += 1
                continue
            k = (last - self.next_edge) // self.period + 1
            self.cycles += k
            self.next_edge += k * self.period
            n += k
        if n:
            self._seq = next(self.sim._seq)
            if kstats is not None:
                kstats.events_fired += n
                kstats.timesteps += n
                if self._gated and self.cycles > first:
                    # Parked threads would have polled at each skipped
                    # edge, one delta cycle each (their wakeups are
                    # credited at unpark / run exit).
                    kstats.delta_cycles += self.cycles - first
                    if not kstats.max_deltas_per_step:
                        kstats.max_deltas_per_step = 1

    # ------------------------------------------------------------------
    # gate parking (see repro.kernel.Gate)
    # ------------------------------------------------------------------
    def _append_key(self) -> int:
        """A slot key behind every key handed out so far."""
        self._key_hi += 1
        return self._key_hi

    def _key_sleepers(self, bucket: list) -> None:
        """Give the due sleepers heading ``bucket`` slot keys ahead of
        every other, in bucket order: they subscribed before any
        poller's last re-filing, so they resume first this cycle."""
        n = 0
        for proc in bucket:
            if proc._key is not None:
                break
            n += 1
        key = self._key_lo = self._key_lo - n
        for proc in bucket[:n]:
            proc._key = key
            key += 1

    def _order(self, proc):
        """Sort key of a bucket or runnable entry among this clock's
        slots: due sleepers first, then by slot key, others last."""
        if getattr(proc, "clock", None) is not self:
            return _LAST
        key = proc._key
        return _FIRST if key is None else key

    def _mark_edge(self) -> None:
        """An edge with gate threads parked: note where this edge's
        bucket goes in the runnable list (:meth:`_resume_now`), and that
        their polls owe a delta cycle if nothing else runs (telemetry)."""
        sim = self.sim
        sim._owed = True
        runnable = self._woke = sim._runnable
        self._woke_at = len(runnable)
        self._woke_now = sim.now

    def _park(self, thread, gate) -> bool:
        """``thread`` yielded ``gate``: park it and return True, unless the
        gate opened since its last wait (then this wait is an ordinary
        poll) or its slot cannot be kept exactly — a clock that stopped
        parking (trace capture stops it: its op scripts need every
        attempt), combinational methods (they run in deltas no key
        orders), a gate another clock's thread is parked on.  Both
        executors ask; a False answer is a poll, filed by the caller."""
        if gate._open:
            gate._open = False
            return False
        if (not self._parks or thread._key is None
                or self.sim._method_count):
            return False
        waiters = gate._waiters
        if waiters is None:
            gate._waiters = (self, [thread])
        elif waiters[0] is self:
            waiters[1].append(thread)
        else:
            return False
        self._gated[id(thread)] = [thread, gate, self.cycles]
        return True

    def _unpark(self, threads) -> None:
        """``Gate.open()`` hook: file parked ``threads`` back at their
        slots — the attached engine's live list, else this cycle's run or
        the next cycle's bucket — and credit the polls they skipped."""
        sim = self.sim
        engine = sim._engine
        cycles = self.cycles
        for thread in threads:
            _thread, gate, since = self._gated.pop(id(thread))
            if engine is not None:
                resumed = engine._place(thread)
            else:
                resumed = self._resume_now(thread)
                if not resumed:
                    self._refile(thread, cycles + 1)
            gate._skipped(sim, cycles - since - resumed)

    def _resume_now(self, thread) -> bool:
        """File an unparked ``thread`` into the current cycle if its slot
        there is still ahead of whoever opened its gate; True if so."""
        lo = self._ahead(thread)
        if lo is None:
            return False
        if lo < 0:
            self._refile(thread, self.cycles)
            return True
        sim = self.sim
        procs = sim._runnable if sim._current is None else sim._delta
        pos = bisect_right(procs, thread._key, lo, key=self._order)
        procs.insert(pos, thread)
        if procs is sim._runnable:
            sim._runnable_set.add(id(thread))
        for clock in sim._clocks:
            if clock is not self and clock._woke is procs \
                    and clock._woke_at >= pos:
                clock._woke_at += 1
        return True

    def _ahead(self, thread):
        """Is parked ``thread``'s slot in the current cycle still ahead of
        whatever runs now (a gate's opener, an exception's raiser)?  None
        if not; -1 if this edge's bucket is not woken yet (an edge
        callback of this clock runs); else the index of the running block
        from which to search the slot's place.

        This edge's bucket waits in the runnable list (another clock's
        coincident edge runs) or runs in the current delta: the slot is
        in that block at its key, ahead of a running thread of the same
        block only if that thread's key is lower.  Anything else comes
        after this cycle's poll.
        """
        if self._cursor >= 0:
            return -1
        sim = self.sim
        runner = sim._current
        procs = sim._runnable if runner is None else sim._delta
        if procs is not self._woke or sim.now != self._woke_now:
            return None
        lo = self._woke_at
        if runner is not None:
            at = procs.index(runner)
            if at >= lo:
                if runner.clock is not self:
                    return None       # the block ran before the runner
                key = runner._key
                if key is not None and key > thread._key:
                    return None       # the slot came before the runner
                lo = at + 1
        return lo

    def _refile(self, thread, at: int) -> None:
        """Insert ``thread`` into the bucket of cycle ``at`` at its slot."""
        bucket = self._wakeups.get(at)
        if bucket is None:
            self._wakeups[at] = [thread]
            if self._next_wakeup is None or at < self._next_wakeup:
                self._next_wakeup = at
        else:
            bucket.insert(bisect_right(bucket, thread._key, key=self._order),
                          thread)

    def _release(self) -> None:
        """Unpark every thread parked on this clock, as if each gate had
        opened now (:meth:`_stop_parking`, ``Simulator.add_method``)."""
        gated = self._gated
        while gated:
            gate = next(iter(gated.values()))[1]
            waiters, gate._waiters = gate._waiters, None
            self._unpark(waiters[1])

    def _stop_parking(self) -> None:
        """A thread re-entered the buckets at a place no slot key
        records: this clock's gates poll from now on."""
        self._parks = False
        self._release()

    # ------------------------------------------------------------------
    # GALS controls
    # ------------------------------------------------------------------
    def pause_until(self, time: int) -> None:
        """Forbid posedges before ``time`` (pausible clocking)."""
        if time > self._pause_until:
            self._pause_until = time

    def set_period(self, period: int) -> None:
        """Change the nominal period for subsequent cycles (DVFS).

        The already-committed next edge keeps its time; the new period
        applies from the edge after it, as with the heap-scheduled
        kernel.
        """
        if period <= 0:
            raise ValueError(f"clock period must be positive, got {period}")
        self.period = period

    def stop(self) -> None:
        """Permanently stop this clock (drains the event queue faster).

        Threads still filed in wakeup buckets never resume — exactly the
        pre-fast-lane behaviour of threads waiting on a stopped clock.
        """
        self._stopped = True

    @property
    def frequency_ghz(self) -> float:
        """Nominal frequency assuming 1 tick = 1 ps."""
        return 1000.0 / self.period

    @property
    def pending_wakeups(self) -> int:
        """Threads currently filed in this clock's wakeup buckets."""
        return sum(len(b) for b in self._wakeups.values())

    def activity(self) -> dict:
        """Per-domain activity counters as a serializable dict
        (cycles ticked, pausible-clocking pauses and blackout time)."""
        return {
            "name": self.name,
            "period": self.period,
            "cycles": self.cycles,
            "paused_edges": self.paused_edges,
            "total_pause_time": self.total_pause_time,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Clock({self.name!r}, period={self.period}, cycles={self.cycles})"
