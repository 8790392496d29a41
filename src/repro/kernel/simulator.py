"""Event-driven simulation kernel with delta cycles and multiple clocks.

This module is the reproduction's stand-in for the SystemC simulation
kernel used by the paper's OOHLS flow.  It provides the same modelling
vocabulary:

* :class:`Simulator` — the scheduler: an integer-time event queue plus a
  delta-cycle loop per timestep, mirroring SystemC's evaluate/update
  semantics.
* clocked threads (``SC_CTHREAD`` analogs) — Python generators that
  ``yield`` to wait for posedges of their clock,
* combinational methods (``SC_METHOD`` analogs) — plain functions with a
  signal sensitivity list, re-run whenever a sensitive signal changes,
* :class:`Event` — explicit notification objects for thread wakeups.

Signals live in :mod:`repro.kernel.signal` and clocks in
:mod:`repro.kernel.clock`; both cooperate with the scheduler defined here.

The kernel deliberately uses integer timestamps (abstract "ticks", by
convention 1 tick = 1 ps) so that globally-asynchronous clock domains with
irrational-looking period ratios still compare exactly.

Scheduler hot path (see ``docs/PERFORMANCE.md`` for the design):

* periodic clocks (no generator) live on a **fast lane** — a flat list
  whose next-edge times are compared against the heap top each timestep,
  so a posedge costs no heap churn and no closure allocation;
* threads yielding ``n`` cycles are filed in per-clock **wakeup
  buckets** keyed by absolute cycle number — a sleeping thread costs
  zero work per edge;
* method sensitivity is stored **on the signal objects themselves**
  (``Signal._watchers``), so a commit wakes its methods without a dict
  lookup — and without the use-after-free hazard of an ``id()``-keyed
  side table;
* **quiescent edge callbacks leave the clock**: an empty channel's tick
  is parked until a push re-arms it, and its skipped ticks are credited
  exactly at re-arm and at every run exit (see ``Clock.on_edge``);
* **idle threads leave the buckets**: a thread that yields a shut
  :class:`Gate` — a gate owner's idle loop, or a ``pop()`` blocked on a
  parked channel — is parked off its clock until :meth:`Gate.open`
  files it back at the slot its per-edge poll would have held; the
  polls it skipped are credited at unpark and at every run exit;
* an **idle-skip** bulk-advances a lone clock whose callbacks are all
  parked over edges where no thread wakes and no timed event fires.

All fast paths are semantics-preserving: firing order is kept identical
to the heap-scheduled kernel by stamping fast-lane edges with the same
monotonic sequence numbers timed events use and merging the two sources
per timestamp.
"""

from __future__ import annotations

import heapq
import itertools
import time
from contextlib import contextmanager
from typing import Any, Callable, Generator, Iterable, Optional

from ..design.hierarchy import Hierarchy
from ..observe.core import attach_if_enabled
from .clock import Clock

__all__ = [
    "Simulator",
    "Event",
    "Gate",
    "Thread",
    "Method",
    "SimulationError",
    "DeltaOverflow",
    "TimeBudgetExceeded",
    "time_budget",
]


class SimulationError(RuntimeError):
    """Base class for kernel-level errors."""


class DeltaOverflow(SimulationError):
    """Raised when a timestep fails to converge (combinational loop)."""


class TimeBudgetExceeded(SimulationError):
    """Raised when a simulation overruns an ambient wall-clock budget."""


#: Stack of monotonic deadlines armed by :func:`time_budget`.  The
#: scheduler checks the innermost deadline once per timestep, so a
#: wedged simulation stops with :class:`TimeBudgetExceeded` even where
#: SIGALRM is unusable (non-main threads, non-POSIX platforms).  The
#: list identity is stable — hot loops may hoist a reference to it.
_TIME_BUDGET: list = []

_monotonic = time.monotonic


@contextmanager
def time_budget(seconds: float):
    """Bound any simulation run inside the block to ``seconds`` of wall
    clock.

    Cooperative (checked between scheduler timesteps): pure-Python code
    that never re-enters the kernel is not interrupted.  Budgets nest;
    the innermost deadline armed *before* a run starts is the one that
    run honours.
    """
    if seconds is None or seconds <= 0:
        raise ValueError(f"time budget must be positive, got {seconds}")
    deadline = _monotonic() + float(seconds)
    _TIME_BUDGET.append(deadline)
    try:
        yield
    finally:
        _TIME_BUDGET.remove(deadline)


class Event:
    """A notification object threads can wait on.

    Mirrors ``sc_event``: ``notify()`` wakes waiters in the next delta of
    the current timestep; ``notify_at(delay)`` wakes them ``delay`` ticks
    in the future.
    """

    __slots__ = ("sim", "name", "_waiters", "__weakref__")

    def __init__(self, sim: "Simulator", name: str = "event"):
        self.sim = sim
        self.name = name
        self._waiters: list[Thread] = []
        # Weak registration so snapshot/restore can enumerate events
        # without pinning testbench-local ones (see .snapshot).
        registry = getattr(sim, "_snap_events", None)
        if registry is not None:
            import weakref

            registry.append(weakref.ref(self))

    def notify(self) -> None:
        """Wake every waiting thread in the next delta cycle."""
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for thread in waiters:
                self.sim._make_runnable(thread)

    def notify_at(self, delay: int) -> None:
        """Wake every waiting thread ``delay`` ticks from now."""
        self.sim.schedule(delay, self.notify)

    def _subscribe(self, thread: "Thread") -> None:
        self._waiters.append(thread)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Event({self.name!r}, waiters={len(self._waiters)})"


class Gate:
    """A declared idle-wait point for a thread's polling loop.

    To the thread ``yield gate`` means ``yield``: wait one posedge and
    re-check the condition.  To the executor it says the iteration about
    to repeat is idle until :meth:`open` is called (by a message handler,
    or by a watched channel's tick leaving data visible, see
    ``FastChannel.add_wake_gate``).  So both executors *park* the thread:
    it leaves the wakeup buckets (the compiled engine's live list), costs
    nothing per edge, and :meth:`open` files it back at exactly the slot
    its per-edge poll would have held (``Clock._unpark``,
    ``CompiledEngine._unpark``).  A spurious :meth:`open` only costs one
    extra poll iteration, never correctness, because the waiting loop
    re-checks its condition on every resume.  The one side effect an
    idle iteration may have, refused pops, is declared with
    :meth:`idle_pops` and credited for every edge the thread skipped.

    Every ``FastChannel`` owns one, its *pop gate*: a blocked ``In.pop()``
    yields it while the channel is parked (empty, nothing in transit),
    so a long idle block parks like any gate owner.
    """

    __slots__ = ("_open", "_waiters", "_credits")

    def __init__(self) -> None:
        #: Opened while nobody was parked here: the next ``yield gate``
        #: polls once instead of parking.
        self._open = False
        #: ``(executor, [parked entries])`` while threads are parked
        #: here, else None; ``executor._unpark(entries)`` files them back.
        self._waiters = None
        #: ``credit(n)`` callables, one per refused pop an idle
        #: iteration makes (see :meth:`idle_pops`), or None.
        self._credits = None

    def open(self) -> None:
        """Wake the parked owner (or, if none, let its next wait poll)."""
        waiters = self._waiters
        if waiters is None:
            self._open = True
        else:
            self._waiters = None
            waiters[0]._unpark(waiters[1])

    def idle_pops(self, *channels) -> None:
        """Declare that one idle iteration of the owner's loop makes one
        refused pop on each of ``channels`` (``do_pop`` / ``pop_nb`` on
        an empty channel).  Each channel is asked ``_refused_pops(n)``
        for the ``n`` polls a parked thread skipped."""
        credits = self._credits
        if credits is None:
            credits = self._credits = []
        for channel in channels:
            credit = channel._refused_pops
            if credit not in credits:
                credits.append(credit)

    def _skipped(self, sim, n: int) -> None:
        """Credit ``n`` polls a thread parked here did not make: its
        declared refusals and, under telemetry, its wakeups."""
        if n > 0:
            credits = self._credits
            if credits is not None:
                for credit in credits:
                    credit(n)
            hub = sim.telemetry
            if hub is not None:
                hub.kernel.thread_wakeups += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gate(open={self._open}, parked={self._waiters is not None})"


class Thread:
    """A clocked simulation thread (``SC_CTHREAD`` analog).

    The body is a Python generator.  Yield values:

    * ``None`` — wait one posedge of the thread's clock,
    * a positive ``int`` n — wait n posedges,
    * a :class:`Gate` — wait one posedge; a shut gate parks the thread
      until :meth:`Gate.open` (see :class:`Gate`),
    * an :class:`Event` — wait until the event is notified.

    Subroutines compose with ``yield from``.

    ``factory`` is the zero-argument callable the generator came from
    when the thread was registered factory-style (see
    :meth:`Simulator.add_thread`); snapshot restore re-creates the
    generator by calling it again.  Threads registered from a raw
    generator object carry ``factory = None`` and make their simulator
    snapshot-ineligible (generators cannot be copied).
    """

    __slots__ = ("sim", "gen", "clock", "name", "done", "factory", "_key")

    def __init__(self, sim: "Simulator", gen: Generator, clock, name: str,
                 factory: Optional[Callable[[], Generator]] = None):
        self.sim = sim
        self.gen = gen
        self.clock = clock
        self.name = name
        self.done = False
        self.factory = factory
        #: Slot among its clock's pollers (see ``Clock._unpark``): None
        #: while the thread sleeps or before its clock first wakes it.
        self._key = None

    def _resume(self) -> None:
        """Advance the generator to its next wait point."""
        try:
            request = next(self.gen)
        except StopIteration:
            self.done = True
            self.sim._thread_finished(self)
            return
        if request is None:
            self.clock._subscribe(self)
        elif type(request) is Gate:
            self.clock._gate_wait(self, request)
        else:
            self._wait(request)

    def _wait(self, request) -> None:
        """File this thread for a yielded cycle count or :class:`Event`
        (both executors' path for every yield but a poll or a gate)."""
        if isinstance(request, int):  # bool / IntEnum yields too
            edges = int(request)
            if edges <= 0:
                raise SimulationError(
                    f"thread {self.name!r} yielded non-positive wait {request}"
                )
            if self.clock is None:
                raise SimulationError(
                    f"thread {self.name!r} has no clock but yielded a cycle wait"
                )
            if edges > 1:
                self._key = None  # a sleeper leaves the pollers' order
            self.clock._subscribe(self, edges)
        elif isinstance(request, Event):
            clock = self.clock
            if clock is not None and clock._parks:
                # An event wake re-enters the buckets at a place no slot
                # key records: this clock's gates poll from now on.
                clock._stop_parking()
            request._subscribe(self)
        else:
            raise SimulationError(
                f"thread {self.name!r} yielded unsupported value {request!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Thread({self.name!r}, done={self.done})"


class Method:
    """A combinational process (``SC_METHOD`` analog).

    The function is invoked once at elaboration and re-invoked in a new
    delta cycle whenever any signal in its sensitivity list changes value.
    """

    __slots__ = ("fn", "name", "_queued")

    def __init__(self, fn: Callable[[], None], name: str):
        self.fn = fn
        self.name = name
        self._queued = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Method({self.name!r})"


class Simulator:
    """The event-driven scheduler.

    Typical use::

        sim = Simulator()
        clk = sim.add_clock("clk", period=1000)
        sim.add_thread(producer(), clk, name="producer")
        sim.run(until=1_000_000)

    Timestep execution order (mirrors SystemC):

    1. fire all timed events scheduled for the current timestamp
       (clock edges, delayed notifications) in scheduling order,
    2. delta loop: run runnable threads and methods, then commit signal
       updates; signals that changed wake their sensitive methods in the
       next delta; repeat until quiescent.

    ``telemetry=True`` attaches a :class:`~repro.observe.core.TelemetryHub`
    that profiles the kernel itself (events fired, delta cycles, thread
    wakeups, per-thread wall time) and lets channels/meshes register
    their own counters; with the default ``telemetry=None`` the hub is
    attached only inside an :func:`repro.observe.capture` window, and
    the disabled path costs one ``is None`` check per hook site.
    Snapshot with :func:`repro.observe.collect`.
    """

    #: Safety valve against unstable combinational loops.
    MAX_DELTAS_PER_STEP = 1000

    def __init__(self, *, telemetry: Optional[bool] = None,
                 backend: Optional[str] = None) -> None:
        self.now: int = 0
        self._queue: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._runnable: list = []
        self._runnable_set: set = set()
        # Signals cache a direct reference to this list (Signal._dirty_list),
        # so its identity must stay stable: the delta loop clears it in
        # place instead of rebinding it.
        self._dirty_signals: list = []
        self._threads: list[Thread] = []
        self._clocks: list = []
        #: Periodic clocks on the fast lane (no per-edge heap events).
        self._fast_clocks: list = []
        self._started = False
        self._finished_threads = 0
        self.trace = None  # optional Trace object (see tracing.py)
        #: Progress watchdog (see repro.faults.watchdog) or None.  The
        #: scheduler never reads it: blocking ports call its hooks on
        #: their failure paths.
        self.watchdog = None
        #: Thread being resumed (None between resumes: methods, edges)
        #: and the delta list it sits in.  Watchdog and trace capture
        #: attribute port attempts to it; ``Clock._unpark`` places a
        #: gate's thread relative to it.
        self._current: Optional[Thread] = None
        self._delta: list = []
        #: True inside run() / run_cycles().
        self._running = False
        #: Set by an edge that left gate threads parked: under telemetry
        #: their polls owe a delta cycle if nothing else runs then.
        self._owed = False
        #: Design hierarchy under construction (see repro.design).  All
        #: registration is construction-time; the scheduler never reads it.
        self.design = Hierarchy(self)
        # TelemetryHub or None; None keeps every hook at zero overhead.
        self.telemetry = attach_if_enabled(self, telemetry)
        # Execution backend (see repro.kernel.backend / repro.compile).
        # ``backend`` overrides the ambient default; "compiled" requests
        # the graph-compiled dispatch loop, which attaches lazily at the
        # first run and falls back to this threaded kernel whenever the
        # design uses a construct it cannot prove equivalent.
        from .backend import resolve_backend

        self._backend_requested = resolve_backend(backend)
        self._engine = None          # CompiledEngine once attached
        self._backend_fallback: Optional[str] = None
        self._method_count = 0
        # Snapshot/restore support (see repro.kernel.snapshot).  The
        # weak registries let the base capture enumerate signals and
        # events without pinning testbench-local ones; ``_history``
        # records every coarse run call so a mid-run snapshot can be
        # replayed from the base state; ``_snap_base`` is the captured
        # base (None until enable_snapshots()).
        self._snap_signals: list = []
        self._snap_events: list = []
        self._history: list = []
        self._restore_hooks: list = []
        self._snap_base = None

    # ------------------------------------------------------------------
    # elaboration API
    # ------------------------------------------------------------------
    def add_clock(self, name: str, period: int, *, start: int = 0, generator=None):
        """Create and register a :class:`~repro.kernel.clock.Clock`.

        ``generator`` optionally supplies a per-edge period callback used
        by GALS local clock generators (jitter, adaptation, pausing);
        such clocks take the general heap-scheduled path, while plain
        periodic clocks ride the fast lane.
        """
        clock = Clock(self, name, period, start=start, generator=generator)
        self._clocks.append(clock)
        self.design.register_clock(clock)
        return clock

    def add_thread(self, gen, clock, *, name: str = "thread") -> Thread:
        """Register a clocked thread.

        ``gen`` is either a generator object or a **zero-argument
        factory** returning one.  The factory form is what makes a
        design snapshot-eligible (:meth:`enable_snapshots`): generators
        cannot be copied, so restore re-creates each thread's generator
        by calling its factory again.  Both forms behave identically
        otherwise.

        The thread first runs at the first posedge of ``clock`` after
        simulation start.
        """
        factory = None
        if callable(gen):
            factory = gen
            gen = factory()
        thread = Thread(self, gen, clock, name, factory)
        self._threads.append(thread)
        self.design.register_thread(thread, name)
        if clock is not None:
            if self._running:
                # Registered by running code: its place among parked
                # gate threads' slots is unknown, so they poll again.
                clock._stop_parking()
            else:
                thread._key = clock._append_key()
            clock._subscribe(thread)
        else:
            # Unclocked threads start in the first delta of time zero.
            self.schedule(0, lambda t=thread: self._make_runnable(t))
        return thread

    def add_method(
        self, fn: Callable[[], None], sensitive: Iterable, *, name: str = "method"
    ) -> Method:
        """Register a combinational method with a sensitivity list.

        The sensitivity link lives on the signal objects themselves
        (each keeps a strong reference to its methods), so dropping a
        signal can never alias another signal's watcher list.
        """
        method = Method(fn, name)
        self._method_count += 1
        # Methods run in deltas no slot key orders: gates poll from now.
        for clk in self._clocks:
            clk._release()
        for sig in sensitive:
            if sig._watchers is None:
                sig._watchers = [method]
            else:
                sig._watchers.append(method)
        # Run once at time zero to settle initial combinational state.
        self.schedule(0, lambda m=method: self._queue_method(m))
        return method

    def event(self, name: str = "event") -> Event:
        """Create a fresh :class:`Event`."""
        return Event(self, name)

    # ------------------------------------------------------------------
    # scheduling primitives (used by Clock / Signal / Event)
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` at ``now + delay`` (before that timestep's deltas)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), fn))

    def _make_runnable(self, proc) -> None:
        if id(proc) not in self._runnable_set:
            self._runnable_set.add(id(proc))
            self._runnable.append(proc)

    def _queue_method(self, method: Method) -> None:
        # ``_queued`` alone dedupes methods (it is set exactly while the
        # method sits in the pending runnable list), so no set lookup.
        if not method._queued:
            method._queued = True
            self._runnable.append(method)

    def _thread_finished(self, thread: Thread) -> None:
        self._finished_threads += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, *, max_steps: Optional[int] = None) -> int:
        """Run until no work is left or simulation time reaches ``until``.

        "No work" is: no timed event pending and no live clock with an
        un-parked edge callback, a sleeping or polling thread, or a
        pause to resolve.  A thread parked on a shut :class:`Gate` — a
        ``pop()`` blocked on an empty, parked ``FastChannel`` too — is
        not work: nothing left can wake it, so a run without horizon on a
        design whose every live thread waits like that returns, with
        ``now`` at the last executed edge (attach a
        :class:`~repro.faults.Watchdog` to have it raise instead; its
        checks keep the clock awake).  With ``until``, a
        live clock that runs out of work still idles up to the horizon
        (``now == until`` on return); a horizon behind ``now`` runs
        nothing and never rewinds time.  ``max_steps`` bounds the number
        of executed timesteps.

        Returns the final simulation time.
        """
        self._history.append(("run", until, max_steps))
        if until is not None and until < self.now:
            return self.now
        return self._run(until, max_steps, None, 0)

    def run_cycles(self, clock, cycles: int) -> int:
        """Run until ``clock`` has ticked ``cycles`` more posedges.

        A single bounded run with an edge-count stop condition: the
        scheduler loop exits as soon as the target cycle count is
        reached (or the simulation runs out of work — e.g. the clock
        was stopped), without re-entering :meth:`run` per timestep.
        """
        if cycles <= 0:
            return self.now
        self._history.append(("run_cycles", self._clocks.index(clock), cycles))
        target = clock.cycles + cycles
        # Sentinel wakeup bucket: gives the idle-skip an exact horizon,
        # so even a clock with no waiters executes its target edge.
        if target not in clock._wakeups:
            clock._wakeups[target] = []
            if clock._next_wakeup is None or target < clock._next_wakeup:
                clock._next_wakeup = target
        return self._run(None, None, clock, target)

    def _run(self, until: Optional[int], max_steps: Optional[int],
             stop_clock, stop_cycles: int) -> int:
        """Core scheduler loop shared by :meth:`run` / :meth:`run_cycles`.

        Each iteration executes one timestep: the earliest timestamp
        owed by the timed-event heap or by a fast-lane clock edge.  All
        firings at that timestamp are merged in sequence-number order
        (identical to the fully heap-scheduled kernel), then delta
        cycles run until quiescent.

        With ``backend="compiled"`` the run is first offered to the
        compiled dispatch engine; if the engine declines (capability
        check) or detaches mid-run (a dynamic construct appeared), the
        loop below continues with whatever step budget remains.
        """
        self._running = True
        self._owed = False
        cut = False
        try:
            if self._backend_requested == "compiled":
                outcome = self._compiled_run(until, max_steps,
                                             stop_clock, stop_cycles)
                if outcome is not None:
                    done, executed = outcome
                    if done:
                        return self.now
                    if max_steps is not None:
                        max_steps -= executed
                        if max_steps <= 0:
                            return self.now
            self._threaded_run(until, max_steps, stop_clock, stop_cycles)
            return self.now
        except BaseException as exc:
            # The budget is checked between timesteps: it cuts none.
            cut = not isinstance(exc, TimeBudgetExceeded)
            raise
        finally:
            # Whichever executor ran and however it stopped (horizon,
            # budget, exception): credit parked edge callbacks and gate
            # threads their skipped edges, so counters read exact
            # between runs.  The raiser of an exception stays
            # ``_current`` until then: slots ahead of it never polled.
            self._running = False
            for clk in self._clocks:
                clk._settle(cut)
            if self._engine is not None:
                self._engine._settle()
            self._current = None

    def _threaded_run(self, until, max_steps, stop_clock, stop_cycles):
        """The threaded scheduler loop (see :meth:`_run`)."""
        steps = 0
        kstats = self.telemetry.kernel if self.telemetry is not None else None
        queue = self._queue
        fast = self._fast_clocks
        pop = heapq.heappop
        budget = _TIME_BUDGET  # stable list identity; usually empty
        # Flush writes/wakeups performed outside any process before running.
        self._delta_loop()
        while True:
            if budget and _monotonic() >= budget[-1]:
                raise TimeBudgetExceeded(
                    f"simulation at t={self.now} exceeded its wall-clock "
                    f"budget (see repro.kernel.time_budget)"
                )
            t = queue[0][0] if queue else None
            live = 0
            for clk in fast:
                if not clk._stopped:
                    live += 1
                    lone = clk
                    ne = clk.next_edge
                    if t is None or ne < t:
                        t = ne
            if live == 1 and max_steps is None:
                # Idle-skip: a lone clock may name a later edge than its
                # next.  Exact because each edge it skips would have
                # been a timestep of its own (no second skipper to share
                # a timestamp or a sequence stamp with).  Two live fast
                # clocks, or a step budget (which counts edges), execute
                # every edge.
                t = lone._next_time()
                if queue and (t is None or queue[0][0] < t):
                    t = queue[0][0]
            if t is None:
                # No executable work left.  An idle periodic clock still
                # ticks silently up to the requested horizon.
                if until is not None:
                    if live:
                        self.now = until
                    for clk in fast:
                        clk._advance_idle(until, kstats)
                break
            if until is not None and t > until:
                self.now = until
                for clk in fast:
                    clk._advance_idle(until, kstats)
                break
            self.now = t
            due = None
            for clk in fast:
                ne = clk.next_edge
                if ne <= t and not clk._stopped:
                    if ne < t:
                        # Idle-skip: edges strictly before this timestep
                        # had no observable work by construction.
                        clk._advance_idle(t - 1, kstats)
                        ne = clk.next_edge
                    if ne == t:
                        if due is None:
                            due = [(clk._seq, clk._edge)]
                        else:
                            due.append((clk._seq, clk._edge))
            if due is not None:
                while queue and queue[0][0] == t:
                    item = pop(queue)
                    due.append((item[1], item[2]))
                if len(due) > 1:
                    due.sort()
                if kstats is not None:
                    kstats.events_fired += len(due)
                for _, fn in due:
                    fn()
                if kstats is not None and self._owed:
                    self._owed_delta(kstats)
                self._delta_loop()
            # Fire every remaining timed event at this timestamp,
            # interleaving delta loops so that zero-delay notifications
            # land in fresh deltas.
            while queue and queue[0][0] == t:
                while queue and queue[0][0] == t:
                    _, _, fn = pop(queue)
                    if kstats is not None:
                        kstats.events_fired += 1
                    fn()
                if kstats is not None and self._owed:
                    self._owed_delta(kstats)
                self._delta_loop()
            steps += 1
            if kstats is not None:
                kstats.timesteps += 1
            if max_steps is not None and steps >= max_steps:
                break
            if stop_clock is not None and stop_clock.cycles >= stop_cycles:
                break

    def _owed_delta(self, kstats) -> None:
        """Telemetry: the edges just fired left gate threads parked; had
        they polled, their polls would have run a delta cycle of their
        own if nothing else is runnable now."""
        self._owed = False
        if not self._runnable and not self._dirty_signals:
            kstats.delta_cycles += 1
            if not kstats.max_deltas_per_step:
                kstats.max_deltas_per_step = 1

    def _delta_loop(self) -> None:
        """Evaluate/update until quiescent: run the runnable threads and
        methods, commit the signal writes they made, queue the methods
        sensitive to a changed signal, repeat.  Telemetry and trace are
        hoisted: off, a thread resume pays one ``kstats is None`` test, a
        method one more, and a changed signal one ``observed`` test."""
        dirty = self._dirty_signals
        if not self._runnable and not dirty:
            return
        kstats = self.telemetry.kernel if self.telemetry is not None else None
        trace = self.trace
        observed = kstats is not None or trace is not None
        now = self.now
        deltas = 0
        max_deltas = self.MAX_DELTAS_PER_STEP
        while self._runnable or dirty:
            deltas += 1
            if deltas > max_deltas:
                raise DeltaOverflow(
                    f"timestep at t={now} did not converge after "
                    f"{max_deltas} delta cycles"
                )
            current = self._runnable
            self._runnable = runnable = []
            self._runnable_set.clear()
            self._delta = current
            append = runnable.append
            for proc in current:
                if proc.__class__ is Method:
                    proc._queued = False
                    if kstats is not None:
                        kstats.method_invocations += 1
                    proc.fn()
                elif not proc.done:
                    # Exposed while it runs: blocking ports attribute
                    # their attempts to it (watchdog, trace capture).
                    self._current = proc
                    if kstats is None:
                        proc._resume()
                    else:
                        kstats.thread_wakeups += 1
                        start = time.perf_counter()
                        proc._resume()
                        kstats.add_proc_time(
                            proc.name, time.perf_counter() - start)
                    self._current = None
            # Update phase: commit signal writes, wake sensitive methods.
            # No process runs here, so nothing appends to ``dirty`` while
            # it is iterated; clear it in place to preserve its identity
            # (signals cache a reference).
            if dirty:
                for sig in dirty:
                    sig._dirty = False
                    nxt = sig._next
                    if nxt != sig._value:
                        sig._value = nxt
                        if observed:
                            if kstats is not None:
                                kstats.signal_commits += 1
                            if trace is not None:
                                trace.record(now, sig)
                        watchers = sig._watchers
                        if watchers:
                            for method in watchers:
                                if not method._queued:
                                    method._queued = True
                                    append(method)
                dirty.clear()
        if kstats is not None:
            kstats.delta_cycles += deltas
            if deltas > kstats.max_deltas_per_step:
                kstats.max_deltas_per_step = deltas

    def _compiled_run(self, until, max_steps, stop_clock, stop_cycles):
        """Offer this run to the compiled engine.

        Returns ``(done, steps_executed)`` when the engine ran, or
        ``None`` when the run must be (or continue to be) threaded.
        Lazy import: :mod:`repro.compile` depends on this module.
        """
        engine = self._engine
        if engine is None:
            if self._backend_fallback is not None:
                return None
            from ..compile import try_attach

            engine = try_attach(self)
            if engine is None:
                from .backend import record_run

                record_run("threaded", self._backend_fallback)
                return None
        if self._runnable:
            # Threads made runnable between runs (event notified outside
            # any process) must file into the wakeup bucket *after* the
            # pollers the engine manages, so let the threaded loop order
            # this boundary.
            from .capability import reason

            engine.detach(reason("boundary", "compiled"))
            return None
        self._delta_loop()  # commit stray writes before the first edge
        return engine.run(until, max_steps, stop_clock, stop_cycles)

    # ------------------------------------------------------------------
    # snapshot / restore (see repro.kernel.snapshot)
    # ------------------------------------------------------------------
    def enable_snapshots(self) -> None:
        """Capture the pre-run base state; must precede the first run.

        Validates eligibility (factory-registered threads, channels
        with the state protocol, no instrumentation) and raises
        :class:`~repro.kernel.snapshot.SnapshotError` listing every
        blocking construct otherwise.
        """
        from .snapshot import enable

        enable(self)

    def snapshot(self):
        """Return a :class:`~repro.kernel.snapshot.Snapshot` of the
        current simulation state (auto-enables if called before the
        first run)."""
        from .snapshot import capture

        return capture(self)

    def restore(self, snap) -> None:
        """Rewind this simulator to ``snap``'s state.

        Resets every kernel object to the captured base, runs the
        :meth:`on_restore` hooks, then deterministically replays the
        run calls recorded up to the snapshot.
        """
        from .snapshot import restore

        restore(self, snap)

    def on_restore(self, hook: Callable[[], None]) -> None:
        """Register a callable invoked on every :meth:`restore`, after
        kernel state is reset and before the run replay — the place to
        clear harness/testbench state the kernel cannot see (result
        lists, component counters)."""
        self._restore_hooks.append(hook)

    @property
    def snapshots_enabled(self) -> bool:
        return self._snap_base is not None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Backend currently executing this simulator's runs."""
        return "compiled" if self._engine is not None else "threaded"

    @property
    def backend_requested(self) -> str:
        """Backend asked for at construction (ambient default included)."""
        return self._backend_requested

    @property
    def backend_fallback_reason(self) -> Optional[str]:
        """Why a ``backend="compiled"`` request fell back, or None."""
        return self._backend_fallback

    @property
    def pending_threads(self) -> int:
        """Number of registered threads that have not finished."""
        return len(self._threads) - self._finished_threads

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulator(now={self.now}, queue={len(self._queue)}, "
            f"threads={len(self._threads)})"
        )
