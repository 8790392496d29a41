"""Trace capture: record one full simulation as a replayable op script.

The LightningSimV2 observation (PAPERS.md) adapted to this kernel: for
a latency-insensitive design, one full simulation fixes everything
*behavioural* — which thread performs which channel operation, in which
order, with how many idle cycles between them — and only the *timing*
of those operations depends on the latency parameters (FIFO depths,
injected stall schedules, clock period).  Capture therefore runs the
design once under instrumentation and records, per thread, the sequence
of blocking channel operations with their cycle stamps; replay
(:mod:`repro.trace.replay`) then re-derives the timing analytically for
any replay-safe parameter point without re-running the kernel.

What one capture records:

* per-channel structural config — kind, capacity, ``extra_latency``,
  stall injection ``(probability, seed)`` — in clock-callback order
  (the tick phase's dispatch order, via :func:`repro.design.lower.lower`),
* per-thread **op scripts**: each blocking ``push``/``pop`` as
  ``(kind, channel, first_attempt_cycle, success_cycle)`` — a blocking
  port op attempts once per posedge, so the raw attempt stream groups
  losslessly into ops — plus the trailing still-blocked op if the run
  ended mid-handshake,
* push→pop dependency edges, from the one pushing and one popping
  thread the op scripts show per channel (message *k* into a channel
  is consumed by pop *k*: single-producer single-consumer FIFO order),
* the horizon (total posedges ticked) and the final per-channel
  counters, which double as the round-trip oracle.

Eligibility
-----------
Replay is exact only for designs whose behaviour is provably
timing-independent.  Every construct that breaks that proof is a row of
the capability table (:mod:`repro.kernel.capability`, ``replay``
column): capture evaluates the table on entry, watches the run for the
constructs only a run reveals (non-blocking port ops, event waits,
mid-run ``schedule``/``set_stall``, multi-pusher channels), and records
each finding's text as a **fallback reason** instead of failing.

A trace with reasons is still returned — the sweep engine records the
reasons and falls back to full simulation for that parameter group.

Instrumentation is **scoped**: port/channel methods are class-patched
only inside the :func:`capture` context (zero overhead for normal
runs), ops are attributed to the thread the scheduler is resuming
(``sim._current``, set by either executor), and every clock stops
parking gate threads (``Clock._stop_parking``), so every attempt is
seen.  A capture runs on whichever executor the simulator requested:
both resume threads in the reference order replay must match.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from ..kernel import capability

__all__ = ["TRACE_SCHEMA", "CaptureError", "capture"]

TRACE_SCHEMA = "repro-trace/1"

#: The single active recorder (captures never nest; sweeps capture in
#: worker processes, one at a time per process).
_ACTIVE: Optional["_Recorder"] = None

_OP_PUSH = 0
_OP_POP = 1


class CaptureError(RuntimeError):
    """Raised on illegal capture use (nested captures)."""


class _Recorder:
    """Collects op attempts and eligibility findings for one simulator."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.reasons: List[str] = []
        self._recorded: set = set()
        self.channels: List[Any] = []          # FastChannel, tick order
        self._chan_index: Dict[int, int] = {}
        self.threads: List[Any] = []           # kernel Thread, registration order
        self._thread_index: Dict[int, int] = {}
        self.thread_paths: List[str] = []
        self.channel_paths: List[str] = []
        #: Per-thread completed ops: [kind, chan, first_cycle, done_cycle].
        self.ops: List[List[list]] = []
        #: Per-thread open (not yet successful) op group or None.
        self._open: List[Optional[list]] = []
        #: id(channel) -> seed passed to set_stall inside the window.
        self.stall_seeds: Dict[int, Optional[int]] = {}
        self.clock = None

    # -- findings ------------------------------------------------------
    def reason(self, key: str, **found) -> None:
        """Record capability row ``key`` as a fallback reason, once per
        distinct occurrence (``found`` is the row text's arguments)."""
        occurrence = (key, *found.values())
        if occurrence not in self._recorded:
            self._recorded.add(occurrence)
            self.reasons.append(capability.reason(key, "replay", **found))

    # -- structural snapshot (capture entry) ---------------------------
    def snapshot(self) -> None:
        sim = self.sim
        self.reasons.extend(text for _key, text
                            in capability.findings(sim, "replay"))
        if not sim._clocks:
            return
        self.clock = sim._clocks[0]

        # Channel tick order and thread order, with instance paths.
        try:
            from ..design.lower import lower

            schedule = lower(sim)
        except Exception as exc:  # noqa: BLE001 - recorded, not raised
            self.reason("lower", exc=exc)
            schedule = None
        if schedule is not None:
            for node in schedule.channels:
                if node.managed:
                    self._chan_index[id(node.channel)] = len(self.channels)
                    self.channels.append(node.channel)
                    self.channel_paths.append(node.path)
            for node in schedule.threads:
                self._thread_index[id(node.thread)] = len(self.threads)
                self.threads.append(node.thread)
                self.thread_paths.append(node.path)
                self.ops.append([])
                self._open.append(None)

    # -- op stream -----------------------------------------------------
    def on_op(self, channel, kind: int, ok: bool) -> None:
        idx = self._chan_index.get(id(channel))
        if idx is None:
            # A channel constructed after capture entry (or outside the
            # lowered schedule): behaviourally unknown.
            self.reason("latechan", path=channel.path)
            return
        thread = self.sim._current
        if thread is None:
            self.reason("nothread", path=channel.path)
            return
        t = self._thread_index.get(id(thread))
        if t is None:
            self.reason("latethread", name=thread.name)
            return
        cycle = self.clock.cycles if self.clock is not None else 0
        group = self._open[t]
        if group is not None:
            if group[0] != kind or group[1] != idx \
                    or cycle != group[3] + 1:
                # A blocking op attempts exactly once per consecutive
                # posedge until it succeeds; anything else means the
                # thread's control flow observed timing.
                self.reason("interleave", path=self.thread_paths[t])
                self._open[t] = None
                group = None
            else:
                group[3] = cycle
        if ok:
            if group is None:
                self.ops[t].append([kind, idx, cycle, cycle])
            else:
                group[3] = cycle
                self.ops[t].append(group)
                self._open[t] = None
        elif group is None:
            self._open[t] = [kind, idx, cycle, cycle]

    def on_nb(self, port_kind: str) -> None:
        thread = self.sim._current
        name = getattr(thread, "name", None) or "<outside threads>"
        t = self._thread_index.get(id(thread)) if thread is not None else None
        path = self.thread_paths[t] if t is not None else name
        self.reason("nb", path=path, op=port_kind)

    def on_set_stall(self, channel) -> None:
        if self.clock is not None and self.clock.cycles:
            self.reason("midstall", path=channel.path)

    def on_event_wait(self) -> None:
        self.reason("event")

    def on_schedule(self) -> None:
        self.reason("schedule")

    # -- finalize ------------------------------------------------------
    def finalize(self) -> dict:
        sim = self.sim
        # One pass over all op scripts: which threads push/pop each channel.
        pushers_of: Dict[int, set] = {}
        poppers_of: Dict[int, set] = {}
        for t, ops in enumerate(self.ops):
            groups = list(ops)
            if self._open[t] is not None:
                groups.append(self._open[t])
            for op in groups:
                side = pushers_of if op[0] == _OP_PUSH else poppers_of
                side.setdefault(op[1], set()).add(t)
        channels = []
        for c, (chan, path) in enumerate(zip(self.channels,
                                             self.channel_paths)):
            pushers = sorted(pushers_of.get(c, ()))
            poppers = sorted(poppers_of.get(c, ()))
            if len(pushers) > 1:
                self.reason("pushers", path=path, n=len(pushers))
            if len(poppers) > 1:
                self.reason("poppers", path=path, n=len(poppers))
            stats = chan.stats
            channels.append({
                "path": path,
                "kind": chan.kind,
                "capacity": chan.capacity,
                "extra_latency": chan.extra_latency,
                "stall_probability": chan._stall_probability,
                "stall_seed": self.stall_seeds.get(id(chan)),
                "pusher": pushers[0] if len(pushers) == 1 else None,
                "popper": poppers[0] if len(poppers) == 1 else None,
                "stats": {
                    "transfers": stats.transfers,
                    "push_attempts": stats.push_attempts,
                    "pop_attempts": stats.pop_attempts,
                    "push_rejections": stats.push_rejections,
                    "pop_rejections": stats.pop_rejections,
                    "stall_cycles": stats.stall_cycles,
                    "occupancy_sum": stats.occupancy_sum,
                    "cycles": stats.cycles,
                },
            })
        for chan, rec in zip(self.channels, channels):
            if rec["stall_probability"] > 0.0 and rec["stall_seed"] is None:
                # set_stall predates the capture window: the seed lives
                # only inside the Random instance, unrecoverable.
                self.reason("stallseed", path=rec["path"])
        threads = []
        for t, path in enumerate(self.thread_paths):
            pending = self._open[t]
            threads.append({
                "path": path,
                "ops": [[op[0], op[1], op[2], op[3]] for op in self.ops[t]],
                "pending": [pending[0], pending[1], pending[2]]
                           if pending is not None else None,
                # Generator exhausted: the op script is provably complete
                # (replay's hidden-op guard needs this — an unfinished
                # thread may hold ops just beyond the captured horizon).
                "finished": bool(self.threads[t].done),
            })
        edges = []
        for c, rec in enumerate(channels):
            if rec["pusher"] is not None:
                edges.append([threads[rec["pusher"]]["path"], rec["path"],
                              "push"])
            if rec["popper"] is not None:
                edges.append([rec["path"], threads[rec["popper"]]["path"],
                              "pop"])
        clock = self.clock
        return {
            "schema": TRACE_SCHEMA,
            "clock": {
                "name": clock.name if clock is not None else None,
                "period": clock.period if clock is not None else None,
                "cycles": clock.cycles if clock is not None else 0,
            },
            "now": sim.now,
            "channels": channels,
            "threads": threads,
            "edges": edges,
            "eligible": not self.reasons,
            "reasons": list(self.reasons),
        }


# ----------------------------------------------------------------------
# scoped instrumentation
# ----------------------------------------------------------------------
@contextmanager
def _patched(recorder: "_Recorder"):
    """Class-patch port/channel/kernel hooks for one capture window."""
    from ..connections.channel import FastChannel
    from ..connections.ports import In, Out
    from ..kernel.simulator import Event

    sim = recorder.sim
    orig_push = FastChannel.do_push
    orig_pop = FastChannel.do_pop
    orig_stall = FastChannel.set_stall
    orig_push_nb = Out.push_nb
    orig_can_push = Out.can_push
    orig_pop_nb = In.pop_nb
    orig_peek_nb = In.peek_nb
    orig_can_pop = In.can_pop
    orig_subscribe = Event._subscribe
    orig_schedule = sim.schedule

    def do_push(self, msg):
        ok = orig_push(self, msg)
        if self.sim is sim:
            recorder.on_op(self, _OP_PUSH, ok)
        return ok

    def do_pop(self):
        ok, msg = orig_pop(self)
        if self.sim is sim:
            recorder.on_op(self, _OP_POP, ok)
        return ok, msg

    def set_stall(self, probability, *, seed=0):
        orig_stall(self, probability, seed=seed)
        if self.sim is sim:
            recorder.on_set_stall(self)
            recorder.stall_seeds[id(self)] = seed if probability > 0.0 else None

    def push_nb(self, msg):
        if self.channel.sim is sim:
            recorder.on_nb("push_nb")
        return orig_push_nb(self, msg)

    def can_push(self):
        if self.channel.sim is sim:
            recorder.on_nb("can_push")
        return orig_can_push(self)

    def pop_nb(self):
        if self.channel.sim is sim:
            recorder.on_nb("pop_nb")
        return orig_pop_nb(self)

    def peek_nb(self):
        if self.channel.sim is sim:
            recorder.on_nb("peek_nb")
        return orig_peek_nb(self)

    def can_pop(self):
        if self.channel.sim is sim:
            recorder.on_nb("can_pop")
        return orig_can_pop(self)

    def subscribe(self, thread, _orig=orig_subscribe):
        if self.sim is sim:
            recorder.on_event_wait()
        return _orig(self, thread)

    def schedule(delay, fn):
        recorder.on_schedule()
        return orig_schedule(delay, fn)

    FastChannel.do_push = do_push
    FastChannel.do_pop = do_pop
    FastChannel.set_stall = set_stall
    Out.push_nb = push_nb
    Out.can_push = can_push
    In.pop_nb = pop_nb
    In.peek_nb = peek_nb
    In.can_pop = can_pop
    Event._subscribe = subscribe
    sim.schedule = schedule
    try:
        yield
    finally:
        FastChannel.do_push = orig_push
        FastChannel.do_pop = orig_pop
        FastChannel.set_stall = orig_stall
        Out.push_nb = orig_push_nb
        Out.can_push = orig_can_push
        In.pop_nb = orig_pop_nb
        In.peek_nb = orig_peek_nb
        In.can_pop = orig_can_pop
        Event._subscribe = orig_subscribe
        del sim.__dict__["schedule"]


@contextmanager
def capture(sim):
    """Capture everything ``sim`` does inside the block as a trace.

    Usage::

        with capture(sim) as session:
            sim.run(until=100_000)
        trace = session.trace   # plain JSON-able dict

    The simulator must not have run yet (op scripts start at cycle 1).
    Capture stops every clock parking gate threads, so each blocked op
    attempts once per posedge; either executor then runs the window.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise CaptureError("trace captures do not nest")
    recorder = _Recorder(sim)
    recorder.snapshot()
    for clock in sim._clocks:
        clock._stop_parking()
    session = _Session(recorder)
    _ACTIVE = recorder
    try:
        with _patched(recorder):
            yield session
    finally:
        _ACTIVE = None
        session.trace = recorder.finalize()


class _Session:
    """Handle yielded by :func:`capture`; ``trace`` is set at exit."""

    def __init__(self, recorder: "_Recorder") -> None:
        self._recorder = recorder
        self.trace: Optional[dict] = None
