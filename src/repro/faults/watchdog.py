"""Deadlock/livelock watchdog with path-level hang diagnosis.

Today a mis-built design hangs silently: every blocked ``In.pop()`` /
``Out.push()`` is a ``while True: yield`` spin the kernel cannot tell
apart from useful work, so the simulation idles until ``until`` /
``max_steps`` with zero indication of *which* thread is stuck on *which*
channel.  The :class:`Watchdog` turns that into a structured failure:

* **deadlock** — every live design thread is registered blocked in a
  pop/push handshake and no token moved between two consecutive checks;
  nothing left in the schedule can unblock anyone.
* **livelock / starvation** — threads are alive (spinning, sleeping,
  polling) but no watched channel has moved a single token for a full
  ``window`` of cycles.
* **budget** — the design did not finish within ``max_cycles`` (the
  campaign runner's per-point cycle budget).

Instead of hanging, ``sim.run(...)`` raises :class:`HangError` carrying
a :class:`HangDiagnosis`: per-thread blocked state with the dotted
design path of the offending channel (PR 3's hierarchy), channel
occupancy snapshots, and the wait-for cycle between blocked threads when
one exists.  The diagnosis renders as text (:meth:`HangDiagnosis.format`)
and exports as JSONL records through :func:`repro.observe.write_jsonl`.

Zero-cost when off: ``sim.watchdog`` is ``None`` by default and the only
hook sites are the *failure* paths of blocking port operations.  No
executor reads it, so a watched run schedules exactly like an unwatched
one, compiled or threaded — a blocked ``pop()`` registers at its first
refusal and then parks on its channel's gate as usual.

Usage::

    from repro.faults import Watchdog, HangError

    sim = ...build design...
    Watchdog(sim, clk, window=2000, max_cycles=50_000)
    try:
        sim.run(until=1_000_000)
    except HangError as exc:
        print(exc.diagnosis.format())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from ..design.elaborate import elaborate
from ..design.hierarchy import design_path
from ..kernel.simulator import SimulationError, Thread

__all__ = ["Watchdog", "HangError", "HangDiagnosis", "BlockedThread",
           "ChannelSnapshot"]


@dataclass
class BlockedThread:
    """One thread stuck in a pop/push handshake."""

    thread: str          # dotted thread name (e.g. ``chip.pe3.ctl``)
    op: str              # "pop" | "push"
    channel: str         # dotted channel path (e.g. ``chip.pe3.spad.in``)
    since_cycle: int     # clock cycle of the first failed attempt
    waited_cycles: int   # cycles spent blocked at diagnosis time

    def to_record(self) -> dict:
        return {"type": "hang.thread", "thread": self.thread, "op": self.op,
                "channel": self.channel, "since_cycle": self.since_cycle,
                "waited_cycles": self.waited_cycles}


@dataclass
class ChannelSnapshot:
    """Occupancy snapshot of one channel at diagnosis time."""

    path: str
    kind: str
    occupancy: int
    capacity: Optional[int]
    stalled: bool        # an injected stall probability is active

    def to_record(self) -> dict:
        return {"type": "hang.channel", "path": self.path, "kind": self.kind,
                "occupancy": self.occupancy, "capacity": self.capacity,
                "stalled": self.stalled}


@dataclass
class HangDiagnosis:
    """Everything the watchdog knows about a hang, structured."""

    kind: str                       # "deadlock" | "livelock" | "budget"
    cycle: int                      # watchdog-clock cycle of the diagnosis
    now: int                        # simulation time (ticks)
    window: Optional[int]           # livelock window (cycles), if relevant
    reason: str                     # one-line human summary
    threads: List[BlockedThread] = field(default_factory=list)
    channels: List[ChannelSnapshot] = field(default_factory=list)
    wait_cycle: List[str] = field(default_factory=list)

    def to_records(self) -> List[dict]:
        """JSONL export: one header record plus per-thread/-channel rows.

        Feed straight into :func:`repro.observe.write_jsonl`.
        """
        head = {"type": "hang", "kind": self.kind, "cycle": self.cycle,
                "now": self.now, "window": self.window,
                "reason": self.reason, "wait_cycle": self.wait_cycle}
        return ([head] + [t.to_record() for t in self.threads]
                + [c.to_record() for c in self.channels])

    def format(self) -> str:
        """Multi-line human-readable rendering (the "how to read a hang
        diagnosis" layout in ``docs/ROBUSTNESS.md``)."""
        lines = [f"{self.kind.upper()} at cycle {self.cycle} "
                 f"(t={self.now}): {self.reason}"]
        if self.threads:
            lines.append("blocked threads:")
            for t in self.threads:
                lines.append(f"  {t.thread}: blocked in {t.op}() on "
                             f"{t.channel} for {t.waited_cycles} cycles "
                             f"(since cycle {t.since_cycle})")
        if self.wait_cycle:
            lines.append("wait-for cycle:")
            lines.append("  " + " -> ".join(self.wait_cycle
                                            + [self.wait_cycle[0]]))
        if self.channels:
            lines.append("channel occupancy:")
            for c in self.channels:
                cap = f"/{c.capacity}" if c.capacity is not None else ""
                stall = "  [stall injected]" if c.stalled else ""
                lines.append(f"  {c.path} <{c.kind}>: "
                             f"{c.occupancy}{cap}{stall}")
        return "\n".join(lines)


class HangError(SimulationError):
    """A watchdog-diagnosed hang.  ``.diagnosis`` is the full story."""

    def __init__(self, diagnosis: HangDiagnosis):
        super().__init__(diagnosis.format())
        self.diagnosis = diagnosis


class _BlockedState:
    """Internal per-thread blocked-handshake bookkeeping."""

    __slots__ = ("thread", "port", "channel", "op", "since_cycle")

    def __init__(self, thread, port, channel, op, since_cycle):
        self.thread = thread
        self.port = port
        self.channel = channel
        self.op = op
        self.since_cycle = since_cycle


class Watchdog:
    """Progress monitor attached to one simulator.

    ``clock`` is the cadence reference: checks run every quarter
    ``window`` of its cycles, and at least every quarter of
    ``max_cycles`` so the budget stays timely.  ``window`` is the livelock
    horizon: that many cycles with zero token progress on any watched
    channel raises a starvation diagnosis — so any design that moves at
    least one token per ``window`` can never trip it, even across check
    boundaries.  ``max_cycles`` optionally bounds the whole run.

    Deadlock needs two consecutive zero-progress checks with every live
    design thread blocked, which filters out in-transit messages still
    maturing; while an injected stall is active on any watched channel
    the deadlock verdict is deferred to the livelock window (a stalled
    channel can always unblock when the stall ends).
    """

    def __init__(self, sim, clock, *, window: int = 2000,
                 max_cycles: Optional[int] = None):
        if window < 2:
            raise ValueError(f"window must be >= 2 cycles, got {window}")
        if sim.watchdog is not None:
            raise ValueError("simulator already has a watchdog")
        self.sim = sim
        self.clock = clock
        self.window = window
        self._step = max(1, window // 4)
        if max_cycles is not None:
            self._step = min(self._step, max(1, max_cycles // 4))
        self.max_cycles = max_cycles
        self._blocked: Dict[int, _BlockedState] = {}
        self._watched: Optional[list] = None
        self._start_cycle = clock.cycles
        self._last_total: Optional[int] = None
        self._idle_cycles = 0
        self._deadlock_strikes = 0
        sim.watchdog = self
        self._thread = sim.add_thread(self._run(), clock, name="watchdog")

    # ------------------------------------------------------------------
    # port hooks (called from In.pop / Out.push failure paths)
    # ------------------------------------------------------------------
    def on_block(self, port, channel, op: str):
        """A blocking port operation failed its first attempt."""
        thread = self.sim._current
        if thread is None or thread is self._thread:
            return None
        clk = thread.clock if thread.clock is not None else self.clock
        state = _BlockedState(thread, port, channel, op, clk.cycles)
        self._blocked[id(thread)] = state
        return state

    def on_unblock(self, token) -> None:
        """The blocked operation finally completed."""
        self._blocked.pop(id(token.thread), None)

    # ------------------------------------------------------------------
    # the monitor thread
    # ------------------------------------------------------------------
    def _run(self) -> Generator:
        step = self._step
        while True:
            yield step
            if not self._check():
                return  # all design threads finished — stand down

    def _live_threads(self) -> List[Thread]:
        helpers = getattr(self.sim, "_fault_helper_threads", None)
        return [t for t in self.sim._threads
                if not t.done and t is not self._thread
                and (helpers is None or id(t) not in helpers)]

    def _discover(self) -> list:
        """All channel-like objects registered in the design hierarchy."""
        chans = []
        for inst in self.sim.design.root.walk():
            chans.extend(inst.channels)
        return chans

    @staticmethod
    def _progress_of(chan) -> int:
        stats = getattr(chan, "stats", None)
        if stats is not None:
            return stats.transfers
        if hasattr(chan, "transfers_out"):
            return chan.transfers_in + chan.transfers_out
        core = getattr(chan, "core", None)
        if core is not None and hasattr(core, "transfers_out"):
            return core.transfers_in + core.transfers_out
        t = getattr(chan, "transfers", 0)
        return t if isinstance(t, int) else 0

    @staticmethod
    def _stall_active(chan) -> bool:
        return getattr(chan, "_stall_probability", 0.0) > 0.0

    def _check(self) -> bool:
        """One progress check.  Returns False when nothing is live."""
        live = self._live_threads()
        if not live:
            return False
        if self._watched is None:
            self._watched = self._discover()
        total = sum(self._progress_of(c) for c in self._watched)
        progressed = self._last_total is None or total != self._last_total
        self._last_total = total
        cycle = self.clock.cycles

        if self.max_cycles is not None \
                and cycle - self._start_cycle >= self.max_cycles:
            raise HangError(self._diagnose(
                "budget",
                f"design not finished after {self.max_cycles} cycles "
                f"({len(live)} threads still live)"))

        if progressed:
            self._idle_cycles = 0
            self._deadlock_strikes = 0
            return True
        self._idle_cycles += self._step

        all_blocked = all(id(t) in self._blocked for t in live)
        stalled = any(self._stall_active(c) for c in self._watched)
        if all_blocked and not stalled:
            self._deadlock_strikes += 1
            if self._deadlock_strikes >= 2:
                raise HangError(self._diagnose(
                    "deadlock",
                    f"all {len(live)} live threads blocked in channel "
                    f"handshakes with zero token progress"))
        else:
            self._deadlock_strikes = 0

        if self._idle_cycles >= self.window:
            raise HangError(self._diagnose(
                "livelock",
                f"no token progress on any watched channel for "
                f"{self._idle_cycles} cycles (window={self.window})"))
        return True

    # ------------------------------------------------------------------
    # diagnosis
    # ------------------------------------------------------------------
    def _diagnose(self, kind: str, reason: str) -> HangDiagnosis:
        states = list(self._blocked.values())
        # Drop stale entries of threads that have since finished.
        states = [s for s in states if not s.thread.done]
        threads = []
        for s in states:
            clk = s.thread.clock if s.thread.clock is not None else self.clock
            threads.append(BlockedThread(
                thread=s.thread.name, op=s.op,
                channel=design_path(s.channel),
                since_cycle=s.since_cycle,
                waited_cycles=max(0, clk.cycles - s.since_cycle)))
        threads.sort(key=lambda t: t.thread)
        blocked_chan_ids = {id(s.channel) for s in states}
        snapshots = []
        for c in (self._watched or ()):
            occ = getattr(c, "occupancy", None)
            if occ is None:
                continue
            if id(c) in blocked_chan_ids or occ > 0 or self._stall_active(c):
                snapshots.append(ChannelSnapshot(
                    path=design_path(c),
                    kind=getattr(c, "kind", type(c).__name__),
                    occupancy=occ,
                    capacity=getattr(c, "capacity", None),
                    stalled=self._stall_active(c)))
        snapshots.sort(key=lambda s: s.path)
        return HangDiagnosis(
            kind=kind, cycle=self.clock.cycles, now=self.sim.now,
            window=self.window if kind == "livelock" else None,
            reason=reason, threads=threads, channels=snapshots,
            wait_cycle=self._wait_cycle(states))

    def _wait_cycle(self, states: List[_BlockedState]) -> List[str]:
        """Find a cycle in the wait-for graph of blocked threads.

        A thread blocked popping channel C waits on the threads of every
        instance owning a producer port of C; blocked pushing, on the
        consumer instances' threads (endpoints from PR 3's elaboration).
        """
        if not states:
            return []
        try:
            graph = elaborate(self.sim)
        except Exception:  # pragma: no cover - diagnosis must not crash
            return []
        producers: Dict[int, set] = {}
        consumers: Dict[int, set] = {}
        for rec in graph.channels:
            producers[id(rec.channel)] = {
                id(t) for p in rec.producers for t in p.owner.threads}
            consumers[id(rec.channel)] = {
                id(t) for p in rec.consumers for t in p.owner.threads}
        by_tid = {id(s.thread): s for s in states}
        edges: Dict[int, set] = {}
        for tid, s in by_tid.items():
            peers = (producers if s.op == "pop" else consumers).get(
                id(s.channel), set())
            edges[tid] = {p for p in peers if p in by_tid and p != tid}
        # Iterative DFS with colouring to extract one cycle.
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {tid: WHITE for tid in by_tid}
        for start in sorted(by_tid, key=lambda t: by_tid[t].thread.name):
            if colour[start] != WHITE:
                continue
            stack = [(start, iter(sorted(edges.get(start, ()))))]
            path = [start]
            colour[start] = GREY
            while stack:
                tid, it = stack[-1]
                advanced = False
                for nxt in it:
                    if colour[nxt] == GREY:
                        cycle = path[path.index(nxt):]
                        return [f"{by_tid[t].thread.name} "
                                f"--{by_tid[t].op}--> "
                                f"{design_path(by_tid[t].channel)}"
                                for t in cycle]
                    if colour[nxt] == WHITE:
                        colour[nxt] = GREY
                        path.append(nxt)
                        stack.append((nxt, iter(sorted(edges.get(nxt, ())))))
                        advanced = True
                        break
                if not advanced:
                    colour[tid] = BLACK
                    path.pop()
                    stack.pop()
        return []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Watchdog(window={self.window}, "
                f"blocked={len(self._blocked)})")
