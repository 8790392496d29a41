"""Telemetry core: the global capture switch and per-simulator hubs.

Telemetry is **disabled by default** and costs nothing when off: the
simulation layers keep a single ``None`` attribute and skip every
counter behind one pointer check.  There are two ways to turn it on:

* per simulator — ``Simulator(telemetry=True)`` attaches a
  :class:`TelemetryHub` to that simulator only;
* per capture window — :func:`capture` enables telemetry for every
  simulator *constructed inside the window* and collects their hubs, so
  experiment code that builds its own simulators needs no changes.

:func:`capture_traces` is the same window with signal traces and no
hubs, for a run that wants waveforms without paying for counters.
Neither a hub nor a trace changes the executor: the kernel's lone-clock
lane (and so the compiled backend) keeps a hub's kernel counters and
records a trace's signal changes itself.

Usage::

    from repro import observe
    from repro.kernel import Simulator

    with observe.capture() as session:
        run_my_experiment()          # builds Simulator()s internally
    print(observe.format_report(session.report(label="my-experiment")))

A hub is the registration point for every instrumented object of one
simulator: the kernel's :class:`KernelStats`, one
:class:`ChannelTelemetry` per LI channel, registered meshes, and
registered GALS clock generators.  The report layer
(:mod:`repro.observe.report`) snapshots hubs into plain dictionaries.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Tuple

from .events import EventLog

__all__ = [
    "KernelStats",
    "ChannelTelemetry",
    "TelemetryHub",
    "CaptureSession",
    "capture",
    "capture_traces",
    "is_enabled",
    "active_session",
    "attach_if_enabled",
]

#: Stack of nested capture sessions; the innermost one is active.
_SESSIONS: List["CaptureSession"] = []


class KernelStats:
    """Kernel profiling counters (one per :class:`~repro.kernel.simulator.Simulator`).

    Counts the scheduler's own work — the numbers a simulator must report
    about itself before its performance claims can be trusted:

    * ``events_fired`` — timed events fired (heap pops plus fast-lane
      clock edges, including edges the idle-skip advances over —
      identical to executing every edge individually),
    * ``timesteps`` — distinct timestamps executed (idle-skipped clock
      edges count one timestep each, matching per-edge execution),
    * ``delta_cycles`` / ``max_deltas_per_step`` — evaluate/update
      iterations (convergence effort per timestep),
    * ``thread_wakeups`` / ``method_invocations`` — process activations,
    * ``signal_commits`` — committed signal value changes,
    * ``proc_seconds`` — wall time spent inside each thread's body,
      keyed by thread name (the per-thread profile).
    """

    __slots__ = (
        "events_fired", "timesteps", "delta_cycles", "max_deltas_per_step",
        "thread_wakeups", "method_invocations", "signal_commits",
        "proc_seconds",
    )

    def __init__(self) -> None:
        self.events_fired = 0
        self.timesteps = 0
        self.delta_cycles = 0
        self.max_deltas_per_step = 0
        self.thread_wakeups = 0
        self.method_invocations = 0
        self.signal_commits = 0
        self.proc_seconds: dict[str, float] = {}

    def add_proc_time(self, name: str, seconds: float) -> None:
        self.proc_seconds[name] = self.proc_seconds.get(name, 0.0) + seconds

    def add_deltas(self, deltas: int) -> None:
        """One timestep's delta cycles (an evaluate/update loop that
        returned, or a lone-clock timestep that completed)."""
        self.delta_cycles += deltas
        if deltas > self.max_deltas_per_step:
            self.max_deltas_per_step = deltas

    def snapshot(self) -> dict:
        """Return the counters as a plain serializable dict."""
        return {
            "events_fired": self.events_fired,
            "timesteps": self.timesteps,
            "delta_cycles": self.delta_cycles,
            "max_deltas_per_step": self.max_deltas_per_step,
            "thread_wakeups": self.thread_wakeups,
            "method_invocations": self.method_invocations,
            "signal_commits": self.signal_commits,
            "proc_seconds": dict(self.proc_seconds),
        }


class ChannelTelemetry:
    """Per-channel occupancy histogram and handshake stall counters.

    Attached to a channel only while its simulator has a telemetry hub,
    and fed once per clock edge from the channel's tick:

    * ``occupancy_hist[n]`` — cycles the channel started with exactly
      ``n`` committed messages (the Buffer/Pipeline occupancy profile),
    * ``valid_not_ready_cycles`` — cycles data was available but nothing
      was popped: the consumer (or downstream backpressure) stalled a
      valid message,
    * ``backpressure_cycles`` — cycles at least one push was attempted
      and rejected: the producer side of the same handshake stall.
    """

    __slots__ = ("name", "kind", "cycles", "occupancy_hist",
                 "valid_not_ready_cycles", "backpressure_cycles",
                 "_had_push_failure")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.cycles = 0
        self.occupancy_hist: dict[int, int] = {}
        self.valid_not_ready_cycles = 0
        self.backpressure_cycles = 0
        self._had_push_failure = False

    def on_cycle(self, occupancy: int, prev_popped: bool) -> None:
        """Record one clock edge (called from the channel's tick)."""
        self.cycles += 1
        hist = self.occupancy_hist
        hist[occupancy] = hist.get(occupancy, 0) + 1
        if occupancy and not prev_popped:
            self.valid_not_ready_cycles += 1
        if self._had_push_failure:
            self.backpressure_cycles += 1
            self._had_push_failure = False

    def on_push_rejected(self) -> None:
        self._had_push_failure = True

    @property
    def max_occupancy(self) -> int:
        return max(self.occupancy_hist) if self.occupancy_hist else 0

    def snapshot(self) -> dict:
        """Histogram + stall counters as a plain serializable dict."""
        return {
            "name": self.name,
            "kind": self.kind,
            "cycles": self.cycles,
            "occupancy_hist": {str(k): v
                               for k, v in sorted(self.occupancy_hist.items())},
            "max_occupancy": self.max_occupancy,
            "valid_not_ready_cycles": self.valid_not_ready_cycles,
            "backpressure_cycles": self.backpressure_cycles,
        }


class TelemetryHub:
    """Registration point for every instrumented object of one simulator."""

    __slots__ = ("sim", "kernel", "channels", "meshes", "clock_generators",
                 "log")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.kernel = KernelStats()
        #: ``(channel, ChannelTelemetry)`` pairs, registration order.
        self.channels: List[Tuple[Any, ChannelTelemetry]] = []
        self.meshes: List[Any] = []
        self.clock_generators: List[Any] = []
        self.log = EventLog()

    def register_channel(self, channel) -> ChannelTelemetry:
        """Attach telemetry to a channel; returns the per-channel recorder.

        The telemetry name is the channel's full design path when it was
        constructed inside a design scope (``chip.mesh.l3p1``), falling
        back to its bare name.
        """
        tel = ChannelTelemetry(getattr(channel, "path", None)
                               or getattr(channel, "name", "chan"),
                               getattr(channel, "kind", type(channel).__name__))
        self.channels.append((channel, tel))
        self.log.emit("channel-registered", name=tel.name, kind=tel.kind)
        return tel

    def register_mesh(self, mesh) -> None:
        self.meshes.append(mesh)
        self.log.emit("mesh-registered", nodes=mesh.n_nodes)

    def register_clock_generator(self, gen) -> None:
        self.clock_generators.append(gen)
        self.log.emit("clock-generator-registered", name=gen.name)


class CaptureSession:
    """Everything telemetry-enabled simulators produced inside one window
    (a :func:`capture_traces` window: their signal traces only)."""

    def __init__(self, *, trace_signals: bool = False,
                 telemetry: bool = True) -> None:
        self.trace_signals = trace_signals
        self.telemetry = telemetry
        self.hubs: List[TelemetryHub] = []
        self.traces: List[Any] = []  # (Trace objects, simulator order)

    def add(self, hub: TelemetryHub) -> None:
        self.hubs.append(hub)

    def add_trace(self, trace) -> None:
        self.traces.append(trace)

    def report(self, *, label: str = "capture"):
        """Merge every captured hub into one :class:`TelemetryReport`."""
        from .report import collect, merge

        return merge((collect(hub.sim) for hub in self.hubs), label=label)

    def best_trace(self):
        """The first trace with real signal activity (for VCD export).

        "Real activity" means changes beyond the seeded initial values.
        Falls back to the first trace that watched any signal at all, or
        ``None`` if no simulator produced signal traffic.
        """
        for trace in self.traces:
            if len(trace.changes) > len(trace.signals):
                return trace
        for trace in self.traces:
            if trace.signals:
                return trace
        return None


def is_enabled() -> bool:
    """True when a :func:`capture` window is active."""
    return bool(_SESSIONS)


def active_session() -> Optional[CaptureSession]:
    return _SESSIONS[-1] if _SESSIONS else None


def attach_if_enabled(sim, requested: Optional[bool]) -> Optional[TelemetryHub]:
    """Called by ``Simulator.__init__``: build this simulator's hub.

    ``requested`` is the simulator's explicit ``telemetry=`` argument;
    ``None`` defers to the ambient capture session.  Returns the hub, or
    ``None`` when telemetry stays off (the zero-overhead path).
    """
    session = active_session()
    if session is None or requested is False:
        return TelemetryHub(sim) if requested else None
    if session.trace_signals and sim.trace is None:
        from ..kernel.tracing import Trace

        sim.trace = Trace(autowatch=True)
        session.add_trace(sim.trace)
    if not (requested or session.telemetry):
        return None
    hub = TelemetryHub(sim)
    session.add(hub)
    return hub


@contextmanager
def capture(*, trace_signals: bool = False) -> Iterator[CaptureSession]:
    """Enable telemetry for every simulator built inside the ``with`` body.

    With ``trace_signals=True`` each captured simulator also gets an
    auto-watching :class:`~repro.kernel.tracing.Trace`, so any signal
    created afterwards is recorded and can be exported with
    :func:`~repro.kernel.tracing.write_vcd`.

    Usage::

        with observe.capture(trace_signals=True) as session:
            run_experiment()
        trace = session.best_trace()
    """
    yield from _window(CaptureSession(trace_signals=trace_signals))


@contextmanager
def capture_traces() -> Iterator[CaptureSession]:
    """Trace every simulator built inside the ``with`` body, without
    telemetry: each gets an auto-watching
    :class:`~repro.kernel.tracing.Trace` and no hub, so it pays for no
    counters it would drop.  The session's
    :meth:`~CaptureSession.best_trace` is what ``--trace-vcd`` exports.
    """
    yield from _window(CaptureSession(trace_signals=True, telemetry=False))


def _window(session: CaptureSession) -> Iterator[CaptureSession]:
    _SESSIONS.append(session)
    try:
        yield session
    finally:
        _SESSIONS.remove(session)
