"""The capability table: which construct blocks which executor, and why.

Three executors run a design faster than the threaded reference kernel,
each only for designs it can prove it reproduces byte for byte:

* ``compiled`` — the flat dispatch loop (:mod:`repro.compile`),
* ``snapshot`` — construct once, restore per point
  (:mod:`repro.kernel.snapshot`, warm sweeps),
* ``replay`` — derive a point from a captured trace (:mod:`repro.trace`).

:data:`TABLE` is the only place that says which construct rules out
which executor: one :class:`Row` per construct, and per executor either
``None`` (supported) or the reason text recorded when the construct is
found.  Rows with a detector are answered from the elaborated
:class:`~repro.kernel.simulator.Simulator` by :func:`findings`; rows
without one describe constructs only the running executor can see (a
non-blocking port op, a thread registered mid-run) — their detection
sites stay in that executor and take the text from here through
:func:`reason`.  ``tools/check_docs.py`` renders the table into
``docs/COMPILED_BACKEND.md``, ``docs/REGISTRY.md`` and
``docs/INCREMENTAL_SIM.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

__all__ = ["EXECUTORS", "OBSERVABILITY", "Row", "TABLE", "ROWS",
           "findings", "reason"]

EXECUTORS = ("compiled", "snapshot", "replay")


@dataclass(frozen=True)
class Row:
    """One construct and, per executor, why it blocks (None = supported)."""

    key: str
    construct: str
    #: ``sim -> iterable of format arguments``, one per occurrence of
    #: the construct; None when only the running executor can see it.
    detect: Optional[Callable[[Any], Iterable[dict]]] = None
    compiled: Optional[str] = None
    snapshot: Optional[str] = None
    replay: Optional[str] = None


def _count(count: Callable[[Any], int], blocks=bool):
    """Detector: one finding carrying ``n`` when ``blocks(n)``."""
    def detect(sim):
        n = count(sim)
        return ({"n": n},) if blocks(n) else ()
    return detect


def _clocks(test: Callable[[Any], Any]):
    """Detector: one finding per clock satisfying ``test``."""
    return lambda sim: [{"name": clock.name, "cycles": clock.cycles}
                        for clock in sim._clocks if test(clock)]


def _attached(attr: str):
    """Detector: the simulator's observability slot ``attr`` is taken."""
    return lambda sim: ({},) if getattr(sim, attr) is not None else ()


def _edge_callbacks(sim) -> Iterator[Tuple[Any, str]]:
    """``(FastChannel or None, path)`` per per-edge callback, in tick
    order; None marks a callback that is not a FastChannel tick."""
    from ..design.lower import edge_callbacks

    for clock in sim._clocks:
        for _cb, chan, name in edge_callbacks(clock):
            yield chan, (chan.path if chan is not None else name)


def _channels(test: Callable[[Any], Any]):
    """Detector: one finding per ticking FastChannel satisfying ``test``."""
    return lambda sim: [{"path": path, "n": chan.occupancy}
                        for chan, path in _edge_callbacks(sim)
                        if chan is not None and test(chan)]


_CLOCKGEN = ("clock {name!r} has a per-edge period generator "
             "(GALS / adaptive clocking)")
_STOPPED = "clock {name!r} is stopped"
_PAUSED = "clock {name!r} has a pending pause (pausible clocking)"
_TIMED = ("{n} pending timed events in the heap (delayed notifications, "
          "unclocked threads, or methods)")
_ARBITRATION = "(arbitration order is timing-dependent)"

#: Row order is the order findings are reported in, and the compiled
#: backend records the first one.
TABLE: Tuple[Row, ...] = (
    # -- answered from the elaborated design ---------------------------
    Row("clocks", "more (or fewer) than one clock",
        _count(lambda sim: len(sim._clocks), lambda n: n != 1),
        compiled="design has {n} clocks (the compiled backend supports "
                 "exactly one)",
        replay="design has {n} clocks (trace replay supports exactly one)"),
    Row("clockgen", "GALS / adaptive clock generator",
        _clocks(lambda clock: clock.generator is not None),
        compiled=_CLOCKGEN, replay=_CLOCKGEN),
    Row("stopped", "stopped clock", _clocks(lambda clock: clock._stopped),
        compiled=_STOPPED, replay=_STOPPED),
    Row("idle", "clock with no per-edge callbacks",
        _clocks(lambda clock: not clock._callbacks),
        compiled="clock has no per-edge callbacks; the threaded kernel's "
                 "idle-skip already elides empty cycles"),
    Row("started", "clock that ticked before capture",
        _clocks(lambda clock: clock.cycles),
        replay="clock {name!r} already ticked {cycles} cycles before "
               "capture"),
    Row("paused", "pausible clocking (pending pause)",
        _clocks(lambda clock: clock.next_edge is not None
                and clock._pause_until > clock.next_edge),
        compiled=_PAUSED, replay=_PAUSED),
    Row("timed", "timed events in the heap (delayed notify, unclocked "
                 "threads)",
        _count(lambda sim: len(sim._queue)),
        compiled=_TIMED, replay=_TIMED),
    Row("methods", "combinational methods (`add_method`)",
        _count(lambda sim: sim._method_count),
        compiled="{n} combinational methods registered (signal "
                 "sensitivity needs the delta scheduler)",
        replay="{n} combinational methods registered (signal "
               "sensitivity)"),
    Row("signals", "raw signals registered with the design",
        _count(lambda sim: sum(len(inst.signals)
                               for inst in sim.design.root.walk())),
        replay="{n} raw signals registered (signal timing is not "
               "captured)"),
    Row("rawthread", "thread registered from a raw generator",
        lambda sim: [{"name": thread.name} for thread in sim._threads
                     if thread.factory is None],
        snapshot="thread {name!r} was registered from a raw generator "
                 "(register a zero-arg factory for snapshot support)"),
    Row("telemetry", "telemetry hub (`observe.capture`, `stats`, sweeps "
                     "with telemetry)",
        _attached("telemetry"),
        compiled="telemetry hub attached (per-delta instrumentation)",
        snapshot="telemetry hub attached (counters are not rewound)"),
    Row("trace", "VCD signal trace", _attached("trace"),
        compiled="signal trace attached (per-commit recording)",
        snapshot="signal trace attached (VCD output is append-only)"),
    Row("watchdog", "progress watchdog", _attached("watchdog"),
        compiled="progress watchdog attached (per-resume attribution)",
        snapshot="progress watchdog attached (census state is not "
                 "rewound)",
        # capture installs itself in that slot, so it raises this one
        replay="simulator already has a watchdog attached"),
    Row("nosnapstate", "channel without `_snapshot_state()` / "
                       "`_restore_state()`",
        lambda sim: [{"path": getattr(chan, "path", chan),
                      "kind": type(chan).__name__}
                     for inst in sim.design.root.walk()
                     for chan in inst.channels
                     if not hasattr(chan, "_snapshot_state")],
        snapshot="channel {path!r} ({kind}) does not implement the "
                 "snapshot state protocol"),
    Row("unmanaged", "per-edge callback that is not a `FastChannel` tick",
        lambda sim: [{"path": path} for chan, path in _edge_callbacks(sim)
                     if chan is None],
        replay="per-edge callback {path!r} is not a FastChannel tick "
               "(RTL adapter or custom bookkeeping)"),
    Row("preloaded", "channel holding messages before the first run",
        _channels(lambda chan: chan.occupancy),
        replay="channel {path!r} holds {n} messages before capture"),
    Row("faults", "fault-injection hook on a channel",
        _channels(lambda chan: chan._faults is not None),
        replay="channel {path!r} has fault injection attached"),
    # -- seen only by the running executor -----------------------------
    Row("lower", "design that does not lower to a node schedule",
        replay="design does not lower to a node schedule: {exc}"),
    Row("observed", "observability attached between runs",
        compiled="observability attached between runs"),
    Row("boundary", "process made runnable between runs",
        compiled="runnable processes at a run boundary"),
    Row("schedule", "timed event scheduled mid-run",
        compiled="timed event scheduled in the heap",
        replay="a timed event was scheduled during capture (delayed "
               "notification or unclocked work)"),
    Row("midstop", "clock stopped mid-run",
        compiled="clock {name!r} stopped"),
    Row("midpause", "clock paused mid-run",
        compiled="clock {name!r} paused"),
    Row("midcallback", "per-edge callback registered mid-run",
        compiled="per-edge callback registered mid-run"),
    Row("midmethod", "combinational method registered mid-run",
        compiled="combinational method registered mid-run"),
    Row("midthread", "thread registered mid-run",
        compiled="thread registered mid-run"),
    Row("nb", "non-blocking port op (`push_nb`, `pop_nb`, `peek_nb`, "
              "`can_push`, `can_pop`)",
        replay="thread {path!r} used non-blocking {op} (behaviour is "
               "timing-dependent)"),
    Row("event", "thread waiting on an `Event`",
        replay="a thread waits on an Event (delta-cycle notification "
               "timing)"),
    Row("midstall", "`set_stall` reconfigured mid-run",
        replay="channel {path!r} reconfigured stall injection mid-run"),
    Row("stallseed", "stall injection seeded before the capture window",
        replay="channel {path!r} has stall injection whose seed predates "
               "the capture window"),
    Row("pushers", "channel with more than one pushing thread",
        replay="channel {path!r} has {n} pushing threads " + _ARBITRATION),
    Row("poppers", "channel with more than one popping thread",
        replay="channel {path!r} has {n} popping threads " + _ARBITRATION),
    Row("interleave", "thread interleaving channel operations",
        replay="thread {path!r} interleaves channel operations "
               "(timing-dependent control flow)"),
    Row("latechan", "channel constructed after capture started",
        replay="channel {path!r} appeared after capture started"),
    Row("latethread", "thread registered after capture started",
        replay="thread {name!r} appeared after capture started"),
    Row("nothread", "channel accessed outside any kernel thread",
        replay="channel {path!r} accessed outside any kernel thread"),
)

ROWS = {row.key: row for row in TABLE}

#: The rows ROADMAP item 2 step 2 removes; an attached compiled engine
#: re-evaluates them at every run entry (nothing per-cycle watches them).
OBSERVABILITY = tuple(ROWS[key] for key in ("telemetry", "trace", "watchdog"))

_STATIC = {executor: tuple(row for row in TABLE if row.detect is not None
                           and getattr(row, executor) is not None)
           for executor in EXECUTORS}


def findings(sim, executor: str) -> Iterator[Tuple[str, str]]:
    """Yield the ``(key, text)`` of every construct in ``sim`` that
    blocks ``executor``, in table order; nothing when it is eligible.

    Lazy, and only the rows ``executor`` refuses are evaluated, so the
    first finding costs no more than the rows before it.
    """
    for row in _STATIC[executor]:
        text = getattr(row, executor)
        for found in row.detect(sim):
            yield row.key, text.format(**found)


def reason(key: str, executor: str, **found) -> str:
    """The text of row ``key`` for ``executor``: what a detection site
    inside the running executor records."""
    return getattr(ROWS[key], executor).format(**found)
