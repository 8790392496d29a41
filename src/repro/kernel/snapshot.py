"""Kernel-level snapshot/restore: the construct-once, run-many primitive.

Warm batched sweeps (:mod:`repro.sweep.warm`) evaluate hundreds of
parameter points against **one** constructed design: build once, then
per point mutate the knobs (capacity, stall probability, clock period),
run, collect, and :func:`restore` back.  That only works if restore is
*exact* — byte-identical state to a freshly constructed simulator — so
this module is deliberately conservative:

* **Base capture, not object graph copy.**  ``enable()`` must run
  *before the first run call*, while the simulator still sits in its
  deterministic post-construction state.  It records everything mutable
  the kernel owns: the timed-event heap (whose closures at time zero
  all reference persistent objects), the sequence counter origin,
  per-clock edge/cycle/pause/wakeup state, per-signal and per-event
  state (enumerated through weak registries so testbench-local objects
  stay collectable), per-channel state through the
  ``_snapshot_state()/_restore_state()`` protocol (queue, transit,
  stall RNG, stats, fault-hook RNGs), and per-thread done flags.
* **Generators are re-created, never copied.**  Python generators
  cannot be copied, so snapshot eligibility (the ``snapshot`` column
  of :mod:`repro.kernel.capability`) requires every thread to have
  been registered factory-style
  (``sim.add_thread(lambda: body(), clk)``); restore calls each factory
  again.  Determinism follows because the factories close over
  construction-time state that restore has just reset.
* **Mid-run snapshots replay.**  Every coarse ``run``/``run_cycles``
  call is recorded in ``sim._history``; a :class:`Snapshot` captures
  that history and :func:`restore` re-executes it from the base.  The
  contract: state mutations *between* run calls (``set_stall``,
  ``set_period``, …) made **after** the snapshot are discarded —
  exactly what a warm sweep needs — while mutations made **before the
  first run** are part of the base.  Mutations made between run calls
  *before* the snapshot are not replayed and are therefore unsupported
  (the property test pins the supported shapes).

The compiled backend cooperates: :meth:`CompiledEngine.reset()
<repro.compile.engine.CompiledEngine.reset>` returns an attached engine
to its just-attached state (empty dispatch slots, every channel
ticking) without the stats re-crediting or fallback recording a
mid-run ``detach`` performs, because restore rewinds those through the
base state instead.
"""

from __future__ import annotations

import itertools
from .capability import findings
from .simulator import Method, SimulationError

__all__ = ["Snapshot", "SnapshotError", "enable", "capture", "restore"]


class SnapshotError(SimulationError):
    """The design uses constructs snapshot/restore cannot rewind."""


class Snapshot:
    """An opaque, restorable point in a simulation.

    Holds only the recorded run history (the base state lives on the
    simulator): restoring replays history deterministically from the
    base, so a snapshot is a few dozen bytes regardless of design size.
    """

    __slots__ = ("history",)

    def __init__(self, history: tuple):
        self.history = history

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Snapshot(runs={len(self.history)})"


def enable(sim) -> None:
    """Capture ``sim``'s base state; must precede the first run call."""
    if sim._snap_base is not None:
        return
    if sim.now != 0 or sim._history:
        raise SnapshotError(
            "enable_snapshots() must be called before the first run "
            f"(now={sim.now}, {len(sim._history)} runs recorded)")
    reasons = [text for _key, text in findings(sim, "snapshot")]
    if reasons:
        raise SnapshotError(
            "design is not snapshot-eligible: " + "; ".join(reasons))
    sim._snap_base = _base_state(sim)


def capture(sim) -> Snapshot:
    """Snapshot the current state (auto-enables before the first run)."""
    if sim._snap_base is None:
        enable(sim)
    return Snapshot(tuple(sim._history))


def restore(sim, snap: Snapshot) -> None:
    """Rewind ``sim`` to the state captured in ``snap``."""
    base = sim._snap_base
    if base is None:
        raise SnapshotError("enable_snapshots() was never called")
    if not isinstance(snap, Snapshot):
        raise SnapshotError(f"not a Snapshot: {snap!r}")
    _restore_base(sim, base)
    for hook in sim._restore_hooks:
        hook()
    # Deterministic replay of the coarse run calls recorded up to the
    # snapshot.  run()/run_cycles() re-append to the (cleared) history,
    # so after the replay sim._history == list(snap.history) and a
    # later snapshot/restore cycle composes naturally.
    clocks = sim._clocks
    for record in snap.history:
        if record[0] == "run":
            sim.run(record[1], max_steps=record[2])
        else:  # "run_cycles"
            sim.run_cycles(clocks[record[1]], record[2])


# ----------------------------------------------------------------------
# base capture / restore
# ----------------------------------------------------------------------
def _live(registry) -> list:
    """Resolve a weakref registry, compacting dead entries in place."""
    objs = []
    refs = []
    for ref in registry:
        obj = ref()
        if obj is not None:
            objs.append(obj)
            refs.append(ref)
    registry[:] = refs
    return objs


def _base_state(sim) -> dict:
    # Burn one sequence number so the counter origin is known; replace
    # the counter so numbering continues from exactly that origin.
    # Relative order is all the kernel ever compares, and every
    # base-state sequence number is below the origin, so behaviour is
    # unchanged.
    seq_start = next(sim._seq)
    sim._seq = itertools.count(seq_start)
    signals = _live(sim._snap_signals)
    events = _live(sim._snap_events)
    channels = []
    for inst in sim.design.root.walk():
        for chan in inst.channels:
            channels.append((chan, chan._snapshot_state()))
    return {
        "seq_start": seq_start,
        "queue": list(sim._queue),
        "runnable": list(sim._runnable),
        "runnable_set": set(sim._runnable_set),
        "dirty": list(sim._dirty_signals),
        "finished": sim._finished_threads,
        "fallback": sim._backend_fallback,
        "clocks": [(clk, _clock_state(clk)) for clk in sim._clocks],
        "signals": [(sig, sig._value, sig._next, sig._dirty)
                    for sig in signals],
        "events": [(ev, list(ev._waiters)) for ev in events],
        "channels": channels,
        "threads": [(thread, thread.done, thread._key)
                    for thread in sim._threads],
    }


def _clock_state(clk) -> dict:
    return {
        "period": clk.period,
        "cycles": clk.cycles,
        "next_edge": clk.next_edge,
        "seq": clk._seq,
        "pause_until": clk._pause_until,
        "stopped": clk._stopped,
        "paused_edges": clk.paused_edges,
        "total_pause_time": clk.total_pause_time,
        "next_wakeup": clk._next_wakeup,
        "parks": clk._parks,
        "key_lo": clk._key_lo,
        "key_hi": clk._key_hi,
        "wakeups": {at: list(waiters)
                    for at, waiters in clk._wakeups.items()},
    }


def _restore_base(sim, base: dict) -> None:
    # The compiled engine (if attached) clears its dispatch slots and
    # resumes ticking every channel; detached/fallback state is wiped
    # so the next run re-attempts attach.
    engine = sim._engine
    if engine is not None:
        engine.reset()
    sim.now = 0
    sim._seq = itertools.count(base["seq_start"])
    sim._queue[:] = base["queue"]
    # Methods sitting in the abandoned runnable list keep a _queued
    # flag that must drop with them.
    for proc in sim._runnable:
        if proc.__class__ is Method:
            proc._queued = False
    sim._runnable[:] = base["runnable"]
    sim._runnable_set.clear()
    sim._runnable_set.update(base["runnable_set"])
    # Identity-stable: signals cache a reference to this list.
    sim._dirty_signals.clear()
    sim._dirty_signals.extend(base["dirty"])
    sim._finished_threads = base["finished"]
    sim._backend_fallback = base["fallback"]
    sim._current = None
    sim._history = []
    for clk, state in base["clocks"]:
        clk.period = state["period"]
        clk.cycles = state["cycles"]
        clk.next_edge = state["next_edge"]
        clk._seq = state["seq"]
        clk._pause_until = state["pause_until"]
        clk._stopped = state["stopped"]
        clk.paused_edges = state["paused_edges"]
        clk.total_pause_time = state["total_pause_time"]
        clk._next_wakeup = state["next_wakeup"]
        # Parked gate threads are re-created below: forget them, and
        # rewind the slot keys they and their clock carried.  (A gate
        # left open with nobody parked only makes its owner's first wait
        # a real poll instead of a credited one: the counts are equal.)
        for _thread, gate, _since in clk._gated.values():
            gate._waiters = None
            gate._open = False
        clk._gated.clear()
        clk._woke = None
        clk._parks = state["parks"]
        clk._key_lo = state["key_lo"]
        clk._key_hi = state["key_hi"]
        clk._wakeups.clear()
        for at, waiters in state["wakeups"].items():
            clk._wakeups[at] = list(waiters)
    for sig, value, nxt, dirty in base["signals"]:
        sig._value = value
        sig._next = nxt
        sig._dirty = dirty
    for ev, waiters in base["events"]:
        ev._waiters = list(waiters)
    for chan, state in base["channels"]:
        chan._restore_state(state)
    for thread, done, key in base["threads"]:
        thread.gen = thread.factory()
        thread.done = done
        thread._key = key
