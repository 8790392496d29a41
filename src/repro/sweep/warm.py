"""Warm batched sweep execution: construct once, run many.

A conventional sweep pays the same fixed costs for every point: design
construction, elaboration, and — under ``backend="compiled"`` — the
capability check.  For the paper's architectural-
iteration loops those costs dominate, because the points themselves are
small (a few thousand cycles) while the parameter grid is large and
almost entirely *structurally shared*: hundreds of points differ only
in FIFO depths, stall schedules, or clock period.

Warm execution (``run_sweep(..., warm=True)``) amortizes the fixed
costs across each structural group:

1. pending points are grouped by **structural digest** — the canonical
   hash of the experiment, the point's projection onto its structural
   base (:func:`repro.trace.adapter.classify`, the same projection
   incremental sweeps group by), and the backend;
2. each group is dispatched as a batch to persistent warm workers; the
   first point to land builds the design **once** via the experiment's
   :class:`~repro.trace.adapter.SweepAdapter` (``build`` / ``run``: the
   contract lives there), enables kernel snapshots, and captures the
   base state;
3. every point then evaluates as *mutate knobs → run → collect →
   restore*, using the kernel's snapshot/reset primitive
   (:mod:`repro.kernel.snapshot`) — restore rewinds the knob mutations
   along with all run state, so each point observes a byte-identical
   freshly-constructed simulator.

Correctness bar: a warm sweep is byte-identical to a serial or parallel
one under ``SweepResult.canonical()`` — pinned differentially by
``tests/sweep/test_warm_sweep.py`` for every registered adapter.

Sessions live in a small per-process cache keyed by digest, so a group
split across several pool tasks rebuilds at most once per worker, and
consecutive warm sweeps in one process skip construction entirely.
Failure containment: a point that times out or raises loses only
itself (the restore in the ``finally`` re-arms the session for the next
point), and a session whose build or restore fails demotes its
remaining points to the fresh per-point path with the reason recorded.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..trace.adapter import SweepAdapter, classify
from .point import SweepPoint, _alarm
from .serialize import canonical_digest

__all__ = ["WarmSession", "batch_adapter_for", "group_key",
           "run_warm_chunk", "reset_sessions", "session_count",
           "warm_worker_init"]


@dataclass
class WarmSession:
    """One constructed, snapshot-enabled simulation serving a group.

    ``sim`` is the live :class:`~repro.kernel.Simulator`; ``context``
    is whatever the adapter's ``build`` needs to evaluate points
    (channel handles, state dicts, the clock); ``snap`` is the base
    :class:`~repro.kernel.Snapshot` the engine restores to between
    points (stamped by the warm runner after build).
    """

    sim: Any
    context: Any = None
    snap: Any = field(default=None, repr=False)


def batch_adapter_for(experiment: str) -> Optional[SweepAdapter]:
    """The named sweep's adapter if it can serve warm batches, else
    ``None``."""
    from .. import registry

    adapter = registry.get_sweep(experiment).adapter
    return adapter if adapter is not None and adapter.warm else None


def group_key(point: SweepPoint,
              adapter: SweepAdapter) -> Tuple[str, dict, int]:
    """``(digest, base_params, base_seed)`` for a point's group.

    The digest covers the experiment, the point's projection onto its
    structural base, and a non-default backend — the warm session is
    built under the point's backend.
    """
    _, _, bparams, bseed = classify(adapter, point.params, point.seed)
    payload: Dict[str, Any] = {"experiment": point.experiment,
                               "params": bparams, "seed": bseed}
    if point.backend != "threaded":
        payload["backend"] = point.backend
    return canonical_digest(payload), bparams, bseed


# ----------------------------------------------------------------------
# per-process session cache (worker side)
# ----------------------------------------------------------------------
#: digest -> WarmSession.  Sessions hold a full constructed design, so
#: the bound is deliberately small; an evicted group simply rebuilds.
_SESSIONS: "OrderedDict[str, WarmSession]" = OrderedDict()
_MAX_SESSIONS = 4


def reset_sessions() -> None:
    """Drop every cached warm session (test isolation)."""
    _SESSIONS.clear()


def session_count() -> int:
    return len(_SESSIONS)


def warm_worker_init() -> None:
    """Pool initializer: load the catalog manifest.

    Cheap — the manifest imports no experiment.  A spawn-started worker
    imports its experiment's module (and only that one) when the first
    chunk resolves the adapter by name.
    """
    from .. import registry

    registry.load()


def _build_session(digest: str, experiment: str, base_params: dict,
                   base_seed: int, backend: str,
                   adapter: SweepAdapter) -> WarmSession:
    """Construct and snapshot one group's session."""
    from ..kernel.backend import use_backend

    with use_backend(backend):
        session = adapter.build(dict(base_params), base_seed)
    sim = session.sim
    sim.enable_snapshots()
    session.snap = sim.snapshot()
    _SESSIONS[digest] = session
    _SESSIONS.move_to_end(digest)
    while len(_SESSIONS) > _MAX_SESSIONS:
        _SESSIONS.popitem(last=False)
    return session


# ----------------------------------------------------------------------
# worker entry point
# ----------------------------------------------------------------------
def run_warm_chunk(task: dict) -> dict:
    """Evaluate one chunk of a warm group; returns records + counters.

    ``task`` carries only plain data across the process boundary:
    ``digest``, ``experiment``, ``base_params``, ``base_seed``,
    ``backend``, ``members`` (``(index, SweepPoint)`` pairs), and
    ``timeout``.  The adapter is re-resolved from the registry by name.

    Per-point records follow the fresh chunk protocol (``ok`` /
    ``error``) plus ``execution`` provenance; a session-level failure
    (ineligible design, build crash, unrecoverable restore) marks the
    affected points with ``fallback`` so the engine re-runs them
    through the fresh path with the reason recorded rather than
    counting them as errors.  A per-point timeout kills only the
    current point: the SIGALRM (or cycle-budget fallback) fires inside
    ``adapter.run`` and the ``finally`` restore re-arms the session
    for the rest of the batch.
    """
    from ..jobs import JobRequest, execute_warm

    digest = task["digest"]
    experiment = task["experiment"]
    timeout = task.get("timeout")
    members: Sequence[Tuple[int, SweepPoint]] = task["members"]
    records: List[dict] = []
    counters = {"warm_points": 0, "restores": 0, "builds": 0}

    adapter = batch_adapter_for(experiment)
    if adapter is None:  # engine never dispatches these; stay defensive
        return {"records": [{"key": i, "ok": False,
                             "fallback": "no batch adapter registered"}
                            for i, _ in members],
                "counters": counters}

    session = _SESSIONS.get(digest)
    built = False
    fallback: Optional[str] = None
    for n, (index, point) in enumerate(members):
        if fallback is None and session is None:
            try:
                session = _build_session(
                    digest, experiment, task["base_params"],
                    task["base_seed"], task["backend"], adapter)
                built = True
                counters["builds"] += 1
            except Exception as exc:  # noqa: BLE001 - demote to fresh
                fallback = (f"warm session build failed: "
                            f"{type(exc).__name__}: {exc}")
        if fallback is not None:
            records.append({"key": index, "ok": False,
                            "fallback": fallback})
            continue
        execution = "warm" if built and n == 0 else "restored"
        try:
            with _alarm(timeout):
                job = execute_warm(JobRequest.from_point(point), adapter,
                                   session, execution=execution)
            records.append({"key": index, "ok": True,
                            "result": job.payload,
                            "wall_seconds": job.wall_seconds,
                            "execution": job.execution})
            counters["warm_points"] += 1
        except Exception as exc:  # noqa: BLE001 - reported per point
            records.append({"key": index, "ok": False,
                            "error": f"{type(exc).__name__}: {exc}"})
        finally:
            try:
                session.sim.restore(session.snap)
                counters["restores"] += 1
            except Exception as exc:  # noqa: BLE001 - poisoned session
                _SESSIONS.pop(digest, None)
                session = None
                fallback = (f"warm session restore failed: "
                            f"{type(exc).__name__}: {exc}")
                # The point itself already has its record; only the
                # *remaining* members demote to the fresh path.  A
                # rebuild is pointless here — a failing restore means
                # the base state itself is suspect.
    return {"records": records, "counters": counters}
