"""The job-oriented execution core: JobRequest in, JobResult out.

This is the single programmatic "submit a job, get a canonical result"
surface.  A :class:`JobRequest` names *what* to run — an experiment from
:mod:`repro.registry` (or one sweep point of it), its parameters, seed,
simulation backend, and observability flags — and :func:`execute`
handles *how*: runner resolution, ambient backend selection with
fallback provenance, optional telemetry capture, and canonical
serialization through the sweep serializer (:mod:`repro.sweep
.serialize`), so a job's JSON is byte-identical no matter which entry
point submitted it.  The CLI's experiment verbs, ``repro run``, the
sweep engine's workers, and the fault campaign all route through here.

Usage::

    from repro.jobs import JobRequest, execute

    result = execute(JobRequest("fig3", {"ports": "2,4", "txns": 10}))
    print(result.text)                  # the verb's usual table
    result.write_json("fig3.json")      # canonical JSON payload

Determinism contract: two :func:`execute` calls with equal requests
produce equal :meth:`JobResult.canonical_payload` outputs — wall-clock
time lives only in ``wall_seconds`` (and is excluded from the canonical
form, like everywhere else in the sweep layer).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from . import registry

__all__ = ["JobRequest", "JobResult", "execute", "execute_warm"]

#: How a job's simulation was produced (see :mod:`repro.sweep.warm`):
#: ``"fresh"`` — the design was constructed for this job alone;
#: ``"warm"`` — this job built (and paid for) a reusable warm session;
#: ``"restored"`` — this job ran on an existing warm session after a
#: kernel snapshot restore.
EXECUTIONS = ("fresh", "warm", "restored")

#: Request kinds: a whole experiment (the CLI verb's result) vs one
#: point of its sweep space (the engine's unit of work).
KINDS = ("experiment", "point")


@dataclass(frozen=True)
class JobRequest:
    """One immutable unit of work for :func:`execute`.

    ``kind="experiment"`` runs the registered experiment's runner over
    ``params`` (missing keys mean the experiment's defaults;
    ``seed=None`` means its default seed).  ``kind="point"`` runs the
    named *sweep*'s point runner — ``experiment`` is then the sweep
    name and ``seed`` is required, exactly like a
    :class:`~repro.sweep.point.SweepPoint`.
    """

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    backend: str = "threaded"
    kind: str = "experiment"
    telemetry: bool = False
    trace_signals: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; "
                             f"one of {sorted(KINDS)}")
        if self.kind == "point" and self.seed is None:
            raise ValueError("point jobs require an explicit seed")

    @classmethod
    def from_point(cls, point, *, telemetry: bool = False) -> "JobRequest":
        """Wrap one :class:`~repro.sweep.point.SweepPoint` as a job."""
        return cls(experiment=point.experiment, params=dict(point.params),
                   seed=point.seed, backend=point.backend, kind="point",
                   telemetry=telemetry)

    def identity(self) -> Dict[str, Any]:
        """The request's deterministic identity (no observability flags —
        telemetry/trace change what is *recorded*, never the result)."""
        ident: Dict[str, Any] = {"experiment": self.experiment,
                                 "kind": self.kind,
                                 "params": dict(self.params),
                                 "seed": self.seed}
        if self.backend != "threaded":
            ident["backend"] = self.backend
        return ident


@dataclass(frozen=True)
class JobResult:
    """What one executed job produced, with full provenance.

    ``payload`` is the runner's raw result (dataclasses/dicts);
    ``text`` the formatter's rendering (``None`` for point jobs —
    sweeps format merged results, not single points).  ``backend`` /
    ``fallback_reason`` record what actually simulated the job, from
    :func:`repro.kernel.backend.last_run`.  ``execution`` records the
    construction provenance (one of :data:`EXECUTIONS`): whether the
    job simulated a freshly built design or reused a warm session.
    ``session`` (telemetry jobs only) is the live capture session, kept
    for VCD export; it is excluded from comparison, so equal jobs
    compare equal.
    """

    request: JobRequest
    payload: Any
    text: Optional[str]
    backend: str
    fallback_reason: Optional[str]
    telemetry: Optional[List[dict]]
    wall_seconds: float
    schema: str
    schema_version: int
    execution: str = "fresh"
    session: Any = field(default=None, repr=False, compare=False)

    def provenance(self) -> str:
        """One provenance line: which backend produced this result."""
        line = f"simulation backend: {self.backend}"
        if self.fallback_reason:
            line += f" (fallback: {self.fallback_reason})"
        if self.execution != "fresh":
            line += f"; execution: {self.execution}"
        return line

    def canonical_payload(self):
        """The payload as canonical JSON-able data (wall-clock-free)."""
        from .sweep.serialize import NONDETERMINISTIC_FIELDS, to_jsonable

        return to_jsonable(self.payload, exclude=NONDETERMINISTIC_FIELDS)

    def write_json(self, path: str) -> None:
        """Dump the payload through the canonical sweep serializer —
        byte-identical to the legacy verbs' ``--json`` output."""
        from .sweep import dump_json

        dump_json(self.payload, path)


def _resolve(request: JobRequest):
    """Resolve the request to ``(runner, formatter, schema, version)``."""
    if request.kind == "point":
        sweep = registry.get_sweep(request.experiment)
        return sweep.runner, None, request.experiment, 1
    spec = registry.get(request.experiment)
    if spec.runner is None:
        raise ValueError(f"experiment {request.experiment!r} is not "
                         "directly runnable (no registered runner)")
    return spec.runner, spec.formatter, spec.schema, spec.schema_version


def execute(request: JobRequest, *,
            telemetry_label: Optional[str] = None) -> JobResult:
    """Run one job: resolve, simulate, format, record provenance.

    The runner executes under the request's ambient backend
    (:func:`repro.kernel.backend.use_backend`); with ``telemetry`` or
    ``trace_signals`` it additionally runs inside its own
    :func:`repro.observe.capture` window, and the flattened report
    records (labelled ``telemetry_label``, default the experiment name)
    ride along on the result.
    """
    from .kernel.backend import last_run, record_run, use_backend

    runner, formatter, schema, version = _resolve(request)
    params = dict(request.params)
    # Provenance is per job: only a compiled request's run records its
    # verdict, so without this reset a threaded or analytic job
    # would report whatever an earlier job in this process ran on.
    record_run("threaded")
    t0 = time.perf_counter()
    if request.telemetry or request.trace_signals:
        from . import observe

        # Under the requested backend: a hub or a trace changes what is
        # recorded, not the executor (the lone-clock lane keeps both).
        # A trace alone attaches no hub, so it pays for no counters.
        window = (observe.capture(trace_signals=request.trace_signals)
                  if request.telemetry else observe.capture_traces())
        with use_backend(request.backend), window as session:
            payload = runner(params, request.seed)
        records = (observe.to_records(session.report(
            label=telemetry_label or request.experiment))
            if request.telemetry else None)
    else:
        session = records = None
        with use_backend(request.backend):
            payload = runner(params, request.seed)
    wall = time.perf_counter() - t0
    backend, reason = last_run()
    return JobResult(
        request=request,
        payload=payload,
        text=formatter(payload) if formatter is not None else None,
        backend=backend,
        fallback_reason=reason,
        telemetry=records,
        wall_seconds=wall,
        schema=schema,
        schema_version=version,
        session=session,
    )


def execute_warm(request: JobRequest, adapter, session, *,
                 execution: str = "restored") -> JobResult:
    """Run one point job against a live warm session.

    The warm counterpart of :func:`execute` for ``kind="point"``
    requests: instead of constructing the design, the point is
    evaluated by the experiment's :class:`~repro.trace.adapter
    .SweepAdapter` against ``session`` — a constructed, snapshot-
    enabled simulation owned by the calling worker (see
    :mod:`repro.sweep.warm`, which also handles the restore between
    points).  Backend provenance is read from the session's simulator
    directly — the ambient :func:`~repro.kernel.backend.last_run`
    record is one run stale by the time the caller restores.

    ``execution`` stamps the construction provenance: ``"warm"`` for
    the point that paid for the session build, ``"restored"`` for
    points served after a snapshot restore.
    """
    if request.kind != "point":
        raise ValueError("warm execution only serves point jobs, "
                         f"not {request.kind!r}")
    if execution not in EXECUTIONS:
        raise ValueError(f"unknown execution {execution!r}; "
                         f"one of {EXECUTIONS}")
    t0 = time.perf_counter()
    payload = adapter.run(session, dict(request.params), request.seed)
    wall = time.perf_counter() - t0
    sim = session.sim
    return JobResult(
        request=request,
        payload=payload,
        text=None,
        backend=sim.backend,
        fallback_reason=sim.backend_fallback_reason,
        telemetry=None,
        wall_seconds=wall,
        schema=request.experiment,
        schema_version=1,
        execution=execution,
    )
