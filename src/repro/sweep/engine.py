"""The sweep engine: one pipeline for plain, incremental and warm sweeps.

How a sweep executes
--------------------
Every :func:`run_sweep` call walks the same five steps; ``incremental``
and ``warm`` only swap the strategy of step 2.

1. **Probe.**  Every point is first resolved against the result cache
   (when one is given); hits never touch a worker.  Exact entries are
   probed first — they are authoritative and can never be shadowed —
   and only incremental sweeps then also accept derived entries.
2. **Strategy.**  A mode-specific attempt to serve the misses without a
   fresh simulation each.  Plain sweeps have none.  The other two
   share one grouping step: every point is projected onto its
   structural base (:func:`repro.trace.adapter.classify`, from the
   experiment's one :class:`~repro.trace.adapter.SweepAdapter`) and
   points sharing a base form a group.  Incremental sweeps capture one
   full simulation per group (trace-cache fronted, across the pool) and
   replay every member analytically in-process.  Warm sweeps send each
   group's chunks to persistent warm workers that construct once and
   snapshot-restore between points (:mod:`repro.sweep.warm`).  Whatever
   a strategy cannot finish is *left over* with its recorded reason.
3. **Dispatch.**  Fresh chunks, capture tasks and warm chunks all go
   through one function: in-process for ``jobs <= 1`` or a lone task,
   across a ``ProcessPoolExecutor`` otherwise.  A task is one pool
   submission — for short simulation points the per-task dispatch
   overhead would otherwise dominate, hence chunks.  Inside the worker
   each point runs under a SIGALRM watchdog (``timeout`` seconds) and,
   with telemetry, inside its own capture window, so a wedged
   simulation dies with a ``PointTimeout`` instead of sinking the
   sweep, and the per-point telemetry report travels back with the
   result.  Per-point failures come back as data; a crashed worker
   process fails every member of the tasks it took down.
4. **Fresh execution + retry.**  The leftovers (for a plain sweep:
   every miss) run as ordinary full simulations.  Failed points
   (exception, timeout, crashed worker) are re-run ``retries`` times,
   each in its own single-point chunk.  A point that still fails is
   recorded as an ``error`` outcome; the rest of the sweep is
   unaffected.
5. **Record.**  Raw records become outcomes **in point order** — so the
   merged report is identical in content to a serial run regardless of
   which worker finished first — successful results are written to the
   cache (failed points never are), and the accounting is tallied from
   the outcomes.

Determinism: the engine never invents randomness.  Seeds live in the
points (assigned by the space builders), telemetry labels are derived
from point indices, and ``SweepResult.canonical()`` strips the only
nondeterministic fields (wall-clock times) — two runs of the same sweep
are bit-identical under it, whether serial, parallel, cache-served,
replayed or warm.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cache import ResultCache
from .point import PointTimeout, SweepPoint, _alarm
from .serialize import NONDETERMINISTIC_FIELDS, canonical_json

__all__ = ["PointTimeout", "PointOutcome", "SweepResult", "run_sweep"]

#: A point the strategy step could not finish: ``(index, point,
#: fallback_reason, attempts_used)``.
_Leftover = Tuple[int, SweepPoint, Optional[str], int]


# ----------------------------------------------------------------------
# worker side: every entry point takes one task dict (plain data, with
# ``members`` tuples whose first element is the member's key) and
# returns ``{"records": [...]}``, one keyed ok/error record per member
# ----------------------------------------------------------------------
def _run_chunk(task: dict) -> dict:
    """Worker entry point: fresh-execute one chunk of (index, point) pairs.

    Each point is wrapped as a :class:`~repro.jobs.JobRequest` and
    submitted to the job core, which resolves the runner from the
    experiment registry by name — the point itself stays plain data.
    With ``telemetry`` the job runs inside its own capture window and
    the flattened report records ride along (and into the cache),
    labelled by point index so serial and parallel runs produce
    identical records.

    Per-point failures are caught and returned as data — only a hard
    crash of the worker process itself (segfault, OOM kill) loses the
    chunk, and the engine retries those points individually.
    """
    from ..jobs import JobRequest, execute

    records = []
    for index, point in task["members"]:
        try:
            with _alarm(task["timeout"]):
                job = execute(
                    JobRequest.from_point(point,
                                          telemetry=task["telemetry"]),
                    telemetry_label=f"{point.experiment}[{index}]")
            records.append({"key": index, "ok": True,
                            "result": job.payload,
                            "telemetry": job.telemetry,
                            "wall_seconds": job.wall_seconds})
        except Exception as exc:  # noqa: BLE001 - reported per point
            records.append({"key": index, "ok": False,
                            "error": f"{type(exc).__name__}: {exc}"})
    return {"records": records}


def _capture_chunk(task: dict) -> dict:
    """Worker entry point: capture structural-base traces.

    Members are ``(gid, experiment, base_params, base_seed)`` tuples;
    the replay adapter is re-resolved from the registry by experiment
    name so only plain data crosses the process boundary.
    """
    from ..trace.adapter import adapter_for

    records = []
    for gid, experiment, base_params, base_seed in task["members"]:
        t0 = time.perf_counter()
        try:
            adapter = adapter_for(experiment)
            with _alarm(task["timeout"]):
                trace = adapter.capture(dict(base_params), base_seed)
            records.append({"key": gid, "ok": True, "trace": trace,
                            "wall_seconds": time.perf_counter() - t0})
        except Exception as exc:  # noqa: BLE001 - reported per capture
            records.append({"key": gid, "ok": False,
                            "error": f"{type(exc).__name__}: {exc}"})
    return {"records": records}


@dataclass
class PointOutcome:
    """What happened to one point: executed, cache-served, or failed."""

    index: int
    point: SweepPoint
    status: str  # "ok" | "cached" | "error"
    result: Optional[dict] = None
    telemetry: Optional[List[dict]] = None
    wall_seconds: float = 0.0
    attempts: int = 0
    error: Optional[str] = None
    #: How the result was produced: "exact" (full simulation, or a
    #: cached one) vs "derived" (trace replay / analytic evaluation).
    mode: str = "exact"
    #: Construction provenance (see :data:`repro.jobs.EXECUTIONS`):
    #: "fresh" (design built for this point), "warm" (this point built
    #: a reusable warm session), or "restored" (evaluated on a warm
    #: session after a kernel snapshot restore).
    execution: str = "fresh"
    #: For incremental/warm sweeps only: why this point could not be
    #: derived (or warm-batched) and fell back to a full simulation
    #: (None when it didn't).
    fallback_reason: Optional[str] = None


@dataclass
class SweepResult:
    """An ordered sweep outcome plus engine/cache accounting."""

    experiment: str
    outcomes: List[PointOutcome] = field(default_factory=list)
    jobs: int = 1
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    errors: int = 0
    retried: int = 0
    cache: Optional[dict] = None  # ResultCache.describe() snapshot
    incremental: bool = False
    #: Points served by trace replay or analytic evaluation this run.
    derived: int = 0
    #: Structural base simulations captured this run (not point-indexed).
    captures: int = 0
    #: reason -> count for points that fell back to full simulation.
    fallback_reasons: Dict[str, int] = field(default_factory=dict)
    warm: bool = False
    #: Structural groups dispatched to warm workers this run.
    warm_groups: int = 0
    #: Points evaluated on a warm session (execution "warm"/"restored").
    warm_points: int = 0
    #: Kernel snapshot restores performed by warm workers.
    restores: int = 0

    @property
    def points(self) -> List[SweepPoint]:
        return [o.point for o in self.outcomes]

    @property
    def results(self) -> List[Optional[dict]]:
        """Per-point result records, point order (``None`` for errors)."""
        return [o.result for o in self.outcomes]

    @property
    def ok_results(self) -> List[dict]:
        return [o.result for o in self.outcomes if o.result is not None]

    def report(self, *, label: Optional[str] = None):
        """Merge per-point telemetry into one ordered TelemetryReport.

        Reports are merged in point-index order, so the merged report's
        content is independent of worker scheduling — identical to what
        a serial run produces.
        """
        from ..observe import from_records, merge

        parts = [from_records(o.telemetry) for o in self.outcomes
                 if o.telemetry]
        return merge(parts, label=label or self.experiment)

    def canonical(self) -> str:
        """Bit-comparable serialization of everything deterministic."""
        from ..observe import to_records

        return canonical_json({
            "experiment": self.experiment,
            "points": [p.identity() for p in self.points],
            "results": self.results,
            "telemetry": to_records(self.report()),
        }, exclude=NONDETERMINISTIC_FIELDS)

    def summary(self) -> str:
        """One status line: point counts, cache traffic, wall clock."""
        traffic = f"{self.cache_hits} cached / {self.executed} executed"
        if self.incremental:
            traffic = (f"{self.cache_hits} cached / {self.derived} derived"
                       f" / {self.executed} simulated"
                       f" (+{self.captures} captures)")
        if self.warm:
            traffic = (f"{self.cache_hits} cached / {self.warm_points} warm"
                       f" ({self.warm_groups} groups, {self.restores} "
                       f"restores) / "
                       f"{self.executed - self.warm_points} fresh")
        parts = [f"sweep {self.experiment}: {len(self.outcomes)} points",
                 traffic + (f" / {self.errors} errors" if self.errors
                            else ""),
                 f"jobs={self.jobs}", f"{self.wall_seconds:.2f}s wall"]
        if self.retried:
            parts.insert(2, f"{self.retried} retried")
        return " | ".join(parts)

    def to_payload(self) -> dict:
        """Full JSON-able dump (CLI ``--json``): points, results, stats."""
        return {
            "experiment": self.experiment,
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "executed": self.executed,
            "errors": self.errors,
            "retried": self.retried,
            "cache": self.cache,
            "incremental": self.incremental,
            "derived": self.derived,
            "captures": self.captures,
            "fallback_reasons": self.fallback_reasons,
            "warm": self.warm,
            "warm_groups": self.warm_groups,
            "warm_points": self.warm_points,
            "restores": self.restores,
            "points": [o.point.identity() for o in self.outcomes],
            "results": self.results,
            "statuses": [o.status for o in self.outcomes],
            "modes": [o.mode for o in self.outcomes],
            "executions": [o.execution for o in self.outcomes],
            "telemetry": [r for o in self.outcomes
                          for r in (o.telemetry or ())],
        }



# ----------------------------------------------------------------------
# the pipeline: probe -> strategy -> dispatch -> fresh + retry -> record
# ----------------------------------------------------------------------
def _probe(points: List[SweepPoint], cache: Optional[ResultCache],
           modes: Tuple[str, ...], telemetry: bool,
           records: Dict[int, dict]) -> List[Tuple[int, SweepPoint]]:
    """Step 1: serve points from the cache; returns the misses.

    A telemetry-enabled sweep must not be served by telemetry-less
    entries (the merged report would silently lose those points); the
    predicate makes them honest misses.  In the mirror case the stored
    telemetry is stripped so a cache hit is indistinguishable from a
    fresh ``telemetry=False`` execution.
    """
    require = (lambda value: value.get("telemetry") is not None) \
        if telemetry else None
    pending: List[Tuple[int, SweepPoint]] = []
    for i, point in enumerate(points):
        found = cache.probe(point, modes, require=require) \
            if cache is not None else None
        if found is None:
            pending.append((i, point))
            continue
        mode, hit = found
        records[i] = {"ok": True, "cached": True, "mode": mode,
                      "result": hit.get("result"),
                      "telemetry": hit.get("telemetry") if telemetry
                      else None}
    return pending


def _dispatch(fn: Callable[[dict], dict], tasks: List[dict], jobs: int, *,
              initializer: Optional[Callable[[], None]] = None,
              isolate: bool = False) -> Tuple[dict, Dict[str, int]]:
    """Step 3: run ``fn(task)`` for every task, in-process or pooled.

    Returns ``(records by member key, summed worker counters)``.
    Worker-process crashes surface as ``BrokenProcessPool`` on every
    outstanding future of that pool; each member of an affected task
    gets a failed record (marked ``crashed``) so the caller's retry
    pass can re-run it — a new pool is created per call, so one crash
    never poisons the retry.  ``isolate`` withholds the lone-task
    in-process shortcut: a task whose previous attempt died with its
    worker must not get the chance to take the driver down instead.
    """
    outputs: List[dict] = []
    if jobs <= 1 or not tasks or (len(tasks) == 1 and not isolate):
        outputs = [fn(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                                 initializer=initializer) as pool:
            futures = [pool.submit(fn, task) for task in tasks]
            for future, task in zip(futures, tasks):
                try:
                    outputs.append(future.result())
                    continue
                except BrokenProcessPool:
                    failure = {"error": "BrokenProcessPool: worker crashed",
                               "crashed": True}
                except Exception as exc:  # noqa: BLE001 - whole-task failure
                    failure = {"error": f"{type(exc).__name__}: {exc}"}
                outputs.append({"records": [
                    {"key": member[0], "ok": False, **failure}
                    for member in task["members"]]})
    records: dict = {}
    counters: Dict[str, int] = {}
    for out in outputs:
        for rec in out["records"]:
            records[rec.pop("key")] = rec
        for name, value in out.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    return records, counters


def _group(pending: List[Tuple[int, SweepPoint]], adapter) -> Dict[str, dict]:
    """Step 2, shared: project each point onto its structural base.

    The one grouping step both strategies consume.  The projection is
    :func:`repro.sweep.warm.group_key` (that is,
    :func:`repro.trace.adapter.classify`); points sharing a digest
    form one group — plain data, ready to cross a process boundary —
    and the strategies differ only in what they do with a group:
    capture + replay, or chunk + warm-dispatch.
    """
    from .warm import group_key

    groups: Dict[str, dict] = {}
    for i, point in pending:
        digest, bparams, bseed = group_key(point, adapter)
        group = groups.setdefault(
            digest, {"digest": digest, "experiment": point.experiment,
                     "base_params": bparams, "base_seed": bseed,
                     "backend": point.backend, "members": []})
        group["members"].append((i, point))
    return groups


def _incremental_strategy(experiment: str,
                          pending: List[Tuple[int, SweepPoint]],
                          records: Dict[int, dict], *, jobs: int,
                          cache: Optional[ResultCache],
                          timeout: Optional[float]
                          ) -> Tuple[List[_Leftover], dict]:
    """Step 2, ``incremental=True``: group, capture bases, replay.

    Without a replay-capable adapter every point is left over at once;
    analytic experiments are evaluated in-process; otherwise each
    group's structural base is captured once (see
    ``docs/INCREMENTAL_SIM.md``) and the members are replayed — a
    replay the trace's recorded capability or the replayer's soundness
    guards refuse leaves the point over with its reason.
    """
    from ..trace.adapter import NO_REPLAY_ADAPTER, adapter_for
    from ..trace.replay import ReplayError, Replayer

    adapter = adapter_for(experiment)
    if adapter is None:
        return [(i, point, NO_REPLAY_ADAPTER, 0) for i, point in pending], {}
    if adapter.analytic:
        # No kernel: the runner *is* the derived evaluator, so its
        # output is cached as exact (it is the exact result) while the
        # outcome is accounted as derived (no simulation was dispatched
        # for it).  A failure is terminal for the point.
        evaluated, _ = _dispatch(
            _run_chunk,
            [{"members": pending, "telemetry": False, "timeout": timeout}],
            jobs=1)
        for i, rec in evaluated.items():
            records[i] = {**rec, "attempts": 1, "mode": "derived"}
        return [], {}

    # One capture per structural base, trace-cache fronted.  Ineligible
    # traces are cached too: the recorded reasons are stable for a
    # given base, so a warm sweep skips straight to the fallback.
    groups = _group(pending, adapter)
    bases = {gid: SweepPoint(experiment, group["base_params"],
                             seed=group["base_seed"])
             for gid, group in groups.items()}
    captures: Dict[str, dict] = {}
    need: List[dict] = []
    for gid, base in bases.items():
        hit = cache.get(base, mode="trace") if cache is not None else None
        if hit is not None:
            captures[gid] = {"ok": True, "trace": hit["trace"]}
        else:
            need.append({"members": [(gid, experiment, base.params,
                                      base.seed)],
                         "timeout": timeout})
    captured, _ = _dispatch(_capture_chunk, need, jobs)
    captures.update(captured)
    if cache is not None:
        for gid, rec in captured.items():
            if rec["ok"]:
                cache.put(bases[gid], {"trace": rec["trace"]}, mode="trace",
                          cost=rec.get("wall_seconds", 0.0))

    leftovers: List[_Leftover] = []
    for gid, group in groups.items():
        rec = captures.get(gid, {"ok": False, "error": "capture missing"})
        trace = rec.get("trace") or {}
        reason = None
        if not rec["ok"]:
            reason = f"capture failed: {rec.get('error', 'unknown')}"
        elif not trace.get("eligible", False):
            reason = ("capture ineligible: "
                      + "; ".join(trace.get("reasons") or ["unrecorded"]))
        if reason is not None:
            leftovers.extend((i, p, reason, 0) for i, p in group["members"])
            continue
        # One precompiled evaluator per base: the trace is parsed once
        # and identical channel-override signatures (e.g. period-only
        # satellites) are served from its memo.
        replayer = Replayer(trace)
        for i, point in group["members"]:
            p0 = time.perf_counter()
            try:
                res = adapter.derive(
                    trace,
                    replayer.replay(
                        adapter.overrides(dict(point.params),
                                          point.seed)),
                    dict(point.params), point.seed)
            except ReplayError as exc:
                leftovers.append((i, point, f"replay refused: {exc}", 0))
                continue
            except Exception as exc:  # noqa: BLE001 - fall back, record
                leftovers.append(
                    (i, point,
                     f"replay failed: {type(exc).__name__}: {exc}", 0))
                continue
            records[i] = {"ok": True, "result": res, "attempts": 1,
                          "wall_seconds": time.perf_counter() - p0,
                          "mode": "derived", "cache_mode": "derived"}

    return leftovers, {"captures": sum(rec["ok"]
                                       for rec in captured.values())}


def _warm_strategy(experiment: str, pending: List[Tuple[int, SweepPoint]],
                   records: Dict[int, dict], *, jobs: int,
                   timeout: Optional[float]
                   ) -> Tuple[List[_Leftover], dict]:
    """Step 2, ``warm=True``: group, run each group's batches warm.

    Without a warm-capable adapter every point is left over with the
    reason recorded.  Session-level demotions (build/restore failures)
    are left over as first attempts; a point that failed *inside* its
    warm batch has used one attempt, so its fresh re-run is attempt 2.
    """
    from .warm import batch_adapter_for, run_warm_chunk, warm_worker_init

    adapter = batch_adapter_for(experiment)
    if adapter is None:
        return [(i, point, "no batch adapter registered", 0)
                for i, point in pending], {}
    groups = _group(pending, adapter)

    # Chunks never mix groups, and each group is spread over at most
    # ``jobs`` tasks: warm chunks should be *large* — every extra chunk
    # of a group is a potential extra session build on another worker —
    # so the fresh path's ~4-chunks-per-worker heuristic would be
    # counterproductive here.
    tasks: List[dict] = []
    for group in groups.values():
        members = group["members"]
        size = max(1, -(-len(members) // max(1, jobs)))
        tasks.extend({**group, "timeout": timeout,
                      "members": members[lo:lo + size]}
                     for lo in range(0, len(members), size))
    # One persistent pool serves every group task, so workers keep
    # their warm sessions across tasks (and sweeps, for the in-process
    # jobs<=1 path).
    raw, counters = _dispatch(run_warm_chunk, tasks, jobs,
                              initializer=warm_worker_init)

    leftovers: List[_Leftover] = []
    for i, point in pending:
        rec = raw.get(i, {"ok": False, "error": "warm record missing"})
        if rec["ok"]:
            records[i] = {**rec, "attempts": 1}
        elif rec.get("fallback"):
            leftovers.append((i, point, rec["fallback"], 0))
        else:
            # Kept as the point's previous attempt: the fresh pass
            # reads its ``crashed`` mark before replacing it.
            records[i] = rec
            leftovers.append(
                (i, point, "warm execution failed: "
                 + rec.get("error", "unknown failure"), 1))
    return leftovers, {
        "warm_groups": len(groups),
        **{name: counters.get(name, 0) for name in
           ("warm_points", "restores")}}


def _run_fresh(leftovers: List[_Leftover], records: Dict[int, dict], *,
               jobs: int, telemetry: bool, timeout: Optional[float],
               retries: int) -> None:
    """Step 4: fully simulate the leftovers, retrying failures.

    The first pass packs points into ~4 chunks per worker, which
    balances dispatch overhead against stragglers holding the tail of
    the sweep; every retry pass runs its points in single-point chunks
    so one bad point cannot fail its neighbours twice.  ``records``
    ends up holding each leftover's last attempt.
    """
    leftovers = sorted(leftovers, key=lambda item: item[0])
    attempts = {i: used for i, _, _, used in leftovers}
    reason_of = {i: reason for i, _, reason, _ in leftovers}
    todo = [(i, point) for i, point, _, _ in leftovers]
    size = max(1, len(todo) // max(1, jobs * 4))
    for _ in range(1 + max(0, retries)):
        if not todo:
            break
        tasks = [{"members": todo[lo:lo + size], "telemetry": telemetry,
                  "timeout": timeout} for lo in range(0, len(todo), size)]
        crashed = any(records.get(i, {}).get("crashed") for i, _ in todo)
        raw, _ = _dispatch(_run_chunk, tasks, jobs, isolate=crashed)
        for i, rec in raw.items():
            attempts[i] += 1
            records[i] = {**rec, "attempts": attempts[i],
                          "fallback_reason": reason_of[i]}
        todo = [(i, point) for i, point in todo if not records[i]["ok"]]
        size = 1


def _record(points: List[SweepPoint], records: Dict[int, dict], *,
            jobs: int, t0: float, cache: Optional[ResultCache],
            fields: dict) -> SweepResult:
    """Step 5: raw records -> ordered outcomes, cache writes, accounting.

    ``fields`` are the mode's own :class:`SweepResult` fields (flags
    plus what its strategy counted: captures, warm groups/restores).
    Everything point-indexed is tallied here, from the outcomes.
    """
    outcomes: List[PointOutcome] = []
    fallback_reasons: Dict[str, int] = {}
    for i, point in enumerate(points):
        rec = records[i]
        status = "cached" if rec.get("cached") else \
            "ok" if rec["ok"] else "error"
        outcome = PointOutcome(
            index=i, point=point, status=status,
            result=rec.get("result"), telemetry=rec.get("telemetry"),
            wall_seconds=rec.get("wall_seconds", 0.0),
            attempts=rec.get("attempts", 0),
            error=None if rec["ok"] else rec.get("error", "unknown failure"),
            mode=rec.get("mode", "exact"),
            execution=rec.get("execution", "fresh"),
            fallback_reason=rec.get("fallback_reason"))
        outcomes.append(outcome)
        if outcome.fallback_reason is not None:
            fallback_reasons[outcome.fallback_reason] = \
                fallback_reasons.get(outcome.fallback_reason, 0) + 1
        if status == "ok" and cache is not None:
            cache.put(point, {"result": outcome.result,
                              "telemetry": outcome.telemetry},
                      mode=rec.get("cache_mode", "exact"),
                      cost=outcome.wall_seconds)

    def count(status: str, mode: Optional[str] = None) -> int:
        return sum(1 for o in outcomes if o.status == status
                   and (mode is None or o.mode == mode))

    cache_hits = count("cached")
    if cache is not None:
        # Merged before the snapshot below is taken, so the result's
        # cache block and the flushed totals agree on this run.
        cache.stats.warm_points += fields.get("warm_points", 0)
        cache.stats.warm_restores += fields.get("restores", 0)
    result = SweepResult(
        experiment=points[0].experiment,
        outcomes=outcomes,
        jobs=jobs,
        wall_seconds=time.perf_counter() - t0,
        cache_hits=cache_hits,
        cache_misses=len(outcomes) - cache_hits,
        executed=count("ok", "exact"),
        errors=count("error"),
        retried=sum(max(0, o.attempts - 1) for o in outcomes),
        cache=cache.describe() if cache is not None else None,
        derived=count("ok", "derived"),
        fallback_reasons=fallback_reasons,
        **fields,
    )
    if cache is not None:
        cache.flush_stats()
    return result


def run_sweep(points: Sequence[SweepPoint], *, jobs: int = 1,
              cache: Optional[ResultCache] = None,
              timeout: Optional[float] = None, retries: int = 1,
              telemetry: bool = True,
              incremental: bool = False,
              warm: bool = False) -> SweepResult:
    """Execute a parameter sweep; returns ordered outcomes + accounting.

    ``jobs`` is the worker-process count (``<=1`` = in this process),
    ``cache`` fronts execution with the content-addressed result store,
    ``timeout`` is the per-point wall-clock budget in seconds, and
    ``retries`` is how many times a failed point is re-run before being
    recorded as an error.  The module docstring walks through the
    pipeline every mode shares.

    With ``incremental`` the engine partitions the space into structural
    bases and derivable satellites using the experiment's registered
    :class:`~repro.trace.adapter.SweepAdapter`: one full simulation is
    captured per base (process pool), every satellite is replayed
    analytically in-process, and any point the capability check or the
    replayer refuses falls back to a full simulation with its reason
    recorded in ``SweepResult.fallback_reasons``.  Incremental sweeps
    run with telemetry off (a replayed point has no kernel to observe;
    mixing instrumented and derived records would make the merged
    report lie), so their canonical form matches a plain
    ``telemetry=False`` sweep.

    With ``warm`` the engine instead groups pending points by
    structural digest and dispatches each group as a batch to
    persistent warm workers, which construct the design once per group
    and evaluate every point via the kernel's snapshot/restore
    primitive (:mod:`repro.sweep.warm`).  Session build/restore
    failures and points that fail inside a batch re-run through the
    fresh path (the latter consuming one retry).  Results are
    byte-identical under :meth:`SweepResult.canonical`, and cache keys
    are those of a plain ``telemetry=False`` sweep, so warm, fresh and
    cached runs interchange; like ``incremental``, warm sweeps run
    telemetry-off (a snapshot-eligible design cannot carry a telemetry
    hub).  ``warm`` and ``incremental`` are mutually exclusive.
    """
    points = list(points)
    if not points:
        raise ValueError("run_sweep needs at least one SweepPoint")
    if warm and incremental:
        raise ValueError("warm and incremental sweeps are mutually "
                         "exclusive — a warm session re-simulates, a "
                         "replay never constructs a kernel")
    experiment = points[0].experiment
    if warm or incremental:
        if any(p.experiment != experiment for p in points):
            raise ValueError(f"{'warm' if warm else 'incremental'} sweeps "
                             f"require a single experiment")
        telemetry = False
    t0 = time.perf_counter()

    records: Dict[int, dict] = {}
    pending = _probe(points, cache,
                     ("exact", "derived") if incremental else ("exact",),
                     telemetry, records)
    if incremental:
        leftovers, counted = _incremental_strategy(
            experiment, pending, records, jobs=jobs, cache=cache,
            timeout=timeout)
    elif warm:
        leftovers, counted = _warm_strategy(
            experiment, pending, records, jobs=jobs, timeout=timeout)
    else:
        leftovers, counted = [(i, p, None, 0) for i, p in pending], {}
    _run_fresh(leftovers, records, jobs=jobs, telemetry=telemetry,
               timeout=timeout, retries=retries)
    return _record(points, records, jobs=jobs, t0=t0, cache=cache,
                   fields={"incremental": incremental, "warm": warm,
                           **counted})
