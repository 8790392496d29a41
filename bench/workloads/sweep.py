"""sweep_fresh, sweep_cached, sweep_warm, sweep_incremental.

One op is one ``run_sweep`` over one grid; work is counted in sweep
points.  All four workloads run the same two grids so that their
``canonical()`` output can be held against one serial fresh reference:

* ``li_grid`` — li_latency over clock periods: every point derivable by
  trace replay from two structural bases, every point warm-batchable;
* ``stall_grid`` — stall_verification trials: warm-batchable, but
  refused by trace capture (non-blocking ports), so ``--incremental``
  pays a capture and then simulates every point.

From outside, ``run_sweep`` is one opaque span.  The ``decomposed_*``
functions restate each execution mode serially with one span per public
call (cache, jobs, warm adapter, trace adapter, report, canonical), which
is where the cache, serialize, observe, warm and trace layers get their
own spans.  The per-point bookkeeping the engine does around those calls
(grouping, outcome records, the merged result), restated here, is charged
to ``repro.sweep.engine`` through one ``point`` span per point.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import shutil

from repro import registry
from repro.experiments import li_latency, stall_verification
from repro.jobs import JobRequest, execute, execute_warm
from repro.sweep import PointOutcome, ResultCache, SweepResult, run_sweep
from repro.sweep.warm import batch_adapter_for, group_key
from repro.trace.adapter import adapter_for, classify
from repro.trace.replay import Replayer

from . import Op, Outcome, Workload

ENGINE = "repro.sweep.engine"

ACCOUNTING = ("executed", "cache_hits", "derived", "captures", "warm_groups",
              "warm_points", "restores", "retried", "errors")


def build_grids(cfg: dict, seed: int) -> dict:
    """``grid name -> [SweepPoint]``; the seed feeds both space builders."""
    lo, hi = cfg["li_periods"]
    li = []
    for period in range(lo, hi + 1):
        li += li_latency.sweep_space(
            probabilities=tuple(cfg["li_probabilities"]), trials=1,
            period=period, seed=500 + seed)
    stall = stall_verification.sweep_space(trials=cfg["stall_trials"],
                                           seed=100 + seed)
    return {"li_grid": li, "stall_grid": stall}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def accounting(result: SweepResult) -> dict:
    out = {name: getattr(result, name) for name in ACCOUNTING}
    out["fallbacks"] = sum(result.fallback_reasons.values())
    return out


def reference_digests(ctx, grids: dict, telemetry: bool) -> dict:
    """sha256 of the serial fresh ``canonical()`` per grid.

    ``jobs=1`` and no cache: in-process, no pool, the simplest path the
    engine has.  Computed once per run and shared by its child processes
    through the run's scratch directory.
    """
    path = os.path.join(ctx.tmp, f"reference-telemetry{int(telemetry)}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    out = {name: digest(run_sweep(points, jobs=1,
                                  telemetry=telemetry).canonical())
           for name, points in grids.items()}
    with open(path, "w") as fh:
        json.dump(out, fh)
    return out


# ----------------------------------------------------------------------
# serial decompositions (traced runs and layer probes)
# ----------------------------------------------------------------------
def _merged(rec, points, outcomes) -> str:
    with rec.span("SweepResult", ENGINE):
        result = SweepResult(experiment=points[0].experiment,
                             outcomes=sorted(outcomes, key=lambda o: o.index))
    with rec.span("SweepResult.report", "repro.observe"):
        result.report()
    with rec.span("SweepResult.canonical", "repro.sweep.serialize"):
        return result.canonical()


def _fresh_point(rec, index, point, telemetry) -> PointOutcome:
    with rec.span("jobs.execute", "repro.jobs"):
        job = execute(JobRequest.from_point(point, telemetry=telemetry),
                      telemetry_label=f"{point.experiment}[{index}]")
    return PointOutcome(index=index, point=point, status="ok",
                        result=job.payload, telemetry=job.telemetry,
                        wall_seconds=job.wall_seconds, attempts=1)


def decomposed_plain(rec, points, cache: ResultCache, *,
                     telemetry: bool = True) -> str:
    """The plain (fresh or cache-served) path, serially."""
    require = (lambda value: value.get("telemetry") is not None) \
        if telemetry else None
    outcomes = []
    for i, point in enumerate(points):
        with rec.span("point", ENGINE):
            with rec.span("cache.get", "repro.sweep.cache"):
                hit = cache.get(point, require=require)
            if hit is not None:
                outcomes.append(PointOutcome(
                    index=i, point=point, status="cached",
                    result=hit.get("result"),
                    telemetry=hit.get("telemetry") if telemetry else None))
                continue
            outcome = _fresh_point(rec, i, point, telemetry)
            with rec.span("cache.put", "repro.sweep.cache"):
                cache.put(point, {"result": outcome.result,
                                  "telemetry": outcome.telemetry},
                          cost=outcome.wall_seconds)
            outcomes.append(outcome)
    text = _merged(rec, points, outcomes)
    with rec.span("cache.flush_stats", "repro.sweep.cache"):
        cache.flush_stats()
    return text


def decomposed_warm(rec, points) -> str:
    """The warm path, serially: build once per group, run, restore."""
    adapter = batch_adapter_for(points[0].experiment)
    groups = collections.OrderedDict()
    for i, point in enumerate(points):
        with rec.span("point", ENGINE):
            with rec.span("group_key", "repro.sweep.warm"):
                key, bparams, bseed = group_key(point, adapter)
            groups.setdefault(key, (bparams, bseed, []))[2].append((i, point))
    outcomes = []
    for bparams, bseed, members in groups.values():
        with rec.span("BatchAdapter.build", "repro.sweep.warm"):
            session = adapter.build(dict(bparams), bseed)
        with rec.span("sim.snapshot", "repro.kernel"):
            session.sim.enable_snapshots()
            snap = session.sim.snapshot()
        for i, point in members:
            with rec.span("point", ENGINE):
                with rec.span("execute_warm", "repro.sweep.warm"):
                    job = execute_warm(JobRequest.from_point(point), adapter,
                                       session)
                with rec.span("sim.restore", "repro.kernel"):
                    session.sim.restore(snap)
                outcomes.append(PointOutcome(
                    index=i, point=point, status="ok", result=job.payload,
                    wall_seconds=job.wall_seconds, attempts=1,
                    execution=job.execution))
    return _merged(rec, points, outcomes)


def decomposed_incremental(rec, points) -> str:
    """The incremental path, serially: capture per base, replay the rest;
    a base whose capture is ineligible simulates its points instead."""
    adapter = adapter_for(points[0].experiment)
    groups = collections.OrderedDict()
    outcomes = []
    for i, point in enumerate(points):
        with rec.span("point", ENGINE):
            with rec.span("classify", "repro.trace"):
                mode, _, bparams, bseed = classify(
                    adapter, dict(point.params), point.seed)
            if mode == "structural":
                outcomes.append(_fresh_point(rec, i, point, False))
                continue
            key = json.dumps([bparams, bseed], sort_keys=True)
            groups.setdefault(key, (bparams, bseed, []))[2].append((i, point))
    for bparams, bseed, members in groups.values():
        with rec.span("ReplayAdapter.capture", "repro.trace"):
            trace = adapter.capture(dict(bparams), bseed)
        if not trace.get("eligible", False):
            outcomes += [_fresh_point(rec, i, p, False) for i, p in members]
            continue
        with rec.span("Replayer", "repro.trace"):
            replayer = Replayer(trace)
        for i, point in members:
            with rec.span("point", ENGINE):
                params = dict(point.params)
                with rec.span("replay", "repro.trace"):
                    result = adapter.derive(
                        trace,
                        replayer.replay(adapter.overrides(params, point.seed)),
                        params, point.seed)
                outcomes.append(PointOutcome(
                    index=i, point=point, status="ok", result=result,
                    attempts=1, mode="derived"))
    return _merged(rec, points, outcomes)


# ----------------------------------------------------------------------
# the four workloads
# ----------------------------------------------------------------------
class SweepOp(Op):
    attributed = False  # run_sweep is opaque; see Workload.decompose

    def __init__(self, workload: "_Sweep", grid: str):
        self.name = grid
        self.workload = workload

    def run(self, rec):
        wl = self.workload
        with rec.span("run_sweep", ENGINE):
            return run_sweep(wl.grids[self.name], jobs=wl.ctx.jobs,
                             **wl.sweep_kwargs(self.name))

    def check(self, result: SweepResult) -> Outcome:
        wl = self.workload
        wl.after_op(self.name)
        failures = [f"{o.point.label}: {o.error}"
                    for o in result.outcomes if o.status == "error"]
        wl.seen[self.name][digest(result.canonical())] += 1
        facts = {f"sweep.{self.name}.{k}": v
                 for k, v in accounting(result).items()}
        return Outcome(work=len(result.outcomes), failures=failures,
                       facts=facts)


class _Sweep(Workload):
    work_unit = "points"
    telemetry = False

    def setup(self) -> None:
        registry.load()
        self.grids = build_grids(self.ctx.cfg["sweeps"], self.ctx.seed)
        #: grid -> Counter of canonical digests the timed ops produced
        self.seen = {g: collections.Counter() for g in self.grids}
        self.ops = [SweepOp(self, grid) for grid in self.grids]

    def sweep_kwargs(self, grid: str) -> dict:
        raise NotImplementedError

    def after_op(self, grid: str) -> None:
        """Untimed clean-up after one op."""

    def decomposed(self, rec, grid: str) -> str:
        raise NotImplementedError

    def decompose(self, rec) -> None:
        for grid in self.grids:
            with rec.op(f"{grid}/decomposed", attributed=True):
                text = self.decomposed(rec, grid)
            self.seen[grid][digest(text)] += 1

    def finish(self) -> Outcome:
        reference = reference_digests(self.ctx, self.grids, self.telemetry)
        failures = [f"{grid}: canonical() differs from the serial fresh "
                    f"reference ({got[:12]} != {reference[grid][:12]})"
                    for grid, counter in self.seen.items()
                    for got, n in counter.items() if got != reference[grid]
                    for _ in range(n)]
        return Outcome(failures=failures,
                       facts={f"canonical.{grid}": value
                              for grid, value in reference.items()})


class SweepFresh(_Sweep):
    telemetry = True

    def setup(self) -> None:
        super().setup()
        self._dirs = 0

    def _new_dir(self) -> str:
        self._dirs += 1
        self._last = os.path.join(self.ctx.tmp, f"fresh-{os.getpid()}-"
                                                f"{self._dirs}")
        return self._last

    def sweep_kwargs(self, grid):
        return {"telemetry": True, "cache": ResultCache(self._new_dir())}

    def after_op(self, grid):
        shutil.rmtree(self._last, ignore_errors=True)

    def decomposed(self, rec, grid):
        with rec.span("ResultCache", "repro.sweep.cache"):
            cache = ResultCache(self._new_dir())
        text = decomposed_plain(rec, self.grids[grid], cache)
        self.after_op(grid)
        return text


class SweepCached(_Sweep):
    telemetry = True

    def setup(self) -> None:
        super().setup()
        self.filled = {}
        for grid, points in self.grids.items():
            root = os.path.join(self.ctx.tmp, f"filled-{os.getpid()}-{grid}")
            result = run_sweep(points, jobs=self.ctx.jobs, telemetry=True,
                               cache=ResultCache(root))
            self.seen[grid][digest(result.canonical())] += 1
            self.filled[grid] = root

    def sweep_kwargs(self, grid):
        return {"telemetry": True, "cache": ResultCache(self.filled[grid])}

    def decomposed(self, rec, grid):
        with rec.span("ResultCache", "repro.sweep.cache"):
            cache = ResultCache(self.filled[grid])
        return decomposed_plain(rec, self.grids[grid], cache)


class SweepWarm(_Sweep):
    def sweep_kwargs(self, grid):
        return {"warm": True}

    def decomposed(self, rec, grid):
        return decomposed_warm(rec, self.grids[grid])


class SweepIncremental(_Sweep):
    def sweep_kwargs(self, grid):
        return {"incremental": True}

    def decomposed(self, rec, grid):
        return decomposed_incremental(rec, self.grids[grid])
