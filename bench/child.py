"""One fresh interpreter measuring one workload (spawned by ``run.py``).

Untraced: set up (imports, ``registry.load()``, input generation, cache
pre-population, one warm-up pass), then run timed passes in a closed
loop until the time share given by the driver is used and the pinned
minimum of passes is done; every time is reported raw, with the factors
that turn it into calibrated seconds (see ``calibrate.py``).  Traced: set up,
one untraced and one traced pass (their ratio is the tracing overhead),
the workload's serial decomposition, then the layer probes.  The result
is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402

#: Span layers whose share of a traced pass is reported (``share.<layer>``).
SHARE_LAYERS = ("repro.cli", "repro.jobs", "repro.workloads", "repro.soc",
                "repro.experiments", "repro.compile", "repro.kernel",
                "repro.observe", "repro.sweep.engine", "repro.sweep.cache",
                "repro.sweep.serialize", "repro.sweep.warm", "repro.trace")


def cpu_seconds() -> float:
    """User+sys CPU of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


class Expectations:
    """Pinned exact counts of one section of ``bench/expected.json``.

    ``any_seed`` facts hold for every seed, ``default_seed`` facts only
    for the seed they were pinned at.
    """

    def __init__(self, path: str, section: str, seed: int, enabled: bool):
        self.pinned = {}
        if not (enabled and os.path.exists(path)):
            return
        with open(path) as fh:
            data = json.load(fh)
        entry = data["sections"].get(section, {})
        self.pinned = dict(entry.get("any_seed", {}))
        if seed == data["default_seed"]:
            self.pinned.update(entry.get("default_seed", {}))

    def drift(self, facts: dict) -> list:
        return [f"{name} = {value!r}, pinned {self.pinned[name]!r}"
                for name, value in facts.items()
                if name in self.pinned and self.pinned[name] != value]


def run_pass(wl, rec, expect: Expectations, cal: Calibrator = None) -> dict:
    """One pass: every op once, timed around ``Op.run`` only; calibration
    samples are taken between ops, outside their timing."""
    ops, failures, facts = [], [], {}
    for op in wl.ops:
        if cal is not None:
            cal.refresh()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            with rec.op(op.name, attributed=op.attributed):
                raw = op.run(rec)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed operation
            error = f"{type(exc).__name__}: {exc}"
        seconds, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        if error is None:
            out = op.check(raw)
            found = out.failures + expect.drift(out.facts)
            facts.update(out.facts)
            work = out.work
        else:
            found, work = [error], 0
        failures += [f"{op.name}: {f}" for f in found]
        ops.append({"name": op.name, "start": t0, "seconds": seconds,
                    "cpu": cpu, "work": work, "failed": bool(found)})
    return {"ops": ops, "failures": failures, "facts": facts,
            "wall_s": sum(o["seconds"] for o in ops),
            "work": sum(o["work"] for o in ops)}


def finish(wl, expect: Expectations, result: dict, passes: list) -> None:
    """Deferred checks, then totals over ``passes`` (warm-up included)."""
    late = wl.finish()
    failures = late.failures + expect.drift(late.facts)
    facts = dict(late.facts)
    attempted, failed = 0, len(failures)
    for p in passes:
        attempted += len(p["ops"])
        failed += sum(o["failed"] for o in p["ops"])
        failures += p["failures"]
        facts.update(p["facts"])
    result.update(attempted=attempted, failed=min(attempted, failed),
                  failures=failures[:20], facts=facts)


def untraced(wl, expect, warm_up: dict, seconds: float, min_passes: int,
             cal: Calibrator, result: dict) -> None:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, spans.NullRecorder(), expect, cal))
        # At least the pinned number of passes, however slow the code or
        # the host; beyond that, stop when another pass would overshoot
        # the share by more than half a pass.
        if (len(passes) >= min_passes
                and time.perf_counter() - start + passes[-1]["wall_s"] / 2
                >= seconds):
            break
    cal.sample(3)
    finish(wl, expect, result, [warm_up] + passes)
    # Per op kind, one entry per pass: raw seconds, raw CPU seconds and
    # the factors (one per probe) that turn either into calibrated seconds.
    ops = result["ops"] = {}
    for p in passes:
        for o in p["ops"]:
            kind = ops.setdefault(o["name"],
                                  {"seconds": [], "cpu": [], "factors": []})
            kind["seconds"].append(o["seconds"])
            kind["cpu"].append(o["cpu"])
            kind["factors"].append(
                cal.factors(o["start"], o["start"] + o["seconds"]))
    result["work"] = [p["work"] for p in passes]
    result["probe_ms"] = {name: [s[name] * 1e3 for _, s in cal.samples]
                          for name in cal.samples[0][1]}


def traced(wl, ctx, expect, probe_expect, warm_up: dict,
           result: dict) -> None:
    import probes

    base = run_pass(wl, spans.NullRecorder(), expect)
    rec = spans.Recorder()
    with_spans = run_pass(wl, rec, expect)
    wl.decompose(rec)
    finish(wl, expect, result, [warm_up, base, with_spans])

    # Attribution uses the decomposed operations only.
    mine = spans.attributed(rec.spans)
    roots = sum(1 for s in mine if s["parent"] is None)
    share = spans.layer_share_pct(mine)
    metrics = {f"share.{layer}": (share.get(layer, 0.0), roots)
               for layer in SHARE_LAYERS}
    metrics["trace.uncovered_pct"] = (100.0 * spans.uncovered_ratio(mine),
                                      roots)
    metrics["trace_overhead_ratio"] = (with_spans["wall_s"] / base["wall_s"],
                                       len(wl.ops))
    requested = {op.name: op.backend for op in wl.ops
                 if hasattr(op, "backend")}
    metrics["compile.fallbacks"] = (
        sum(1 for name, want in requested.items()
            if with_spans["facts"].get(f"backend.{name}") != want),
        len(requested))

    probe_rec = spans.Recorder()
    suite = probes.Probes(ctx, probe_rec)
    suite.run()
    drift = probe_expect.drift(suite.facts)
    metrics.update(suite.metrics)
    result["attempted"] += suite.attempted
    result["failed"] += min(suite.attempted, len(suite.failures) + len(drift))
    result["failures"] = (result["failures"] + suite.failures + drift)[:20]
    result["probe_facts"] = suite.facts
    result["quartiles"] = suite.quartiles
    result["metrics"] = metrics

    out = os.path.join(ctx.root, "bench", "out")
    os.makedirs(out, exist_ok=True)
    # Span ids restart at 0 in each phase.
    with open(os.path.join(out, f"trace_{ctx.workload}.jsonl"), "w") as fh:
        rec.write_jsonl(fh, workload=ctx.workload, phase="workload")
        probe_rec.write_jsonl(fh, workload=ctx.workload, phase="probe")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.time() when the driver spawned this process")
    ap.add_argument("--no-expect", action="store_true",
                    help="do not hold facts against expected.json (pinning)")
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "config.json")) as fh:
        cfg = json.load(fh)
    ctx = workloads.Context(workload=args.workload, seed=args.seed,
                            tmp=args.tmp, root=os.path.dirname(here), cfg=cfg)
    expected = os.path.join(here, "expected.json")
    expect = Expectations(expected, args.workload, args.seed,
                          not args.no_expect)

    cal = Calibrator()
    cal.sample(3)  # the machine's speed as set-up starts ...
    wl = workloads.load(ctx)
    wl.setup()
    warm_up = run_pass(wl, spans.NullRecorder(), expect)
    raw_setup = time.time() - args.spawned - cal.spent
    cal.sample(3)  # ... and as it ends
    result = {"setup_s": raw_setup,
              "setup_factors": cal.factors(cal.samples[2][0],
                                           cal.samples[3][0]),
              "work_unit": wl.work_unit}
    if args.trace:
        traced(wl, ctx, expect,
               Expectations(expected, "probes", args.seed,
                            not args.no_expect), warm_up, result)
    else:
        untraced(wl, expect, warm_up, args.seconds, args.min_passes, cal,
                 result)
    result["peak_rss_mb"] = peak_rss_mb()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
