"""Layer probes: the per-layer metrics of a traced run.

Every traced run, whatever its workload, runs this one probe script, so
every per-layer metric is really measured in every traced run.  A probe
times calls into one layer's public functions from outside, through the
span recorder; a metric is an aggregate of the spans of one name
(median, with its sample count).  Exact counts (simulated cycles, kernel
counters, sweep accounting) are returned as facts as well and held
against ``bench/expected.json``.

Only the workload-dependent metrics (``share.*``, ``trace.*`` and
``compile.fallbacks``) come from the traced pass of the workload itself;
see ``child.py``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time

from repro import observe, registry
from repro.compile import compile_cache_stats
from repro.compile.capability import check as capability_check
from repro.design import elaborate, lint, lower
from repro.experiments import li_latency
from repro.jobs import JobRequest, execute
from repro.kernel.backend import use_backend
from repro.soc.chip import PrototypeSoC
from repro.sweep import ResultCache, canonical_digest, run_sweep
from repro.workloads import run_workload, vector_scale_workload

from spans import duration, durations_named
from workloads import Context
from workloads.cli import run_verb, verb_argv
from workloads.soc import Fig3Op, SocOp, fast_programs, rtl_gals_ops
from workloads.sweep import (accounting, build_grids, decomposed_incremental,
                             decomposed_plain, decomposed_warm, digest,
                             reference_digests)

MS, US = 1e3, 1e6


class Probes:
    """Runs the probe script; collects metrics, facts and failures."""

    def __init__(self, ctx: Context, rec) -> None:
        self.ctx = ctx
        self.rec = rec
        self.metrics = {}     # name -> (value, samples)
        self.facts = {}
        self.failures = []
        self.attempted = 0
        self.quartiles = {}   # name -> (q1, q3) where the spread matters

    # -- helpers -------------------------------------------------------
    def put(self, name: str, value: float, n: int = 1) -> None:
        self.metrics[name] = (value, n)

    def exact(self, name: str, value) -> None:
        self.metrics[name] = (value, 1)
        self.facts[name] = value

    def median_of(self, metric: str, samples, scale: float = 1.0) -> None:
        self.put(metric, statistics.median(samples) * scale, len(samples))

    def spans_under(self, prefix: str) -> list:
        """Spans of the operations whose root name starts with ``prefix``."""
        ops = {s["op"] for s in self.rec.spans
               if s["parent"] is None and s["name"].startswith(prefix)}
        return [s for s in self.rec.spans if s["op"] in ops]

    def op(self, name: str):
        self.attempted += 1
        return self.rec.op(name)

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.failures.append(f"probe {what}: {got!r} != {want!r}")

    def run(self) -> None:
        self.cli()
        self.jobs()
        self.soc_and_compile()
        self.design()
        self.kernel()
        self.sweeps()

    # -- repro.cli / repro.registry --------------------------------------
    def _python(self, code: str, reps: int, name: str) -> list:
        out = []
        for _ in range(reps):
            with self.op(f"probe/cli/{name}"):
                with self.rec.span(name, "repro.cli") as span:
                    proc = subprocess.run([sys.executable, "-c", code],
                                          capture_output=True, text=True)
            if proc.returncode != 0:
                self.failures.append(f"probe {name}: {proc.stderr[-200:]}")
            out.append((duration(span), proc.stdout))
        return out

    def cli(self) -> None:
        reps = self.ctx.cfg["probes"]
        floor = statistics.median(
            d for d, _ in self._python("pass", reps["python_floor"], "floor"))
        self.put("cli.python_floor_ms", floor * MS, reps["python_floor"])
        imp = [d for d, _ in self._python("import repro.cli",
                                          reps["cli_import"], "import")]
        self.put("cli.import_ms", (statistics.median(imp) - floor) * MS,
                 len(imp))
        # First registry.load() of a fresh interpreter, timed inside it.
        load = self._python(
            "import time; from repro import registry; "
            "t = time.perf_counter(); registry.load(); "
            "print(time.perf_counter() - t)", reps["registry_load"], "load")
        self.median_of("registry.load_ms",
                       [float(text) for _, text in load if text.strip()], MS)
        for verb in self.ctx.cfg["cli_verbs"]:
            argv = verb_argv(verb, self.ctx.seed)
            with self.op(f"probe/cli/verb/{verb['name']}"):
                with self.rec.span(verb["name"], "repro.cli") as span:
                    proc = run_verb(argv, self.ctx.tmp)
            if proc.returncode != 0 or verb["marker"] not in proc.stdout:
                self.failures.append(f"probe verb {verb['name']} failed")
            self.put(f"cli.verb_ms.{verb['name']}", duration(span) * MS)

    # -- repro.jobs ------------------------------------------------------
    def jobs(self) -> None:
        """Dispatch overhead of ``jobs.execute`` over the bare runner.

        Alternating pairs, so drift hits both sides; reported with its
        quartiles so a value inside the noise reads as unresolved.
        """
        pairs = self.ctx.cfg["probes"]["jobs_pairs"]
        runner = registry.get("backend").runner
        request = JobRequest("backend")
        diffs = []
        with self.op("probe/jobs"):
            with self.rec.span("execute-vs-runner pairs", "repro.jobs"):
                for i in range(pairs):
                    order = (0, 1) if i % 2 else (1, 0)
                    took = [0.0, 0.0]
                    for side in order:
                        t0 = time.perf_counter()
                        if side:
                            execute(request)
                        else:
                            runner({}, None)
                        took[side] = time.perf_counter() - t0
                    diffs.append(took[1] - took[0])
        q1, med, q3 = statistics.quantiles(diffs, n=4)
        self.put("jobs.execute_overhead_us", med * US, pairs)
        self.quartiles["jobs.execute_overhead_us"] = (q1 * US, q3 * US)

    # -- repro.workloads / repro.soc / repro.compile ---------------------
    def soc_and_compile(self) -> None:
        seed = self.ctx.seed
        with self.op("probe/workloads/generate"):
            with self.rec.span("generate six programs",
                               "repro.workloads") as span:
                programs = fast_programs(self.ctx.cfg["soc_programs"], seed)
        self.put("workloads.generate_ms", duration(span) * MS)
        self.programs = programs
        cycles = 0
        for w in programs:
            op = SocOp(w.name, w, backend="compiled")
            with self.op(f"probe/compiled/{w.name}"):
                soc = op.run(self.rec)
            out = op.check(soc)
            cycles += out.work
            self.exact(f"sim.cycles.{w.name}", out.work)
            self.expect(f"backend of {w.name}", soc.sim.backend, "compiled")
        spans = self.spans_under("probe/compiled/")
        self.median_of("soc.construct_ms",
                       durations_named(spans, "PrototypeSoC"), MS)
        self.median_of("soc.check_ms",
                       durations_named(spans, "workload.check"), MS)
        self.median_of("compile.attach_ms",
                       durations_named(spans, "compile.try_attach"), MS)
        run = durations_named(spans, "soc.run")
        self.put("compile.run_s", sum(run), len(run))
        self.put("compile.us_per_cycle", sum(run) / cycles * US, len(run))
        self.put("compile.cache_hits", compile_cache_stats()["hits"])

    # -- repro.design ----------------------------------------------------
    def design(self) -> None:
        w = self.programs[0]
        builders = {
            "soc": lambda: PrototypeSoC(commands=w.commands).sim,
            "li": lambda: li_latency.build_design(stages=3),
        }
        reps = self.ctx.cfg["probes"]["design_reps"]
        for tag, build in builders.items():
            for _ in range(reps):
                sim = build()
                with self.op(f"probe/design/{tag}"):
                    if tag == "soc":
                        with self.rec.span("capability.check",
                                           "repro.compile"):
                            capability_check(sim)
                    with self.rec.span("elaborate", "repro.design"):
                        graph = elaborate(sim)
                    with self.rec.span("lint", "repro.design"):
                        lint(sim)
                    with self.rec.span("lower", "repro.design"):
                        lower(sim, graph)
            spans = self.spans_under(f"probe/design/{tag}")
            for call in ("elaborate", "lint", "lower"):
                self.median_of(f"design.{call}_ms.{tag}",
                               durations_named(spans, call), MS)
        self.median_of("compile.check_ms", durations_named(
            self.spans_under("probe/design/soc"), "capability.check"), MS)

    # -- repro.kernel / repro.observe / model accuracy -------------------
    def kernel(self) -> None:
        seed, rec = self.ctx.seed, self.rec
        # Threaded fast-mode kernel, telemetry off then on.
        w = self.programs[0]
        op = SocOp(w.name, w, backend="threaded")
        with self.op("probe/threaded/off"):
            soc = op.run(rec)
        off = durations_named(self.spans_under("probe/threaded/off"),
                              "soc.run")[0]
        self.put("kernel.run_s", off)
        self.put("kernel.us_per_cycle.fast", off / soc.elapsed_cycles * US)
        self.expect("threaded cycles", soc.elapsed_cycles,
                    self.facts[f"sim.cycles.{w.name}"])
        cfg = self.ctx.cfg["rtl_gals"]
        sig = Fig3Op("signal-accurate", ports=cfg["fig3_ports"],
                     txns=cfg["fig3_txns"], seed=seed)
        with self.op("probe/threaded/on"):
            with observe.capture() as session:
                op.run(rec)
                sig.run(rec)
            with rec.span("session.report", "repro.observe") as span:
                report = session.report(label="probe")
                observe.to_records(report)
        self.put("observe.report_ms", duration(span) * MS)
        on = self.spans_under("probe/threaded/on")
        self.put("observe.capture_overhead_ratio",
                 durations_named(on, "soc.run")[0] / off)
        for counter in ("events_fired", "timesteps", "delta_cycles",
                        "thread_wakeups", "signal_commits"):
            self.exact(f"kernel.{counter}", report.kernel[counter])
        self.put("kernel.ns_per_event",
                 sum(duration(s) for s in on
                     if s["name"] in ("soc.run", "tb.run"))
                 / report.kernel["events_fired"] * 1e9)

        # Signal-level and multi-clock designs (requested compiled).
        by_style = {"fig3": [0.0, 0], "gals": [0.0, 0], "rtl": [0.0, 0]}
        cycles = {}
        fallbacks = 0
        for op in rtl_gals_ops(self.ctx.cfg["rtl_gals"], seed):
            with self.op(f"probe/rtl_gals/{op.name}"):
                raw = op.run(rec)
            out = op.check(raw)
            self.failures += [f"probe {op.name}: {f}" for f in out.failures]
            self.exact(f"sim.cycles.{op.name}", out.work)
            cycles[op.name] = out.work
            fallbacks += out.facts[f"backend.{op.name}"] != "compiled"
            run = [duration(s)
                   for s in self.spans_under(f"probe/rtl_gals/{op.name}")
                   if s["name"] in ("soc.run", "tb.run")][0]
            style = by_style[op.name.split("_")[0]]
            style[0] += run
            style[1] += out.work
        for style, (seconds, cyc) in by_style.items():
            self.put(f"kernel.us_per_cycle.{style}", seconds / cyc * US)
        self.facts["probe.rtl_gals_fallbacks"] = fallbacks

        # The RTL models are the repo's reference: error beside speed.
        rtl = cycles["fig3_rtl"]
        for model in ("sim_accurate", "signal_accurate"):
            self.exact(f"accuracy.fig3_{model}_error",
                       abs(cycles[f"fig3_{model}"] - rtl) / rtl)
        small = self.ctx.cfg["rtl_gals"]["rtl_soc"]
        with use_backend("threaded"):
            fast = run_workload(vector_scale_workload(seed=seed * 100,
                                                      **small))
        self.exact("accuracy.soc_fast_vs_rtl_error",
                   abs(fast.elapsed_cycles - cycles["rtl_soc"])
                   / cycles["rtl_soc"])

    # -- repro.sweep.* / repro.trace ---------------------------------------
    def _cache_dir(self, tag: str) -> str:
        return os.path.join(self.ctx.tmp, f"probe-{os.getpid()}-{tag}")

    def _real(self, grids, mode: str, reference, **kwargs) -> dict:
        """One real ``run_sweep`` per grid; accounting facts and digests."""
        results = {}
        for grid, points in grids.items():
            extra = {k: v(grid) if callable(v) else v
                     for k, v in kwargs.items()}
            with self.op(f"probe/sweep/{mode}/{grid}"):
                with self.rec.span("run_sweep", "repro.sweep.engine"):
                    results[grid] = run_sweep(points, jobs=self.ctx.jobs,
                                              **extra)
            self.expect(f"{mode} {grid} canonical",
                        digest(results[grid].canonical()), reference[grid])
        return results

    def sweeps(self) -> None:
        ctx, rec = self.ctx, self.rec
        with self.op("probe/sweep/space"):
            with rec.span("sweep_space", "repro.experiments") as span:
                grids = build_grids(ctx.cfg["sweeps"], ctx.seed)
        self.put("sweep.engine.space_ms", duration(span) * MS)
        ref_on = reference_digests(ctx, grids, True)
        ref_off = reference_digests(ctx, grids, False)

        # The four execution modes through the real engine.
        caches = {}

        def cache_for(grid):
            caches[grid] = ResultCache(self._cache_dir(f"real-{grid}"))
            return caches[grid]

        fresh = self._real(grids, "fresh", ref_on, telemetry=True,
                           cache=cache_for)
        cached = self._real(grids, "cached", ref_on, telemetry=True,
                            cache=cache_for)
        lookups = sum(c.stats.lookups for c in caches.values())
        self.put("sweep.cache.hit_ratio",
                 sum(c.stats.hits for c in caches.values()) / lookups,
                 lookups)
        warm = self._real(grids, "warm", ref_off, warm=True)
        incr = self._real(grids, "incremental", ref_off, incremental=True)
        jobs = ctx.jobs
        busy = [o.wall_seconds for r in fresh.values() for o in r.outcomes]
        wall = sum(r.wall_seconds for r in fresh.values())
        self.median_of("sweep.engine.point_busy_ms", busy, MS)
        self.put("sweep.engine.overhead_s", wall - sum(busy) / jobs)
        self.put("sweep.engine.pool_efficiency", sum(busy) / (jobs * wall))
        for grid in grids:
            modes = {"fresh": fresh[grid], "cached": cached[grid],
                     "warm": warm[grid], "incremental": incr[grid]}
            acct = {m: accounting(r) for m, r in modes.items()}
            for name, mode in (("executed", "fresh"),
                               ("cache_hits", "cached"),
                               ("warm_groups", "warm"),
                               ("warm_points", "warm"),
                               ("restores", "warm"),
                               ("derived", "incremental"),
                               ("captures", "incremental"),
                               ("fallbacks", "incremental")):
                self.exact(f"sweep.engine.{name}.{grid}", acct[mode][name])
            for name in ("retried", "errors"):
                self.exact(f"sweep.engine.{name}.{grid}",
                           sum(a[name] for a in acct.values()))
            self.exact(f"trace.derived_ratio.{grid}",
                       acct["incremental"]["derived"] / len(grids[grid]))
        warm_points = sum(r.warm_points for r in warm.values())
        self.put("sweep.warm.restore_ratio",
                 sum(r.restores for r in warm.values()) / warm_points,
                 warm_points)
        self.exact("trace.fallbacks",
                   sum(accounting(r)["fallbacks"] for r in incr.values()))

        # The same modes serially, one span per public call.
        for grid, points in grids.items():
            with self.op(f"probe/decomposed/fresh/{grid}"):
                cache = ResultCache(self._cache_dir(f"serial-{grid}"))
                text = decomposed_plain(rec, points, cache)
            self.expect(f"decomposed fresh {grid}", digest(text),
                        ref_on[grid])
            with self.op(f"probe/decomposed/cached/{grid}"):
                text = decomposed_plain(rec, points, ResultCache(cache.root))
            self.expect(f"decomposed cached {grid}", digest(text),
                        ref_on[grid])
            with self.op(f"probe/decomposed/warm/{grid}"):
                text = decomposed_warm(rec, points)
            self.expect(f"decomposed warm {grid}", digest(text),
                        ref_off[grid])
            with self.op(f"probe/decomposed/incremental/{grid}"):
                text = decomposed_incremental(rec, points)
            self.expect(f"decomposed incremental {grid}", digest(text),
                        ref_off[grid])
        li = self.spans_under("probe/decomposed/cached/li_grid")
        self.median_of("observe.merge_ms",
                       durations_named(li, "SweepResult.report"), MS)
        self.median_of("sweep.serialize.canonical_ms",
                       durations_named(li, "SweepResult.canonical"), MS)
        warm_spans = self.spans_under("probe/decomposed/warm/")
        self.median_of("sweep.warm.build_ms",
                       durations_named(warm_spans, "BatchAdapter.build"), MS)
        self.median_of("kernel.snapshot_capture_ms",
                       durations_named(warm_spans, "sim.snapshot"), MS)
        restores = durations_named(warm_spans, "sim.restore")
        self.median_of("kernel.restore_ms", restores, MS)
        self.median_of("sweep.warm.point_ms",
                       [run + back for run, back in zip(
                           durations_named(warm_spans, "execute_warm"),
                           restores)], MS)
        incr_spans = self.spans_under("probe/decomposed/incremental/")
        self.median_of("trace.capture_ms", durations_named(
            incr_spans, "ReplayAdapter.capture"), MS)
        self.median_of("trace.replay_us",
                       durations_named(incr_spans, "replay"), US)

        self.cache(fresh["li_grid"].outcomes[0])
        for tag in [f"real-{g}" for g in grids] \
                + [f"serial-{g}" for g in grids] + ["puts"]:
            shutil.rmtree(self._cache_dir(tag), ignore_errors=True)

    def cache(self, outcome) -> None:
        """ResultCache micro-probes on a directory of ``cache_puts`` entries.

        ``put_ms_full`` is the median of the last ``cache_full_tail``
        puts, when the directory is nearly full: it exposes the per-put
        directory rescan that ``put_ms`` (all puts) averages away.
        """
        cfg, rec = self.ctx.cfg["probes"], self.rec
        value = {"result": outcome.result, "telemetry": outcome.telemetry}
        periods = cfg["cache_puts"] // 24  # 24 li points per period
        points, absent = [], []
        for period in range(5, 5 + periods):
            points += li_latency.sweep_space(
                probabilities=(0.0, 0.2, 0.4), trials=1, period=period)
            absent += li_latency.sweep_space(
                probabilities=(0.0, 0.2, 0.4), trials=1, period=period + 100)
        root = self._cache_dir("puts")
        with self.op("probe/cache"):
            with rec.span("ResultCache", "repro.sweep.cache"):
                cache = ResultCache(root)
            for point in points:
                with rec.span("cache.key_for", "repro.sweep.cache"):
                    cache.key_for(point)
                with rec.span("cache.put", "repro.sweep.cache"):
                    cache.put(point, value, cost=outcome.wall_seconds)
            for point in points[:cfg["cache_gets"]]:
                with rec.span("cache.get hit", "repro.sweep.cache"):
                    hit = cache.get(point)
                self.expect("cache hit", hit is not None, True)
            for point in absent[:cfg["cache_gets"]]:
                with rec.span("cache.get miss", "repro.sweep.cache"):
                    cache.get(point)
            for _ in range(cfg["cache_reps"]):
                with rec.span("cache.flush_stats", "repro.sweep.cache"):
                    cache.flush_stats()
                with rec.span("cache.describe", "repro.sweep.cache"):
                    described = cache.describe()
                with rec.span("ResultCache reopen", "repro.sweep.cache"):
                    ResultCache(root)
            for point in points[:cfg["cache_gets"]]:
                with rec.span("canonical_digest", "repro.sweep.serialize"):
                    canonical_digest(point.identity())
        spans = self.spans_under("probe/cache")
        puts = durations_named(spans, "cache.put")
        self.median_of("sweep.cache.put_ms", puts, MS)
        self.median_of("sweep.cache.put_ms_full",
                       puts[-cfg["cache_full_tail"]:], MS)
        for metric, name, scale in (
                ("sweep.cache.key_us", "cache.key_for", US),
                ("sweep.cache.get_hit_ms", "cache.get hit", MS),
                ("sweep.cache.get_miss_ms", "cache.get miss", MS),
                ("sweep.cache.flush_stats_ms", "cache.flush_stats", MS),
                ("sweep.cache.describe_ms", "cache.describe", MS),
                ("sweep.cache.open_ms", "ResultCache reopen", MS),
                ("sweep.serialize.digest_us", "canonical_digest", US)):
            self.median_of(metric, durations_named(spans, name), scale)
        self.put("sweep.cache.bytes", described["bytes"])
        self.expect("cache entries", described["entries"], len(points))
