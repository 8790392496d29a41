"""Command-line interface: regenerate any of the paper's results.

Usage::

    python -m repro list
    python -m repro fig3 [--ports 2,4,8,16] [--txns 60]
    python -m repro fig6
    python -m repro crossbar-qor
    python -m repro hls-qor
    python -m repro gals
    python -m repro adaptive-clocking
    python -m repro stalls
    python -m repro backend
    python -m repro productivity
    python -m repro run <experiment> [-p KEY=VALUE]...
    python -m repro describe <experiment>
    python -m repro bench [bench/run.py arguments]
    python -m repro sweep <experiment> [--jobs N] [--no-cache] [--cache-dir D]
    python -m repro faults <harness|all> [--cases N] [--seed S]
                                         [--shrink [greedy|hypothesis]]
    python -m repro verify [--profile dev|ci|thorough] [--checks LIST]
                           [--inject none|deadlock|corrupt]

Every verb is a thin shell over the experiment registry
(:mod:`repro.registry`) and the job-oriented execution core
(:mod:`repro.jobs`): the parser, the verb table, the ``sweep`` and
``faults`` choices, and the ``inspect``/``lint`` targets are all
derived from the registered :class:`~repro.registry.ExperimentSpec`\\ s,
so they can never drift from what the system can actually run.
``run <experiment>`` is the generic form of the experiment verbs
(byte-identical output, differentially tested) and ``describe
<experiment>`` prints one spec's parameters and capabilities.

Every experiment verb (and ``run``) also accepts:

* ``--seed N`` — re-seed the experiment's random source (traffic
  patterns, stall injection, supply noise).  Deterministic/analytic
  experiments accept and ignore it.
* ``--json PATH`` — dump the experiment's result dataclasses as JSON
  through the same canonical serializer the sweep cache and merge layer
  use (:mod:`repro.sweep.serialize`).
* ``--backend {threaded,compiled}`` — pick the simulation backend (see
  ``docs/COMPILED_BACKEND.md``).  The compiled backend is byte-identical
  by construction and falls back to the threaded kernel — recording the
  reason — whenever a design uses constructs it cannot prove out.

Parameter sweeps (see ``docs/PERFORMANCE.md``):

* ``sweep <experiment>`` enumerates the experiment's parameter space as
  seeded points and executes them across a process pool, fronted by a
  disk-backed content-addressed result cache — a warm rerun is served
  from cache almost entirely::

      python -m repro sweep stall_verification --jobs 4
      python -m repro sweep fig3_crossbar --jobs 4 --no-cache

* ``sweep <experiment> --incremental`` runs the trace-based incremental
  engine (``docs/INCREMENTAL_SIM.md``): one captured full simulation
  per structural base, analytical replay for every derivable point,
  recorded fallback reasons for the rest; ``stats --cache`` reports the
  result cache's cumulative effectiveness::

      python -m repro sweep li_latency --incremental --jobs 4
      python -m repro stats --cache

Observability (see ``docs/OBSERVABILITY.md``):

* every experiment verb accepts ``--trace-vcd PATH`` — run the
  experiment with auto-watching signal traces enabled and write the
  first simulator's waveforms as a GTKWave-loadable VCD file::

      python -m repro fig3 --ports 2 --txns 10 --trace-vcd out.vcd

* ``inspect <experiment>`` builds (without running) the experiment's
  design, elaborates it, and prints the instance hierarchy with ports,
  threads, channels and clock domains; ``lint <experiment>`` runs the
  static design checks over the same graph and exits non-zero on any
  finding (see ``docs/DESIGN_GRAPH.md``)::

      python -m repro inspect fig6 --max-depth 2
      python -m repro lint fig6

* ``stats <experiment>`` re-runs any experiment with telemetry enabled
  and appends a summary report (kernel event counts, per-channel
  stall/occupancy statistics, NoC utilization, clock-domain activity);
  ``--json PATH`` additionally writes the report as JSONL::

      python -m repro stats fig3 --ports 2,4 --txns 20 --json fig3.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from . import registry

__all__ = ["main"]

# ----------------------------------------------------------------------
# the one shared-flags builder (satellite: no more per-verb copies)
# ----------------------------------------------------------------------
_SEED_HELP = ("re-seed the experiment's random source (accepted and "
              "ignored by deterministic experiments)")
_JSON_HELP = ("dump the result dataclasses as JSON via the canonical "
              "sweep serializer")
_BACKEND_HELP = ("simulation backend (compiled is differentially "
                 "verified byte-identical; falls back to threaded "
                 "when unsupported constructs appear)")
_TRACE_HELP = "record signal waveforms and write a VCD file"


def _add_shared_flags(p: argparse.ArgumentParser, *,
                      seed: Optional[str] = _SEED_HELP,
                      json: Optional[str] = _JSON_HELP,
                      backend: Optional[str] = _BACKEND_HELP,
                      trace_vcd: Optional[str] = _TRACE_HELP) -> None:
    """Add the shared job flags (``--seed/--json/--backend/--trace-vcd``).

    One builder for every verb — pass ``None`` for a flag a verb does
    not take, or a string to override its help text.  This is what
    keeps flag spelling, defaults, and help consistent across the
    experiment verbs, ``run``, ``stats``, ``sweep``, and ``faults``.
    """
    if seed is not None:
        p.add_argument("--seed", type=int, default=None, help=seed)
    if json is not None:
        p.add_argument("--json", metavar="PATH", default=None, help=json)
    if trace_vcd is not None:
        p.add_argument("--trace-vcd", metavar="PATH", default=None,
                       help=trace_vcd)
    if backend is not None:
        p.add_argument("--backend", choices=("threaded", "compiled"),
                       default="threaded", help=backend)


def _add_param_flags(p: argparse.ArgumentParser,
                     params: Tuple[registry.CliParam, ...]) -> None:
    """Add one flag per registered experiment parameter."""
    for param in params:
        p.add_argument(param.flag, dest=param.name, type=param.type,
                       default=param.default, help=param.help)


def _all_cli_params() -> Dict[str, registry.CliParam]:
    """Every distinct experiment parameter, by name (for ``stats``)."""
    out: Dict[str, registry.CliParam] = {}
    for spec in registry.specs():
        for param in spec.params:
            out.setdefault(param.name, param)
    return out


def _spec_params(spec: registry.ExperimentSpec, args) -> Dict[str, object]:
    """Collect one spec's parameter values from parsed args."""
    return {p.name: getattr(args, p.name, p.default) for p in spec.params}


# ----------------------------------------------------------------------
# registry-facing verbs: describe, run parameter parsing, list
# ----------------------------------------------------------------------
def _capability_tags(spec: registry.ExperimentSpec) -> str:
    """Compact capability summary for ``repro list``."""
    tags = ["design" if spec.has_design else "analytic"]
    if spec.sweep is not None:
        tag = f"sweep:{spec.sweep.name}"
        if spec.sweep.replay_kind is not None:
            tag += f" replay:{spec.sweep.replay_kind}"
        if spec.sweep.warm:
            tag += " warm"
        tags.append(tag)
    if spec.harness_name is not None:
        tags.append(f"faults:{spec.harness_name}")
    if spec.compiled:
        tags.append("compiled")
    if spec.seedable:
        tags.append("seed")
    return "[" + ", ".join(tags) + "]"


def _cmd_list() -> int:
    lines = ["available experiments:"]
    for spec in registry.specs():
        if not spec.runnable:
            continue
        lines.append(f"  {spec.name:20s} {spec.summary}")
        lines.append(f"  {'':20s}   {_capability_tags(spec)}")
    lines.append(f"  {'run <experiment>':20s} "
                 "generic registry-driven runner (same output as the "
                 "verbs above)")
    lines.append(f"  {'describe <experiment>':20s} "
                 "show one experiment's parameters and capabilities")
    lines.append(f"  {'sweep <experiment>':20s} "
                 "parallel parameter sweep with result caching")
    lines.append(f"  {'faults <harness|all>':20s} "
                 "seeded fault-injection campaigns, watchdog-triaged")
    lines.append(f"  {'inspect <experiment>':20s} "
                 "elaborate the design, print the hierarchy tree")
    lines.append(f"  {'lint <experiment>':20s} "
                 "static design checks (exit 1 on findings)")
    lines.append(f"  {'stats <experiment>':20s} "
                 "re-run with telemetry, print a stats report")
    lines.append(f"  {'bench':20s} "
                 "run kernel benchmarks (see tools/bench_compare.py)")
    print("\n".join(lines))
    return 0


def _cmd_describe(args) -> int:
    """Print one experiment's registry card: parameters + capabilities."""
    spec = registry.get(args.experiment)
    lines = [f"{spec.name} — {spec.summary}",
             f"  result schema: {spec.schema}/v{spec.schema_version}"]
    if spec.params:
        lines.append("  parameters:")
        for p in spec.params:
            lines.append(f"    {p.flag:14s} default {p.default!r:12} "
                         f"{p.help}")
    else:
        lines.append("  parameters: none")
    lines.append("  seed: " + ("--seed re-seeds the experiment"
                               if spec.seedable else
                               "deterministic (--seed accepted, ignored)"))
    lines.append("  design: " + ("simulated (inspect/lint available)"
                                 if spec.has_design else
                                 "analytic — no simulated design"))
    if spec.sweep is not None:
        sweep_line = f"  sweep: {spec.sweep.name} — {spec.sweep.help}"
        lines.append(sweep_line)
        if spec.sweep.replay_kind is not None:
            lines.append("    incremental replay: "
                         f"{spec.sweep.replay_kind} adapter")
        if spec.sweep.warm:
            lines.append("    warm batching: construct-once batch "
                         "adapter (sweep --warm)")
    else:
        lines.append("  sweep: none")
    lines.append("  fault harness: "
                 + (spec.harness_name or "none"))
    lines.append("  compiled backend: "
                 + ("eligible" if spec.compiled
                    else "always falls back to threaded"))
    print("\n".join(lines))
    return 0


def _parse_run_params(spec: registry.ExperimentSpec, pairs: List[str],
                      parser: argparse.ArgumentParser) -> Dict[str, object]:
    """Parse ``-p KEY=VALUE`` pairs against the spec's declared params."""
    by_name = {p.name: p for p in spec.params}
    params = {p.name: p.default for p in spec.params}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.replace("-", "_")
        if not sep:
            parser.error(f"run: expected -p KEY=VALUE, got {pair!r}")
        if key not in by_name:
            known = ", ".join(sorted(by_name)) or "none"
            parser.error(f"run: {spec.name} has no parameter {key!r} "
                         f"(known: {known})")
        try:
            params[key] = by_name[key].type(value)
        except (TypeError, ValueError) as exc:
            parser.error(f"run: bad value for {key}: {exc}")
    return params


def _format_cache_stats(cache_dir: Optional[str]) -> str:
    """Sweep-cache effectiveness block for ``repro stats --cache``.

    Combines the on-disk state (entries and stored recompute cost, split
    exact / derived / trace) with the cumulative counters the engine
    flushes after every sweep — hits, misses, and the wall-clock seconds
    of simulation the cache has saved so far.
    """
    from .sweep import ResultCache, default_cache_dir

    cache = ResultCache(cache_dir or default_cache_dir())
    info = cache.describe(deep=True)
    by_mode = info["by_mode"]
    cost = info["stored_cost_seconds"]
    p = info["persistent"]
    lines = [f"sweep cache {info['root']} (rev {info['rev']})",
             f"  entries: {info['entries']} ({info['bytes']} bytes): "
             + ", ".join(f"{by_mode[m]} {m}" for m in sorted(by_mode)),
             "  stored recompute cost: "
             + ", ".join(f"{cost[m]:.2f}s {m}" for m in sorted(cost))]
    if p:
        lookups = p.get("hits", 0) + p.get("misses", 0)
        rate = 100 * p.get("hits", 0) / lookups if lookups else 0.0
        lines.append(
            f"  lifetime: {p.get('hits', 0)} hits / "
            f"{p.get('misses', 0)} misses ({rate:.0f}% hit rate); "
            f"{p.get('hits_exact', 0)} exact + "
            f"{p.get('hits_derived', 0)} derived + "
            f"{p.get('hits_trace', 0)} trace")
        lines.append(f"  recompute seconds saved: "
                     f"{p.get('recompute_seconds_saved', 0.0):.2f}")
        lines.append(
            f"  warm batching: {p.get('warm_points', 0)} batched points "
            f"/ {p.get('warm_restores', 0)} snapshot restores / "
            f"{p.get('warm_lowering_hits', 0)} lowering-cache hits")
    else:
        lines.append("  lifetime: no sweeps recorded yet")
    return "\n".join(lines)


def _cmd_inspect(args) -> int:
    """Elaborate an experiment's design and print its hierarchy tree."""
    from .design import elaborate

    try:
        sim = registry.build_design(args.experiment)
    except ValueError as exc:
        print(f"inspect: {exc}")
        return 0
    graph = elaborate(sim)
    print(graph.tree(max_depth=args.max_depth,
                     channels=not args.no_channels))
    return 0


def _cmd_lint(args) -> int:
    """Elaborate an experiment's design and run the static lint rules."""
    from .design import format_findings, lint

    try:
        sim = registry.build_design(args.experiment)
    except ValueError as exc:
        print(f"lint: {exc}")
        return 0
    rules = args.rules.split(",") if args.rules else None
    findings = lint(sim, rules=rules)
    print(f"{args.experiment}: {format_findings(findings)}")
    return 1 if findings else 0


def _cmd_bench(argv: List[str]) -> int:
    """Run ``bench/run.py`` with ``argv``, then the speed-ratio gate
    (``tools/bench_compare.py``) over what it wrote."""
    import pathlib
    import subprocess

    root = pathlib.Path(__file__).resolve().parents[2]
    for script, args in (("bench/run.py", argv),
                         ("tools/bench_compare.py", [])):
        if not (root / script).exists():
            print(f"bench: {script} not found "
                  "(run from a repository checkout)", file=sys.stderr)
            return 2
        code = subprocess.run([sys.executable, str(root / script), *args],
                              cwd=root).returncode
        if code:
            return code
    return 0


def _cmd_sweep(args) -> int:
    """Run an experiment's parameter sweep: pool + result cache."""
    from .sweep import ResultCache, default_cache_dir, run_sweep

    spec = registry.get_sweep(args.experiment)
    points = registry.build_space(args.experiment, seed=args.seed)
    if args.limit is not None:
        points = points[:args.limit]
    if args.backend != "threaded":
        from dataclasses import replace

        points = [replace(p, backend=args.backend) for p in points]
    if not points:
        print(f"sweep {args.experiment}: empty parameter space")
        return 2

    if args.warm and args.incremental:
        print("sweep: --warm and --incremental are mutually exclusive",
              file=sys.stderr)
        return 2
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    # Incremental and warm sweeps run telemetry-free by construction
    # (a replayed point has no kernel to observe; a snapshot-eligible
    # design cannot carry a telemetry hub), so --no-telemetry is
    # implied for both.
    result = run_sweep(points, jobs=args.jobs, cache=cache,
                       timeout=args.timeout,
                       telemetry=not (args.no_telemetry
                                      or args.incremental or args.warm),
                       incremental=args.incremental,
                       warm=args.warm)

    extras = []
    if spec.summarize is not None and result.ok_results:
        extras.append(spec.summarize(result.ok_results))
    extras.append(result.summary())
    if result.fallback_reasons:
        lines = ["fallbacks to full simulation:"]
        for reason, count in sorted(result.fallback_reasons.items()):
            lines.append(f"  {count:4d} x {reason}")
        extras.append("\n".join(lines))
    if cache is not None:
        s = cache.stats
        line = (f"cache {cache.root}: {s.hits} hits / {s.misses} "
                f"misses ({100 * s.hit_rate:.0f}% hit rate)")
        if s.hits:
            line += (f"; {s.hits_exact} exact + {s.hits_derived} derived "
                     f"+ {s.hits_trace} trace, "
                     f"{s.recompute_seconds_saved:.2f}s recompute saved")
        extras.append(line)
    for outcome in result.outcomes:
        if outcome.status == "error":
            extras.append(f"ERROR {outcome.point.label}: {outcome.error} "
                          f"(after {outcome.attempts} attempts)")
    if args.json:
        from .sweep import dump_json

        dump_json(result.to_payload(), args.json)
        extras.append(f"wrote {args.json}")
    print("\n\n".join(extras))
    return 1 if result.errors else 0


def _cmd_faults(args) -> int:
    """Run seeded fault-injection campaigns through the sweep engine."""
    from .faults import campaign
    from .sweep import run_sweep
    from .sweep.serialize import NONDETERMINISTIC_FIELDS, to_jsonable

    experiments = None if args.experiment == "all" else [args.experiment]
    points = campaign.sweep_space(experiments=experiments, cases=args.cases,
                                  seed=args.seed if args.seed is not None
                                  else 0)
    # No cache: campaigns are cheap and their point of existence is
    # re-executing the design under faults, not replaying old results.
    result = run_sweep(points, jobs=args.jobs, timeout=args.timeout,
                       telemetry=False)
    records = result.ok_results
    extras = [campaign.summarize_sweep(records)] if records else []
    extras.append(result.summary())

    failures = [rec for rec in records if not rec.get("ok", False)]
    for outcome in result.outcomes:
        if outcome.status == "error":
            extras.append(f"ERROR {outcome.point.label}: {outcome.error}")
    if args.shrink:
        shrinker = campaign.shrink
        if args.shrink == "hypothesis":
            from .verify import hypothesis_available

            if hypothesis_available():
                from .verify.shrinking import shrink_plan
                shrinker = shrink_plan
            else:
                extras.append("--shrink hypothesis: hypothesis not "
                              "installed (pip install 'repro[test]'); "
                              "falling back to the greedy shrinker")
        for rec in failures:
            plan = campaign.default_plan(rec["experiment"], rec["seed"])
            small = shrinker(rec["experiment"], plan, rec["seed"],
                             rec["outcome"])
            extras.append(
                f"shrunk {rec['experiment']} seed={rec['seed']} "
                f"({rec['outcome']}) to {len(small.directives)} "
                f"directive(s): "
                + ", ".join(f"{d.kind}@{d.target}"
                            for d in small.directives))
    if args.json:
        import json as _json

        # Byte-reproducible payload: point identities + classification
        # records only (no wall-clock fields).
        payload = to_jsonable(
            {"experiment": "fault_campaign",
             "points": [p.identity() for p in result.points],
             "results": result.results},
            exclude=NONDETERMINISTIC_FIELDS)
        with open(args.json, "w") as fh:
            fh.write(_json.dumps(payload, sort_keys=True, indent=1) + "\n")
        extras.append(f"wrote {args.json}")
    print("\n\n".join(extras))
    return 1 if (failures or result.errors) else 0


def _write_vcd_from(session, path: str) -> str:
    """Export the capture session's best trace; returns a status line."""
    from .kernel.tracing import write_vcd

    trace = session.best_trace() if session is not None else None
    if trace is None:
        return (f"--trace-vcd: no signal activity recorded "
                f"(nothing written to {path})")
    try:
        with open(path, "w") as fh:
            write_vcd(trace, fh)
    except OSError as exc:
        return f"--trace-vcd: cannot write {path}: {exc.strerror}"
    return (f"wrote {path}: {len(trace.signals)} signals, "
            f"{len(trace.changes)} value changes (open with gtkwave)")


def _build_parser() -> argparse.ArgumentParser:
    """Build the full CLI parser from the experiment registry."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate results from the DAC'18 modular VLSI flow "
                    "paper reproduction.",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")

    runnable = registry.names(runnable=True)
    for name in runnable:
        spec = registry.get(name)
        p = sub.add_parser(name, help=spec.summary)
        _add_param_flags(p, spec.params)
        _add_shared_flags(p)

    run_p = sub.add_parser(
        "run",
        help="run any registered experiment through the job core "
             "(byte-identical to its dedicated verb)")
    run_p.add_argument("experiment", choices=runnable,
                       help="which registered experiment to run")
    run_p.add_argument("-p", "--param", action="append", default=[],
                       metavar="KEY=VALUE", dest="params",
                       help="override one experiment parameter "
                            "(repeatable; see 'describe' for the list)")
    _add_shared_flags(run_p)

    desc_p = sub.add_parser(
        "describe",
        help="show one experiment's registry card: parameters, sweep, "
             "fault harness, backend eligibility, result schema")
    desc_p.add_argument("experiment", choices=runnable,
                        help="which experiment to describe")

    sub.add_parser(
        "bench",
        help="run bench/run.py with the arguments that follow, then the "
             "speed-ratio gate over its results")

    sweep_p = sub.add_parser(
        "sweep",
        help="run an experiment's parameter sweep across a process pool "
             "with content-addressed result caching")
    sweep_p.add_argument("experiment",
                         choices=sorted(registry.sweep_names()),
                         help="which sweep space to run")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1 = serial, default)")
    sweep_p.add_argument("--limit", type=int, default=None,
                         help="only run the first N points of the space")
    sweep_p.add_argument("--timeout", type=float, default=None,
                         help="per-point wall-clock budget in seconds")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="execute every point, bypassing the cache")
    sweep_p.add_argument("--cache-dir", metavar="PATH", default=None,
                         help="cache directory (default: "
                              "$REPRO_SWEEP_CACHE or ~/.cache/repro/sweeps)")
    sweep_p.add_argument("--no-telemetry", action="store_true",
                         help="skip per-point telemetry capture")
    sweep_p.add_argument("--incremental", action="store_true",
                         help="trace-based incremental re-simulation: "
                              "capture one full simulation per structural "
                              "base, replay every derivable point "
                              "analytically (implies --no-telemetry; "
                              "points replay refuses fall back to full "
                              "simulation with the reason recorded)")
    sweep_p.add_argument("--warm", action="store_true",
                         help="construct-once batched execution: group "
                              "points by structural digest, build each "
                              "group's design once in persistent warm "
                              "workers, evaluate every point via kernel "
                              "snapshot/restore (implies --no-telemetry; "
                              "byte-identical results, see "
                              "docs/PERFORMANCE.md)")
    _add_shared_flags(
        sweep_p,
        seed="re-seed the whole sweep space",
        json="write points, results and engine/cache statistics as JSON",
        backend="simulation backend for every point (enters the cache "
                "key for non-default values)",
        trace_vcd=None)

    faults_p = sub.add_parser(
        "faults",
        help="run seeded fault-injection campaigns with watchdog triage "
             "(exit 1 on any undiagnosed hang, crash, or escape)")
    faults_p.add_argument("experiment",
                          choices=(*registry.harness_names(), "all"),
                          help="which harness to fault (or 'all' for the "
                               "default matrix)")
    faults_p.add_argument("--cases", type=int, default=4,
                          help="seeded cases per harness (default 4)")
    faults_p.add_argument("--jobs", type=int, default=1,
                          help="worker processes (1 = serial, default)")
    faults_p.add_argument("--timeout", type=float, default=None,
                          help="per-case wall-clock budget in seconds")
    faults_p.add_argument("--shrink", nargs="?", const="hypothesis",
                          choices=("greedy", "hypothesis"), default=None,
                          help="reduce each failing case to a minimal "
                               "fault schedule preserving its outcome "
                               "class; bare flag uses the Hypothesis "
                               "subset shrinker, 'greedy' the 1-minimal "
                               "removal pass")
    _add_shared_flags(
        faults_p,
        seed="base seed for the campaign (default 0)",
        json="write byte-reproducible campaign records as JSON",
        backend=None, trace_vcd=None)

    inspect_p = sub.add_parser(
        "inspect",
        help="elaborate an experiment's design, print the hierarchy tree")
    inspect_p.add_argument("experiment", choices=sorted(runnable),
                           help="which experiment's design to elaborate")
    inspect_p.add_argument("--max-depth", type=int, default=None,
                           help="truncate the tree below this depth")
    inspect_p.add_argument("--no-channels", action="store_true",
                           help="omit channel rows from the tree")

    lint_p = sub.add_parser(
        "lint",
        help="run static design lint on an experiment (exit 1 on findings)")
    lint_p.add_argument("experiment", choices=sorted(runnable),
                        help="which experiment's design to lint")
    lint_p.add_argument("--rules", default=None,
                        help="comma-separated rule subset (default: all)")

    stats = sub.add_parser(
        "stats",
        help="run an experiment with telemetry enabled, print a report; "
             "--cache reports sweep-cache effectiveness")
    stats.add_argument("experiment", choices=sorted(runnable),
                       nargs="?", default=None,
                       help="which experiment to instrument (optional "
                            "with --cache)")
    stats.add_argument("--cache", action="store_true",
                       help="append sweep-cache effectiveness: hit/miss "
                            "counts, exact-vs-derived breakdown, "
                            "recompute-seconds saved")
    stats.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="cache directory (default: "
                            "$REPRO_SWEEP_CACHE or ~/.cache/repro/sweeps)")
    _add_param_flags(stats, tuple(_all_cli_params().values()))
    _add_shared_flags(
        stats,
        seed="re-seed the experiment's random source",
        json="also write the telemetry report as JSONL",
        backend="requested simulation backend (telemetry forces a "
                "threaded fallback; the report's provenance line "
                "records what actually ran)",
        trace_vcd="also write signal waveforms as a VCD file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``.

    Usage::

        python -m repro <experiment> [experiment flags] [--trace-vcd PATH]
        python -m repro run <experiment> [-p KEY=VALUE]... [--json PATH]
        python -m repro stats <experiment> [...] [--json PATH]
        python -m repro sweep <experiment> [--jobs N] [--no-cache]

    Returns the process exit code (0 on success).
    """
    parser = _build_parser()
    # `bench` has no flags of its own: what follows it is bench/run.py's.
    args, rest = parser.parse_known_args(argv)
    if args.command == "bench":
        return _cmd_bench(rest)
    if rest:
        parser.error("unrecognized arguments: " + " ".join(rest))

    if args.command in (None, "list"):
        return _cmd_list()
    if args.command == "describe":
        return _cmd_describe(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command == "lint":
        return _cmd_lint(args)

    want_stats = args.command == "stats"
    if want_stats and args.experiment is None:
        if not args.cache:
            parser.error("stats: name an experiment, pass --cache, "
                         "or both")
        print(_format_cache_stats(args.cache_dir))
        return 0

    # Everything below is one experiment execution routed through the
    # job core: the dedicated verbs, the generic `run`, and `stats` all
    # build the same JobRequest and differ only in presentation.
    if args.command == "run":
        target = args.experiment
        spec = registry.get(target)
        params = _parse_run_params(spec, args.params, parser)
    else:
        target = args.experiment if want_stats else args.command
        spec = registry.get(target)
        params = _spec_params(spec, args)

    from .jobs import JobRequest, execute
    from .verify import VerifyUnavailable

    trace_path = args.trace_vcd
    try:
        result = execute(
            JobRequest(experiment=target, params=params, seed=args.seed,
                       backend=args.backend, telemetry=want_stats,
                       trace_signals=bool(trace_path)),
            telemetry_label=target)
    except VerifyUnavailable as exc:
        print(exc)
        return 2

    extras = [result.text]
    if not (want_stats or trace_path):
        if args.backend != "threaded":
            extras.append(result.provenance())
        if args.json:
            result.write_json(args.json)
            extras.append(f"wrote {args.json}")
        print("\n\n".join(extras))
        return _experiment_exit_code(target, result.payload)

    if trace_path:
        extras.append(_write_vcd_from(result.session, trace_path))
    if want_stats:
        from . import observe

        report = result.session.report(label=target)
        extras.append(observe.format_report(report))
        extras.append(result.provenance())
        if args.cache:
            extras.append(_format_cache_stats(args.cache_dir))
        if args.json:
            with open(args.json, "w") as fh:
                n = observe.write_jsonl(observe.to_records(report), fh)
            extras.append(f"wrote {args.json}: {n} JSONL records")
    elif args.json:
        result.write_json(args.json)
        extras.append(f"wrote {args.json}")
    print("\n\n".join(extras))
    return _experiment_exit_code(target, result.payload)


def _experiment_exit_code(target: str, payload) -> int:
    # `verify` is a gate, not a figure: a campaign whose oracles were
    # violated exits non-zero, like `faults` and `lint` do.
    if target == "verify" and isinstance(payload, dict) \
            and not payload.get("ok", True):
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
