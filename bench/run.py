#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (all eight when ``--workload`` is omitted) in fresh
child interpreters, prints every metric by name with its unit and sample
count, verifies the outputs, and prints as the last line of each
workload one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exits non-zero when an operation failed or
when there is no ``src/repro`` beside ``bench/`` to measure.

``--smoke`` is one short child per workload; ``--pin`` re-pins
``bench/expected.json`` at this commit.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = os.path.join(HERE, "out")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def child_env(tmp: str) -> dict:
    """Environment of a child: the checkout's ``src`` first on the path,
    cache keys independent of git state, every cache under ``tmp``."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["REPRO_SWEEP_REV"] = "bench"
    env["REPRO_SWEEP_CACHE"] = os.path.join(tmp, "default-cache")
    # Hash randomisation changes set/dict layouts and with them host time.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_children(workload: str, seed: int, seconds: float, trace: int,
                 children: int, min_passes: int = 1,
                 expect: bool = True) -> list:
    """Spawn ``children`` fresh interpreters one after another; each
    measures for its share of ``seconds`` and for at least ``min_passes``
    passes.  Returns their results."""
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(OUT, "tmp"))
    results = []
    try:
        for k in range(children):
            path = os.path.join(tmp, f"result-{k}.json")
            argv = [sys.executable, os.path.join(HERE, "child.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds / children),
                    "--min-passes", str(min_passes),
                    "--trace", str(trace), "--tmp", tmp, "--result", path,
                    "--spawned", repr(time.time())]
            if not expect:
                argv.append("--no-expect")
            # The child's own prints must not end up after our result line.
            proc = subprocess.run(argv, env=child_env(tmp), cwd=ROOT,
                                  stdout=sys.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"bench: child for {workload} exited "
                                 f"{proc.returncode}")
            results.append(load_json(path))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return results


#: End-to-end metrics that are host times (or have one as denominator).
TIMES = ("setup_s", "wall_s", "op_p50_ms", "work_per_s", "cpu_s")

#: What a time can be read in: calibrated by either probe of
#: ``calibrate.py``, or as measured.
READINGS = ("interpreter", "memory", "raw")


def times(results: list, reading: str) -> dict:
    """The time metrics pooled over the children, in one reading.

    A pass is assembled from each operation kind's median latency (times
    how often the kind occurs in a pass), not taken as the median of whole
    passes: with three passes of six ops one disturbed op would otherwise
    decide the pass.
    """
    passes = sum(len(r["work"]) for r in results)
    kinds = {}
    for r in results:
        for name, kind in r["ops"].items():
            entry = kinds.setdefault(name, {"seconds": [], "cpu": []})
            scale = [f.get(reading, 1.0) for f in kind["factors"]]
            entry["seconds"] += [v * f for v, f in zip(kind["seconds"], scale)]
            entry["cpu"] += [v * f for v, f in zip(kind["cpu"], scale)]
    kind_p50 = [statistics.median(k["seconds"]) for k in kinds.values()]
    per_pass = [len(k["seconds"]) / passes for k in kinds.values()]
    wall = sum(p50 * n for p50, n in zip(kind_p50, per_pass))
    work = statistics.median(w for r in results for w in r["work"])
    return {
        "setup_s": statistics.median(
            r["setup_s"] * r["setup_factors"].get(reading, 1.0)
            for r in results),
        "wall_s": wall,
        # The median *kind*: the plain median of all ops falls between
        # two kinds when a pass has two of them.
        "op_p50_ms": statistics.median(kind_p50) * 1e3,
        "work_per_s": work / wall,
        "cpu_s": sum(statistics.median(k["cpu"]) * n
                     for k, n in zip(kinds.values(), per_pass)),
        "kinds": {name: k["seconds"] for name, k in kinds.items()},
    }


def end_to_end(results: list, probe: str) -> tuple:
    """``metric -> (value, samples)`` pooled over the children, times
    calibrated by ``probe``; and the time metrics in every reading."""
    passes = sum(len(r["work"]) for r in results)
    readings = {reading: times(results, reading) for reading in READINGS}
    kinds = {r: t.pop("kinds") for r, t in readings.items()}[probe]
    ops = [s for samples in kinds.values() for s in samples]
    count = {"setup_s": len(results), "op_p50_ms": len(ops)}
    out = {name: (readings[probe][name], count.get(name, passes))
           for name in TIMES}
    out["peak_rss_mb"] = (max(r["peak_rss_mb"] for r in results),
                          len(results))
    # Diagnostics, not part of the contract.
    for name in TIMES:
        out[f"raw.{name}"] = (readings["raw"][name], count.get(name, passes))
    for kind, samples in kinds.items():
        out[f"op.{kind}_ms"] = (statistics.median(samples) * 1e3,
                                len(samples))
    tail = spans.summarize(ops)
    if tail["tail"] is not None:
        out[f"op_p{tail['tail_pct']:g}_ms"] = (tail["tail"] * 1e3, len(ops))
    for name in results[0]["probe_ms"]:
        loops = [ms for r in results for ms in r["probe_ms"][name]]
        out[f"raw.probe_{name}_ms"] = (statistics.median(loops), len(loops))
    return out, readings


def measure(workload: str, seed: int, seconds: float, trace: int,
            children: int, min_passes: int, probe: str,
            manifest: dict) -> dict:
    results = run_children(workload, seed, seconds, trace, children,
                           min_passes)
    if trace:
        values, readings = results[0]["metrics"], {}
        declared = manifest["per_layer"]
    else:
        values, readings = end_to_end(results, probe)
        declared = manifest["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"bench: {workload} did not measure {missing}")
    quartiles = results[0].get("quartiles", {})
    for name, (value, n) in sorted(values.items()):
        unit = units.get(name, name.rsplit("_", 1)[-1])
        if name.endswith("work_per_s"):
            unit = f"{results[0]['work_unit']}/s"
        note = " (diagnostic)" if name not in units else ""
        if name in quartiles:
            q1, q3 = quartiles[name]
            resolved = "resolved" if q1 > 0 or q3 < 0 else "unresolved"
            note += f" quartiles [{q1:.6g}, {q3:.6g}]: {resolved}"
        print(f"{workload:18s} {name:36s} {value:>14.6g} {unit:8s} "
              f"n={n}{note}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for failure in [f for r in results for f in r["failures"]][:20]:
        print(f"{workload:18s} FAILED {failure}")
    print(f"{workload:18s} {'fail_ratio':36s} {failed / attempted:>14.6g} "
          f"{'ratio':8s} n={attempted}")
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name][0], "unit": unit}
                        for name, unit in units.items()}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result_{workload}_trace{trace}.json"),
              "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, **line,
                   "samples": {k: n for k, (_, n) in values.items()},
                   "readings": readings,
                   "facts": results[0].get("facts", {}),
                   "probe_facts": results[0].get("probe_facts", {})}, fh,
                  indent=1, sort_keys=True)
    return line


def pin(cfg: dict) -> None:
    """Re-pin ``expected.json``: facts that repeat at the default seed are
    pinned for it, those that also hold at another seed for every seed."""
    seed = cfg["default_seed"]
    sections = {}

    def classify(runs: list) -> dict:
        first, again, other = runs
        entry = {"any_seed": {}, "default_seed": {}}
        for name, value in sorted(first.items()):
            if again.get(name) != value:
                continue  # does not repeat: not a fact
            kind = "any_seed" if other.get(name) == value else "default_seed"
            entry[kind][name] = value
        return entry

    for workload in WORKLOADS:
        runs = [run_children(workload, s, 0.0, 0, 1, expect=False)[0]["facts"]
                for s in (seed, seed, seed + 1)]
        sections[workload] = classify(runs)
        print(f"pinned {workload}: "
              f"{len(sections[workload]['any_seed'])} for any seed, "
              f"{len(sections[workload]['default_seed'])} for seed {seed}")
    runs = [run_children("soc_compiled", s, 0.0, 1, 1,
                         expect=False)[0]["probe_facts"]
            for s in (seed, seed, seed + 1)]
    sections["probes"] = classify(runs)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump({"default_seed": seed, "sections": sections}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="one short child per workload")
    ap.add_argument("--pin", action="store_true",
                    help="re-pin bench/expected.json at this commit")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("bench: no src/repro beside bench/ — nothing to measure",
              file=sys.stderr)
        return 2
    manifest = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    cfg = load_json(os.path.join(HERE, "config.json"))
    if args.pin:
        pin(cfg)
        return 0
    seed = cfg["default_seed"] if args.seed is None else args.seed
    seconds = manifest["run_seconds"] if args.seconds is None \
        else args.seconds
    ok = True
    for workload in args.workload or [w["name"]
                                      for w in manifest["workloads"]]:
        if args.smoke or args.trace:
            children, min_passes = 1, 1
        else:
            children = cfg["children"][workload]
            min_passes = cfg["min_passes_per_child"][workload]
        line = measure(workload, seed, 0.5 if args.smoke else seconds,
                       args.trace, children, min_passes,
                       cfg["calibration"][workload], manifest)
        ok = ok and line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
