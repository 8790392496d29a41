#!/usr/bin/env python3
"""Render the latest benchmark run as plain text.

    python3 bench/report.py

Reads what ``run.py`` left in ``bench/out/`` (``result_<workload>_trace<0|1>
.json`` and ``trace_<workload>.jsonl``) plus ``BENCHMARK.json`` and
``bench/layers.json``, and prints, one row per workload:

1. the end-to-end metrics of the untraced runs,
2. the self time per layer of the traced pass (share of the attributed
   operations' wall time; ``bench`` is time no layer span covers),
3. every per-layer metric with its layer, the end-to-end metric and
   workload it is expected to move, and its value per traced workload.

This replaces hand-formatting a ``benchmarks/results/*.txt``.
"""

from __future__ import annotations

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import spans  # noqa: E402


def load(path: str):
    with open(path) as fh:
        return json.load(fh)


def results(trace: int) -> dict:
    found = {}
    for path in glob.glob(os.path.join(OUT, f"result_*_trace{trace}.json")):
        data = load(path)
        found[data["workload"]] = data
    return found


def end_to_end_table(manifest: dict) -> list:
    runs = results(0)
    names = [m["name"] for m in manifest["end_to_end"]]
    lines = ["End-to-end metrics (untraced runs)",
             f"{'workload':18s} " + " ".join(f"{n:>12s}" for n in names)
             + f" {'failed/ops':>12s}"]
    for w in manifest["workloads"]:
        run = runs.get(w["name"])
        if run is None:
            continue
        lines.append(
            f"{w['name']:18s} "
            + " ".join(f"{run['metrics'][n]['value']:>12.5g}" for n in names)
            + f" {run['failed']:>5d}/{run['attempted']:<6d}")
    return lines


def self_time_table(manifest: dict) -> list:
    rows = {}
    layers = set()
    for w in manifest["workloads"]:
        path = os.path.join(OUT, f"trace_{w['name']}.jsonl")
        if not os.path.exists(path):
            continue
        rows[w["name"]] = spans.layer_share_pct(spans.attributed(
            [s for s in spans.read_jsonl(path) if s["phase"] == "workload"]))
        layers |= set(rows[w["name"]])
    order = sorted(layers - {spans.ROOT_LAYER}) + [spans.ROOT_LAYER]
    short = [layer.replace("repro.", "") for layer in order]
    lines = ["Self time per layer, % of the traced operations' wall time",
             f"{'workload':18s} " + " ".join(f"{s:>15s}" for s in short)]
    for name, row in rows.items():
        lines.append(f"{name:18s} " + " ".join(
            f"{row.get(layer, 0.0):>15.2f}" for layer in order))
    return lines


def layer_metric_table(manifest: dict) -> list:
    layers = load(os.path.join(HERE, "layers.json"))
    runs = results(1)
    lines = ["Per-layer metrics: value per traced workload, and the "
             "end-to-end metric each should move",
             f"{'metric':36s} {'layer':22s} {'unit':6s} moves"]
    for m in manifest["per_layer"]:
        entry = layers[m["name"]]
        moves = ", ".join(f"{metric} on {workload}"
                          for metric, workload in entry["moves"]) or "none"
        exact = " (exact)" if entry["exact"] else ""
        lines.append(f"{m['name']:36s} {entry['layer']:22s} "
                     f"{m['unit']:6s} {moves}{exact}")
        for workload, run in sorted(runs.items()):
            value = run["metrics"][m["name"]]["value"]
            lines.append(f"    {workload:18s} {value:>14.6g} "
                         f"n={run['samples'][m['name']]}")
    return lines


def main() -> int:
    manifest = load(os.path.join(ROOT, "BENCHMARK.json"))
    tables = [end_to_end_table(manifest), self_time_table(manifest),
              layer_metric_table(manifest)]
    print("\n\n".join("\n".join(t) for t in tables))
    return 0


if __name__ == "__main__":
    sys.exit(main())
