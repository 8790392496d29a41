#!/usr/bin/env python3
"""A/A check: is the benchmark steady enough for its own bounds?

    python3 bench/aa.py

Runs two sets of ten runs of the same code back to back, each run with
another seed, through the benchmark's one command (about 35 minutes).
Per workload and end-to-end metric it prints, for both sets, the spread
(distance between first and third quartile as a share of the median) and
how much the median worsened from the first set to the second — both
against the metric's bound — and beside them the larger of the two
spreads of every time metric in each reading (calibrated by either probe
of ``calibrate.py``, and raw).  The spread of ``setup_s`` is printed but
not gated.  Exits non-zero if a gate fails or an operation failed, and
writes ``bench/aa.json``, which is committed: it is the evidence for the
bounds in ``BENCHMARK.json`` and for the probe each workload is
calibrated by in ``config.json``.  ``bench/aa_busy_host.json`` is an
earlier result on the same code, kept because neighbours loaded the host
while it ran: it is the case calibration exists for.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import quartile_spread  # noqa: E402

SETS = 2
RUNS = 10


def one_run(workload: str, seed: int) -> dict:
    """The result line of one run, plus its time metrics in every
    reading as ``readings``."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"aa: {workload} seed {seed} exited "
                         f"{proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out",
                           f"result_{workload}_trace0.json")) as fh:
        line["readings"] = json.load(fh)["readings"]
    return line


def worsening(first: float, last: float, better: str) -> float:
    """Share by which the median got worse (negative = got better)."""
    change = (last - first) / first
    return change if better == "lower" else -change


def summarize(manifest: dict, values: list, readings: list,
              failed_ops: int, path: str) -> bool:
    """Print the table, write ``path``; whether every gate held."""
    names = [w["name"] for w in manifest["workloads"]]
    ok = failed_ops == 0
    rows = []
    kinds = sorted(readings[0][names[0]])
    print(f"{'workload':18s} {'metric':12s} {'bound':>6s} {'spread1':>8s} "
          f"{'spread2':>8s} {'worsened':>9s}  {'verdict':14s}"
          + " ".join(f"{k:>12s}" for k in kinds))
    for workload in names:
        for m in manifest["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [values[s][workload][name] for s in range(SETS)]
            spreads = [quartile_spread(v) for v in sets]
            shift = worsening(statistics.median(sets[0]),
                              statistics.median(sets[1]), m["better"])
            good = (name == "setup_s" or max(spreads) <= bound) \
                and shift <= bound
            ok = ok and good
            # The larger of the two sets' spreads in every reading.
            by_reading = {
                k: max(quartile_spread(readings[s][workload][k][name])
                       for s in range(SETS))
                for k in kinds if name in readings[0][workload][k]}
            rows.append({"workload": workload, "metric": name,
                         "bound": bound, "spreads": spreads,
                         "worsened": shift, "ok": good,
                         "medians": [statistics.median(v) for v in sets],
                         "spread_by_reading": by_reading})
            print(f"{workload:18s} {name:12s} {bound:>6.2f} "
                  + " ".join(f"{x:>8.4f}" for x in spreads)
                  + f" {shift:>+9.4f}  "
                  + f"{'ok' if good else 'EXCEEDS BOUND':14s}"
                  + " ".join(f"{x:>12.4f}" for x in by_reading.values()))
    with open(path, "w") as fh:
        # One row, one workload's values and one reading per line.
        fh.write(f'{{"runs": {RUNS}, "sets": {SETS}, '
                 f'"failed_operations": {failed_ops},\n"rows": [\n'
                 + ",\n".join(json.dumps(row) for row in rows)
                 + '],\n"values": '
                 + json.dumps(values).replace('}, "', '},\n"')
                 + ',\n"readings": '
                 + json.dumps(readings).replace('}, "', '},\n"') + "}\n")
    print(f"failed operations: {failed_ops}")
    return ok


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    names = [w["name"] for w in manifest["workloads"]]
    # values[set][workload][metric] -> one value per run
    values = [{w: {} for w in names} for _ in range(SETS)]
    # readings[set][workload][reading][metric] -> one value per run
    readings = [{w: {} for w in names} for _ in range(SETS)]
    failed_ops = 0
    for s in range(SETS):
        for workload in names:
            for i in range(RUNS):
                line = one_run(workload, 1 + s * RUNS + i)
                failed_ops += line["failed"]
                for metric, entry in line["metrics"].items():
                    values[s][workload].setdefault(metric, []).append(
                        entry["value"])
                for reading, metrics in line["readings"].items():
                    into = readings[s][workload].setdefault(reading, {})
                    for metric, value in metrics.items():
                        into.setdefault(metric, []).append(value)
            print(f"set {s + 1}: {workload} done", file=sys.stderr)

    ok = summarize(manifest, values, readings, failed_ops,
                   os.path.join(HERE, "aa.json"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
