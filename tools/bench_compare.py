#!/usr/bin/env python3
"""Speed-ratio gate over one ``bench/run.py`` run.

    python3 bench/run.py --workload soc_threaded --workload soc_compiled ...
    python tools/bench_compare.py [RESULT_DIR]

Reads ``result_<workload>_trace0.json`` (default directory: ``bench/out``)
and checks, per pair below, that the slow workload's ``wall_s`` divided by
the fast one's is at least the floor.  Prints the ratios as a markdown
table.  Exits 1 when a ratio is under its floor or a result it read has
``"correct": false``; a pair with a missing side is reported as skipped,
never as passed.  It times nothing itself: both sides of a ratio come from
one run of the one harness, so machine speed cancels.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: (slow workload, fast workload, median ratio, floor).  Medians are of
#: ten ``python3 bench/run.py`` runs (docs/PERFORMANCE.md, "The
#: speed-ratio gate"); floors are about half of them, so the gate
#: catches a lost mechanism, not a noisy run.
GATES = (
    ("soc_threaded", "soc_compiled", 1.3, 0.65),
    ("sweep_fresh", "sweep_warm", 1.9, 0.95),
    ("sweep_fresh", "sweep_incremental", 2.5, 1.25),
    ("sweep_fresh", "sweep_cached", 27.0, 13.0),
)


def load(directory: pathlib.Path, workload: str) -> dict | None:
    path = directory / f"result_{workload}_trace0.json"
    return json.loads(path.read_text()) if path.exists() else None


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        raise SystemExit(__doc__)
    directory = pathlib.Path(argv[0]) if argv else ROOT / "bench" / "out"
    failures = []
    print("### Speed ratios (`wall_s`, slow ÷ fast)\n\n"
          "| slow | fast | ratio | floor | median | verdict |\n"
          "|---|---|---:|---:|---:|---|")
    for slow, fast, median, floor in GATES:
        results = {name: load(directory, name) for name in (slow, fast)}
        missing = [name for name, result in results.items() if result is None]
        if missing:
            print(f"| `{slow}` | `{fast}` | — | {floor:g}× | {median:g}× | "
                  f"skipped (no result for {', '.join(missing)}) |")
            continue
        walls = {name: result["metrics"]["wall_s"]["value"]
                 for name, result in results.items()}
        ratio = walls[slow] / walls[fast]
        wrong = [name for name, result in results.items()
                 if not result["correct"]]
        if wrong:
            verdict = f"FAILED: {', '.join(wrong)} not correct"
        elif ratio < floor:
            verdict = (f"FAILED: {slow} {walls[slow]:.4g} s / {fast} "
                       f"{walls[fast]:.4g} s = {ratio:.2f}× is under "
                       f"{floor:g}×")
        else:
            verdict = "ok"
        if verdict != "ok":
            failures.append(f"{slow}/{fast} {verdict}")
        print(f"| `{slow}` | `{fast}` | {ratio:.2f}× | {floor:g}× | "
              f"{median:g}× | {verdict} |")
    for failure in failures:
        print(f"bench gate: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
