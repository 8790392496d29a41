"""The speed-ratio gate (``tools/bench_compare.py``) on synthetic
``bench/run.py`` result directories."""

import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
GATE = REPO / "tools" / "bench_compare.py"

#: ``wall_s`` per workload with every pair well above its floor.
HEALTHY = {"soc_threaded": 0.32, "soc_compiled": 0.25, "sweep_fresh": 0.27,
           "sweep_warm": 0.14, "sweep_incremental": 0.11,
           "sweep_cached": 0.011}


def run_gate(directory, walls, incorrect=()):
    for workload, wall in walls.items():
        result = {"correct": workload not in incorrect,
                  "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
        (directory / f"result_{workload}_trace0.json").write_text(
            json.dumps(result))
    return subprocess.run([sys.executable, str(GATE), str(directory)],
                          capture_output=True, text=True)


def test_all_pairs_above_their_floors(tmp_path):
    proc = run_gate(tmp_path, HEALTHY)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines()
            if line.startswith("| `")]
    assert len(rows) == 4 and all(row.endswith("| ok |") for row in rows)
    assert "| 1.28× | 0.65× |" in rows[0]


def test_ratio_under_its_floor_fails_naming_pair_and_values(tmp_path):
    proc = run_gate(tmp_path, {**HEALTHY, "soc_compiled": 0.64})
    assert proc.returncode == 1
    assert "soc_threaded/soc_compiled" in proc.stderr
    assert "0.32" in proc.stderr and "0.64 s" in proc.stderr
    assert proc.stdout.count("| ok |") == 3


def test_missing_side_is_skipped_never_passed(tmp_path):
    walls = {k: v for k, v in HEALTHY.items() if k != "sweep_warm"}
    proc = run_gate(tmp_path, walls)
    assert proc.returncode == 0
    row = next(line for line in proc.stdout.splitlines()
               if "`sweep_warm`" in line)
    assert "skipped (no result for sweep_warm)" in row and "ok" not in row
    assert proc.stdout.count("| ok |") == 3


def test_incorrect_result_fails(tmp_path):
    proc = run_gate(tmp_path, HEALTHY, incorrect=("sweep_cached",))
    assert proc.returncode == 1
    assert "sweep_cached not correct" in proc.stderr
