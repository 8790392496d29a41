"""Tests of the benchmark driver itself (not part of tier-1 ``testpaths``).

    python3 -m pytest bench/test_driver.py -q

The arithmetic and schema tests are instant; the three that run the
benchmark take about a minute and a half together.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(*parts):
    with open(os.path.join(*parts)) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def manifest():
    return load(ROOT, "BENCHMARK.json")


# -- percentile-with-sample-count rule ---------------------------------
@pytest.mark.parametrize("n, pct", [(1, None), (99, None), (100, 90.0),
                                    (199, 90.0), (200, 95.0), (1000, 99.0),
                                    (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond_it(n, pct):
    assert spans.tail_percentile(n) == pct


def test_summarize_reports_median_count_and_quotable_tail():
    few = spans.summarize([3.0, 1.0, 2.0])
    assert (few["n"], few["p50"], few["tail"]) == (3, 2.0, None)
    many = spans.summarize(list(range(1, 101)))
    assert (many["n"], many["p50"], many["tail_pct"]) == (100, 50.5, 90.0)
    assert many["tail"] == pytest.approx(90.1)


def test_quartile_spread_is_iqr_over_median():
    assert spans.quartile_spread([10.0] * 10) == 0.0
    values = [9.0, 9.5, 10.0, 10.5, 11.0, 9.0, 9.5, 10.0, 10.5, 11.0]
    assert spans.quartile_spread(values) == pytest.approx(0.125)


# -- span self-time arithmetic -----------------------------------------
def span(id_, parent, layer, start, end, op=1, name="s"):
    return {"id": id_, "parent": parent, "layer": layer, "start": start,
            "end": end, "op": op, "name": name}


def test_self_time_is_duration_minus_direct_children():
    tree = [span(0, None, "bench", 0.0, 10.0),
            span(1, 0, "a", 1.0, 5.0),
            span(2, 1, "b", 2.0, 4.0),    # grandchild: charged to 1 only
            span(3, 0, "a", 5.0, 9.5)]
    own = spans.self_times(tree)
    assert own == {0: pytest.approx(1.5), 1: 2.0, 2: 2.0, 3: 4.5}
    assert spans.layer_self_seconds(tree) == {
        "bench": pytest.approx(1.5), "a": 6.5, "b": 2.0}
    assert spans.uncovered_ratio(tree) == pytest.approx(0.15)


def test_recorder_nests_spans_and_shares_the_op_id():
    rec = spans.Recorder()
    with rec.op("op-a", attributed=True):
        with rec.span("outer", "x"):
            with rec.span("inner", "y"):
                pass
    with rec.op("op-b"):
        pass
    a, outer, inner, b = rec.spans
    assert (a["parent"], outer["parent"], inner["parent"]) == (None, 0, 1)
    assert a["op"] == outer["op"] == inner["op"] != b["op"]
    assert a["layer"] == spans.ROOT_LAYER and a["attributed"] is True
    assert sum(spans.self_times(rec.spans).values()) == pytest.approx(
        spans.duration(a) + spans.duration(b))


# -- BENCHMARK.json schema -----------------------------------------------
def test_manifest_schema(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["bench"]
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = []
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_every_layer_metric_names_an_existing_metric_and_workload(manifest):
    layers = load(HERE, "layers.json")
    workloads = {w["name"] for w in manifest["workloads"]}
    end_to_end = {m["name"] for m in manifest["end_to_end"]}
    assert set(layers) == {m["name"] for m in manifest["per_layer"]}
    for m in manifest["per_layer"]:
        entry = layers[m["name"]]
        assert set(entry) == {"layer", "exact", "moves"}
        for metric, workload in entry["moves"]:
            assert metric in end_to_end, m["name"]
            assert workload == "*" or workload in workloads, m["name"]


def test_config_and_expectations_cover_the_workloads(manifest):
    cfg = load(HERE, "config.json")
    names = [w["name"] for w in manifest["workloads"]]
    assert sorted(names) == sorted(WORKLOADS) == sorted(cfg["children"])
    assert sorted(names) == sorted(cfg["min_passes_per_child"])
    assert all(n >= 2 for n in cfg["min_passes_per_child"].values())
    assert sorted(names) == sorted(cfg["calibration"])
    assert set(cfg["calibration"].values()) <= set(
        calibrate.REFERENCE_SECONDS)
    expected = load(HERE, "expected.json")
    assert expected["default_seed"] == cfg["default_seed"]
    assert set(expected["sections"]) == set(names) | {"probes"}
    exact = {n for n, e in load(HERE, "layers.json").items() if e["exact"]}
    pinned = expected["sections"]["probes"]
    assert exact - {"compile.fallbacks"} <= (set(pinned["any_seed"])
                                             | set(pinned["default_seed"]))


@pytest.mark.parametrize("record", ["aa.json", "aa_busy_host.json"])
def test_committed_aa_records_hold_the_bounds(manifest, record):
    aa = load(HERE, record)
    cfg = load(HERE, "config.json")
    assert (aa["sets"], aa["runs"], aa["failed_operations"]) == (2, 10, 0)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert {(r["workload"], r["metric"]) for r in aa["rows"]} == {
        (w["name"], m) for w in manifest["workloads"] for m in bounds}
    for row in aa["rows"]:
        assert row["ok"] and row["bound"] == bounds[row["metric"]], row
    # The gated values are the reading config.json names, not another one.
    for values, readings in zip(aa["values"], aa["readings"]):
        for workload, probe in cfg["calibration"].items():
            for metric, series in readings[workload][probe].items():
                assert values[workload][metric] == series, (workload, metric)


# -- the command itself ----------------------------------------------------
def run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_smoke_runs_every_workload_correctly(manifest):
    proc = run(os.path.join(HERE, "run.py"), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    assert len(lines) == len(manifest["workloads"])
    want = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == want
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_run_yields_every_per_layer_metric(manifest):
    proc = run(os.path.join(HERE, "run.py"), "--workload",
               "sweep_incremental", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in manifest["per_layer"]}
    value = {k: v["value"] for k, v in line["metrics"].items()}
    assert value["trace.derived_ratio.li_grid"] == 1.0
    assert value["trace.derived_ratio.stall_grid"] == 0.0
    assert value["trace.uncovered_pct"] <= 5.0
    assert value["share.repro.trace"] > 0
    trace = spans.read_jsonl(os.path.join(
        HERE, "out", "trace_sweep_incremental.jsonl"))
    assert {s["phase"] for s in trace} == {"workload", "probe"}


def test_refuses_to_run_without_the_program():
    os.makedirs(os.path.join(HERE, "out", "tmp"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, "out", "tmp"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(os.path.join("bench", "run.py"), "--workload",
                   "soc_compiled", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert not any(line.startswith("{")
                       for line in proc.stdout.splitlines())
    finally:
        shutil.rmtree(bare, ignore_errors=True)
