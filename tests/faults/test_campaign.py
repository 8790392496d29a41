"""Campaign runner: classification, shrinking, and sweep integration."""

import json

import pytest

from repro import registry
from repro.faults import FaultPlan, default_plan, execute, shrink
from repro.faults.campaign import summarize_sweep, sweep_space
from repro.sweep import run_sweep
from repro.sweep.serialize import NONDETERMINISTIC_FIELDS, to_jsonable


# ----------------------------------------------------------------------
# outcome classification
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", [
    n for n in registry.harness_names()
    if registry.get_harness(n).in_default_matrix])
def test_fault_free_runs_are_clean(name):
    record = execute(name, FaultPlan(seed=0), seed=0)
    assert record["outcome"] == "clean", record
    assert record["ok"]
    assert record["injected"] == {}


def test_forced_drop_is_detected_by_verification():
    plan = FaultPlan(seed=0).drop("down", probability=1.0)
    record = execute("stall_verification", plan, seed=0)
    assert record["outcome"] == "detected"
    assert record["injected"]["down"]["drops"] > 0
    assert record["ok"]


def test_packet_checksum_flags_corruption():
    plan = FaultPlan(seed=0).corrupt("chip.wire", probability=1.0)
    record = execute("packet_stream", plan, seed=0)
    assert record["outcome"] == "detected"
    # The DePacketizer's end-to-end checksum caught the flips itself.
    assert record["harness_detected"] > 0


def test_deadlock_demo_hangs_with_path_level_diagnosis():
    record = execute("deadlock_demo", FaultPlan(seed=0), seed=0)
    assert record["outcome"] == "hang"
    assert record["ok"]  # hang is this harness's expected outcome
    head = record["diagnosis"][0]
    assert head["type"] == "hang" and head["kind"] == "deadlock"
    channels = {r["channel"] for r in record["diagnosis"]
                if r["type"] == "hang.thread"}
    assert channels == {"chip.ab", "chip.ba"}


def test_execute_is_byte_reproducible():
    plan1 = default_plan("fig3_crossbar", seed=7)
    plan2 = default_plan("fig3_crossbar", seed=7)
    assert plan1.describe() == plan2.describe()
    rec1 = execute("fig3_crossbar", plan1, seed=7)
    rec2 = execute("fig3_crossbar", plan2, seed=7)
    assert json.dumps(rec1, sort_keys=True) == json.dumps(rec2,
                                                          sort_keys=True)


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def test_shrink_reduces_to_single_culprit_directive():
    plan = (FaultPlan(seed=5)
            .stall_burst("down", start=10, length=40, probability=0.8)
            .drop("down", probability=1.0)
            .stall_burst("up", start=0, length=20, probability=0.5))
    record = execute("stall_verification", plan, seed=5)
    assert record["outcome"] == "detected"
    small = shrink("stall_verification", plan, seed=5,
                   target_outcome="detected")
    assert len(small.directives) == 1
    assert small.directives[0].kind == "drop"
    # The shrunk plan still reproduces on its own.
    assert execute("stall_verification", small,
                   seed=5)["outcome"] == "detected"


# ----------------------------------------------------------------------
# sweep integration
# ----------------------------------------------------------------------
def test_sweep_space_validates_experiment_names():
    with pytest.raises(KeyError):
        sweep_space(experiments=["nope"], cases=1)


def test_campaign_sweep_results_are_byte_identical_across_runs():
    points = sweep_space(experiments=["stall_verification"], cases=2,
                         seed=3)
    blobs = []
    for _ in range(2):
        result = run_sweep(points, jobs=1, cache=None, timeout=None,
                           telemetry=False)
        payload = to_jsonable(result.results,
                              exclude=NONDETERMINISTIC_FIELDS)
        blobs.append(json.dumps(payload, sort_keys=True))
    assert blobs[0] == blobs[1]
    text = summarize_sweep(result.results)
    assert "stall_verification" in text
