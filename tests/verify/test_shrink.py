"""Principled shrinking: outcome *class* is preserved, not just failure.

The regression this pins down: a naive shrinker accepts any candidate
that still "fails somehow", which can silently trade a hang for an
unrelated crash (or a livelock for a deadlock) — the minimal reproducer
then debugs a different bug than the one the campaign found.  The one
shrinker, :func:`repro.faults.campaign.shrink`, validates candidates
against :func:`repro.faults.campaign.outcome_class` instead, and needs
no optional dependency: ``repro faults --shrink`` prints the same
reductions whether or not ``hypothesis`` is importable.
"""

import importlib.util
import re
from unittest.mock import patch

import pytest

from repro import registry
from repro.cli import main
from repro.connections import Buffer, In, Out
from repro.faults import FaultPlan, outcome_class
from repro.faults.campaign import Harness, Rig, execute, shrink
from repro.kernel import Simulator

N_MSGS = 8
RIG_NAME = "shrink_regression_rig"


def _build_pipeline_rig(seed: int) -> Rig:
    """producer -> mid -> forward -> side -> sink, expects clean."""
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    received = []
    with sim.design.scope("chip", kind="Chip", clock=clk):
        mid = Buffer(sim, clk, capacity=2, name="mid")
        side = Buffer(sim, clk, capacity=2, name="side")

        def producer(out: Out):
            for i in range(N_MSGS):
                yield from out.push(i)

        def forward(inp: In, out: Out):
            for _ in range(N_MSGS):
                msg = yield from inp.pop()
                yield from out.push(msg)

        def sink(inp: In):
            for _ in range(N_MSGS):
                received.append((yield from inp.pop()))

        with sim.design.scope("p", kind="Unit"):
            sim.add_thread(producer(Out(mid, name="out")), clk, name="ctl")
        with sim.design.scope("f", kind="Unit"):
            sim.add_thread(forward(In(mid, name="in"),
                                   Out(side, name="out")), clk, name="ctl")
        with sim.design.scope("s", kind="Unit"):
            sim.add_thread(sink(In(side, name="in")), clk, name="ctl")
    return Rig(sim=sim, clock=clk, until=1_000_000,
               verify=lambda: received == list(range(N_MSGS)),
               window=120, max_cycles=4000)


#: A small fault menu for the pipeline rig: a short stall burst is
#: absorbed, the total drop and the duplicates hang it.
_PIPELINE_MENU = (
    lambda plan, rng: plan.drop("mid", probability=1.0),
    lambda plan, rng: plan.duplicate("side", probability=0.5),
    lambda plan, rng: plan.stall_burst("side", start=0, length=20,
                                       probability=0.5),
)


@pytest.fixture
def pipeline_harness():
    registry.register(registry.ExperimentSpec(
        name=RIG_NAME, summary="shrink regression fixture",
        harness=Harness(RIG_NAME, _build_pipeline_rig, _PIPELINE_MENU,
                        expected=("clean",), in_default_matrix=False),
        hidden=True))
    try:
        yield RIG_NAME
    finally:
        registry._SPECS.pop(RIG_NAME, None)
        registry._HARNESS_INDEX.pop(RIG_NAME, None)


def _boom(msg, rng):
    raise RuntimeError("corrupter exploded")


def _hang_then_crash_plan() -> FaultPlan:
    """Full plan deadlocks before the raising corrupter can ever fire;
    the corrupt directive alone crashes the run instead."""
    return (FaultPlan(seed=0)
            .drop("mid", probability=1.0)
            .corrupt("side", probability=1.0, corrupter=_boom))


def _livelock_then_deadlock_plan() -> FaultPlan:
    """Full plan trips the livelock window (stall active); the drop
    alone deadlocks (all threads blocked, no stall in sight)."""
    return (FaultPlan(seed=0)
            .stall_burst("mid", start=0, length=2000, probability=1.0)
            .drop("mid", probability=1.0))


# ----------------------------------------------------------------------
# outcome_class: the full classification shrinking validates against
# ----------------------------------------------------------------------
def test_outcome_class_distinguishes_hang_kinds_and_crashes():
    assert outcome_class({"outcome": "clean"}) == "clean"
    assert outcome_class({"outcome": "hang", "diagnosis": [
        {"type": "hang", "kind": "livelock"}]}) == "hang:livelock"
    assert outcome_class({"outcome": "hang"}) == "hang"
    assert outcome_class({"outcome": "crash",
                          "error": "TypeError: boom"}) == "crash:TypeError"
    assert outcome_class(
        {"outcome": "crash",
         "error": "output mismatch with zero injected lossy events "
                  "(silent corruption escape)"}) == "crash:escape"


def test_fixture_outcomes_are_as_designed(pipeline_harness):
    plan = _hang_then_crash_plan()
    full = execute(pipeline_harness, plan, seed=0)
    assert outcome_class(full) == "hang:deadlock"
    crash = execute(pipeline_harness, plan.without(0), seed=0)
    assert outcome_class(crash) == "crash:RuntimeError"

    plan = _livelock_then_deadlock_plan()
    full = execute(pipeline_harness, plan, seed=0)
    assert outcome_class(full) == "hang:livelock"
    assert outcome_class(
        execute(pipeline_harness, plan.without(0), seed=0)) \
        == "hang:deadlock"


# ----------------------------------------------------------------------
# the regression: a hang must not shrink into a crash, nor a livelock
# into a deadlock
# ----------------------------------------------------------------------
def _first_single_removal(harness, plan, accept):
    """The reduction a one-step shrinker takes under ``accept``."""
    for index in range(len(plan.directives)):
        candidate = plan.without(index)
        record = execute(harness, candidate, seed=0)
        if accept(record):
            return candidate, record
    return plan, execute(harness, plan, seed=0)


def test_naive_shrink_flips_hang_into_crash(pipeline_harness):
    plan = _hang_then_crash_plan()
    # Accepting any failure takes the first removal that "fails
    # somehow": the reproducer now crashes — a different bug than the
    # hang the campaign reported.  shrink() matches the class instead.
    naive, record = _first_single_removal(
        pipeline_harness, plan, lambda rec: rec["outcome"] != "clean")
    assert [d.kind for d in naive.directives] == ["corrupt"]
    assert record["outcome"] == "crash"
    small = shrink(pipeline_harness, plan, seed=0)
    assert outcome_class(execute(pipeline_harness, small, seed=0)) \
        == "hang:deadlock"


def test_class_shrink_preserves_the_hang(pipeline_harness):
    plan = _hang_then_crash_plan()
    small = shrink(pipeline_harness, plan, seed=0, target_outcome="hang")
    assert len(small.directives) == 1
    assert small.directives[0].kind == "drop"
    assert outcome_class(execute(pipeline_harness, small, seed=0)) \
        == "hang:deadlock"


def test_outcome_match_still_flips_livelock_into_deadlock(
        pipeline_harness):
    plan = _livelock_then_deadlock_plan()
    # Matching the coarse outcome alone accepts the drop: still a
    # "hang", but the diagnosis class silently changed.
    coarse, record = _first_single_removal(
        pipeline_harness, plan, lambda rec: rec["outcome"] == "hang")
    assert [d.kind for d in coarse.directives] == ["drop"]
    assert outcome_class(record) == "hang:deadlock"

    exact = shrink(pipeline_harness, plan, seed=0)
    assert [d.kind for d in exact.directives] == ["stall_burst"]
    assert outcome_class(execute(pipeline_harness, exact, seed=0)) \
        == "hang:livelock"
    # deterministic: the same plan shrinks to the same schedule
    assert shrink(pipeline_harness, plan, seed=0).describe() \
        == exact.describe()


def test_shrink_validates_target_outcome(pipeline_harness):
    plan = _hang_then_crash_plan()
    with pytest.raises(ValueError, match="does not reproduce"):
        shrink(pipeline_harness, plan, seed=0, target_outcome="crash")


# ----------------------------------------------------------------------
# the CLI shrinks the same way in every environment
# ----------------------------------------------------------------------
def _faults_shrink_stdout(capsys, harness) -> str:
    assert main(["faults", harness, "--cases", "4", "--seed", "0",
                 "--shrink"]) == 1
    return re.sub(r"\d+\.\d+s wall", "<wall>", capsys.readouterr().out)


def test_cli_shrink_does_not_depend_on_hypothesis(pipeline_harness, capsys):
    find_spec = importlib.util.find_spec

    def hidden(name, *args, **kwargs):
        if name == "hypothesis":
            return None
        return find_spec(name, *args, **kwargs)

    importable = _faults_shrink_stdout(capsys, pipeline_harness)
    with patch("importlib.util.find_spec", hidden):
        missing = _faults_shrink_stdout(capsys, pipeline_harness)
    assert missing == importable
    assert re.search(r"shrunk \S+ seed=\d+ \(\w+\) to 1 directive\(s\)",
                     importable), importable
