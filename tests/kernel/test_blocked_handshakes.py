"""Blocked handshakes stop resuming generators.

A thread blocked in ``In.pop()`` / ``Out.push()`` declares its wait
(``PortWait``); the executor answers the poll at the thread's turn, and a
clock whose every waiter is a pop blocked on a parked channel goes idle.
Byte-identity to the every-edge reference is held in
``tests/kernel/test_quiescent_channels.py`` (section f); this file pins
the saving as exact counts on the benchmark's own grids, and the one
behaviour change: a run without horizon now ends when only such threads
are left.
"""

from contextlib import contextmanager
import json
import pathlib
from unittest.mock import patch

import pytest

from repro.connections import Buffer, In, Out
from repro.experiments import li_latency, stall_verification
from repro.faults import HangError, Watchdog
from repro.kernel import Simulator, TimeBudgetExceeded, time_budget
from repro.kernel.clock import BlockedPoll, Clock
from repro.kernel.simulator import PortWait, Thread
from repro.sweep import run_sweep

from tests.sweep._never_park import constructed_simulators, never_declare

# bench/config.json "sweeps" at --seed 1 (bench/workloads/sweep.py builds
# the same two grids); the test below checks they have not drifted.
LI_PERIODS = (5, 9)
LI_PROBABILITIES = (0.0, 0.2, 0.4)
STALL_TRIALS = 5
SEED = 1


def bench_grids() -> dict:
    li = []
    for period in range(LI_PERIODS[0], LI_PERIODS[1] + 1):
        li += li_latency.sweep_space(probabilities=LI_PROBABILITIES,
                                     trials=1, period=period,
                                     seed=500 + SEED)
    stall = stall_verification.sweep_space(trials=STALL_TRIALS,
                                           seed=100 + SEED)
    return {"li_grid": li, "stall_grid": stall}


def test_grid_constants_match_the_benchmark_config():
    path = pathlib.Path(__file__).parents[2] / "bench" / "config.json"
    config = json.loads(path.read_text())
    sweeps = config["sweeps"]
    assert tuple(sweeps["li_periods"]) == LI_PERIODS
    assert tuple(sweeps["li_probabilities"]) == LI_PROBABILITIES
    assert sweeps["stall_trials"] == STALL_TRIALS
    assert config["default_seed"] == SEED


@contextmanager
def census():
    """Executed fast-lane edges and generator resumes; on exit also the
    simulated cycles of every simulator constructed inside."""
    counts = {"edges": 0, "resumes": 0}
    fast_edge, resume = Clock._fast_edge, Thread._resume

    def counted_edge(self):
        counts["edges"] += 1
        fast_edge(self)

    def counted_resume(self):
        counts["resumes"] += 1
        resume(self)

    with patch.object(Clock, "_fast_edge", counted_edge), \
            patch.object(Thread, "_resume", counted_resume), \
            constructed_simulators() as sims:
        yield counts
    counts["cycles"] = sum(clk.cycles for sim in sims for clk in sim._clocks)


def _serial(points) -> dict:
    with census() as counts:
        result = run_sweep(points, jobs=1, telemetry=True)
    counts["thread_wakeups"] = result.report().kernel["thread_wakeups"]
    counts["canonical"] = result.canonical()
    return counts


@pytest.mark.parametrize("grid, edges, reference_edges, resume_cap", [
    ("stall_grid", 48_020, 144_020, 51_000),
    ("li_grid", 15_215, 15_215, 42_000),
])
def test_blocked_pop_costs_no_generator_resume(grid, edges, reference_edges,
                                               resume_cap):
    """The parent commit read 144 020 edges / 193 453 resumes on
    ``stall_grid`` and 15 215 / 57 285 on ``li_grid`` — which is what the
    never-declare reference below still reads."""
    points = bench_grids()[grid]
    declared = _serial(points)
    with never_declare():
        reference = _serial(points)
    assert declared["edges"] == edges
    assert reference["edges"] == reference_edges
    assert declared["resumes"] <= resume_cap < reference["resumes"]
    assert reference["resumes"] == {"stall_grid": 193_453,
                                    "li_grid": 57_285}[grid]
    # what the simulation *is* has not moved
    assert declared["cycles"] == reference["cycles"]
    assert declared["thread_wakeups"] == reference["thread_wakeups"]
    assert declared["canonical"] == reference["canonical"]


# ----------------------------------------------------------------------
# the one behaviour change
# ----------------------------------------------------------------------
def _starved(*, consumers=2):
    """One message, then every consumer blocks in ``pop()`` for good."""
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    chan = Buffer(sim, clk, name="c")
    got = []

    def producer():
        yield from Out(chan, name="src").push("only")

    def consumer(port):
        while True:
            got.append((yield from port.pop()))

    sim.add_thread(producer, clk, name="tx")
    for k in range(consumers):
        sim.add_thread(lambda port=In(chan, name=f"dst{k}"): consumer(port),
                       clk, name=f"rx{k}")
    return sim, clk, chan, got


def test_run_without_horizon_returns_when_only_blocked_pops_are_left():
    sim, clk, chan, got = _starved()
    with time_budget(5.0):                 # the parent spins here forever
        assert sim.run() == sim.now
    assert got == ["only"]
    # now sits at the last executed edge: the one after which the channel
    # had parked and every waiter was a blocked pop
    assert sim.now == clk.cycles * clk.period - clk.period
    assert chan._skip_from is not None and not clk._active
    bucket = clk._wakeups[clk.cycles + 1]
    assert [type(p) for p in bucket] == [BlockedPoll, BlockedPoll]
    assert all(type(p.wait) is PortWait and p.wait.channel is chan
               for p in bucket)
    assert sim.pending_threads == 2
    # nothing was lost: a later horizon credits the idle span exactly
    rejections, cycles = chan.stats.pop_rejections, clk.cycles
    sim.run(until=sim.now + 1_000)
    assert clk.cycles == cycles + 100
    assert chan.stats.pop_rejections == rejections + 2 * 100
    assert chan.stats.pop_attempts == chan.stats.pop_rejections + 1
    # and a push from outside still wakes them
    assert chan.do_push("late")
    sim.run(until=sim.now + 50)
    assert got == ["only", "late"]


def test_never_declare_reference_still_spins():
    """The control for the test above: with bare-``yield`` ports the same
    design never runs out of work."""
    with never_declare():
        sim, _clk, _chan, _got = _starved()
        with pytest.raises(TimeBudgetExceeded), time_budget(0.05):
            sim.run()


def test_watched_run_without_horizon_polls_and_raises():
    sim, clk, chan, got = _starved()
    Watchdog(sim, clk, window=200)
    with census() as counts, pytest.raises(HangError) as hang, \
            time_budget(5.0):
        sim.run()
    diagnosis = hang.value.diagnosis
    assert diagnosis.kind == "deadlock"
    assert sorted(t.thread for t in diagnosis.threads) == ["rx0", "rx1"]
    assert {t.channel for t in diagnosis.threads} == {"c"}
    # watched ports do not declare: both consumers were resumed at every
    # executed edge, and no stand-in was ever filed
    assert counts["resumes"] >= 2 * (clk.cycles - 2)
    assert not any(type(p) is BlockedPoll
                   for bucket in clk._wakeups.values() for p in bucket)
