"""Idle blocked pops stop resuming generators.

A thread blocked in ``In.pop()`` on a parked channel (empty, nothing in
transit) waits on the channel's pop gate and is parked like any gate
owner; a short block — data in transit — and a blocked ``Out.push()``
poll.  A clock whose every waiter is parked goes idle.  Byte-identity to
the every-edge reference is held in
``tests/kernel/test_quiescent_channels.py`` (section f); this file pins
the policy, the saving as exact counts on the benchmark's own grids, and
the one behaviour change: a run without horizon ends when only parked
threads are left.
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
from repro.kernel.clock import Clock
from repro.sweep import run_sweep

from tests.sweep._never_park import (assert_parks_exactly,
                                     constructed_simulators, never_gate,
                                     skipped_polls)

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
    """Executed clock edges and generator resumes, under either loop
    (the lone-clock lane resumes a generator with a bare ``next()``, no
    ``Thread._resume``, and advances its clock without ``Clock._edge``):
    threads registered inside are counted through a wrapper generator,
    edges as the cycles ticked minus those idle-skipped.  On exit also
    the simulated cycles of every simulator constructed inside."""
    counts = {"resumes": 0}
    skipped = [0]
    add_thread, advance_idle = Simulator.add_thread, Clock._advance_idle

    def counted(gen):
        while True:
            counts["resumes"] += 1
            try:
                request = next(gen)
            except StopIteration:
                return
            yield request

    def add_counted(self, gen, clock, *, name="thread"):
        if callable(gen):
            factory = gen
            gen = lambda: counted(factory())  # noqa: E731
        else:
            gen = counted(gen)
        return add_thread(self, gen, clock, name=name)

    def counted_idle(self, last, kstats):
        before = self.cycles
        advance_idle(self, last, kstats)
        skipped[0] += self.cycles - before

    with patch.object(Simulator, "add_thread", add_counted), \
            patch.object(Clock, "_advance_idle", counted_idle), \
            constructed_simulators() as sims:
        yield counts
    counts["cycles"] = sum(clk.cycles for sim in sims for clk in sim._clocks)
    counts["edges"] = counts["cycles"] - skipped[0]


def _serial(points) -> dict:
    with census() as counts:
        result = run_sweep(points, jobs=1, telemetry=True)
    counts["thread_wakeups"] = result.report().kernel["thread_wakeups"]
    counts["canonical"] = result.canonical()
    return counts


@pytest.mark.parametrize("grid, edges, reference_edges, resume_cap", [
    ("stall_grid", 48_020, 144_020, 51_000),
    ("li_grid", 15_215, 15_215, None),
])
def test_blocked_pop_costs_no_generator_resume(grid, edges, reference_edges,
                                               resume_cap):
    """The every-poll reference reads 144 020 edges / 193 453 resumes on
    ``stall_grid`` and 15 215 / 57 285 on ``li_grid``.  ``stall_grid``'s
    DUT idles blocked for long spans, so its resumes are capped;
    ``li_grid``'s blocks are short (data in transit) and poll by design,
    so only its counts and output are pinned."""
    points = bench_grids()[grid]
    parked = _serial(points)
    with never_gate():
        reference = _serial(points)
    assert parked["edges"] == edges
    assert reference["edges"] == reference_edges
    if resume_cap is not None:
        assert parked["resumes"] <= resume_cap < reference["resumes"]
    assert reference["resumes"] == {"stall_grid": 193_453,
                                    "li_grid": 57_285}[grid]
    # what the simulation *is* has not moved
    assert parked["cycles"] == reference["cycles"]
    assert parked["thread_wakeups"] == reference["thread_wakeups"]
    assert parked["canonical"] == reference["canonical"]


# ----------------------------------------------------------------------
# the policy: poll while data is in transit, park once the channel idles
# ----------------------------------------------------------------------
def test_blocked_pop_polls_in_transit_and_parks_on_an_idle_channel():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    chan = Buffer(sim, clk, name="c", extra_latency=4)
    got = []

    def producer():
        yield from Out(chan, name="src").push("m")

    def consumer(port):
        while True:
            got.append((yield from port.pop()))

    sim.add_thread(producer, clk, name="tx")
    rx = sim.add_thread(lambda port=In(chan, name="dst"): consumer(port),
                        clk, name="rx")
    sim.run_cycles(clk, 2)        # the push is in transit: the pop polls
    assert chan._skip_from is None and chan.occupancy == 1
    assert rx in clk._wakeups[clk.cycles + 1] and not clk._gated
    sim.run_cycles(clk, 10)       # delivered and popped; the channel idles
    assert got == ["m"] and chan._skip_from is not None
    assert not any(rx in bucket for bucket in clk._wakeups.values())
    assert [(thread, gate) for thread, gate, _since in clk._gated.values()] \
        == [(rx, chan._pop_gate)]


@pytest.mark.parametrize("telemetry", [False, True],
                         ids=["plain", "telemetry"])
@pytest.mark.parametrize("first", ["a", "b"])
@pytest.mark.parametrize("heap_lane", [False, True],
                         ids=["fast", "heap-lane"])
def test_pop_blocked_on_another_clocks_channel_parks_exactly(first,
                                                             heap_lane,
                                                             telemetry):
    """Consumer on clock a, channel and producer on clock b; edges
    coincide every 12 ticks, in both firing orders, with a on the fast
    lane or the heap lane.  The consumer parks on its own clock and the
    channel's tick on the other one unparks it."""
    def scenario():
        sim = Simulator()
        clocks = {}
        for name in (first, "b" if first == "a" else "a"):
            generator = (lambda clock: 6) if name == "a" and heap_lane \
                else None
            clocks[name] = sim.add_clock(name, period=6 if name == "a"
                                         else 4, generator=generator)
        a, b = clocks["a"], clocks["b"]
        chan = Buffer(sim, b, name="c")
        log = []

        def producer(port):
            for i, gap in enumerate((9, 3, 12, 1, 1, 30)):
                yield gap
                yield from port.push(i)

        def consumer(port):
            while True:
                msg = yield from port.pop()
                log.append((msg, a.cycles, b.cycles))

        sim.add_thread(lambda port=Out(chan, name="src"): producer(port), b,
                       name="tx")
        sim.add_thread(lambda port=In(chan, name="dst"): consumer(port), a,
                       name="rx")
        sim.run(until=700)
        return log

    with skipped_polls() as skipped:
        observed = assert_parks_exactly(scenario, telemetry=telemetry)
    assert skipped[0] > 0
    assert [entry[0] for entry in observed["result"]] == list(range(6))


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
    assert not clk._wakeups
    assert sorted((thread.name, gate is chan._pop_gate)
                  for thread, gate, _since in clk._gated.values()) \
        == [("rx0", True), ("rx1", True)]
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


def test_never_gate_reference_still_spins():
    """The control for the test above: with every gate wait a bare
    ``yield`` the same design never runs out of work."""
    with never_gate():
        sim, _clk, _chan, _got = _starved()
        with pytest.raises(TimeBudgetExceeded), time_budget(0.05):
            sim.run()


def test_watched_run_without_horizon_parks_and_raises():
    with census() as counts:
        sim, clk, chan, got = _starved()
        Watchdog(sim, clk, window=200)
        with pytest.raises(HangError) as hang, time_budget(5.0):
            sim.run()
    diagnosis = hang.value.diagnosis
    assert diagnosis.kind == "deadlock"
    assert sorted(t.thread for t in diagnosis.threads) == ["rx0", "rx1"]
    assert {t.channel for t in diagnosis.threads} == {"c"}
    # watched runs park like unwatched ones: both consumers left the
    # buckets once blocked, far below a resume per edge each
    assert counts["resumes"] * 10 < 2 * clk.cycles
    assert sorted(thread.name for thread, _gate, _since
                  in clk._gated.values()) == ["rx0", "rx1"]
