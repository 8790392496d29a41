"""Tests for the scheduler hot path: fast-lane clocks, wakeup buckets,
idle-skip, signal-held sensitivity, and the bounded ``run_cycles``.

These pin down the semantics-preservation contract of the fast paths
(see ``docs/PERFORMANCE.md``): everything here must hold on the general
heap-scheduled path too.
"""

import gc

import pytest

from repro.connections import Buffer
from repro.kernel import Signal, Simulator


# ----------------------------------------------------------------------
# direct signal→method sensitivity (the id()-keyed dict is gone)
# ----------------------------------------------------------------------

def test_dropped_signals_cannot_alias_sensitivity():
    """Regression for the old ``Simulator._sensitivity`` id()-keyed dict.

    The dict held no reference to the signal, so a collected signal's
    reused ``id`` inherited the stale method list.  Watcher lists now
    live on the signal object itself; churning signals through creation
    and collection must leave fresh signals with only their own methods.
    """
    sim = Simulator()
    stale_calls = []
    for i in range(50):
        tmp = Signal(sim, 0, name=f"tmp{i}")
        sim.add_method(lambda i=i: stale_calls.append(i), [tmp],
                       name=f"stale{i}")
        del tmp
        gc.collect()
    hits = []
    fresh = Signal(sim, 0, name="fresh")
    sim.add_method(lambda: hits.append(fresh.read()), [fresh], name="m")
    sim.run()  # settle: every method runs once at elaboration
    stale_calls.clear()
    hits.clear()
    fresh.write(7)
    sim.run(until=sim.now + 10)
    assert hits == [7]
    assert stale_calls == []


def test_watcher_list_is_per_signal():
    sim = Simulator()
    a = Signal(sim, 0, name="a")
    b = Signal(sim, 0, name="b")
    runs = []
    sim.add_method(lambda: runs.append("a"), [a], name="ma")
    sim.add_method(lambda: runs.append("b"), [b], name="mb")
    sim.run()
    runs.clear()
    a.write(1)
    sim.run(until=sim.now + 10)
    assert runs == ["a"]


# ----------------------------------------------------------------------
# run_cycles: single bounded run with an edge-count stop condition
# ----------------------------------------------------------------------

def test_run_cycles_on_stopped_clock_terminates():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    clk.stop()
    sim.run_cycles(clk, 5)
    assert clk.cycles == 0


def test_run_cycles_when_clock_stops_midway():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)

    def stopper():
        yield 3
        clk.stop()

    sim.add_thread(stopper(), clk, name="s")
    sim.run_cycles(clk, 10)
    # First resume at cycle 1, then 3 more edges; the run terminates
    # (no work left) with only 4 of the 10 requested edges ticked.
    assert clk.cycles == 4


def test_run_cycles_against_paused_clock():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    clk.pause_until(35)
    end = sim.run_cycles(clk, 2)
    # Edge at t=0 defers to the pause end (t=35); the next lands at 45.
    assert clk.cycles == 2
    assert end == 45
    assert clk.paused_edges == 1
    assert clk.total_pause_time == 35


def test_run_cycles_twice_is_cumulative():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    sim.run_cycles(clk, 5)
    sim.run_cycles(clk, 5)
    assert clk.cycles == 10
    assert sim.now == 90


# ----------------------------------------------------------------------
# events vs wakeup buckets
# ----------------------------------------------------------------------

def test_event_notify_at_wakes_thread_later():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    ev = sim.event("e")
    log = []

    def waiter():
        yield ev
        log.append(sim.now)

    sim.add_thread(waiter(), clk, name="w")
    ev.notify_at(55)
    sim.run(until=100)
    assert log == [55]


def test_stopped_clock_never_wakes_subscribed_threads():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    ticks = []

    def body():
        while True:
            yield 4
            ticks.append(sim.now)

    sim.add_thread(body(), clk, name="t")
    sim.run(until=100)
    seen = len(ticks)
    assert seen > 0
    clk.stop()
    sim.run(until=300)
    # The thread stays filed in its wakeup bucket forever.
    assert len(ticks) == seen
    assert clk.pending_wakeups == 1


def test_thread_alternates_event_and_multi_cycle_waits():
    """Wakeup buckets and ``Event._subscribe`` interleave correctly."""
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    ev = sim.event("e")
    log = []

    def pinger():
        yield 2
        ev.notify()
        yield 5
        ev.notify()

    def waiter():
        yield ev
        log.append(("ev", sim.now))
        yield 3
        log.append(("cyc", sim.now))
        yield ev
        log.append(("ev", sim.now))

    sim.add_thread(pinger(), clk, name="p")
    sim.add_thread(waiter(), clk, name="w")
    sim.run(until=200)
    assert log == [("ev", 20), ("cyc", 50), ("ev", 70)]


# ----------------------------------------------------------------------
# idle-skip bookkeeping
# ----------------------------------------------------------------------

def test_idle_clock_cycle_count_matches_horizon():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    sim.run(until=95)
    # Edges at t=0..90 all "happened" even though none had work.
    assert clk.cycles == 10
    assert sim.now == 95


def test_idle_skip_preserves_sparse_wakeups():
    sim = Simulator()
    clk = sim.add_clock("clk", period=7)
    log = []

    def sleeper():
        yield 1000
        log.append((sim.now, clk.cycles))
        yield 1000
        log.append((sim.now, clk.cycles))

    sim.add_thread(sleeper(), clk, name="s")
    sim.run(until=20_000)
    # First resume at cycle 1 (t=0); then cycles 1001 and 2001.
    assert log == [(7000, 1001), (14000, 2001)]


def test_pause_applies_during_idle_skip():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    clk.pause_until(25)
    sim.run(until=100)
    # t=0 defers to 25; edges then at 25,35,...,95.
    assert clk.cycles == 8
    assert clk.paused_edges == 1
    assert clk.total_pause_time == 25


# ----------------------------------------------------------------------
# idle-skip is exact beside a second event source
# ----------------------------------------------------------------------
# Each reproducer runs twice: with an idle Buffer on every clock (whose
# tick parks at once; before parking existed it forced every edge to
# execute) and with no channel at all.  An unrelated idle channel must
# not change what the threads see.

WITH_IDLE_CHANNEL = pytest.mark.parametrize(
    "idle_channel", [True, False], ids=["idle-buffer", "no-channel"])


def _idle_buffers(sim, idle_channel):
    if idle_channel:
        for clk in sim._clocks:
            Buffer(sim, clk, name=f"idle_{clk.name}")


@WITH_IDLE_CHANNEL
def test_coincident_edges_resume_in_per_edge_order(idle_channel):
    """Clock ``a`` (period 10) sleeps six cycles at a time, ``b``
    (period 15) wakes every cycle.  Where their edges coincide ``b``
    took its sequence stamp (t-15) before ``a`` took its own (t-10), so
    ``b`` fires first — also when ``a``'s edges in between are skipped
    (a stale stamp used to put ``a`` first)."""
    sim = Simulator()
    a = sim.add_clock("a", period=10)
    b = sim.add_clock("b", period=15)
    _idle_buffers(sim, idle_channel)
    log = []

    def every(n, tag):
        while True:
            yield n
            log.append((sim.now, tag))

    sim.add_thread(every(6, "a"), a, name="a")
    sim.add_thread(every(1, "b"), b, name="b")
    sim.run(until=200)
    for t in (60, 120, 180):
        assert [tag for at, tag in log if at == t] == ["b", "a"]


@WITH_IDLE_CHANNEL
def test_timed_event_on_a_skipped_edge_fires_in_per_edge_order(idle_channel):
    """An event scheduled at t=0 for t=100 predates the stamp the clock
    takes at t=90, so it fires before the edge at t=100 and sees ten
    cycles — also when the edges at t=10..90 are skipped."""
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    _idle_buffers(sim, idle_channel)
    seen = []

    def body():
        sim.schedule(100, lambda: seen.append(clk.cycles))
        yield 50

    sim.add_thread(body(), clk, name="t")
    sim.run(until=300)
    assert seen == [10]
    assert clk.cycles == 31


@WITH_IDLE_CHANNEL
def test_step_budget_counts_skippable_edges(idle_channel):
    """``max_steps`` means edges, executed or skippable: five steps end
    at the fifth edge (t=40), not at the sleeper's wakeup."""
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    _idle_buffers(sim, idle_channel)

    def sleeper():
        yield 100

    sim.add_thread(sleeper(), clk, name="s")
    assert sim.run(max_steps=5) == 40
    assert clk.cycles == 5
    assert sim.run(until=2_000) == 2_000
    assert clk.cycles == 201


@WITH_IDLE_CHANNEL
def test_idle_edges_count_one_timestep_each(idle_channel):
    """Telemetry counts a skipped edge as the event and the timestep it
    would have been; two live clocks execute every edge, so coinciding
    idle edges are one timestep, as they are per edge."""
    sim = Simulator(telemetry=True)
    sim.add_clock("a", period=2)
    sim.add_clock("b", period=3)
    _idle_buffers(sim, idle_channel)
    sim.run(until=11)
    kernel = sim.telemetry.kernel
    # a: t=0,2,...,10 (6 edges); b: t=0,3,6,9 (4); t=0 and t=6 shared.
    assert kernel.events_fired == 10
    assert kernel.timesteps == 8
