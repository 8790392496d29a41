"""Unit tests for the simulation kernel scheduler."""

import pytest

from repro.kernel import Event, SimulationError, Simulator


def test_empty_simulation_runs_to_completion():
    sim = Simulator()
    assert sim.run() == 0


def test_clock_ticks_at_period():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    sim.run(until=100)
    # Edges at t=0,10,...,100 inclusive.
    assert clk.cycles == 11


def test_clock_start_offset():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10, start=5)
    sim.run(until=100)
    # Edges at t=5,15,...,95.
    assert clk.cycles == 10


def test_thread_runs_once_per_cycle():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    ticks = []

    def body():
        while True:
            ticks.append(sim.now)
            yield

    sim.add_thread(body(), clk, name="t")
    sim.run(until=50)
    assert ticks == [0, 10, 20, 30, 40, 50]


def test_thread_multi_cycle_wait():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    ticks = []

    def body():
        while True:
            ticks.append(sim.now)
            yield 3

    sim.add_thread(body(), clk, name="t")
    sim.run(until=100)
    assert ticks == [0, 30, 60, 90]


def test_thread_termination_counts():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)

    def body():
        yield
        yield

    sim.add_thread(body(), clk, name="t")
    assert sim.pending_threads == 1
    sim.run(until=100)
    assert sim.pending_threads == 0


def test_two_clock_domains_interleave():
    sim = Simulator()
    fast = sim.add_clock("fast", period=7)
    slow = sim.add_clock("slow", period=13)
    log = []

    def mk(tag):
        def body():
            while True:
                log.append((tag, sim.now))
                yield

        return body

    sim.add_thread(mk("f")(), fast, name="f")
    sim.add_thread(mk("s")(), slow, name="s")
    sim.run(until=40)
    fast_times = [t for tag, t in log if tag == "f"]
    slow_times = [t for tag, t in log if tag == "s"]
    assert fast_times == [0, 7, 14, 21, 28, 35]
    assert slow_times == [0, 13, 26, 39]


def test_event_notify_wakes_waiter_same_timestep():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    ev = sim.event("ev")
    woken_at = []

    def waiter():
        yield ev
        woken_at.append(sim.now)

    def notifier():
        yield 2  # wake at t=20
        ev.notify()

    sim.add_thread(waiter(), clk, name="w")
    sim.add_thread(notifier(), clk, name="n")
    sim.run(until=100)
    assert woken_at == [20]


def test_event_notify_at_delay():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    ev = sim.event("ev")
    woken_at = []

    def waiter():
        yield ev
        woken_at.append(sim.now)

    def notifier():
        yield  # now at t=10
        ev.notify_at(25)  # relative: fires at t=35

    sim.add_thread(waiter(), clk, name="w")
    sim.add_thread(notifier(), clk, name="n")
    sim.run(until=100)
    assert woken_at == [35]


def test_yield_nonpositive_wait_rejected():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)

    def body():
        yield 0

    sim.add_thread(body(), clk, name="bad")
    with pytest.raises(SimulationError):
        sim.run(until=50)


def test_yield_garbage_rejected():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)

    def body():
        yield "nope"

    sim.add_thread(body(), clk, name="bad")
    with pytest.raises(SimulationError):
        sim.run(until=50)


def test_run_cycles_advances_exactly():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    sim.run_cycles(clk, 5)
    assert clk.cycles == 5


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(100, lambda: fired.append(True))
    sim.run(until=50)
    assert fired == []
    assert sim.now == 50


def test_subgenerator_composition_with_yield_from():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    log = []

    def helper(n):
        for _ in range(n):
            yield
        return sim.now

    def body():
        t = yield from helper(3)
        log.append(t)

    sim.add_thread(body(), clk, name="t")
    sim.run(until=100)
    assert log == [30]


@pytest.mark.parametrize("backend", ["threaded", "compiled"])
def test_run_until_behind_now_never_rewinds_time(backend):
    """``run(until=T)`` with ``T < now`` used to set ``now = T`` while the
    clock kept its cycle count and next edge — under both executors."""
    from repro.connections import Buffer

    sim = Simulator(backend=backend)
    clk = sim.add_clock("clk", period=10)
    chan = Buffer(sim, clk, name="c")   # a per-edge callback: compiled attaches
    ticks = []

    def body():
        while True:
            ticks.append(clk.cycles)
            yield

    sim.add_thread(body, clk, name="t")
    assert sim.run(until=1000) == 1000
    assert sim.backend == backend
    state = (sim.now, clk.cycles, clk.next_edge, len(ticks),
             chan.stats.cycles)
    assert state == (1000, 101, 1010, 101, 101)

    assert sim.run(until=500) == 1000          # behind now: nothing runs
    assert (sim.now, clk.cycles, clk.next_edge, len(ticks),
            chan.stats.cycles) == state
    assert sim.run(until=1000) == 1000         # at now: nothing left to run
    assert (sim.now, clk.cycles, clk.next_edge, len(ticks),
            chan.stats.cycles) == state
    # the call is still recorded, so snapshot replay sees the same history
    assert sim._history[-2:] == [("run", 500, None), ("run", 1000, None)]

    assert sim.run(until=1020) == 1020         # and time moves on from now
    assert (clk.cycles, clk.next_edge) == (103, 1030)
