"""Quiescent channels leave the clock — and nothing observable changes.

The park / re-arm / credit protocol (``Clock.on_edge``,
``FastChannel._credit``) is held to the every-edge reference of
``tests/sweep/_never_park.py`` on catalog experiments, sweep points, the
SoCs, hand-built scheduler corner cases and Hypothesis-drawn
topologies; a count-based guard pins the saving, and unit tests pin the
traps the protocol has to get right.
"""

from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import given

from repro import registry
from repro.connections import Buffer
from repro.connections.channel import FastChannel
from repro.experiments import li_latency, stall_verification
from repro.faults import FaultPlan
from repro.kernel import Simulator, TimeBudgetExceeded, time_budget
from repro.kernel.backend import use_backend
from repro.kernel.clock import Clock
from repro.verify.profiles import property_settings
from repro.verify.strategies import topologies
from repro.verify.topology import build_topology
from repro.workloads import run_workload, vector_scale_workload

from tests.sweep._never_park import (assert_parks_exactly,
                                     constructed_simulators, fast_channels,
                                     never_park, skipped_polls)

TELEMETRY = pytest.mark.parametrize("telemetry", [False, True],
                                    ids=["plain", "telemetry"])
BACKENDS = pytest.mark.parametrize("backend", ["threaded", "compiled"])


# ----------------------------------------------------------------------
# (a) every catalog experiment that declares a design
# ----------------------------------------------------------------------
def _reduced_runners() -> dict:
    """The experiments' own runners at tier-1 sizes (as in
    tests/test_compiled_backend.py)."""
    from repro.experiments import (adaptive_clocking_experiment, figure3,
                                   figure6, partition_size_sweep,
                                   stall_campaign, testchip_overhead)

    return {
        "stalls": lambda: stall_campaign(0.3, trials=2, base_seed=7),
        "fig3": lambda: figure3(ports=(2,), txns_per_port=8, seed=1),
        "gals": lambda: {"partition_sweep": partition_size_sweep(),
                         "testchip": testchip_overhead()},
        "fig6": lambda: figure6(
            workloads=[vector_scale_workload(n_pes=1, n_per_pe=4)]),
        "adaptive-clocking": adaptive_clocking_experiment,
        "li-latency": lambda: li_latency.run_report(stages=1, n_msgs=20,
                                                    seed=500),
    }


DESIGNS = sorted(spec.name for spec in registry.specs(hidden=True)
                 if spec.has_design)


def test_every_design_bearing_experiment_has_a_reduced_runner():
    assert sorted(_reduced_runners()) == DESIGNS


@TELEMETRY
@pytest.mark.parametrize("name", DESIGNS)
def test_catalog_experiment_matches_every_edge_reference(name, telemetry):
    assert_parks_exactly(_reduced_runners()[name], telemetry=telemetry)


@TELEMETRY
@pytest.mark.parametrize("name", DESIGNS)
def test_catalog_design_matches_every_edge_reference(name, telemetry):
    """The registered design itself, run for 300 of its first clock's
    cycles: mostly idle hardware, which is the case that parks."""
    def scenario():
        sim = registry.build_design(name)
        sim.run_cycles(sim._clocks[0], 300)

    assert_parks_exactly(scenario, telemetry=telemetry)


# ----------------------------------------------------------------------
# (b) sweep points, stall probabilities 0 / 0.2 / 1
# ----------------------------------------------------------------------
@TELEMETRY
@pytest.mark.parametrize("probability", [0.0, 0.2, 1.0])
def test_li_latency_point_matches(probability, telemetry):
    params = {"stages": 2, "n_msgs": 30, "capacity": 2,
              "stall_probability": probability, "period": 7, "trial": 0}
    assert_parks_exactly(lambda: li_latency.run_point(params, 503),
                         telemetry=telemetry)


@TELEMETRY
@pytest.mark.parametrize("probability", [0.0, 0.2, 1.0])
def test_stall_verification_point_matches(probability, telemetry):
    params = {"stall_probability": probability, "trial": 1,
              "n_msgs": 60, "bug": True}
    assert_parks_exactly(
        lambda: stall_verification.run_sweep_point(params, 104),
        telemetry=telemetry)


# ----------------------------------------------------------------------
# (c) vector_scale on the fast SoC and on the 20-clock GALS SoC
# ----------------------------------------------------------------------
@TELEMETRY
@pytest.mark.parametrize("gals", [False, True], ids=["fast", "gals"])
@BACKENDS
def test_vector_scale_on_soc_matches(backend, gals, telemetry):
    def scenario():
        with use_backend(backend):
            soc = run_workload(vector_scale_workload(n_pes=4, n_per_pe=16),
                               mode="fast", gals=gals)
        return {"cycles": soc.elapsed_cycles, "backend": soc.sim.backend}

    assert_parks_exactly(scenario, telemetry=telemetry)


# ----------------------------------------------------------------------
# (d) scheduler corner cases
# ----------------------------------------------------------------------
def _stream(sim, clk, chan, log, tag, *, n, gap):
    """A producer pushing every ``gap`` cycles and a polling consumer."""
    def producer():
        for i in range(n):
            while not chan.do_push(i):
                yield
            yield gap

    def consumer():
        got = 0
        while got < n:
            ok, _msg = chan.do_pop()
            if ok:
                got += 1
                log.append((tag, sim.now, clk.cycles))
            yield

    sim.add_thread(producer, clk, name=f"{tag}.tx")
    sim.add_thread(consumer, clk, name=f"{tag}.rx")


def two_clock_scenario():
    """Periods 2 : 3 — edges coincide every 6 ticks; both clocks carry a
    channel that parks between sparse messages."""
    sim = Simulator()
    log = []
    for tag, period, gap in (("a", 2, 7), ("b", 3, 4)):
        clk = sim.add_clock(tag, period=period)
        _stream(sim, clk, Buffer(sim, clk, name=tag), log, tag, n=6, gap=gap)
    sim.run(until=400)
    return log


def delayed_notify_scenario():
    """Timed events landing on a skipped edge (t=200) and between two
    (t=305), beside a channel that parked long before."""
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    chan = Buffer(sim, clk, name="c")
    log = []
    on_edge, off_edge = sim.event("on"), sim.event("off")

    def waiter():
        yield on_edge
        log.append(("on", sim.now, clk.cycles, chan.do_push(1)))
        yield off_edge
        log.append(("off", sim.now, clk.cycles, chan.do_pop()))
        yield 3
        log.append(("late", sim.now, clk.cycles, chan.do_pop()))

    sim.add_thread(waiter, clk, name="w")
    on_edge.notify_at(200)
    off_edge.notify_at(305)
    sim.run(until=500)
    return log


def pause_scenario():
    """``pause_until`` takes effect inside a span the channel sleeps
    through; a second pause is requested from a thread."""
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    Buffer(sim, clk, name="c").set_stall(0.5, seed=3)
    log = []

    def body():
        yield 5
        clk.pause_until(sim.now + 37)
        yield 20
        log.append((sim.now, clk.cycles))

    sim.add_thread(body, clk, name="t")
    sim.run(until=120)
    clk.pause_until(sim.now + 55)
    sim.run(until=600)
    return log


def set_period_scenario():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    chan = Buffer(sim, clk, name="c")
    log = []

    def body():
        yield 7
        clk.set_period(13)
        chan.do_push(1)
        yield 30
        log.append((sim.now, clk.cycles, chan.do_pop()))
        clk.set_period(4)

    sim.add_thread(body, clk, name="t")
    sim.run(until=2_000)
    return log


def max_steps_scenario():
    """A step budget counts edges whether or not anything wakes."""
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    Buffer(sim, clk, name="c")

    def sleeper():
        while True:
            yield 100

    sim.add_thread(sleeper, clk, name="s")
    return [sim.run(max_steps=n) for n in (5, 1, 12, 200, 3)]


def single_steps_scenario():
    """``run_cycles(clk, 1)`` in a loop with pushes and a ``set_stall``
    from outside any run: every exit leaves exact counters behind."""
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    chan = Buffer(sim, clk, capacity=2, name="c")
    seen = []
    for step in range(60):
        sim.run_cycles(clk, 1)
        if step in (3, 4, 30):
            chan.do_push(step)
        if step == 20:
            chan.set_stall(0.4, seed=11)
        if step in (10, 11, 45):
            chan.do_pop()
        seen.append((chan.stats.cycles, chan.stats.stall_cycles,
                     chan.stats.occupancy_sum, chan._stalled))
    return seen


@TELEMETRY
@pytest.mark.parametrize("scenario", [
    two_clock_scenario, delayed_notify_scenario, pause_scenario,
    set_period_scenario, max_steps_scenario, single_steps_scenario],
    ids=lambda fn: fn.__name__)
def test_scheduler_corner_case_matches(scenario, telemetry):
    observed = assert_parks_exactly(scenario, telemetry=telemetry)
    assert observed["result"], "the scenario must have logged something"


# ----------------------------------------------------------------------
# (e) Hypothesis-drawn topologies: a fourth arm of the differential family
# ----------------------------------------------------------------------
@BACKENDS
@given(spec=topologies())
@property_settings(scale=0.25)
def test_generated_topology_matches_every_edge_reference(backend, spec):
    def scenario():
        built = build_topology(spec, backend=backend)
        built.run()
        return {"sinks": [list(g) for g in built.got], "done": built.done(),
                "backend": built.sim.backend}

    assert_parks_exactly(scenario)
    assert_parks_exactly(scenario, telemetry=True)


# ----------------------------------------------------------------------
# negative control: the oracle notices a wrong credit
# ----------------------------------------------------------------------
def _li_point(probability):
    params = {"stages": 1, "n_msgs": 10, "capacity": 2,
              "stall_probability": probability, "period": 10, "trial": 0}
    return lambda: li_latency.run_point(params, 7)


def test_oracle_catches_a_credit_that_forgets_the_histogram():
    credit = FastChannel._credit

    def forgetful(self, n):
        telemetry, self.telemetry = self.telemetry, None
        try:
            credit(self, n)
        finally:
            self.telemetry = telemetry

    with patch.object(FastChannel, "_credit", forgetful):
        assert_parks_exactly(_li_point(0.0))  # invisible without a hub
        with pytest.raises(AssertionError, match="every-edge reference"):
            assert_parks_exactly(_li_point(0.0), telemetry=True)


def test_oracle_catches_a_credit_that_forgets_the_stall_draws():
    def forgetful(self, n):
        self.stats.cycles += n

    with patch.object(FastChannel, "_credit", forgetful):
        assert_parks_exactly(_li_point(0.0))  # nothing to draw
        with pytest.raises(AssertionError, match="every-edge reference"):
            assert_parks_exactly(_li_point(0.2))


# ----------------------------------------------------------------------
# the saving, as a count (wall-clock assertions stay out of tier-1)
# ----------------------------------------------------------------------
@contextmanager
def tick_census():
    """Counts executed ``FastChannel._tick`` calls; on exit also knows
    what executing every edge would have cost (channels x edges)."""
    census = {"ticks": 0}
    tick = FastChannel._tick

    def _tick(self, clock):  # lowering knows channel ticks by this name
        census["ticks"] += 1
        return tick(self, clock)

    with patch.object(FastChannel, "_tick", _tick), \
            constructed_simulators() as sims:
        yield census
    census["every_edge"] = sum(chan.clock.cycles for sim in sims
                               for chan in fast_channels(sim))


@pytest.mark.parametrize("run", [
    lambda: li_latency.cli_runner({}, None),
    lambda: stall_verification.run_sweep_point(
        {"stall_probability": 0.3, "trial": 0, "n_msgs": 60, "bug": True},
        100),
    lambda: run_workload(vector_scale_workload(seed=100), mode="fast"),
], ids=["li_latency", "stall_verification", "vector_scale"])
def test_executed_ticks_are_a_tenth_of_channels_times_edges(run):
    with tick_census() as parked:
        run()
    assert parked["every_edge"] > 10_000
    assert parked["ticks"] * 10 <= parked["every_edge"]
    with never_park(), tick_census() as reference:
        run()
    assert reference["ticks"] == reference["every_edge"] \
        == parked["every_edge"]


def test_finished_pipeline_skips_to_the_target_edge():
    sim, state, channels = li_latency.build_li_pipeline(
        stages=2, n_msgs=20, capacity=4, stall_probability=0.3,
        stall_seed=5)
    clk = sim._clocks[0]
    while state["completion_cycle"] is None:
        sim.run_cycles(clk, 10)
    sim.run_cycles(clk, 2)  # the last pop's channel ticks once more
    assert not clk._active
    edges = []
    fast_edge = Clock._edge
    with patch.object(
            Clock, "_edge",
            lambda self: (edges.append(self.cycles), fast_edge(self))):
        sim.run_cycles(clk, 3_000)
    assert len(edges) <= 1
    assert {chan.stats.cycles for chan in channels} == {clk.cycles}


# ----------------------------------------------------------------------
# the traps, one by one
# ----------------------------------------------------------------------
def _parked_pair():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    chan = Buffer(sim, clk, name="c")
    sim.run_cycles(clk, 5)
    assert chan._skip_from == 5 and not clk._active  # parked, settled
    return sim, clk, chan


def test_push_from_an_edge_callback_ticks_ahead_not_behind():
    """Trap 3: a callback pushing into parked channels mid-walk.  The
    channel registered after it still ticks this edge (and so accepts a
    second push from the thread phase); the one before it does not."""
    def scenario():
        sim = Simulator()
        clk = sim.add_clock("clk", period=10)
        behind = Buffer(sim, clk, name="behind")
        pushes = []

        def pusher(clock):
            if clock.cycles in (6, 7, 20):
                pushes.append((clock.cycles, behind.do_push("cb"),
                               ahead.do_push("cb")))

        clk.on_edge(pusher)
        ahead = Buffer(sim, clk, name="ahead")

        def thread():
            yield 5
            for _ in range(3):
                pushes.append((clk.cycles, behind.do_push("th"),
                               ahead.do_push("th")))
                yield

        sim.add_thread(thread, clk, name="t")
        sim.run_cycles(clk, 40)
        return pushes

    observed = assert_parks_exactly(scenario, telemetry=True)
    assert [6, True, True] in observed["result"]    # the callback's push
    assert [6, False, True] in observed["result"]   # the thread's, after


def test_engine_attaching_late_walks_the_clocks_list():
    """Trap 5: an engine attached after the threaded loop parked (and
    settled) channels, then detached mid-run, leaves one consistent
    list: nothing double-ticked, nothing lost."""
    still_parked = []

    def scenario():
        sim = Simulator(backend="threaded")
        clk = sim.add_clock("clk", period=10)
        idle = Buffer(sim, clk, name="idle")
        busy = Buffer(sim, clk, name="busy")
        log = []
        _stream(sim, clk, busy, log, "busy", n=8, gap=9)

        def spoiler():
            yield 60
            sim.schedule(5, lambda: None)  # a timed event: engine detaches

        sim.add_thread(spoiler, clk, name="spoiler")
        sim.run_cycles(clk, 20)
        sim._backend_requested = "compiled"  # what try_attach would see
        sim.run_cycles(clk, 20)
        log.append(sim.backend)
        sim.run_cycles(clk, 60)
        log.append(sim.backend)
        still_parked.append(idle._skip_from is not None)
        return log

    observed = assert_parks_exactly(scenario)
    assert [entry for entry in observed["result"] if entry in
            ("compiled", "threaded")] == ["compiled", "threaded"]
    assert still_parked == [False, True]  # reference run, parked run


def test_snapshot_restore_rearms_parked_channels():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    chan = Buffer(sim, clk, name="c")
    sim.add_thread(lambda: (yield 3), clk, name="t")
    snap = sim.snapshot()
    sim.run_cycles(clk, 50)
    assert chan._skip_from is not None and chan.stats.cycles == 50
    sim.restore(snap)
    assert chan._skip_from is None and [r[2] for r in clk._active] == [chan]
    sim.run_cycles(clk, 7)
    assert chan.stats.cycles == 7


def test_dropped_push_rearms_before_the_fault_hook():
    """Trap 6: a dropped push sets ``_pushed`` and nothing else; only a
    tick clears it, so the channel must be back on the clock."""
    sim, clk, chan = _parked_pair()
    FaultPlan(seed=1).drop("c", probability=1.0).apply(sim)
    assert chan.do_push("lost") and chan._pushed
    assert chan._skip_from is None and chan.stats.cycles == 5
    assert not chan.do_push("second push in one cycle")
    sim.run_cycles(clk, 1)
    assert not chan._pushed and chan.occupancy == 0


def test_set_stall_credits_the_old_schedule_first():
    sim, clk, chan = _parked_pair()
    chan.set_stall(1.0, seed=0)          # parked with p = 0: no draws owed
    assert (chan.stats.cycles, chan.stats.stall_cycles) == (5, 0)
    sim.run_cycles(clk, 10)              # ticks once, parks again, stalled
    assert chan._skip_from == 15 and not clk._active
    assert (chan.stats.cycles, chan.stats.stall_cycles) == (15, 10)
    chan.set_stall(0.0)                  # settled already: nothing to add
    assert (chan.stats.cycles, chan.stats.stall_cycles) == (15, 10)
    assert not chan._stalled


def test_set_stall_mid_run_draws_skipped_ticks_from_the_old_rng():
    def scenario():
        sim = Simulator()
        clk = sim.add_clock("clk", period=10)
        chan = Buffer(sim, clk, name="c")
        chan.set_stall(0.5, seed=1)

        def body():
            yield 40                      # chan parks, owing 39 draws
            chan.set_stall(0.25, seed=2)
            yield 40

        sim.add_thread(body, clk, name="t")
        sim.run_cycles(clk, 100)

    assert_parks_exactly(scenario, telemetry=True)


def test_time_budget_exit_leaves_settled_stats():
    sim, clk, chan = _parked_pair()

    def spin():
        while True:
            yield

    sim.add_thread(spin, clk, name="spin")
    with pytest.raises(TimeBudgetExceeded), time_budget(0.02):
        sim.run(until=10 ** 12)
    assert clk.cycles > 5
    assert chan.stats.cycles == clk.cycles == chan._skip_from


def test_duck_typed_clock_never_parks():
    """Trap 4: a clock whose ``on_edge`` returns nothing and ignores the
    verdict (tests/design/test_hierarchy.py builds one)."""
    class BareClock:
        cycles = 0

        def on_edge(self, fn):
            self.fn = fn

    clk = BareClock()
    chan = FastChannel(Simulator(), clk, kind="Buffer", capacity=2)
    for clk.cycles in range(1, 4):
        clk.fn(clk)
    assert chan._skip_from is None and chan.stats.cycles == 3
    assert chan.do_push(1)
    chan._restore_state(chan._snapshot_state())
    assert chan.occupancy == 1


# ----------------------------------------------------------------------
# (f) blocked handshakes: short blocks poll, idle ones park on the pop gate
# ----------------------------------------------------------------------
def _blocked_bench(backend, *, consumers=1, n=4, gap=9, capacity=2,
                   sleeper=None, cut=None):
    """A producer pushing ``n`` messages ``gap`` cycles apart into one
    channel that ``consumers`` threads pop from with blocking ``pop()``;
    after the last message every consumer stays blocked for good.
    ``cut`` names a raiser that ends the run at cycle ``CUT`` (see
    :func:`test_exception_mid_cycle_credits_parked_polls_exactly`)."""
    from repro.connections import In, Out

    sim = Simulator(backend=backend)
    clk = sim.add_clock("clk", period=10)
    chan = Buffer(sim, clk, capacity=capacity, name="c")
    log = []
    src = Out(chan, name="src")

    def producer():
        for i in range(n):
            yield from src.push(i)
            yield gap

    def consumer(port, tag):
        while True:
            msg = yield from port.pop()
            log.append((tag, msg, clk.cycles))

    def raise_cut():
        raise RuntimeError(f"cut at cycle {clk.cycles}")

    def polls():
        while clk.cycles < CUT:
            yield
        raise_cut()

    def sleeps_to_cut():
        yield CUT - clk.cycles
        raise_cut()

    sim.add_thread(producer, clk, name="tx")
    if cut == "poller-before":
        sim.add_thread(polls, clk, name="cut")
    for k in range(consumers):
        port = In(chan, name=f"dst{k}")
        sim.add_thread(lambda port=port, k=k: consumer(port, k), clk,
                       name=f"rx{k}")
    if sleeper is not None:
        def sleeps():
            while True:
                yield sleeper
                log.append(("sleeper", clk.cycles))

        sim.add_thread(sleeps, clk, name="zz")
    if cut == "poller-after":
        sim.add_thread(polls, clk, name="cut")
    elif cut == "sleeper":
        sim.add_thread(sleeps_to_cut, clk, name="cut")
    elif cut == "edge-callback":
        clk.on_edge(lambda clock: raise_cut() if clock.cycles == CUT
                    else None)
    return sim, clk, chan, log


@TELEMETRY
@BACKENDS
@pytest.mark.parametrize("probability", [0.0, 0.3, 1.0])
def test_blocked_dut_of_a_stall_point_matches(probability, backend,
                                              telemetry):
    params = {"stall_probability": probability, "trial": 0,
              "n_msgs": 30, "bug": True}

    def scenario():
        with use_backend(backend):
            return stall_verification.run_sweep_point(params, 100)

    assert_parks_exactly(scenario, telemetry=telemetry)


@TELEMETRY
@BACKENDS
@pytest.mark.parametrize("capacity", [1, 2])
def test_push_blocked_li_stages_match(capacity, backend, telemetry):
    params = {"stages": 3, "n_msgs": 25, "capacity": capacity,
              "stall_probability": 0.4, "period": 10, "trial": 0}

    def scenario():
        with use_backend(backend):
            return li_latency.run_point(params, 501)

    observed = assert_parks_exactly(scenario, telemetry=telemetry)
    assert observed["simulators"][0]["channels"][0][1][3] > 0  # push_rejections


@TELEMETRY
@BACKENDS
def test_two_consumers_blocked_on_one_channel_match(backend, telemetry):
    """Back-to-back pushes keep data visible while both consumers poll.
    Bucket order is stable and a channel pops once per cycle, so the
    first consumer takes every message; the second one's polls are
    refused by ``_popped`` with data in the queue — a block that polls,
    the channel not being parked — and counted as the reference counts
    them (the fingerprint compares ``pop_rejections``)."""
    def scenario():
        sim, clk, _chan, log = _blocked_bench(backend, consumers=2, n=6,
                                              gap=1, capacity=4)
        sim.run(until=3_000)
        return log

    observed = assert_parks_exactly(scenario, telemetry=telemetry)
    assert [(tag, msg) for tag, msg, _cycle in observed["result"]] \
        == [(0, i) for i in range(6)]


@TELEMETRY
@BACKENDS
@pytest.mark.parametrize("until", [1_000, 1_047, 1_050, 1_120],
                         ids=["inside", "between-edges", "on-the-wakeup",
                              "past-it"])
def test_sleeper_landing_in_a_skipped_span_matches(until, backend,
                                                   telemetry):
    """``yield 7`` beside two blocked consumers: the span ends inside a
    sleep, exactly on the sleeper's edge, or after it — while the
    consumers stay parked on the channel's pop gate."""
    def scenario():
        sim, clk, _chan, log = _blocked_bench(backend, consumers=2,
                                              sleeper=7)
        sim.run(until=until)
        sim.run(until=until + 400)
        return log

    observed = assert_parks_exactly(scenario, telemetry=telemetry)
    wakes = [entry[1] for entry in observed["result"]
             if entry[0] == "sleeper"]
    assert wakes == list(range(8, wakes[-1] + 1, 7)) and len(wakes) > 10


def test_parked_consumers_leave_the_sleeper_alone_in_the_buckets():
    sim, clk, chan, _log = _blocked_bench("threaded", consumers=2, n=1,
                                          sleeper=7)

    def filed():
        return [t.name for bucket in clk._wakeups.values() for t in bucket]

    def parked():
        return sorted((thread.name, gate is chan._pop_gate)
                      for thread, gate, _since in clk._gated.values())

    sim.run_cycles(clk, 30)       # traffic over, both consumers blocked
    assert filed() == ["zz"]
    assert parked() == [("rx0", True), ("rx1", True)]
    # The sleeper wakes (and re-files) across the idle span; the
    # consumers never re-enter a bucket.
    wakes = clk.cycles + 7 * 3
    sim.run_cycles(clk, wakes - clk.cycles)
    assert filed() == ["zz"] and parked() == [("rx0", True), ("rx1", True)]


@TELEMETRY
@BACKENDS
def test_pause_inside_a_skipped_span_matches(backend, telemetry):
    def scenario():
        sim, clk, _chan, log = _blocked_bench(backend, sleeper=40)
        sim.run(until=700)
        clk.pause_until(sim.now + 137)   # from outside, mid-span
        sim.run(until=2_000)
        return log

    assert_parks_exactly(scenario, telemetry=telemetry)


@TELEMETRY
@BACKENDS
def test_run_cycles_target_inside_a_skipped_span_matches(backend, telemetry):
    def scenario():
        sim, clk, chan, _log = _blocked_bench(backend, consumers=2)
        seen = []
        for cycles in (60, 1, 1, 25, 300, 1):
            sim.run_cycles(clk, cycles)
            seen.append((sim.now, clk.cycles, chan.stats.pop_rejections))
        return seen

    observed = assert_parks_exactly(scenario, telemetry=telemetry)
    assert observed["result"][-1][1] == 388


#: The cycle a ``cut`` raiser of :func:`_blocked_bench` raises at.
CUT = 121


@TELEMETRY
@BACKENDS
@pytest.mark.parametrize("cut", ["sleeper", "poller-before",
                                 "poller-after", "edge-callback"])
def test_exception_mid_cycle_credits_parked_polls_exactly(cut, backend,
                                                          telemetry):
    """An exception cuts cycle ``CUT`` short while both consumers are
    parked on the empty channel.  A due sleeper, a poller registered
    before them and an edge callback all run ahead of their slots, so
    neither consumer made that cycle's poll and the exit credits each
    one poll fewer; a poller registered after them raises once both
    have polled (the control)."""
    def scenario():
        sim, clk, chan, _log = _blocked_bench(backend, consumers=2, cut=cut)
        with pytest.raises(RuntimeError, match=f"cut at cycle {CUT}"):
            sim.run(until=100_000)
        return chan.stats.pop_attempts, chan.stats.pop_rejections

    observed = assert_parks_exactly(scenario, telemetry=telemetry)
    attempts, rejections = observed["result"]
    assert attempts - rejections == 4
    assert rejections == (242 if cut == "poller-after" else 240)


def _second_run_scenario(backend, between):
    """Everything blocks, the run ends, ``between(chan)`` touches the
    channel from outside, a second run follows."""
    def scenario():
        sim, clk, chan, log = _blocked_bench(backend, consumers=2)
        sim.run(until=2_000)
        between(chan)
        sim.run(until=3_000)
        return log, chan.stats.pop_attempts, chan.stats.pop_rejections

    return scenario


@TELEMETRY
@BACKENDS
@pytest.mark.parametrize("between", [
    lambda chan: chan.do_push("external"),
    lambda chan: chan.set_stall(0.5, seed=9),
    lambda chan: (chan.set_stall(1.0, seed=1), chan.do_push("stalled")),
], ids=["do_push", "set_stall", "stalled-push"])
def test_external_touch_wakes_a_carried_bucket(between, backend, telemetry):
    assert_parks_exactly(_second_run_scenario(backend, between),
                         telemetry=telemetry)


@TELEMETRY
@BACKENDS
def test_raised_capacity_wakes_a_blocked_pusher(backend, telemetry):
    def scenario():
        from repro.connections import Out

        sim = Simulator(backend=backend)
        clk = sim.add_clock("clk", period=10)
        chan = Buffer(sim, clk, capacity=1, name="c")
        src = Out(chan, name="src")
        pushed = []

        def producer():
            for i in range(4):
                yield from src.push(i)
                pushed.append((i, clk.cycles))

        sim.add_thread(producer, clk, name="tx")
        sim.run(until=500)        # nobody pops: blocked on the 2nd push
        chan.capacity = 3
        sim.run(until=1_000)
        return pushed, chan.stats.push_attempts, chan.stats.push_rejections

    observed = assert_parks_exactly(scenario, telemetry=telemetry)
    assert [i for i, _cycle in observed["result"][0]] == [0, 1, 2]


@BACKENDS
def test_snapshot_restore_rerun_with_blocked_threads_matches(backend):
    def scenario():
        sim, clk, chan, log = _blocked_bench(backend, consumers=2)
        sim.on_restore(log.clear)
        snap = sim.snapshot()
        sim.run(until=2_000)
        first = (list(log), chan.stats.pop_rejections, sim.now)
        mid = sim.snapshot()
        sim.run(until=2_500)
        sim.restore(mid)
        assert (list(log), chan.stats.pop_rejections, sim.now) == first
        sim.restore(snap)
        sim.run(until=2_000)
        assert (list(log), chan.stats.pop_rejections, sim.now) == first
        sim.run(until=2_700)
        return log

    assert_parks_exactly(scenario)


def test_engine_attaches_and_detaches_around_blocked_threads():
    """Consumers the threaded loop parked on the pop gate flow into a
    late-attaching engine; a mid-run detach files them back."""
    backends = []

    def scenario():
        sim, clk, chan, log = _blocked_bench("threaded", consumers=2, n=6,
                                             gap=30)

        def spoiler():
            yield 120
            sim.schedule(5, lambda: None)  # a timed event: engine detaches

        sim.add_thread(spoiler, clk, name="spoiler")
        sim.run_cycles(clk, 50)            # threaded: the consumers park
        sim._backend_requested = "compiled"  # what try_attach would see
        sim.run_cycles(clk, 40)
        backends.append(sim.backend)
        sim.run_cycles(clk, 200)
        backends.append(sim.backend)
        return log, chan.stats.pop_attempts

    assert_parks_exactly(scenario)
    assert backends == ["compiled", "threaded"] * 2


@pytest.mark.parametrize("stages, capacity", [(2, 1), (3, 2)])
def test_capture_window_polls_every_edge(stages, capacity):
    """A capture window does not park: the recorder sees every attempt,
    so op scripts (first-attempt and success cycles) equal the
    reference's and the run executes exactly the reference's generator
    resumes."""
    from repro.kernel.simulator import Thread
    from repro.trace import capture

    def scenario():
        sim, _state, chans = li_latency.build_li_pipeline(
            stages=stages, n_msgs=12, capacity=capacity,
            stall_probability=0.0, stall_seed=0)
        resumes = [0]
        resume = Thread._resume

        def counting(self):
            resumes[0] += 1
            resume(self)

        with patch.object(Thread, "_resume", counting), \
                capture(sim) as session:
            # Inside the window (cycle 0), so the recorder sees the seed:
            # a stall set at construction makes any trace ineligible.
            chans[-1].set_stall(0.3, seed=4)
            sim.run(until=8_000)
        assert session.trace["eligible"], session.trace["reasons"]
        return session.trace, resumes[0]

    assert_parks_exactly(scenario)


@TELEMETRY
def test_watchdog_run_parks_and_diagnoses_as_the_reference(telemetry):
    from repro.faults import HangError, Watchdog

    def scenario():
        sim, clk, chan, log = _blocked_bench("threaded", consumers=2)
        Watchdog(sim, clk, window=200)
        with pytest.raises(HangError) as hang:
            sim.run(until=100_000)
        return hang.value.diagnosis.to_records(), log

    with skipped_polls() as skipped:
        observed = assert_parks_exactly(scenario, telemetry=telemetry)
    assert skipped[0] > 0  # the watched consumers parked
    head = observed["result"][0][0]
    assert head["kind"] == "deadlock"
    assert sorted(r["thread"] for r in observed["result"][0]
                  if r["type"] == "hang.thread") == ["rx0", "rx1"]


def test_oracle_catches_an_answer_that_forgets_pop_rejections():
    """The skipped polls of a parked pop are credited, not made: a credit
    that counts the attempts but not their refusals must show."""
    def forgetful(self, n):
        self.stats.pop_attempts += n

    scenario = _second_run_scenario("threaded", lambda chan: None)
    # channels bind the credit at construction: build under the patch
    with patch.object(FastChannel, "_refused_pops", forgetful):
        with pytest.raises(AssertionError, match="every-edge reference"):
            assert_parks_exactly(scenario)


def test_oracle_catches_an_idle_credit_that_forgets_delta_cycles():
    advance = Clock._advance_idle

    def forgetful(self, last, kstats):
        deltas = kstats.delta_cycles if kstats is not None else 0
        advance(self, last, kstats)
        if kstats is not None:
            kstats.delta_cycles = deltas

    scenario = _second_run_scenario("threaded", lambda chan: None)
    with patch.object(Clock, "_advance_idle", forgetful):
        assert_parks_exactly(scenario)  # invisible without a hub
        with pytest.raises(AssertionError, match="every-edge reference"):
            assert_parks_exactly(scenario, telemetry=True)
