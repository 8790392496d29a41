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
                                     never_park)

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
    fast_edge = Clock._fast_edge
    with patch.object(
            Clock, "_fast_edge",
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
