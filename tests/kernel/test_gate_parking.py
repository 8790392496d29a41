"""Gates park under both executors — and nothing observable changes.

A thread that yields a shut ``Gate`` leaves its clock's wakeup buckets
(the compiled engine's live list) until ``Gate.open()`` files it back at
the slot its per-edge poll would have held; the polls it skipped, with
the refused pops its owner declared (``Gate.idle_pops``), are credited
at unpark and at every run exit.  The every-poll reference is
``never_gate()`` in ``tests/sweep/_never_park.py`` (part of
``never_park()``, so the oracle tests of ``test_quiescent_channels.py``
cover gates too).  Here: the SoC programs (fast, GALS) and the AXI
fabric against it, the executors against each other on every channel's
statistics (and the routers' stage loop against their ops loop,
``generic_router()``), the shapes a gate can open in (two waiters on
one gate too), snapshot restore and engine hand-over with threads parked, the
saving as an exact count, and the horizon-less run both executors now
end alike.
"""

import json
import pathlib
from unittest.mock import patch

import pytest

from repro import observe
from repro.axi import (AddressRange, AxiInterconnect, AxiMaster,
                       AxiMemorySlave, AxiRegisterSlave)
from repro.connections import Buffer
from repro.kernel import Gate, Simulator, time_budget
from repro.kernel.backend import use_backend
from repro.matchlib import MemArray
from repro.noc.whvc_router import WHVCRouter
from repro.workloads import (conv2d_workload, dot_product_workload,
                             gemm_workload, memcpy_workload,
                             reduction_workload, run_workload,
                             vector_scale_workload)

from tests.sweep._never_park import (assert_parks_exactly,
                                     constructed_simulators, fingerprint,
                                     generic_router, never_gate, never_lane,
                                     observe_run, skipped_polls)

TELEMETRY = pytest.mark.parametrize("telemetry", [False, True],
                                    ids=["plain", "telemetry"])
BACKENDS = pytest.mark.parametrize("backend", ["threaded", "compiled"])


def small_programs() -> dict:
    """The benchmark's six program kinds at tier-1 sizes."""
    return {
        "vector_scale": vector_scale_workload(seed=100, n_pes=4,
                                              n_per_pe=8),
        "memcpy": memcpy_workload(seed=101, n_pes=4, n_per_pe=8),
        "reduction": reduction_workload(seed=102, n_pes=4, n_per_pe=8),
        "dot_product": dot_product_workload(seed=103, n_pes=4,
                                            n_per_pe=8),
        "gemm": gemm_workload(seed=104, m=2, k=4, n=4),
        "conv2d": conv2d_workload(seed=105, height=4, width=8),
    }


PROGRAMS = sorted(small_programs())


def _program(name, backend, backends):
    def scenario():
        with use_backend(backend):
            soc = run_workload(small_programs()[name])
        backends.append(soc.sim.backend)
        return [soc.elapsed_cycles,
                observe.to_records(soc.telemetry_report())]

    return scenario


@pytest.mark.parametrize("backend, telemetry", [
    ("threaded", False), ("threaded", True), ("compiled", False)],
    ids=["threaded", "threaded-telemetry", "compiled"])
@pytest.mark.parametrize("name", PROGRAMS)
def test_soc_program_matches_the_every_poll_reference(name, backend,
                                                      telemetry):
    backends = []
    assert_parks_exactly(_program(name, backend, backends),
                         telemetry=telemetry)
    assert backends == [backend, backend]


@pytest.mark.parametrize("name", PROGRAMS)
def test_soc_program_statistics_identical_across_executors(name):
    """Every simulator's fingerprint (``now``, clock activity, all eight
    ``ChannelStats`` counters of every channel and every router's
    counters, arbiters and VC FIFOs) and the chip's telemetry report,
    not only the payload ``tests/test_compiled_backend.py`` compares:
    the engine used to park the network interfaces without counting
    their idle eject pops, so the ``chip.mesh.ej*`` channels differed.
    The routers' generic ops loop is the stage loop's reference."""
    observed = {}
    for backend in ("threaded", "compiled"):
        backends = []
        observed[backend] = observe_run(_program(name, backend, backends))
        assert backends == [backend]
    with generic_router():
        observed["generic"] = observe_run(_program(name, "threaded", []))
    assert observed["compiled"] == observed["threaded"]
    assert observed["generic"] == observed["threaded"]


def test_fast_mesh_routers_run_the_stage_loop():
    """The generic arm above is not vacuous: on the fast SoC every
    router runs the stage loop, under ``generic_router()`` none does,
    and the GALS SoC's routers (GALS links) always run the ops loop."""
    def ops_cycles(**kwargs):
        count = [0]
        accept = WHVCRouter._accept_flits

        def counted(self):
            count[0] += 1
            accept(self)

        with patch.object(WHVCRouter, "_accept_flits", counted):
            run_workload(vector_scale_workload(seed=100, n_pes=2,
                                               n_per_pe=8), **kwargs)
        return count[0]

    assert ops_cycles() == 0
    with generic_router():
        assert ops_cycles() > 100
    assert ops_cycles(gals=True) > 100


@TELEMETRY
def test_gals_soc_matches_the_every_poll_reference(telemetry):
    """Twenty clocks, the per-tile ones on the heap lane: NIs, PEs and
    memories park on their own clocks and are opened across domains."""
    def scenario():
        soc = run_workload(vector_scale_workload(seed=100, n_pes=2,
                                                 n_per_pe=8), gals=True)
        assert len(soc.sim._clocks) == 20
        return soc.elapsed_cycles

    with skipped_polls() as skipped:
        assert_parks_exactly(scenario, telemetry=telemetry)
    assert skipped[0] > 10_000


def _axi_fabric(backend, backends):
    """Two masters on a fabric with a memory and a register slave, idle
    spans between their transactions; between two runs a third master
    joins the parked fabric (its new channels detach an engine)."""
    def scenario():
        sim = Simulator(backend=backend)
        clk = sim.add_clock("clk", period=10)
        fabric = AxiInterconnect(sim, clk)
        mem = MemArray(64, width=32)
        regs = AxiRegisterSlave(sim, clk, n_regs=4, name="regs")
        fabric.connect_slave(AxiMemorySlave(sim, clk, mem, name="mem"),
                             AddressRange(0, 64))
        fabric.connect_slave(regs, AddressRange(0x100, 4))
        log = []

        def worker(master, base, gaps):
            def body():
                for i, gap in enumerate(gaps):
                    yield gap
                    yield from master.write(base + i, base + 10 * i + 1)
                    value = yield from master.read(base + i)
                    log.append((master.name, i, value, clk.cycles))
            return body

        for idx, (base, gaps) in enumerate(((0, (5, 40, 1, 90)),
                                            (0x100, (17, 3, 60)))):
            master = AxiMaster(name=f"m{idx}", id_=idx)
            fabric.connect_master(master)
            sim.add_thread(worker(master, base, gaps), clk, name=f"w{idx}")
        sim.run(until=4_000)
        backends.append(sim.backend)
        late = AxiMaster(name="m2", id_=2)
        fabric.connect_master(late)
        sim.add_thread(worker(late, 32, (30, 2)), clk, name="w2")
        sim.run(until=6_000)
        return (log, mem.dump(0, 64), sorted(regs.regs.items()),
                fabric.transactions)

    return scenario


@TELEMETRY
@BACKENDS
def test_axi_fabric_matches_the_every_poll_reference(backend, telemetry):
    """The fabric declares every watched master's aw/ar pops (masters
    joining mid-run included), each slave its own aw/ar: all of them are
    credited for the polls the parked loops skipped."""
    backends = []
    with skipped_polls() as skipped:
        observed = assert_parks_exactly(_axi_fabric(backend, backends),
                                        telemetry=telemetry)
    assert skipped[0] > 1_000
    if not telemetry:
        assert backends == [backend, backend]
    log, _mem, _regs, transactions = observed["result"]
    assert transactions == 2 * len(log) == 18


def test_axi_fabric_statistics_identical_across_executors():
    backends = []
    observed = {backend: observe_run(_axi_fabric(backend, backends))
                for backend in ("threaded", "compiled")}
    assert backends == ["threaded", "compiled"]
    assert observed["compiled"] == observed["threaded"]


# ----------------------------------------------------------------------
# the saving, counted
# ----------------------------------------------------------------------
# bench/config.json "soc_programs" at its default seed (the benchmark's
# fast_programs); the test below checks they have not drifted.
SOC_SEED = 1
SOC_SIZES = {"n_pes": 8, "gemm": {"m": 4, "k": 8, "n": 8},
             "conv2d": {"height": 7, "width": 16}}


def bench_programs() -> list:
    """The six programs one ``soc_threaded`` pass runs."""
    n_pes = SOC_SIZES["n_pes"]
    programs = [build(seed=SOC_SEED * 100 + i, n_pes=n_pes)
                for i, build in enumerate((vector_scale_workload,
                                           memcpy_workload,
                                           reduction_workload,
                                           dot_product_workload))]
    programs.append(gemm_workload(seed=SOC_SEED * 100 + 4,
                                  **SOC_SIZES["gemm"]))
    size = SOC_SIZES["conv2d"]
    full = (size["height"] - 2) * (2 + 9 * 3 + 2) + 1  # no zero weight
    programs.append(next(
        w for w in (conv2d_workload(seed=SOC_SEED * 100 + 5 + 1000 * k,
                                    **size) for k in range(64))
        if len(w.commands) == full))
    return programs


def test_soc_constants_match_the_benchmark_config():
    path = pathlib.Path(__file__).parents[2] / "bench" / "config.json"
    config = json.loads(path.read_text())
    assert config["soc_programs"] == SOC_SIZES
    assert config["default_seed"] == SOC_SEED


def _runnable_census() -> dict:
    """Bucket entries the threaded kernel makes runnable over one pass,
    simulated cycles, and every simulator's fingerprint."""
    count = [0]
    make_runnable = Simulator._make_runnable

    def counted(self, proc):
        count[0] += 1
        make_runnable(self, proc)

    with patch.object(Simulator, "_make_runnable", counted), \
            constructed_simulators() as sims:
        cycles = [run_workload(w).elapsed_cycles for w in bench_programs()]
    return {"runnable": count[0], "cycles": cycles,
            "fingerprints": [fingerprint(sim) for sim in sims]}


def test_parked_gates_leave_the_wakeup_buckets():
    """On the general loop, the parent commit made 1 114 993 bucket
    entries runnable per ``soc_threaded`` pass, 88 % of them idle
    ``yield gate`` polls — which is what the never-gate reference still
    reads.  The lone-clock lane files none: its pollers never leave its
    live list."""
    with never_lane():
        parked = _runnable_census()
        with never_gate():
            reference = _runnable_census()
    laned = _runnable_census()
    assert reference["runnable"] == 1_114_993
    assert parked["runnable"] <= 140_000
    assert laned["runnable"] == 0
    assert laned["cycles"] == parked["cycles"] == reference["cycles"] \
        == [1488, 1050, 1547, 1943, 3490, 7469]
    assert laned["fingerprints"] == parked["fingerprints"] \
        == reference["fingerprints"]


# ----------------------------------------------------------------------
# the shapes a gate opens in
# ----------------------------------------------------------------------
def _gate(chans):
    gate = Gate()
    for chan in chans:
        chan.add_wake_gate(gate)
    gate.idle_pops(*chans)
    return gate


def _consumer(sim, clk, gate, chans, inbox, log):
    """An idle loop gated the way the SoC's components are."""
    def body():
        while True:
            msgs = []
            for chan in chans:
                ok, msg = chan.do_pop()
                if ok:
                    msgs.append(msg)
            if inbox:
                msgs.append(inbox.pop(0))
            if msgs:
                log.append((msgs, sim.now, clk.cycles))
                yield
            else:
                yield gate

    sim.add_thread(body, clk, name="rx")


def _opener(sim, clk, gate, inbox, cycles, tag):
    """Polls every cycle; at ``cycles`` posts to ``inbox`` and opens."""
    def body():
        while clk.cycles <= max(cycles):
            if clk.cycles in cycles:
                inbox.append((tag, clk.cycles))
                gate.open()
            yield

    sim.add_thread(body, clk, name=tag)


def _pusher(sim, clk, chan, gaps, tag):
    def body():
        for i, gap in enumerate(gaps):
            yield gap
            chan.do_push((tag, i))

    sim.add_thread(body, clk, name=tag)


OPENS = (3, 4, 9, 30, 31, 77)


@TELEMETRY
@BACKENDS
@pytest.mark.parametrize("opener_first", [True, False],
                         ids=["earlier-opener", "later-opener"])
def test_gate_opened_by_a_thread_of_the_same_delta(backend, opener_first,
                                                   telemetry):
    """An opener ahead of the parked slot runs it this cycle, one behind
    it next cycle — where its poll would have seen the message."""
    def scenario():
        sim = Simulator(backend=backend)
        clk = sim.add_clock("clk", period=10)
        chan = Buffer(sim, clk, name="c")
        gate, inbox, log = _gate([chan]), [], []
        order = [lambda: _consumer(sim, clk, gate, [chan], inbox, log),
                 lambda: _opener(sim, clk, gate, inbox, OPENS, "tx")]
        for register in (order[::-1] if opener_first else order):
            register()
        _pusher(sim, clk, chan, (50, 1, 1, 30, 2), "push")
        sim.run(until=2_000)
        return log

    observed = assert_parks_exactly(scenario, telemetry=telemetry)
    lag = {msg[1]: cycle - msg[1] for msgs, _now, cycle in observed["result"]
           for msg in msgs if msg[0] == "tx"}
    assert sorted(lag) == list(OPENS)
    assert set(lag.values()) == ({0} if opener_first else {1})


@TELEMETRY
@pytest.mark.parametrize("first", ["a", "b"])
@pytest.mark.parametrize("heap_lane", [False, True],
                         ids=["fast", "heap-lane"])
def test_gate_opened_from_another_clocks_coincident_edge(first, heap_lane,
                                                         telemetry):
    """Consumer on clock a, an opener thread and a channel tick on clock
    b; edges coincide every 12 ticks, in both firing orders, with a on
    the fast lane or the heap lane."""
    def scenario():
        sim = Simulator()
        clocks = {}
        for name in (first, "b" if first == "a" else "a"):
            generator = (lambda clock: 6) if name == "a" and heap_lane \
                else None
            clocks[name] = sim.add_clock(name, period=6 if name == "a"
                                         else 4, generator=generator)
        a, b = clocks["a"], clocks["b"]
        achan, bchan = Buffer(sim, a, name="ac"), Buffer(sim, b, name="bc")
        gate, inbox, log = _gate([achan, bchan]), [], []
        _consumer(sim, a, gate, [achan, bchan], inbox, log)
        _opener(sim, b, gate, inbox, (3, 6, 7, 15, 30), "tx")
        _pusher(sim, b, bchan, (9, 3, 12), "bpush")
        _pusher(sim, a, achan, (20, 2), "apush")
        sim.run(until=600)
        return log

    observed = assert_parks_exactly(scenario, telemetry=telemetry)
    assert sum(len(msgs) for msgs, _now, _cycle in observed["result"]) == 10


@TELEMETRY
@BACKENDS
def test_gate_opened_between_runs_and_by_a_tick(backend, telemetry):
    def scenario():
        sim = Simulator(backend=backend)
        clk = sim.add_clock("clk", period=10)
        chan = Buffer(sim, clk, name="c")
        chan.set_stall(0.3, seed=7)
        gate, inbox, log = _gate([chan]), [], []
        _consumer(sim, clk, gate, [chan], inbox, log)
        sim.run(until=300)
        inbox.append("outside")
        gate.open()
        sim.run(until=600)
        chan.do_push("pushed")
        sim.run(until=900)
        return log, chan.stats.pop_attempts

    observed = assert_parks_exactly(scenario, telemetry=telemetry)
    assert [entry[0] for entry in observed["result"][0]] \
        == [["outside"], ["pushed"]]


@TELEMETRY
@BACKENDS
def test_two_threads_waiting_on_one_gate_both_wake(backend, telemetry):
    """Two consumers share one wake gate and yield it every iteration,
    so the one whose slot comes first takes every message.  A tick that
    opens the gate while both wait must wake both: parking a thread only
    at its next turn would make the second lose that turn, and the two
    would alternate."""
    def scenario():
        sim = Simulator(backend=backend)
        clk = sim.add_clock("clk", period=10)
        chan = Buffer(sim, clk, capacity=4, name="c")
        gate, log = _gate([chan]), []

        def producer():
            for i in range(6):
                chan.do_push(i)
                yield

        def consumer(k):
            while True:
                ok, msg = chan.do_pop()
                if ok:
                    log.append((k, msg))
                yield gate

        sim.add_thread(producer, clk, name="tx")
        for k in range(2):
            sim.add_thread(lambda k=k: consumer(k), clk, name=f"rx{k}")
        sim.run(until=1_000)
        return log

    with skipped_polls() as skipped:
        observed = assert_parks_exactly(scenario, telemetry=telemetry)
    assert skipped[0] > 0
    assert observed["result"] == [[0, i] for i in range(6)]


@TELEMETRY
def test_event_wait_falls_back_to_polling(telemetry):
    parks = []

    def scenario():
        sim = Simulator()
        clk = sim.add_clock("clk", period=10)
        chan = Buffer(sim, clk, name="c")
        gate, inbox, log = _gate([chan]), [], []
        _consumer(sim, clk, gate, [chan], inbox, log)
        _opener(sim, clk, gate, inbox, (5, 60, 61, 90), "tx")
        ev = sim.event("e")

        def waiter():
            yield 30
            yield ev              # from here on this clock's gates poll
            log.append(("ev", clk.cycles))

        sim.add_thread(waiter, clk, name="w")
        ev.notify_at(455)
        sim.run(until=1_500)
        parks.append(clk._parks)
        return log

    assert_parks_exactly(scenario, telemetry=telemetry)
    assert parks == [False, False]


# ----------------------------------------------------------------------
# state hand-over: snapshot restore, engine attach and detach
# ----------------------------------------------------------------------
def _gated_bench(sim, clk):
    chan = Buffer(sim, clk, name="c")
    gate, inbox, log = _gate([chan]), [], []
    # The opener's slot is ahead of the consumer's: opened in the same
    # cycle, the consumer's poll would take the message that cycle.
    _opener(sim, clk, gate, inbox, (3, 45, 46, 100, 126, 127, 170), "tx")
    _consumer(sim, clk, gate, [chan], inbox, log)
    _pusher(sim, clk, chan, (20, 40, 1, 80, 30), "push")
    return chan, inbox, log


@BACKENDS
def test_snapshot_restore_rerun_with_parked_gates_matches(backend):
    """Each restore point lies where the consumer is parked; the rerun
    parks it again from a clean gate and reads the same counters."""
    def scenario():
        sim = Simulator(backend=backend)
        clk = sim.add_clock("clk", period=10)
        chan, inbox, log = _gated_bench(sim, clk)
        sim.on_restore(log.clear)
        sim.on_restore(inbox.clear)
        snap = sim.snapshot()
        sim.run(until=900)
        first = (list(log), chan.stats.pop_attempts, sim.now)
        mid = sim.snapshot()
        sim.run(until=1_500)
        sim.restore(mid)
        assert (list(log), chan.stats.pop_attempts, sim.now) == first
        sim.restore(snap)
        sim.run(until=900)
        assert (list(log), chan.stats.pop_attempts, sim.now) == first
        sim.run(until=2_500)
        return log, chan.stats.pop_attempts

    with skipped_polls() as skipped:
        observed = assert_parks_exactly(scenario)
    assert skipped[0] > 0
    assert len(observed["result"][0]) == 12


@pytest.mark.parametrize("backend, telemetry", [
    ("threaded", False), ("threaded", True), ("compiled", False),
    ("compiled", True)],
    ids=["plain", "telemetry", "compiled-plain", "compiled-telemetry"])
def test_engine_attaches_and_detaches_around_parked_gates(backend,
                                                          telemetry):
    """Parked threads stay on their clock across lane exits.  A
    compiled verdict taken late (over threads the threaded loop parked)
    or at the first run keeps the consumer in the clock's registry, and
    a mid-run timed event takes the run off the lane with the consumer
    still parked there, filed into no wakeup bucket — nothing is
    converted, and the verdict stays ``compiled``."""
    backends, probes = [], []

    def scenario():
        sim = Simulator(backend=backend)
        clk = sim.add_clock("clk", period=10)
        chan, _inbox, log = _gated_bench(sim, clk)
        rx = next(t for t in sim._threads if t.name == "rx")

        def probe():
            parked = id(rx) in clk._gated and not any(
                rx in bucket for bucket in clk._wakeups.values())
            probes.append((sim.backend, parked))

        def spoiler():
            yield 35
            probe()                        # inside the compiled segment
            yield 85
            sim.schedule(5, probe)  # a timed event: the run leaves the lane

        sim.add_thread(spoiler, clk, name="spoiler")
        sim.run_cycles(clk, 30)            # threaded: the consumer parks
        sim._backend_requested = "compiled"  # what try_attach would see
        sim.run_cycles(clk, 40)
        backends.append(sim.backend)
        sim.run_cycles(clk, 200)
        backends.append(sim.backend)
        return log, chan.stats.pop_attempts

    with skipped_polls() as skipped:
        observed = assert_parks_exactly(scenario, telemetry=telemetry)
    assert skipped[0] > 0
    assert len(observed["result"][0]) == 12
    # The every-poll reference never parks; the parked run's consumer is
    # in the clock's registry on the lane (a hub attached or not) and
    # after the timed event took the run off it.
    assert probes == [("compiled", False), ("compiled", False),
                      ("compiled", True), ("compiled", True)]
    assert backends == ["compiled", "compiled"] * 2


# ----------------------------------------------------------------------
# a run without horizon
# ----------------------------------------------------------------------
def test_run_without_horizon_ends_where_threaded_ends():
    """A finished SoC leaves only parked gate threads: both executors
    return from a horizon-less ``run()`` at the same edge (the compiled
    engine used to spin until its time budget)."""
    ends = {}
    for backend in ("threaded", "compiled"):
        with use_backend(backend):
            soc = run_workload(vector_scale_workload(seed=100, n_pes=2,
                                                     n_per_pe=8))
        sim = soc.sim
        with time_budget(30.0):
            sim.run()
        ends[backend] = (sim.backend, sim.now,
                         [clk.cycles for clk in sim._clocks],
                         fingerprint(sim)["channels"])
    assert ends["compiled"][0] == "compiled"
    assert ends["compiled"][1:] == ends["threaded"][1:]
