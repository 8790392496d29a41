"""Idle tails park: the fig3 crossbar, the GALS CDC FIFOs, GALS routers,
and the compiled engine's idle-skip.

``ArbitratedCrossbarModule`` parks on its gate once its queues and input
channels are empty (declaring the refused pop an idle iteration makes
per input); a CDC FIFO's transmit thread parks after a refused pop on an
empty input channel, its receive thread while the FIFO is empty (the
transmit side's append opens it, across clocks); a router fed by GALS
links watches the links' receive buffers.  Each scenario is held to the
every-poll reference of ``tests/sweep/_never_park.py`` and must really
park (``skipped_polls() > 0``).  The engine, with no live thread and no
step budget, bulk-advances to the clock's next edge with work, as the
threaded loop does: the same bytes, and edge callbacks run only on busy
edges.
"""

import random

import pytest

from repro.connections import Buffer, In, Out
from repro.faults import campaign
from repro.gals import (BruteForceSyncFIFO, GalsLink, LocalClockGenerator,
                        PausibleBisyncFIFO)
from repro.gals.clock_generator import SupplyNoise
from repro.kernel import Gate, Simulator
from repro.kernel.backend import use_backend
from repro.kernel.clock import Clock
from repro.matchlib import ArbitratedCrossbarModule
from repro.noc.mesh import Mesh

from tests.sweep._never_park import (assert_parks_exactly, fingerprint,
                                     skipped_polls)

TELEMETRY = pytest.mark.parametrize("telemetry", [False, True],
                                    ids=["plain", "telemetry"])
BACKENDS = pytest.mark.parametrize("backend", ["threaded", "compiled"])


def _assert_parks(scenario, telemetry=False):
    """``assert_parks_exactly`` plus proof that something parked."""
    with skipped_polls() as skipped:
        observed = assert_parks_exactly(scenario, telemetry=telemetry)
    assert skipped[0] > 0
    return observed


def _bursts(port, msgs, *, seed):
    """A producer pushing ``msgs`` in bursts separated by idle gaps."""
    rng = random.Random(seed)
    for i, msg in enumerate(msgs):
        yield from port.push(msg)
        if i % 4 == 3:
            yield rng.randrange(5, 40)


def _drain(port, got, clock, cycles):
    """A consumer polling ``pop_nb`` for a bounded number of cycles."""
    for _ in range(cycles):
        ok, msg = port.pop_nb()
        if ok:
            got.append((clock.cycles, msg))
        yield


# ----------------------------------------------------------------------
# the fig3 crossbar
# ----------------------------------------------------------------------
def _crossbar(backend, *, stall, n=3, per_port=12, seed=5):
    def scenario():
        sim = Simulator(backend=backend)
        clk = sim.add_clock("clk", period=10)
        xbar = ArbitratedCrossbarModule(sim, clk, n, n)
        ins = [Buffer(sim, clk, capacity=2, name=f"i{i}") for i in range(n)]
        outs = [Buffer(sim, clk, capacity=2, name=f"o{o}") for o in range(n)]
        for i in range(n):
            xbar.ins[i].bind(ins[i])
            xbar.outs[i].bind(outs[i])
        if stall:
            for k, chan in enumerate(ins + outs):
                chan.set_stall(stall, seed=seed + k)
        rng = random.Random(seed)
        got = [[] for _ in range(n)]
        for p in range(n):
            msgs = [(rng.randrange(n), (p, i)) for i in range(per_port)]
            sim.add_thread(_bursts(Out(ins[p]), msgs, seed=seed + p), clk,
                           name=f"src{p}")
            sim.add_thread(_drain(In(outs[p]), got[p], clk, 400), clk,
                           name=f"snk{p}")
        sim.run(until=8_000)
        return {"got": got, "transactions": xbar.transactions,
                "grants": [arb.grants for arb in xbar.kernel.arbiters],
                "backend": sim.backend}

    return scenario


@pytest.mark.parametrize("stall", [0.0, 0.3], ids=["clean", "stalled"])
@pytest.mark.parametrize("backend, telemetry", [
    ("threaded", False), ("threaded", True), ("compiled", False)],
    ids=["threaded", "threaded-telemetry", "compiled"])
def test_crossbar_parks_exactly(backend, telemetry, stall):
    observed = _assert_parks(_crossbar(backend, stall=stall),
                             telemetry=telemetry)
    result = observed["result"]
    assert result["transactions"] == 36
    assert result["backend"] == ("threaded" if telemetry else backend)


@BACKENDS
def test_crossbar_campaign_parks_exactly(backend):
    """The fault-campaign harness: watched, faulted crossbars."""
    def scenario():
        with use_backend(backend):
            return [campaign.execute("fig3_crossbar",
                                     campaign.default_plan("fig3_crossbar",
                                                           seed), seed)
                    for seed in range(4)]

    _assert_parks(scenario)


# ----------------------------------------------------------------------
# CDC FIFOs on noisy generator clocks (general lane, threaded)
# ----------------------------------------------------------------------
def _noisy_clocks(sim):
    return [LocalClockGenerator(
        sim, name, nominal_period=period,
        noise=SupplyNoise(amplitude=0.1, seed=seed), jitter_ppm=2000.0,
        seed=seed).clock
        for name, period, seed in (("tx", 97, 3), ("rx", 131, 4))]


def _cdc(kind, *, pausible=True, stall=0.0):
    def scenario():
        sim = Simulator()
        tx, rx = _noisy_clocks(sim)
        src = Buffer(sim, tx, capacity=2, name="src")
        dst = Buffer(sim, rx, capacity=2, name="dst")
        if kind == "pausible":
            fifo = PausibleBisyncFIFO(sim, tx, rx, capacity=3, settle_ps=40,
                                      pausible=pausible)
        else:
            fifo = BruteForceSyncFIFO(sim, tx, rx, capacity=3)
        fifo.in_port.bind(src)
        fifo.out_port.bind(dst)
        if stall:
            dst.set_stall(stall, seed=11)
        got = []
        sim.add_thread(_bursts(Out(src), list(range(30)), seed=2), tx,
                       name="src")
        sim.add_thread(_drain(In(dst), got, rx, 500), rx, name="snk")
        sim.run(until=90_000)
        extra = ({"risks": fifo.metastability_risks,
                  "pointers": [fifo.wptr_gray, fifo.rptr_gray]}
                 if kind == "pausible" else {})
        return {"got": got, "transfers": fifo.transfers,
                "occupancy": fifo.occupancy, **extra}

    return scenario


@TELEMETRY
@pytest.mark.parametrize("pausible", [True, False],
                         ids=["pausible", "unprotected"])
def test_pausible_fifo_parks_exactly(pausible, telemetry):
    observed = _assert_parks(_cdc("pausible", pausible=pausible),
                             telemetry=telemetry)
    result = observed["result"]
    assert [msg for _, msg in result["got"]] == list(range(30))
    assert (result["risks"] == 0) == pausible
    clocks = observed["simulators"][0]["clocks"]
    assert (clocks[1]["paused_edges"] > 0) == pausible


@TELEMETRY
def test_brute_force_fifo_parks_exactly(telemetry):
    observed = _assert_parks(_cdc("brute-force", stall=0.25),
                             telemetry=telemetry)
    assert [msg for _, msg in observed["result"]["got"]] == list(range(30))


# ----------------------------------------------------------------------
# a GALS mesh: routers fed by GalsLinks watch the receive buffers
# ----------------------------------------------------------------------
def _gals_mesh():
    sim = Simulator()
    clocks = [LocalClockGenerator(
        sim, f"clk{node}", nominal_period=100 + 7 * node,
        noise=SupplyNoise(amplitude=0.05, seed=node), seed=node).clock
        for node in range(4)]
    mesh = Mesh(sim, clocks[0], width=2, height=2,
                clock_of=lambda node: clocks[node],
                link_factory=lambda src, dst, tag: GalsLink(
                    sim, clocks[src], clocks[dst], name=tag))

    def traffic(node):
        rng = random.Random(node)
        ni = mesh.ni(node)
        for i in range(6):
            yield rng.randrange(10, 60)
            ni.send(rng.choice([n for n in range(4) if n != node]),
                    [(node, i, k) for k in range(rng.randrange(1, 4))])

    for node in range(4):
        sim.add_thread(traffic(node), clocks[node], name=f"src{node}")
    return sim, mesh


def test_gals_mesh_parks_exactly(monkeypatch):
    """Exact, and the routers park on their links' receive buffers, both
    threads of every link's FIFO too (their gates are credited)."""
    credited = set()
    skipped = Gate._skipped

    def spy(self, sim, n):
        if n > 0:
            credited.add(id(self))
        skipped(self, sim, n)

    monkeypatch.setattr(Gate, "_skipped", spy)
    meshes = []

    def scenario():
        sim, mesh = _gals_mesh()
        meshes.append(mesh)
        sim.run(until=80_000)
        return {"received": [sorted(mesh.ni(n).received) for n in range(4)],
                "flits": [r.flits_forwarded for r in mesh.routers],
                "stalls": [r.output_stall_cycles for r in mesh.routers]}

    observed = _assert_parks(scenario)
    assert sum(len(r) for r in observed["result"]["received"]) == 24
    parked = meshes[-1]  # the reference runs first
    gates = [router._gate for router in parked.routers]
    for _src, _dst, _path, link in parked.links:
        gates += [link.fifo._tx_gate, link.fifo._rx_gate]
    assert all(id(gate) in credited for gate in gates)


# ----------------------------------------------------------------------
# the compiled engine's idle-skip
# ----------------------------------------------------------------------
def _idle_tail(backend, *, until):
    """Bursts separated by long sleeps into a blocking consumer, then a
    long idle tail: every thread parked or asleep most of the time."""
    sim = Simulator(backend=backend)
    clk = sim.add_clock("clk", period=10)
    chan = Buffer(sim, clk, capacity=2, name="pipe")
    got = []

    def producer(out):
        for burst in range(3):
            for i in range(4):
                yield from out.push((burst, i))
            yield 300

    def consumer(inp):
        while True:
            msg = yield from inp.pop()
            got.append((clk.cycles, msg))

    sim.add_thread(producer(Out(chan)), clk, name="p")
    sim.add_thread(consumer(In(chan)), clk, name="c")
    sim.run(until=until)
    return sim, got


@pytest.mark.parametrize("until", [None, 50_000], ids=["no-horizon",
                                                      "horizon"])
def test_compiled_idle_tail_matches_threaded(until, monkeypatch):
    fire = Clock._fire_callbacks
    calls = []

    def counted(self):
        calls[-1] += 1
        fire(self)

    monkeypatch.setattr(Clock, "_fire_callbacks", counted)
    prints = []
    for backend in ("threaded", "compiled"):
        calls.append(0)
        sim, got = _idle_tail(backend, until=until)
        assert sim.backend == backend
        prints.append((fingerprint(sim), got))
    assert prints[0] == prints[1]
    # Edge callbacks ran on the same (busy) edges only: far fewer calls
    # than the edges the clock advanced over.
    assert calls[0] == calls[1]
    cycles = prints[1][0]["clocks"][0]["cycles"]
    assert 0 < calls[1] < cycles // 10
    assert len(prints[1][1]) == 12


def test_compiled_idle_tail_matches_every_edge_reference():
    def scenario():
        sim, got = _idle_tail("compiled", until=50_000)
        sim.run_cycles(sim._clocks[0], 2_000)  # a sentinel-bounded skip
        return {"got": got, "backend": sim.backend}

    observed = _assert_parks(scenario)
    assert observed["result"]["backend"] == "compiled"
