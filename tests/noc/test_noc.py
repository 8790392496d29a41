"""Tests for flits, XY routing, routers, and mesh delivery."""

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.verify.profiles import property_settings

from repro.kernel import Simulator
from repro.noc import (
    Mesh,
    NocFlit,
    Port,
    make_packet,
    node_xy,
    packet_payloads,
    xy_node,
    xy_route,
)


# ----------------------------------------------------------------------
# flits and packets
# ----------------------------------------------------------------------
def test_make_packet_framing():
    flits = make_packet(src=1, dest=2, payloads=["a", "b", "c"])
    assert flits[0].is_head and not flits[0].is_tail
    assert flits[-1].is_tail and not flits[-1].is_head
    assert [f.seq for f in flits] == [0, 1, 2]
    assert packet_payloads(flits) == ["a", "b", "c"]


def test_single_flit_packet_is_head_and_tail():
    (flit,) = make_packet(src=0, dest=1, payloads=["x"])
    assert flit.is_head and flit.is_tail


def test_packet_validation():
    with pytest.raises(ValueError):
        make_packet(src=0, dest=1, payloads=[])
    with pytest.raises(ValueError):
        make_packet(src=0, dest=1, payloads=["x"], vc=-1)
    flits = make_packet(src=0, dest=1, payloads=["a", "b"])
    with pytest.raises(ValueError):
        packet_payloads(flits[1:])
    with pytest.raises(ValueError):
        packet_payloads(list(reversed(flits)))


# ----------------------------------------------------------------------
# XY routing
# ----------------------------------------------------------------------
def test_node_xy_roundtrip():
    for node in range(12):
        x, y = node_xy(node, 4)
        assert xy_node(x, y, 4) == node


def test_xy_route_directions():
    # 4-wide mesh; node 5 = (1, 1).
    assert xy_route(5, 5, 4) == Port.LOCAL
    assert xy_route(5, 6, 4) == Port.EAST
    assert xy_route(5, 4, 4) == Port.WEST
    assert xy_route(5, 9, 4) == Port.NORTH
    assert xy_route(5, 1, 4) == Port.SOUTH
    # X resolves before Y.
    assert xy_route(5, 10, 4) == Port.EAST


@given(st.integers(0, 15), st.integers(0, 15))
@property_settings()
def test_xy_route_always_makes_progress(src, dest):
    """Following XY routing hop by hop always reaches the destination."""
    width = 4
    current = src
    for _ in range(10):
        port = xy_route(current, dest, width)
        if port == Port.LOCAL:
            break
        x, y = node_xy(current, width)
        if port == Port.EAST:
            x += 1
        elif port == Port.WEST:
            x -= 1
        elif port == Port.NORTH:
            y += 1
        else:
            y -= 1
        current = xy_node(x, y, width)
    assert current == dest


# ----------------------------------------------------------------------
# mesh delivery, both router types
# ----------------------------------------------------------------------
def run_mesh(router, sends, *, width=3, height=3, until=300_000, **kw):
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    mesh = Mesh(sim, clk, width=width, height=height, router=router, **kw)
    for src, dest, payloads in sends:
        mesh.ni(src).send(dest, payloads)
    expected = sum(1 for _ in sends)

    def all_arrived():
        return sum(ni.messages_received for ni in mesh.nis) >= expected

    steps = 0
    while not all_arrived() and steps < until:
        sim.run(max_steps=100)
        steps += 100
    return mesh, sim


@pytest.mark.parametrize("router", ["whvc", "sf"])
def test_single_message_crosses_mesh(router):
    mesh, _ = run_mesh(router, [(0, 8, ["p0", "p1", "p2"])])
    assert mesh.ni(8).received == [(0, ["p0", "p1", "p2"])]


@pytest.mark.parametrize("router", ["whvc", "sf"])
def test_self_delivery(router):
    mesh, _ = run_mesh(router, [(4, 4, ["self"])])
    assert mesh.ni(4).received == [(4, ["self"])]


@pytest.mark.parametrize("router", ["whvc", "sf"])
def test_all_to_one_congestion(router):
    sends = [(src, 4, [f"m{src}"]) for src in range(9) if src != 4]
    mesh, _ = run_mesh(router, sends)
    got = sorted(p[0] for _, p in mesh.ni(4).received)
    assert got == sorted(f"m{s}" for s in range(9) if s != 4)


def test_random_traffic_all_delivered_whvc():
    rng = random.Random(7)
    sends = []
    for i in range(40):
        src = rng.randrange(9)
        dest = rng.randrange(9)
        sends.append((src, dest, [f"msg{i}_{j}" for j in range(rng.randint(1, 4))]))
    mesh, _ = run_mesh("whvc", sends)
    delivered = sum(ni.messages_received for ni in mesh.nis)
    assert delivered == 40
    # Payload integrity across all receivers.
    all_got = {tuple(p) for ni in mesh.nis for _, p in ni.received}
    all_sent = {tuple(p) for _, _, p in sends}
    assert all_got == all_sent


def test_per_source_ordering_preserved_whvc():
    """Same src->dest stream stays in order (single path, FIFO links)."""
    sends = [(0, 8, [f"s{i}"]) for i in range(10)]
    mesh, _ = run_mesh("whvc", sends)
    payloads = [p[0] for _, p in mesh.ni(8).received]
    assert payloads == [f"s{i}" for i in range(10)]


def test_vcs_let_traffic_interleave():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    mesh = Mesh(sim, clk, width=3, height=1, n_vcs=2)
    # Two long packets from node 0, different VCs, different destinations.
    mesh.ni(0).send(1, [f"a{i}" for i in range(6)], vc=0)
    mesh.ni(0).send(2, [f"b{i}" for i in range(6)], vc=1)
    sim.run(until=50_000)
    assert mesh.ni(1).received == [(0, [f"a{i}" for i in range(6)])]
    assert mesh.ni(2).received == [(0, [f"b{i}" for i in range(6)])]


def test_wormhole_beats_store_and_forward_on_latency():
    """Multi-hop long packet: wormhole pipelines flits across hops."""
    payloads = [f"p{i}" for i in range(8)]

    def latency(router):
        sim = Simulator()
        clk = sim.add_clock("clk", period=10)
        mesh = Mesh(sim, clk, width=4, height=1, router=router)
        mesh.ni(0).send(3, payloads)
        sim.run(until=500_000)
        assert mesh.ni(3).received == [(0, payloads)]
        return mesh.ni(3).last_arrival_time

    assert latency("whvc") < latency("sf")


def test_mesh_validation():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    with pytest.raises(ValueError):
        Mesh(sim, clk, width=0, height=2)
    with pytest.raises(ValueError):
        Mesh(sim, clk, width=2, height=2, router="hypercube")


def test_router_stats_count_flits():
    mesh, _ = run_mesh("whvc", [(0, 8, ["a", "b"])])
    # 0 -> 8 on a 3x3 mesh: 4 hops + ejection; 2 flits each.
    assert mesh.total_flits_forwarded >= 8


# ----------------------------------------------------------------------
# the stage loop against its reference, the generic ops loop
# ----------------------------------------------------------------------
def _stalled_mesh_traffic():
    """Random multi-flit traffic on a 3x3 mesh whose links withhold
    valid at random, so wormholes starve mid-packet: the SoC programs
    never do (their routers count no output stall cycles)."""
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    mesh = Mesh(sim, clk, width=3, height=3)
    for i, (_src, _dst, _name, chan) in enumerate(mesh.links):
        chan.set_stall(0.3, seed=i)
    rng = random.Random(11)
    for i in range(40):
        mesh.ni(rng.randrange(9)).send(
            rng.randrange(9), [(i, j) for j in range(rng.randint(1, 5))],
            vc=rng.randrange(2))
    sim.run(until=20_000)
    return {"received": [ni.received for ni in mesh.nis],
            "stalls": [r.output_stall_cycles for r in mesh.routers]}


@pytest.mark.parametrize("telemetry", [False, True],
                         ids=["plain", "telemetry"])
def test_stage_loop_matches_the_ops_loop_under_link_stalls(telemetry):
    from repro import observe
    from tests.sweep._never_park import generic_router, observe_run

    def run():
        if not telemetry:
            return observe_run(_stalled_mesh_traffic)
        with observe.capture():
            return observe_run(_stalled_mesh_traffic)

    with generic_router():
        reference = run()
    staged = json.loads(run())
    assert staged == json.loads(reference)
    result = staged["result"]
    assert sum(len(got) for got in result["received"]) == 40
    assert sum(result["stalls"]) > 0
