"""Warm batched sweep speedup on construction-dominated points.

The warm engine exists for exactly one regime: large structurally
shared grids of *small* points, where per-point design construction
and compiled-backend lowering dominate the simulated work.  The bench
pins that regime with a wide latency-insensitive fabric — 48 parallel
two-hop lanes (96 channels, 144 threads) pushing one message each over
a tight 14-cycle horizon — swept over the replay-safe knobs (FIFO
capacity, a tail-stall schedule on the probe lane, trial), so all 200
points share one structural base.  Fresh execution constructs and
lowers the fabric 200 times; warm execution builds it once and runs
every point via the kernel's snapshot/reset primitive.

Two claims, mirroring ``test_bench_incremental_sweep``:

* the warm sweep is at least 3x faster than fresh per-point execution
  (gated on runners with >= 4 usable CPUs; below that the table is
  still recorded),
* its merged result is **bit-identical** to the fresh sweep's under
  the canonical serialization.
"""

import os
import time

import pytest

from repro.connections import Buffer, In, Out
from repro.registry import SweepSpec, register_sweep
from repro.kernel import Simulator
from repro.sweep import SweepPoint, WarmSession, run_sweep
from repro.sweep.warm import reset_sessions
from repro.trace.adapter import SweepAdapter

LANES = 48
N_MSGS = 1
#: Structural horizon (posedges): one message clears two hops in ~4
#: cycles; the slack absorbs probe-lane stalls up to p = 0.1 (missing
#: it would take 10 consecutive stall hits, p^10 ~ 1e-10).  Tight by
#: design — the construction share of a fresh point is the whole story.
HORIZON_CYCLES = 14
PERIOD = 10


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _build_fabric(capacity, stall_probability, stall_seed):
    sim = Simulator()
    clk = sim.add_clock("clk", period=PERIOD)
    lanes = []
    received = []
    for lane in range(LANES):
        up = Buffer(sim, clk, capacity=capacity, name=f"up{lane}")
        down = Buffer(sim, clk, capacity=capacity, name=f"down{lane}")
        if lane == 0 and stall_probability > 0.0:
            down.set_stall(stall_probability, seed=stall_seed)
        src, fwd_in = Out(up, name=f"src{lane}"), In(up, name=f"in{lane}")
        fwd_out = Out(down, name=f"out{lane}")
        sink = In(down, name=f"sink{lane}")
        rx = []
        received.append(rx)

        def producer(src=src):
            for msg in range(N_MSGS):
                yield from src.push(msg)

        def forwarder(fwd_in=fwd_in, fwd_out=fwd_out):
            for _ in range(N_MSGS):
                msg = yield from fwd_in.pop()
                yield from fwd_out.push(msg)

        def consumer(sink=sink, rx=rx):
            for _ in range(N_MSGS):
                rx.append(((yield from sink.pop()), sim.now))

        sim.add_thread(producer, clk, name=f"p{lane}")
        sim.add_thread(forwarder, clk, name=f"f{lane}")
        sim.add_thread(consumer, clk, name=f"c{lane}")
        lanes.append((up, down))

    def _clear():
        for rx in received:
            rx.clear()

    sim.on_restore(_clear)
    return sim, received, lanes


def _record(received, lanes):
    return {
        "received": [[msg for msg, _ in rx] for rx in received],
        "done_at": max((rx[-1][1] if len(rx) == N_MSGS else -1)
                       for rx in received),
        "transfers": sum(c.stats.transfers for pair in lanes for c in pair),
        "stall_cycles": sum(c.stats.stall_cycles
                            for pair in lanes for c in pair),
    }


def _fabric_runner(params, seed):
    sim, received, lanes = _build_fabric(
        params["capacity"], params["stall_probability"], seed)
    sim.run(until=(HORIZON_CYCLES - 1) * PERIOD)
    return _record(received, lanes)


def _fabric_build(base_params, base_seed):
    sim, received, lanes = _build_fabric(
        base_params["capacity"], base_params["stall_probability"],
        base_seed)
    return WarmSession(sim=sim,
                       context={"received": received, "lanes": lanes})


def _fabric_run(session, params, seed):
    lanes = session.context["lanes"]
    for up, down in lanes:
        up.capacity = params["capacity"]
        down.capacity = params["capacity"]
    if params["stall_probability"] > 0.0:
        lanes[0][1].set_stall(params["stall_probability"], seed=seed)
    session.sim.run(until=(HORIZON_CYCLES - 1) * PERIOD)
    return _record(session.context["received"], lanes)


register_sweep(SweepSpec(
    "warm_bench_fabric", "bench",
    space=lambda **kw: [],
    runner=_fabric_runner,
    # No parameter is structural: all 200 points share one session.
    adapter=SweepAdapter(
        base={"capacity": 2, "stall_probability": 0.0, "trial": 0},
        build=_fabric_build,
        run=_fabric_run,
    )))


def _space():
    """4 caps x 5 stall points x 10 trials = 200 structurally-shared."""
    return [
        SweepPoint("warm_bench_fabric",
                   {"capacity": cap, "stall_probability": p, "trial": t},
                   seed=9000 + 31 * t + int(p * 100),
                   backend="compiled")
        for cap in (1, 2, 4, 8)
        for p in (0.0, 0.02, 0.05, 0.08, 0.1)
        for t in range(10)
    ]


def test_bench_warm_sweep_speedup(benchmark, save_result):
    points = _space()
    assert len(points) >= 200
    reset_sessions()

    t0 = time.perf_counter()
    fresh = run_sweep(points, jobs=1, telemetry=False)
    fresh_wall = time.perf_counter() - t0
    assert fresh.errors == 0

    t0 = time.perf_counter()
    warm = benchmark.pedantic(
        lambda: run_sweep(points, jobs=1, warm=True),
        rounds=1, iterations=1)
    warm_wall = time.perf_counter() - t0
    assert warm.errors == 0
    assert warm.canonical() == fresh.canonical()
    assert warm.warm_points == len(points)
    assert warm.warm_groups == 1
    assert not warm.fallback_reasons
    # Every lane must have flowed end to end for the comparison to
    # mean anything (a wedged fabric would "win" by doing nothing).
    assert all(rx == [list(range(N_MSGS))] * LANES
               for rx in (r["received"] for r in warm.results))

    speedup = fresh_wall / warm_wall
    table = "\n".join([
        f"points: {len(points)} (1 structural base, {LANES}-lane fabric, "
        f"compiled backend)",
        f"fresh per-point (jobs=1): {fresh_wall:.2f}s | {fresh.summary()}",
        f"warm batched (jobs=1): {warm_wall:.2f}s | {warm.summary()}",
        f"speedup: {speedup:.1f}x",
    ])
    save_result("warm_sweep", table)
    if _usable_cpus() < 4:
        pytest.skip(f"recorded table only ({_usable_cpus()} CPUs): "
                    f"speedup gate needs an unloaded 4-CPU runner")
    assert speedup >= 3.0, (
        f"warm speedup {speedup:.1f}x < 3x "
        f"(fresh {fresh_wall:.2f}s, warm {warm_wall:.2f}s)")
