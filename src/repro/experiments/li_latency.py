"""LI pipeline latency sweep: the incremental re-simulation showcase.

The paper's architectural-iteration loop sweeps latency-insensitive
parameters — FIFO depths, injected stall schedules, clock period —
across a fixed LI topology.  This experiment models exactly that loop
on a linear LI pipeline (producer → N forwarding stages → consumer,
every hop a ``Buffer`` channel with blocking handshakes) and measures
end-to-end completion latency and per-hop handshake counters.

Because every channel op here is *blocking*, the design is replayable
from one captured trace (:mod:`repro.trace`): the default sweep space
holds only two structural configurations (the stage counts) and dozens
of derivable satellites, so ``python -m repro sweep li_latency
--incremental`` simulates twice and replays everything else — the
LightningSimV2 workflow from PAPERS.md in miniature.  ``SWEEP_ADAPTER``
below is the reference :class:`repro.trace.adapter.SweepAdapter`, with
both halves: warm sessions and trace replay.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from ..connections import Buffer, In, Out
from ..design.hierarchy import component_scope
from ..kernel import Simulator
from ..sweep.point import SweepPoint
from ..sweep.warm import WarmSession
from ..trace.adapter import SweepAdapter

__all__ = ["build_li_pipeline", "build_design", "hop_paths",
           "horizon_cycles", "run_point", "format_report", "sweep_space",
           "run_sweep_point", "summarize_sweep", "SWEEP_ADAPTER"]

DEFAULT_PERIOD = 10
DEFAULT_N_MSGS = 80
#: Capture bases run at the *fastest* point of the space — maximum
#: capacity, no stalls — so satellite replays only ever slow threads
#: down and the replayer's hidden-op guard stays quiet.
BASE_CAPACITY = 64


class LatencyForwarder:
    """One LI pipeline stage: blocking pop upstream, blocking push down."""

    def __init__(self, sim, clock, *, n_msgs: int, name: str = "stage"):
        with component_scope(sim, name, kind="LatencyForwarder", obj=self,
                             clock=clock) as inst:
            self.name = inst.name if inst is not None else name
            self.in_port: In = In(name="in")
            self.out_port: Out = Out(name="out")
            # Factory-style registration keeps the design snapshot-
            # eligible (warm batched sweeps re-create the generator on
            # every restore).
            sim.add_thread(lambda: self._run(n_msgs), clock, name="ctl")

    def _run(self, n_msgs: int) -> Generator:
        for _ in range(n_msgs):
            msg = yield from self.in_port.pop()
            yield from self.out_port.push(msg)


def hop_paths(stages: int) -> List[str]:
    """Design paths of the pipeline's channels, producer side first."""
    return [f"hop{i}" for i in range(stages + 1)]


def horizon_cycles(params: dict) -> int:
    """Simulation horizon in posedges — structural parameters only.

    Points sharing a structural base must tick the same number of
    cycles, so the budget may not depend on replay-safe knobs.  40
    cycles per message covers mean stall delays up to p ≈ 0.95; a point
    that still misses the horizon reports ``completed: False`` (replay
    reproduces that verdict exactly).
    """
    return params["n_msgs"] * 40 + 50 * params["stages"] + 100


def build_li_pipeline(*, stages: int, n_msgs: int, capacity: int,
                      stall_probability: float, stall_seed: int,
                      period: int = DEFAULT_PERIOD):
    """Construct (without running) one pipeline configuration.

    Returns ``(sim, state, channels)``; ``state["completion_cycle"]``
    is set by the consumer when the final message lands (stays ``None``
    if the horizon expires first).  The stall, when enabled, injects on
    the final hop — the consumer-facing channel, mirroring the
    ``stall_verification`` testbench.
    """
    sim = Simulator()
    clk = sim.add_clock("clk", period=period)
    channels = [Buffer(sim, clk, capacity=capacity, name=name)
                for name in hop_paths(stages)]
    if stall_probability > 0.0:
        channels[-1].set_stall(stall_probability, seed=stall_seed)
    prev = channels[0]
    for i in range(stages):
        stage = LatencyForwarder(sim, clk, n_msgs=n_msgs, name=f"stage{i}")
        stage.in_port.bind(prev)
        stage.out_port.bind(channels[i + 1])
        prev = channels[i + 1]
    state = {"completion_cycle": None, "checksum": 0}

    def producer(src: Out) -> Generator:
        for value in range(n_msgs):
            yield from src.push(value)

    def consumer(dst: In) -> Generator:
        total = 0
        for _ in range(n_msgs):
            msg = yield from dst.pop()
            total += msg
        state["checksum"] = total
        state["completion_cycle"] = clk.cycles

    # Ports are constructed once (inside their component scope); only
    # the generators are factory-recreated on a snapshot restore.
    with component_scope(sim, "src", kind="StreamSource", clock=clk):
        src_port = Out(channels[0], name="out")
        sim.add_thread(lambda: producer(src_port), clk, name="ctl")
    with component_scope(sim, "snk", kind="StreamSink", clock=clk):
        snk_port = In(channels[-1], name="in")
        sim.add_thread(lambda: consumer(snk_port), clk, name="ctl")

    def _reset_state() -> None:
        state["completion_cycle"] = None
        state["checksum"] = 0

    sim.on_restore(_reset_state)
    return sim, state, channels


def build_design(*, stages: int = 2, n_msgs: int = DEFAULT_N_MSGS,
                 capacity: int = 4, stall_probability: float = 0.0,
                 seed: int = 0, period: int = DEFAULT_PERIOD):
    """Construction-only builder for the designs registry (inspect/lint)."""
    sim, _, _ = build_li_pipeline(
        stages=stages, n_msgs=n_msgs, capacity=capacity,
        stall_probability=stall_probability, stall_seed=seed,
        period=period)
    return sim


def _channel_record(path: str, stats: dict) -> dict:
    return {"path": path, **{k: stats[k] for k in (
        "transfers", "push_attempts", "pop_attempts", "push_rejections",
        "pop_rejections", "stall_cycles", "occupancy_sum", "cycles")}}


def _result_record(params: dict, seed: int, *,
                   completion_cycle: Optional[int],
                   channels: List[dict]) -> dict:
    """Fold measurements into the result record.

    Shared by the kernel runner and the sweep adapter's ``run`` and
    ``derive``, so every execution path feeds raw counters through this
    one formatter.
    """
    n_msgs = params["n_msgs"]
    completed = completion_cycle is not None
    return {
        "stages": params["stages"],
        "n_msgs": n_msgs,
        "capacity": params["capacity"],
        "stall_probability": params["stall_probability"],
        "period": params["period"],
        "trial": params["trial"],
        "seed": seed,
        "completed": completed,
        "completion_cycle": completion_cycle if completed else -1,
        "completion_ns": (completion_cycle - 1) * params["period"]
                         if completed else -1,
        "cycles_per_msg": completion_cycle / n_msgs if completed else -1.0,
        "checksum": n_msgs * (n_msgs - 1) // 2 if completed else 0,
        "channels": channels,
    }


def _channel_stats(channels: List) -> List[dict]:
    """Per-channel counter records, shared by every execution path."""
    return [_channel_record(c.path, {
        "transfers": c.stats.transfers,
        "push_attempts": c.stats.push_attempts,
        "pop_attempts": c.stats.pop_attempts,
        "push_rejections": c.stats.push_rejections,
        "pop_rejections": c.stats.pop_rejections,
        "stall_cycles": c.stats.stall_cycles,
        "occupancy_sum": c.stats.occupancy_sum,
        "cycles": c.stats.cycles,
    }) for c in channels]


def run_point(params: dict, seed: int) -> dict:
    """Execute one configuration with the full simulator."""
    sim, state, channels = build_li_pipeline(
        stages=params["stages"], n_msgs=params["n_msgs"],
        capacity=params["capacity"],
        stall_probability=params["stall_probability"], stall_seed=seed,
        period=params["period"])
    sim.run(until=(horizon_cycles(params) - 1) * params["period"])
    return _result_record(params, seed,
                          completion_cycle=state["completion_cycle"],
                          channels=_channel_stats(channels))


# ----------------------------------------------------------------------
# sweep adapter: the structural/latency-knob split for `sweep --warm`
# and `sweep --incremental` (only `stages` and `n_msgs` are structural)
# ----------------------------------------------------------------------
def _session_build(base_params: dict, base_seed: int) -> WarmSession:
    sim, state, channels = build_li_pipeline(
        stages=base_params["stages"], n_msgs=base_params["n_msgs"],
        capacity=base_params["capacity"],
        stall_probability=base_params["stall_probability"],
        stall_seed=base_seed, period=base_params["period"])
    return WarmSession(sim=sim, context={"state": state,
                                         "channels": channels,
                                         "clock": sim._clocks[0]})


def _session_run(session: WarmSession, params: dict, seed: int) -> dict:
    # Re-apply the very mutations a fresh construction would have
    # performed; the kernel's snapshot restore rewinds them afterwards.
    channels = session.context["channels"]
    for chan in channels:
        chan.capacity = params["capacity"]
    if params["stall_probability"] > 0.0:
        channels[-1].set_stall(params["stall_probability"], seed=seed)
    session.context["clock"].period = params["period"]
    session.sim.run(until=(horizon_cycles(params) - 1) * params["period"])
    state = session.context["state"]
    return _result_record(params, seed,
                          completion_cycle=state["completion_cycle"],
                          channels=_channel_stats(channels))


def _overrides(params: dict, seed: int) -> dict:
    paths = hop_paths(params["stages"])
    channels = {path: {"capacity": params["capacity"]} for path in paths}
    if params["stall_probability"] > 0.0:
        channels[paths[-1]]["stall"] = [params["stall_probability"], seed]
    return {"period": params["period"], "channels": channels}


def _derive(trace: dict, result, params: dict, seed: int) -> dict:
    snk = next(path for path in result.threads if path.startswith("snk"))
    consumer = result.threads[snk]
    completion = consumer["last_done"] if consumer["finished_script"] \
        else None
    channels = [_channel_record(rec["path"], result.channels[rec["path"]])
                for rec in trace["channels"]]
    return _result_record(params, seed, completion_cycle=completion,
                          channels=channels)


SWEEP_ADAPTER = SweepAdapter(
    # The base runs at the fastest point of the space (see
    # BASE_CAPACITY) and without stalls, so the point seed is
    # irrelevant: a constant collapses every satellite onto one base.
    base={"capacity": BASE_CAPACITY, "stall_probability": 0.0, "trial": 0,
          "period": DEFAULT_PERIOD},
    base_seed=0,
    build=_session_build,
    run=_session_run,
    overrides=_overrides,
    derive=_derive,
)


# ----------------------------------------------------------------------
# sweep integration
# ----------------------------------------------------------------------
def sweep_space(*, stages=(1, 3), n_msgs: int = DEFAULT_N_MSGS,
                capacities=(1, 2, 4, 8),
                probabilities=(0.0, 0.25, 0.5), trials: int = 2,
                seed: int = 500,
                period: int = DEFAULT_PERIOD) -> List[SweepPoint]:
    """Enumerate the latency grid: only ``stages`` is structural."""
    return [
        SweepPoint("li_latency",
                   {"stages": s, "n_msgs": n_msgs, "capacity": cap,
                    "stall_probability": p, "trial": t, "period": period},
                   seed=seed + t)
        for s in stages
        for cap in capacities
        for p in probabilities
        for t in range(trials)
    ]


def run_sweep_point(params: dict, seed: int) -> dict:
    return run_point(params, seed)


def summarize_sweep(results: List[dict]) -> str:
    by_cfg: dict = {}
    for rec in results:
        key = (rec["stages"], rec["capacity"], rec["stall_probability"])
        by_cfg.setdefault(key, []).append(rec)
    lines = ["LI pipeline latency sweep (blocking handshakes end to end)",
             f"{'stages':>6} {'cap':>4} {'stall p':>8} {'trials':>7} "
             f"{'mean cycles':>12} {'cycles/msg':>11}"]
    for key in sorted(by_cfg):
        recs = by_cfg[key]
        done = [r for r in recs if r["completed"]]
        if done:
            mean = sum(r["completion_cycle"] for r in done) / len(done)
            cpm = sum(r["cycles_per_msg"] for r in done) / len(done)
            tail = f"{mean:>12.1f} {cpm:>11.3f}"
        else:
            tail = f"{'horizon':>12} {'-':>11}"
        lines.append(f"{key[0]:>6} {key[1]:>4} {key[2]:>8.2f} "
                     f"{len(recs):>7} {tail}")
    return "\n".join(lines)


def run_report(*, stages: int = 1, n_msgs: int = 40,
               capacities=(1, 2, 4), probabilities=(0.0, 0.3),
               seed: int = 500, period: int = DEFAULT_PERIOD) -> List[dict]:
    """Small serial grid for the CLI verb (no pool, no cache)."""
    results = []
    for point in sweep_space(stages=(stages,), n_msgs=n_msgs,
                             capacities=capacities,
                             probabilities=probabilities, trials=1,
                             seed=seed, period=period):
        results.append(run_sweep_point(point.params, point.seed))
    return results


def format_report(results: List[dict]) -> str:
    return summarize_sweep(results)


# ----------------------------------------------------------------------
# CLI entry points, referenced by name from repro.catalog
# ----------------------------------------------------------------------
def cli_runner(params: dict, seed) -> List[dict]:
    return run_report(seed=seed if seed is not None else 500)
