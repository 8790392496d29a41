"""Figure 3: SystemC modelling accuracy on an arbitrated crossbar.

The paper measures cycles per transaction of an arbitrated crossbar with
2/4/8/16 input/output ports under three models:

* **RTL** — the reference (HLS-generated RTL in a Verilog simulator);
  here the signal-level :class:`ArbitratedCrossbarRTL`,
* **sim-accurate** — Connections' fast model; matches RTL throughput at
  every port count,
* **signal-accurate** — delayed valid/ready operations serialized in the
  module's main thread; its error grows with the number of ports.

Run :func:`figure3` to regenerate the whole figure's data, or
:func:`run_crossbar_accuracy` for a single point.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ..connections import Buffer, In, Out, stream_consumer, stream_producer
from ..design.hierarchy import component_scope
from ..kernel import Gate, Simulator
from ..matchlib import (
    ArbitratedCrossbarModule,
    ArbitratedCrossbarRTL,
    ArbitratedCrossbarSA,
)
from ..sweep.point import SweepPoint

__all__ = ["Fig3Point", "CrossbarTestbench", "build_crossbar_testbench",
           "run_crossbar_accuracy", "figure3", "MODELS",
           "sweep_space", "run_sweep_point", "summarize_sweep"]

MODELS = ("rtl", "sim-accurate", "signal-accurate")

_PERIOD = 10  # ticks per cycle


@dataclass(frozen=True)
class Fig3Point:
    """One data point of Figure 3."""

    model: str
    n_ports: int
    transactions: int
    elapsed_cycles: int
    wall_seconds: float

    @property
    def cycles_per_transaction(self) -> float:
        """Average cycles for each port to move one message."""
        return self.elapsed_cycles * self.n_ports / self.transactions


def _uniform_traffic(n_ports: int, per_port: int, seed: int) -> list[list[tuple]]:
    rng = random.Random(seed)
    return [
        [(rng.randrange(n_ports), (port, i)) for i in range(per_port)]
        for port in range(n_ports)
    ]


class CrossbarTestbench:
    """One (model, port-count) testbench, constructed but not yet run.

    Construction builds the entire design — crossbar, channels, all
    testbench threads with their ports created **eagerly** — so the
    simulator can be elaborated and linted (``python -m repro inspect
    fig3``) before, or without, ever running it.  Call :meth:`run` to
    measure the Figure 3 data point.
    """

    def __init__(self, model: str, n_ports: int, *, txns_per_port: int = 200,
                 seed: int = 1):
        if model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {model!r}")
        self.model = model
        self.n_ports = n_ports
        self.total = n_ports * txns_per_port
        self.done: dict = {}
        self.counter = {"n": 0}
        traffic = _uniform_traffic(n_ports, txns_per_port, seed)
        self.sim = sim = Simulator()
        self.clock = clk = sim.add_clock("clk", period=_PERIOD)

        if model == "sim-accurate":
            self.xbar = xbar = ArbitratedCrossbarModule(sim, clk,
                                                        n_ports, n_ports)
            in_chans = [Buffer(sim, clk, capacity=2, name=f"i{i}")
                        for i in range(n_ports)]
            out_chans = [Buffer(sim, clk, capacity=2, name=f"o{o}")
                         for o in range(n_ports)]
            for i in range(n_ports):
                xbar.ins[i].bind(in_chans[i])
                xbar.outs[i].bind(out_chans[i])

            def producer(src, msgs):
                for m in msgs:
                    yield from src.push(m)

            def consumer(dst):
                while self.counter["n"] < self.total:
                    ok, _ = dst.pop_nb()
                    if ok:
                        self.counter["n"] += 1
                        if self.counter["n"] >= self.total:
                            self.done["time"] = sim.now
                    yield

            for i in range(n_ports):
                with component_scope(sim, f"src{i}", kind="StreamSource",
                                     clock=clk):
                    src = Out(in_chans[i], name="out")
                    sim.add_thread(producer(src, traffic[i]), clk, name="ctl")
                with component_scope(sim, f"snk{i}", kind="StreamSink",
                                     clock=clk):
                    dst = In(out_chans[i], name="in")
                    sim.add_thread(consumer(dst), clk, name="ctl")
        else:
            cls = (ArbitratedCrossbarRTL if model == "rtl"
                   else ArbitratedCrossbarSA)
            self.xbar = xbar = cls(sim, clk, n_ports, n_ports)
            sinks: list[list] = [[] for _ in range(n_ports)]

            def counting_consumer(o):
                iface = xbar.deq[o]
                iface.ready.write(1)
                while self.counter["n"] < self.total:
                    yield
                    if iface.valid.read() and iface.ready.read():
                        sinks[o].append(iface.msg.read())
                        self.counter["n"] += 1
                        if self.counter["n"] >= self.total:
                            self.done["time"] = sim.now
                # Every transaction is counted, so no valid beat is left
                # to sample: the loop would poll idle to the horizon.
                # Park on a gate nobody opens (the skipped polls are
                # credited, telemetry's wakeups included).
                idle = Gate()
                while True:
                    yield idle

            for i in range(n_ports):
                sim.add_thread(stream_producer(xbar.enq[i], traffic[i]), clk,
                               name=f"p{i}")
                sim.add_thread(counting_consumer(i), clk, name=f"c{i}")

    def run(self) -> Fig3Point:
        """Run to completion and return the measured data point."""
        start = time.perf_counter()
        # Generous cap: signal-accurate at 16 ports is very slow per txn.
        self.sim.run(until=self.total * self.n_ports * 40 * _PERIOD)
        wall = time.perf_counter() - start
        if "time" not in self.done:
            raise RuntimeError(
                f"{self.model} crossbar with {self.n_ports} ports did not "
                f"finish ({self.counter['n']}/{self.total} transactions)"
            )
        return Fig3Point(
            model=self.model,
            n_ports=self.n_ports,
            transactions=self.total,
            elapsed_cycles=self.done["time"] // _PERIOD,
            wall_seconds=wall,
        )


def build_crossbar_testbench(model: str = "sim-accurate", n_ports: int = 4,
                             **kw) -> CrossbarTestbench:
    """Construct (without running) a Figure 3 testbench."""
    return CrossbarTestbench(model, n_ports, **kw)


def run_crossbar_accuracy(model: str, n_ports: int, *, txns_per_port: int = 200,
                          seed: int = 1) -> Fig3Point:
    """Measure one (model, port-count) point of Figure 3."""
    return CrossbarTestbench(model, n_ports, txns_per_port=txns_per_port,
                             seed=seed).run()


def figure3(ports=(2, 4, 8, 16), *, txns_per_port: int = 200,
            seed: int = 1) -> list[Fig3Point]:
    """Regenerate every series of Figure 3."""
    return [
        run_crossbar_accuracy(model, n, txns_per_port=txns_per_port, seed=seed)
        for model in MODELS
        for n in ports
    ]


# ----------------------------------------------------------------------
# sweep integration (repro.sweep): one point per (model, port count)
# ----------------------------------------------------------------------
def sweep_space(*, ports=(2, 4, 8, 16), txns_per_port: int = 60,
                seed: int = 1, models=MODELS) -> list[SweepPoint]:
    """Enumerate Figure 3's (model, port-count) grid as sweep points."""
    return [
        SweepPoint("fig3_crossbar",
                   {"model": model, "n_ports": n,
                    "txns_per_port": txns_per_port},
                   seed=seed)
        for model in models
        for n in ports
    ]


def run_sweep_point(params: dict, seed: int) -> dict:
    """Measure one Figure 3 point; the sweep registry's point runner."""
    from dataclasses import asdict

    point = run_crossbar_accuracy(params["model"], params["n_ports"],
                                  txns_per_port=params["txns_per_port"],
                                  seed=seed)
    return asdict(point)


def summarize_sweep(results: list[dict]) -> str:
    return format_figure3([Fig3Point(**rec) for rec in results])


def format_figure3(points: list[Fig3Point]) -> str:
    """Render Figure 3's data as the table the paper plots."""
    ports = sorted({p.n_ports for p in points})
    by = {(p.model, p.n_ports): p for p in points}
    lines = ["Figure 3: cycles per transaction, arbitrated crossbar",
             f"{'ports':>6} " + " ".join(f"{m:>16}" for m in MODELS)]
    for n in ports:
        row = f"{n:>6} "
        row += " ".join(
            f"{by[(m, n)].cycles_per_transaction:>16.2f}" for m in MODELS
        )
        lines.append(row)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI entry points, referenced by name from repro.catalog
# ----------------------------------------------------------------------
def cli_runner(params: dict, seed) -> list[Fig3Point]:
    ports = tuple(int(p) for p in
                  str(params.get("ports", "2,4,8,16")).split(","))
    return figure3(ports=ports, txns_per_port=params.get("txns", 60),
                   seed=seed if seed is not None else 1)


def cli_design():
    """Figure 3's sim-accurate crossbar testbench (4 ports)."""
    return build_crossbar_testbench("sim-accurate", 4).sim
