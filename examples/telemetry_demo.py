#!/usr/bin/env python3
"""Observability layer tour: telemetry, stats reports, JSONL, VCD.

Builds a small producer/consumer pipeline crossing a GALS boundary on a
2x2 NoC mesh, runs it inside an ``observe.capture()`` session with
signal tracing on, then:

* prints the merged telemetry report (kernel counters, channel
  stall/occupancy statistics, NoC link utilization, clock activity);
* writes the report as JSONL (``telemetry_demo.jsonl``);
* writes the traced waveforms as a GTKWave-loadable VCD
  (``telemetry_demo.vcd``).

Run:  python examples/telemetry_demo.py

No ``--backend`` flag here: the design's clock comes from an adaptive
``LocalClockGenerator`` (a per-edge period generator), so a
``backend="compiled"`` request would fall back to the threaded kernel
and record why.  The hub and the trace are no reason to: a design with
one periodic clock runs compiled with either attached — see
docs/COMPILED_BACKEND.md.

Equivalent CLI (for any built-in experiment):

    python -m repro stats fig3 --ports 2 --txns 10 --json fig3.jsonl
    python -m repro fig3 --ports 2 --txns 10 --trace-vcd fig3.vcd

See docs/OBSERVABILITY.md for what every counter means.
"""

from repro import observe
from repro.connections import (
    Buffer,
    BufferSignal,
    In,
    Out,
    stream_consumer,
    stream_producer,
)
from repro.gals import LocalClockGenerator, SupplyNoise
from repro.kernel import Simulator, write_vcd
from repro.noc import Mesh


def build_and_run(n=60):
    sim = Simulator()  # telemetry attaches via the ambient capture session
    gen = LocalClockGenerator(sim, "core", nominal_period=909,
                              noise=SupplyNoise(amplitude=0.05, seed=7))
    clk = gen.clock
    mesh = Mesh(sim, clk, width=2, height=2)

    work = Buffer(sim, clk, capacity=4, name="work")
    src, dst = Out(work), In(work)

    def producer():
        for i in range(n):
            yield from src.push(i)

    def consumer():
        for i in range(n):
            assert (yield from dst.pop()) == i
            if i % 8 == 0:
                yield 3  # periodic stall -> visible backpressure

    def noc_traffic():
        for i in range(6):
            mesh.ni(0).send(3, [f"msg{i}"])
            yield 40

    # A signal-level channel too: its valid/ready/data wires are real
    # Signal objects, so the auto-watching trace gives the VCD content.
    rtl = BufferSignal(sim, clk, name="rtl", capacity=2)
    rtl_sink = []
    sim.add_thread(stream_producer(rtl.enq, list(range(8))), clk, name="rtl_p")
    sim.add_thread(stream_consumer(rtl.deq, rtl_sink, count=8), clk,
                   name="rtl_c")

    sim.add_thread(producer(), clk, name="producer")
    sim.add_thread(consumer(), clk, name="consumer")
    sim.add_thread(noc_traffic(), clk, name="noc_traffic")
    sim.run(until=1_000_000)
    assert len(mesh.ni(3).received) == 6
    return sim, mesh, gen


def main() -> None:
    with observe.capture(trace_signals=True) as session:
        sim, mesh, gen = build_and_run()

    # The capture session already saw the simulator; hand it the mesh
    # and clock generator context for the router/link/clock sections.
    report = observe.collect(sim, label="telemetry-demo",
                             meshes=[mesh], clock_generators=[gen])
    print(observe.format_report(report))

    with open("telemetry_demo.jsonl", "w") as fh:
        n = observe.write_jsonl(observe.to_records(report), fh)
    print(f"\nwrote telemetry_demo.jsonl ({n} records)")

    trace = session.best_trace()
    if trace is not None:
        with open("telemetry_demo.vcd", "w") as fh:
            write_vcd(trace, fh)
        print(f"wrote telemetry_demo.vcd ({len(trace.signals)} signals, "
              f"{len(trace.changes)} changes) — open with gtkwave")


if __name__ == "__main__":
    main()
