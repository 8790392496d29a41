"""Simulation kernel: the SystemC stand-in underlying the whole flow.

Public API::

    from repro.kernel import Simulator, Signal, BitSignal, BusSignal

    sim = Simulator()
    clk = sim.add_clock("clk", period=1000)   # 1 GHz at 1 tick = 1 ps

    def producer():
        for i in range(10):
            data.write(i)
            yield            # wait one posedge

    data = Signal(sim, name="data")
    sim.add_thread(producer(), clk, name="producer")
    sim.run(until=100_000)
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "backend": ("BACKENDS", "default_backend", "last_run", "use_backend"),
    "clock": ("Clock",),
    "signal": ("BitSignal", "BusSignal", "Signal"),
    "simulator": (
        "DeltaOverflow", "Event", "Gate", "Method", "SimulationError",
        "Simulator", "Thread", "TimeBudgetExceeded", "time_budget",
    ),
    "snapshot": ("Snapshot", "SnapshotError"),
    "tracing": ("Trace", "WallClock", "write_vcd"),
})
