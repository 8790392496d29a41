"""Fine-grained GALS clocking (section 3 of the paper).

Per-partition local adaptive clock generators, pausible bisynchronous
FIFOs for every inter-partition interface, and the area/margin models
behind the paper's "< 3 % overhead, no top-level clock distribution"
claims.

Quick use::

    from repro.gals import LocalClockGenerator, PausibleBisyncFIFO

    tx = LocalClockGenerator(sim, "pe", nominal_period=909)
    rx = LocalClockGenerator(sim, "mem", nominal_period=1100)
    fifo = PausibleBisyncFIFO(sim, tx.clock, rx.clock)
    fifo.in_port.bind(channel_in_tx_domain)
    fifo.out_port.bind(channel_in_rx_domain)
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "clock_generator": ("LocalClockGenerator", "SupplyNoise"),
    "gals_link": ("GalsLink",),
    "overhead": ("GalsOverheadModel", "Partition", "SynchronousBaseline"),
    "pausible_fifo": ("BruteForceSyncFIFO", "PausibleBisyncFIFO"),
})
