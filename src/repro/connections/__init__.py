"""Connections: the paper's latency-insensitive channel library.

Three modelling levels, mirroring section 2.3:

* **fast / sim-accurate** (:mod:`.channel`, :mod:`.ports`) — the model
  used for performance simulation.  Queue-based channels updated once per
  clock edge; port operations cost zero main-thread cycles.  This is the
  default and what the rest of the library builds on.
* **signal-level** (:mod:`.signal_channel`) — valid/ready/msg wires with
  full evaluate/update semantics: the "RTL" reference.
* **signal-accurate ports** (:mod:`.signal_accurate`) — the paper's
  baseline port routines with delayed operations in the main thread,
  kept to reproduce the accuracy comparison of Figure 3.
* **sim-accurate helper-thread ports** (:mod:`.sim_accurate`) — the
  paper's mechanism for talking to signal-level wires without main-thread
  overhead (the SystemC/RTL co-simulation bridge).

Table 1 API::

    from repro.connections import In, Out, Combinational, Bypass, Pipeline, Buffer

    chan = Buffer(sim, clk, capacity=8)
    out_port = Out(chan)   # producer side:  push / push_nb
    in_port = In(chan)     # consumer side:  pop / pop_nb
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "channel": (
        "Buffer", "Bypass", "ChannelStats", "Combinational", "FastChannel",
        "Pipeline",
    ),
    "packet": (
        "DePacketizer", "Flit", "Packetizer", "int_deserializer",
        "int_serializer", "xor_checksum",
    ),
    "ports": ("In", "Out", "PortError"),
    "rtl_adapter": ("RtlChannel",),
    "signal_accurate": ("SignalAccurateIn", "SignalAccurateOut"),
    "signal_channel": (
        "BufferSignal", "BypassSignal", "CombinationalSignal",
        "PipelineSignal", "SignalInterface", "stream_consumer",
        "stream_producer",
    ),
    "sim_accurate": ("SimAccurateIn", "SimAccurateOut"),
})
