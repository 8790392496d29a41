"""repro.observe — the simulation observability layer.

The paper's methodology claims (Figure 3's accuracy comparison, Figure
6's speedup-vs-error scatter, the FSDB waveform debug path of Figure 1)
are all *measurements of the simulator itself*.  This package is the
reproduction's measurement substrate: kernel profiling counters,
per-channel handshake/occupancy statistics, NoC router/link utilization,
clock-domain activity, a structured JSONL event log, and a summary
report formatter.  See ``docs/OBSERVABILITY.md`` for the guide.

Telemetry is disabled by default and adds no work to the simulation hot
paths beyond a single ``is None`` check per hook site.

Usage::

    from repro import observe
    from repro.kernel import Simulator

    # Per-simulator opt-in:
    sim = Simulator(telemetry=True)
    ...
    print(observe.format_report(observe.collect(sim, label="run")))

    # Or capture everything an experiment builds internally:
    with observe.capture() as session:
        figure3(ports=(2,), txns_per_port=10)
    print(observe.format_report(session.report(label="fig3")))

From the command line the same machinery powers
``python -m repro stats <experiment>`` and the ``--trace-vcd PATH``
flag on every experiment verb (see :mod:`repro.cli`).
"""

from .core import (
    CaptureSession,
    ChannelTelemetry,
    KernelStats,
    TelemetryHub,
    active_session,
    attach_if_enabled,
    capture,
    capture_traces,
    is_enabled,
)
from .events import EventLog, read_jsonl, write_jsonl
from .report import (
    TelemetryReport,
    collect,
    format_report,
    from_records,
    merge,
    to_records,
)

__all__ = [
    "KernelStats",
    "ChannelTelemetry",
    "TelemetryHub",
    "CaptureSession",
    "capture",
    "capture_traces",
    "is_enabled",
    "active_session",
    "attach_if_enabled",
    "EventLog",
    "write_jsonl",
    "read_jsonl",
    "TelemetryReport",
    "collect",
    "merge",
    "format_report",
    "to_records",
    "from_records",
]
