"""Trace-based incremental re-simulation (ROADMAP item 2).

Capture one full simulation per *structural* configuration as a
latency-annotated op trace, then re-derive measurements for thousands
of parameter points that vary only replay-safe knobs — FIFO depths,
injected stall schedules, retiming latency, clock period — without
re-running the kernel.  See ``docs/INCREMENTAL_SIM.md``.

* :mod:`repro.trace.capture` — scoped instrumentation producing a
  JSON-able trace dict plus recorded ineligibility reasons,
* :mod:`repro.trace.replay` — the exact analytical evaluator,
* :mod:`repro.trace.adapter` — the per-experiment sweep adapter: the
  structural/latency-knob split ``sweep --incremental`` and ``sweep
  --warm`` both group points by.
"""

from .capture import CaptureError, TRACE_SCHEMA, capture
from .replay import (ReplayError, Replayer, ReplayResult, replay,
                     stall_schedule)
from .adapter import SweepAdapter, classify

__all__ = [
    "CaptureError", "TRACE_SCHEMA", "capture",
    "ReplayError", "Replayer", "ReplayResult", "replay", "stall_schedule",
    "SweepAdapter", "classify",
]
