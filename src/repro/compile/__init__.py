"""repro.compile — the compiled simulation backend.

The threaded kernel (:mod:`repro.kernel.simulator`) is the semantic
reference: generator threads resumed through a delta loop, channels
ticked by per-edge callbacks, clocks merged against a timed-event heap.
Profiling the paper's PE-array experiments shows where that model pays:
on ``pe_scaling`` roughly 60 thread resumes and 110 channel ticks run
*per cycle*, and in steady state almost all of them observe nothing —
idle consumers polling empty queues, empty channels updating empty
bookkeeping.

This package removes that cost without changing a single observable:

1. :mod:`.capability` proves the design shape is one the engine can
   execute equivalently — one periodic clock and no construct the
   ``compiled`` column of the capability table
   (:mod:`repro.kernel.capability`) refuses; anything else **falls
   back** to the threaded kernel, recording why.
2. :class:`.engine.CompiledEngine` drives that clock with a flat,
   allocation-free dispatch loop: parked threads are skipped (idle
   channels and gate waiters leave the clock under either backend), a
   posedge costs four integer updates, and any construct outside the
   proof detaches back to the threaded loop mid-run with exact state
   restoration.

Attach builds no graph: the engine walks the clock's own callback list
and wakeup buckets, so attaching costs the capability check and nothing
more.

Select it per simulator (``Simulator(backend="compiled")``), ambiently
(:func:`repro.kernel.use_backend`), or from the command line
(``python -m repro <experiment> --backend compiled``).  The contract —
checked by ``tests/test_compiled_backend.py`` across every registered
experiment — is that results are byte-identical to the threaded kernel.

See ``docs/COMPILED_BACKEND.md`` for the full pipeline walkthrough.
"""

from __future__ import annotations

from typing import Optional

from .capability import check as check_capability
from .engine import CompiledEngine

__all__ = ["CompiledEngine", "check_capability", "try_attach",
           "compile_cache_stats"]


def try_attach(sim) -> Optional[CompiledEngine]:
    """Attach a compiled engine to ``sim`` if the design is eligible.

    Called lazily by the simulator at the first run of a
    ``backend="compiled"`` request.  On ineligibility the reason is
    recorded (``sim.backend_fallback_reason``) and ``None`` is
    returned; the caller proceeds with the threaded kernel.
    """
    reason = check_capability(sim)
    if reason is not None:
        sim._backend_fallback = reason
        return None
    # The check admits exactly one clock, without a period generator.
    engine = CompiledEngine(sim, sim._clocks[0])
    sim._engine = engine
    return engine


def compile_cache_stats() -> dict:
    """Always zero: attach builds nothing, so nothing is cached.

    Kept because the benchmark's ``compile.cache_hits`` probe still
    reads it.
    """
    return {"entries": 0, "lookups": 0, "hits": 0, "misses": 0}
