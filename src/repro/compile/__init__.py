"""repro.compile — the compiled simulation backend.

The threaded kernel (:mod:`repro.kernel.simulator`) is the semantic
reference: generator threads resumed through a delta loop, channels
ticked by per-edge callbacks, clocks merged against a timed-event heap.
Profiling the paper's PE-array experiments shows where that model pays:
on ``pe_scaling`` roughly 60 thread resumes and 110 channel ticks run
*per cycle*, and in steady state almost all of them observe nothing —
idle consumers polling empty queues, empty channels updating empty
bookkeeping.

The loop that removes that cost without changing a single observable
is the kernel's lone-clock lane (:mod:`repro.kernel.lane`), which the
threaded kernel enters too, whenever a design has one periodic clock,
an empty heap and no methods.  This package is the backend that
*requests* it, and the request is one verdict.

The check (:mod:`.capability`) runs once, at the first run of a
``backend="compiled"`` request: the design shape is one the lane can
execute equivalently — one periodic clock and no construct the
``compiled`` column of the capability table
(:mod:`repro.kernel.capability`) refuses — or the request **falls
back** to the threaded kernel, recording the first finding's text.
That verdict is kept for the simulator's lifetime, snapshot restores
included, and is what ``sim.backend`` and
:func:`repro.kernel.backend.last_run` report.  It names the request's
answer, not the loop that ran each timestep: the kernel enters and
leaves the lane on its own exit guards under either backend.

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

__all__ = ["check_capability", "try_attach", "compile_cache_stats"]


def try_attach(sim) -> Optional[str]:
    """Take ``sim``'s compiled verdict: ``"compiled"`` if the design is
    eligible, else None with the first finding's text recorded
    (``sim.backend_fallback_reason``).

    Called by the simulator at the first run of a ``backend="compiled"``
    request; the verdict holds for the simulator's lifetime.
    """
    reason = check_capability(sim)
    sim._backend_fallback = reason
    sim._verdict = "threaded" if reason is not None else "compiled"
    return None if reason is not None else "compiled"


def compile_cache_stats() -> dict:
    """Always zero: attach builds nothing, so nothing is cached.

    Kept because the benchmark's ``compile.cache_hits`` probe still
    reads it.
    """
    return {"entries": 0, "lookups": 0, "hits": 0, "misses": 0}
