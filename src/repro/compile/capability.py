"""Capability check: can this design run under the compiled backend?

The compiled backend claims the kernel's lone-clock lane
(:mod:`repro.kernel.lane`), whose equivalence to the general loop is
argued cycle by cycle for a specific — but very common — design
shape.  Which constructs fall outside it, and the reason recorded for each, is the
``compiled`` column of the capability table
(:mod:`repro.kernel.capability`); such designs **fall back** to the
threaded kernel rather than risk divergence.

:func:`check` returns ``None`` when the design is eligible, or the
first finding's reason text otherwise.  The reason is recorded on the
simulator (``sim.backend_fallback_reason``) and surfaced by
``python -m repro stats`` so a silent fallback is always diagnosable.
"""

from __future__ import annotations

from typing import Optional

from ..kernel.capability import findings

__all__ = ["check"]


def check(sim) -> Optional[str]:
    """Return ``None`` if ``sim`` is eligible for the compiled backend,
    else why not."""
    for _key, text in findings(sim, "compiled"):
        return text
    return None
