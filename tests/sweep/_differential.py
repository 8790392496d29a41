"""The one oracle for sweep adapters: every mode equals fresh.

A :class:`repro.trace.adapter.SweepAdapter` declares an experiment's
structural/latency-knob split once, and both accelerated modes group
points by it.  ``assert_modes_match_fresh`` holds a point list to the
only standard that matters — ``warm=True`` and ``incremental=True``
are byte-identical to a serial fresh sweep under ``canonical()`` — and
every result to ``assert_accounting``.  It needs no adapter: modes an
experiment cannot serve fall back, and a fallback must match too.
"""

from repro.sweep import run_sweep
from repro.sweep.warm import reset_sessions

from ._accounting import assert_accounting


def assert_modes_match_fresh(points):
    """Returns ``(fresh, warm, incremental)`` for mode-specific checks."""
    fresh = run_sweep(points, jobs=1, telemetry=False)
    reset_sessions()  # warm provenance must not depend on earlier tests
    warm = run_sweep(points, jobs=1, warm=True)
    incremental = run_sweep(points, jobs=1, incremental=True)
    for result in (fresh, warm, incremental):
        assert result.errors == 0
        assert_accounting(result)
    assert warm.canonical() == fresh.canonical(), "warm != fresh"
    assert incremental.canonical() == fresh.canonical(), \
        "incremental != fresh"
    return fresh, warm, incremental
