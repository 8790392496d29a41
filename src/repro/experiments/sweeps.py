"""Sweep registry: each experiment's parameter space as SweepPoints.

.. deprecated::
    This module is now a thin view over :mod:`repro.registry` — the
    manifest (:mod:`repro.catalog`) declares each experiment's
    :class:`SweepSpec` on its :class:`~repro.registry.ExperimentSpec`
    and ``SWEEP_SPECS`` is derived from those specs.  The historical surface (``SWEEP_SPECS``,
    :func:`register_sweep`, :func:`get_sweep`, :func:`build_space`)
    keeps working unchanged for existing imports and for tests that
    register synthetic sweeps; new code should use
    ``registry.get_sweep`` / ``registry.register_sweep``.  The alias is
    slated for removal once nothing in-tree imports it (tracked in
    ``docs/REGISTRY.md``).

Each registered sweep maps a multi-point experiment to three callables:

* ``space(**options)`` — enumerate the parameter grid as a list of
  :class:`~repro.sweep.point.SweepPoint` (cheap, no simulation).  Every
  builder accepts ``seed=`` to re-seed the whole space deterministically.
* ``runner(params, seed)`` — execute one point, returning a plain
  JSON-able result record.  Resolved by name inside worker processes,
  so points stay dumb data across the pool.
* ``summarize(results)`` — render the merged, ordered result records as
  the experiment's usual table.

Usage::

    from repro.experiments.sweeps import build_space, get_sweep
    from repro.sweep import run_sweep

    points = build_space("stall_verification")
    result = run_sweep(points, jobs=4)
    print(get_sweep("stall_verification").summarize(result.ok_results))
"""

from __future__ import annotations

from typing import List, Optional

from ..registry import SweepSpec, get_sweep, register_sweep
from ..registry import sweep_specs_view
from ..sweep.point import SweepPoint

__all__ = ["SweepSpec", "SWEEP_SPECS", "register_sweep", "get_sweep",
           "build_space"]

#: Sweep name -> spec: a live read-through view of the experiment
#: registry.  Extended via :func:`register_sweep` (tests register
#: synthetic experiments; fork-started workers inherit them).
SWEEP_SPECS = sweep_specs_view()


def build_space(name: str, *, seed: Optional[int] = None,
                **options) -> List[SweepPoint]:
    """Enumerate a registered sweep's default (or re-seeded) space."""
    if seed is not None:
        options["seed"] = seed
    return get_sweep(name).space(**options)
