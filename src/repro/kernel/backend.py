"""Backend selection for the simulation kernel.

Two execution backends share one modelling API (see
``docs/COMPILED_BACKEND.md``):

* ``"threaded"`` — the event-driven scheduler in
  :mod:`repro.kernel.simulator`: generator threads resumed through the
  delta loop every cycle.  Always available; the semantic reference.
* ``"compiled"`` — the flat dispatch loop in :mod:`repro.compile`: the
  design's one periodic clock is driven by a per-edge loop that keeps
  runnable threads in a sorted slot list instead of wakeup buckets
  (idle channels and gate waiters are parked under either backend).
  Attaches only when a capability check proves the design uses
  supported constructs; otherwise the simulator silently runs threaded
  and records the reason.

Selection is ambient so experiment code does not need to thread a
``backend=`` argument through every ``Simulator()`` construction::

    from repro.kernel import use_backend

    with use_backend("compiled"):
        result = run_pe_scaling_point(n_pes=4, n_per_pe=64, mode="fast")

The module also keeps a process-local record of the most recent run's
backend, which ``python -m repro stats`` surfaces as a provenance line.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

__all__ = ["BACKENDS", "use_backend", "default_backend", "resolve_backend",
           "record_run", "last_run"]

#: The recognised backend names.
BACKENDS = ("threaded", "compiled")

#: Ambient default used by ``Simulator()`` when no explicit backend is
#: passed.  A plain module global: sweeps run points in worker processes,
#: each of which re-establishes its own ambient via :func:`use_backend`.
_DEFAULT = "threaded"

#: Most recent run's provenance: ``(backend, fallback_reason)``.
_LAST_RUN: tuple[str, Optional[str]] = ("threaded", None)


def resolve_backend(backend: Optional[str]) -> str:
    """Validate an explicit backend name, or return the ambient default."""
    if backend is None:
        return _DEFAULT
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (choose from {'/'.join(BACKENDS)})")
    return backend


def default_backend() -> str:
    """The ambient backend new simulators pick up."""
    return _DEFAULT


@contextmanager
def use_backend(backend: str):
    """Set the ambient backend for simulators constructed in the block."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = resolve_backend(backend)
    try:
        yield
    finally:
        _DEFAULT = previous


def record_run(backend: str, fallback_reason: Optional[str] = None) -> None:
    """Note which backend executed the most recent simulation run."""
    global _LAST_RUN
    _LAST_RUN = (backend, fallback_reason)


def last_run() -> tuple[str, Optional[str]]:
    """``(backend, fallback_reason)`` of the most recent simulation run."""
    return _LAST_RUN
