"""The unit of sweep work: one (experiment, params, seed) triple.

A :class:`SweepPoint` is deliberately dumb data — no callables, no
simulator handles — so it pickles cheaply across the process pool and
hashes stably into a cache key.  The experiment name is resolved to a
runner *inside* the worker via the sweep registry
(:func:`repro.registry.get_sweep`), which also keeps spawn-based worker
start methods working.

The module also hosts the per-point wall-clock guard
(:class:`PointTimeout`, ``_alarm``): every worker entry point — fresh
chunks, trace captures and warm chunks alike — evaluates one point at a
time under it, so it lives beside the point rather than in any one of
the modules that run points.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .serialize import canonical_json

__all__ = ["PointTimeout", "SweepPoint"]


class PointTimeout(Exception):
    """A sweep point exceeded its per-point wall-clock budget."""


@contextmanager
def _alarm(seconds: Optional[float]):
    """Raise :class:`PointTimeout` in the current process after ``seconds``.

    SIGALRM-based, so it fires even inside a busy simulation loop.
    Where the signal cannot be armed (non-main thread, platforms
    without SIGALRM) the point instead runs under the kernel's ambient
    wall-clock budget (:func:`repro.kernel.time_budget`), which the
    simulator's timestep loop polls — a slightly softer deadline, but
    never silently unbounded.  A no-op only when no timeout was
    requested at all.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    usable = hasattr(signal, "SIGALRM")
    if usable:
        try:
            old = signal.signal(
                signal.SIGALRM,
                lambda signum, frame: (_ for _ in ()).throw(
                    PointTimeout(f"point exceeded {seconds:.3g}s")))
        except ValueError:  # not in the main thread
            usable = False
    if not usable:
        from ..kernel.simulator import TimeBudgetExceeded, time_budget

        try:
            with time_budget(seconds):
                yield
        except TimeBudgetExceeded as exc:
            raise PointTimeout(
                f"point exceeded {seconds:.3g}s "
                f"(kernel cycle-budget fallback)") from exc
        return
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


@dataclass(frozen=True)
class SweepPoint:
    """One enumerable point of an experiment's parameter space.

    ``experiment`` names a registered sweep (see
    :func:`repro.registry.get_sweep`), ``params`` are the
    keyword arguments of that experiment's point runner, and ``seed`` is
    the point's deterministic RNG seed — assigned by the space builder,
    never invented by the engine, so a point's identity fully determines
    its result.
    """

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    #: Simulation backend the point runs under ("threaded" or
    #: "compiled").  The compiled backend is differentially tested to
    #: be byte-identical, so both values *should* produce the same
    #: result — the field still enters the cache key (for non-default
    #: values) because the cache must never assert that equivalence,
    #: only observe it.
    backend: str = "threaded"

    def identity(self) -> dict:
        """The content-addressed part of the point (no runtime state).

        The default backend is omitted so existing cached results keyed
        before the field existed remain addressable.
        """
        ident = {"experiment": self.experiment, "params": dict(self.params),
                 "seed": self.seed}
        if self.backend != "threaded":
            ident["backend"] = self.backend
        return ident

    @property
    def label(self) -> str:
        """Compact human-readable tag, e.g. ``stalls[p=0.3,trial=4]#104``."""
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.experiment}[{inner}]#{self.seed}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.label

    def canonical(self) -> str:
        return canonical_json(self.identity())
