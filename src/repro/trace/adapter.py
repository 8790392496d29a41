"""The sweep adapter: an experiment's structural/latency-knob split.

A latency-insensitive design separates *structure* from *latency
knobs* — FIFO depth, injected stalls, clock period — and both sweep
accelerators rest on that split: ``incremental=True`` captures one
trace per structural configuration and replays the knobs analytically,
``warm=True`` constructs one design per structural configuration and
re-applies the knobs before each run.  A :class:`SweepAdapter` is where
an experiment declares the split, **once**, for both; it hangs off the
experiment registry (:class:`repro.registry.SweepSpec.adapter`).

The declaration is ``base``: a plain dict pinning every latency knob
at its base value.  A point's projection onto its structural base is
``{**params, **base}`` (with the constant ``base_seed``), so a point
and its base can only ever differ in parameters the adapter named, and
the points of a sweep that share a projection form one *group*: one
capture, or one warm session, serves them all.  :func:`classify` is
the one place the projection is computed; the engine's grouping step
reaches it through :func:`repro.sweep.warm.group_key`.

The fresh point runners are deliberately *not* built from ``build`` /
``run``: they are the reference every differential suite compares the
adapter against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["NO_REPLAY_ADAPTER", "SweepAdapter", "adapter_for", "classify"]

#: The recorded fallback reason when a sweep has no replay-capable adapter.
NO_REPLAY_ADAPTER = "experiment registers no replay adapter"


@dataclass(frozen=True)
class SweepAdapter:
    """How one experiment's sweep points map onto a structural base.

    The session half — ``build(base_params, base_seed)`` constructs the
    design **without running it** and returns a
    :class:`~repro.sweep.warm.WarmSession`; any testbench state that
    accumulates across runs must be registered for rewind with
    :meth:`Simulator.on_restore`.  ``run(session, params, seed)``
    re-applies *every* knob named in ``base`` (capacity, stall
    schedule, period, …) from ``params``, runs the simulation, and
    returns a result record **byte-identical** to the plain point
    runner's — it must not restore; the warm runner owns the
    restore-in-finally.  Warm sweeps use the pair directly and
    :meth:`capture` runs the base point through it.

    The optional replay half — ``overrides(params, seed)`` and
    ``derive(trace, replay_result, params, seed)`` turn a point into
    replay inputs and a :class:`~repro.trace.replay.ReplayResult` back
    into the experiment's usual result record.

    ``analytic=True`` instead marks an experiment with no simulation
    kernel at all (``gals_overhead``): nothing to group by, every point
    is derived by evaluating the closed-form runner in-process, and the
    process pool is skipped.
    """

    #: Every latency-insensitive knob, pinned at its base value.
    base: Dict[str, Any] = field(default_factory=dict)
    base_seed: int = 0
    build: Optional[Callable[[dict, int], Any]] = None
    run: Optional[Callable[[Any, dict, int], dict]] = None
    overrides: Optional[Callable[[dict, int], dict]] = None
    derive: Optional[Callable[[dict, Any, dict, int], dict]] = None
    analytic: bool = False

    @property
    def warm(self) -> bool:
        """True when the adapter carries the session half."""
        return self.build is not None

    @property
    def replay_kind(self) -> Optional[str]:
        """``"trace"`` / ``"analytic"``, or ``None`` without a replay half."""
        if self.analytic:
            return "analytic"
        return "trace" if self.derive is not None else None

    def capture(self, base_params: dict, base_seed: int) -> dict:
        """Run the base point under capture; returns the trace dict.

        The trace carries its own recorded ineligibility reasons — the
        engine falls back on those.
        """
        from .capture import capture

        session = self.build(base_params, base_seed)
        with capture(session.sim) as captured:
            self.run(session, base_params, base_seed)
        return captured.trace


def adapter_for(experiment: str) -> Optional[SweepAdapter]:
    """The named sweep's adapter if it can serve replay, else ``None``.

    Resolved through :mod:`repro.registry` by sweep name — the lookup
    the engine's capture workers use, so only the experiment name (plain
    data) ever crosses a process boundary.  Raises ``KeyError`` for
    unregistered sweeps, exactly like ``registry.get_sweep``.
    """
    from ..registry import get_sweep

    adapter = get_sweep(experiment).adapter
    return adapter if adapter is not None and adapter.replay_kind else None


def classify(adapter: Optional[SweepAdapter], params: dict,
             seed: int) -> Tuple[str, Optional[str], Optional[dict],
                                 Optional[int]]:
    """Project one sweep point onto its structural base.

    Returns ``(mode, reason, base_params, base_seed)`` where ``mode``
    is ``"derived"`` (the point belongs to the group of its base,
    pending the capture's own eligibility) or ``"structural"`` (needs a
    fresh simulation, with the recorded ``reason``).  Analytic points
    are derived with no base.
    """
    if adapter is None:
        return "structural", NO_REPLAY_ADAPTER, None, None
    if adapter.analytic:
        return "derived", None, None, None
    return "derived", None, {**params, **adapter.base}, adapter.base_seed
