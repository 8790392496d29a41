"""Robustness layer: fault injection + hang watchdog (``repro.faults``).

Three pieces, layered on the PR 3 design hierarchy and the PR 4 sweep
engine:

* :mod:`.watchdog` — deadlock/livelock detection for a running
  simulator, raising :class:`HangError` with a path-level
  :class:`HangDiagnosis` instead of spinning to ``max_steps``;
* :mod:`.plan` — seeded deterministic :class:`FaultPlan` schedules
  (message drop/duplicate/corruption, stall bursts, clock
  jitter/drift) applied to any built design by dotted channel path;
* :mod:`.campaign` — the campaign runner behind ``repro faults``:
  seeded cases per experiment harness, outcome triage
  (clean/detected/hang/crash), and shrinking of failing schedules.

Everything is zero-cost when off: without a watchdog or fault plan the
kernel and channels pay at most one ``is None`` test on their hot paths
(a costlier one shows in the benchmark's ``soc_threaded`` ``wall_s`` and
``kernel.us_per_cycle.fast``, which every change is compared on).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "campaign": (
        "Harness", "Rig", "build_deadlock_fixture",
        "default_plan", "execute", "outcome_class", "shrink",
    ),
    "plan": (
        "AppliedFaults", "ChannelFaults", "FaultDirective", "FaultPlan",
        "default_corrupter",
    ),
    "watchdog": (
        "BlockedThread", "ChannelSnapshot", "HangDiagnosis", "HangError",
        "Watchdog",
    ),
})
