"""Workload definitions: what a pass is, and how its outputs are checked.

A workload is a fixed *pass*: a fixed list of operations (:class:`Op`),
run in a closed loop — the next operation starts when the previous one
returns.  ``Op.run`` is the timed part and only calls public functions
of ``src/repro``; ``Op.check`` is untimed and turns the raw output into
an :class:`Outcome`: the domain work done, the failures found, and the
*facts* observed (exact counts such as simulated cycles), which the
child process compares with ``bench/expected.json``.

The modules are imported lazily, one per workload family, so that the
imports a workload needs are part of *its* set-up time and nobody
else's.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from typing import Dict, List

#: workload name -> (module under bench.workloads, class name)
WORKLOADS = {
    "soc_threaded": ("soc", "SocThreaded"),
    "soc_compiled": ("soc", "SocCompiled"),
    "rtl_gals": ("soc", "RtlGals"),
    "sweep_fresh": ("sweep", "SweepFresh"),
    "sweep_cached": ("sweep", "SweepCached"),
    "sweep_warm": ("sweep", "SweepWarm"),
    "sweep_incremental": ("sweep", "SweepIncremental"),
    "cli_verbs": ("cli", "CliVerbs"),
}


@dataclass
class Context:
    """Everything a workload is given: the seed and where it may write."""

    workload: str
    seed: int
    tmp: str          # scratch directory of this run, inside the checkout
    root: str         # checkout root (holds src/ and bench/)
    cfg: dict         # bench/config.json

    @property
    def jobs(self) -> int:
        """Worker processes of the sweep workloads: ``min(cap, nproc)``."""
        return min(self.cfg["jobs_cap"], len(os.sched_getaffinity(0)))


@dataclass
class Outcome:
    """What one operation did, established outside the timed region."""

    work: int = 0
    failures: List[str] = field(default_factory=list)
    facts: Dict[str, object] = field(default_factory=dict)


class Op:
    """One operation of a pass."""

    name = "op"
    #: Whether the traced form of this op is decomposed into layer spans
    #: (and so takes part in the self-time attribution).
    attributed = True

    def run(self, rec):
        """Timed.  ``rec`` is a span recorder (a no-op when not tracing)."""
        raise NotImplementedError

    def check(self, raw) -> Outcome:
        """Untimed.  Verify ``raw`` and report work, failures and facts."""
        raise NotImplementedError


class Workload:
    """A named pass plus its set-up, deferred checks and clean-up."""

    #: What ``work_per_s`` counts on this workload.
    work_unit = "unit"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.ops: List[Op] = []

    def setup(self) -> None:
        """Generate inputs from the seed and fill ``self.ops``."""
        raise NotImplementedError

    def decompose(self, rec) -> None:
        """Traced runs only: extra serial decomposition of the pass."""

    def finish(self) -> Outcome:
        """Checks that need a reference computed after the timed passes;
        one failure per operation that did not match it."""
        return Outcome()


def load(ctx: Context) -> Workload:
    module, cls = WORKLOADS[ctx.workload]
    mod = importlib.import_module(f"{__name__}.{module}")
    return getattr(mod, cls)(ctx)
