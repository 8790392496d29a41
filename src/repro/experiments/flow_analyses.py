"""Flow-level analyses as registered experiments: backend + productivity.

The section-4 claims that are pure models — backend turnaround (the
12-hour claim) and design productivity (gates per engineer-day) — used
to live only as hand-written CLI verbs.  This module gives each one a
runner and a formatter for its :class:`~repro.registry.ExperimentSpec`
(declared in :mod:`repro.catalog`) so they flow through the same
job-oriented execution core (:mod:`repro.jobs`) as the simulated
experiments: ``repro run backend --json`` produces the same canonical
payload the legacy verb does.

Both are analytic (no simulated design, no sweep space) and fully
deterministic — ``--seed`` is accepted and ignored.
"""

from __future__ import annotations

from typing import List

__all__ = ["run_backend_turnaround", "format_backend_turnaround",
           "run_productivity", "format_productivity"]


def run_backend_turnaround(params: dict = None, seed=None) -> dict:
    """Evaluate the flow-runtime model over the testchip inventory."""
    from ..flow import FlowRuntimeModel, inventory_partitions
    from ..flow import testchip_inventory as chip_inventory

    model = FlowRuntimeModel()
    parts = inventory_partitions(chip_inventory())
    return {"gals": model.turnaround(parts, gals=True),
            "synchronous": model.turnaround(parts, gals=False),
            "flat_hours": model.flat_hours(parts)}


def format_backend_turnaround(payload: dict) -> str:
    return (payload["gals"].to_text()
            + f"\nsynchronous hierarchical flow: "
              f"{payload['synchronous'].total_hours:.1f} h"
            + f"\nflat flow: {payload['flat_hours']:.1f} h")


def run_productivity(params: dict = None, seed=None) -> dict:
    """Evaluate the effort model under both methodologies."""
    from ..flow import (
        OOHLS_METHODOLOGY,
        RTL_METHODOLOGY,
        inventory_efforts,
        productivity_report,
    )
    from ..flow import testchip_inventory as chip_inventory

    efforts = inventory_efforts(chip_inventory())
    return {"oohls": productivity_report(efforts, OOHLS_METHODOLOGY),
            "rtl": productivity_report(efforts, RTL_METHODOLOGY)}


def format_productivity(payload: dict) -> str:
    return payload["oohls"].to_text() + "\n\n" + payload["rtl"].to_text()
