"""Section 2.2 QoR claim: HLS within ±10 % of hand-optimized RTL.

"Preliminary experiments across a range of datapath modules and small
functional units show that comparable QoR (±10 %) can be achieved
through appropriate code optimizations and design constraints."

This experiment compares the HLS engine's area (scheduled, bound, with
control/mux/register overheads) against an analytic hand-RTL reference
for a range of datapath modules — under good constraints and, as the
ablation, under deliberately bad ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..hls import (
    adder_tree_design,
    alu_design,
    estimate_area,
    fir_design,
    hand_rtl_area,
    schedule,
    vector_mac_design,
)

__all__ = ["QorResult", "hls_vs_hand_qor", "bad_constraint_ablation",
           "format_qor_results"]


@dataclass(frozen=True)
class QorResult:
    design: str
    hls_area: float
    hand_area: float

    @property
    def delta(self) -> float:
        """Signed relative area difference (positive = HLS bigger)."""
        return self.hls_area / self.hand_area - 1.0


def _module_suite() -> List:
    return [
        vector_mac_design(8, 16),
        vector_mac_design(16, 16),
        fir_design(8, 16),
        fir_design(16, 16),
        adder_tree_design(16, 32),
        adder_tree_design(32, 32),
        alu_design(32),
        alu_design(64),
    ]


def hls_vs_hand_qor(*, clock_period_ps: float = 909.0) -> List[QorResult]:
    """Well-constrained HLS vs hand RTL across the datapath suite."""
    results = []
    for design in _module_suite():
        rpt = estimate_area(schedule(design, clock_period_ps=clock_period_ps))
        results.append(QorResult(design.name, rpt.total,
                                 hand_rtl_area(design)))
    return results


def bad_constraint_ablation(*, clock_period_ps: float = 909.0) -> List[QorResult]:
    """The flip side: over-constrained resources blow the QoR budget."""
    results = []
    for design in _module_suite():
        sched = schedule(design, clock_period_ps=clock_period_ps,
                         resource_limits={"mul": 1, "add": 1})
        rpt = estimate_area(sched, pipelined=True)
        results.append(QorResult(design.name, rpt.total,
                                 hand_rtl_area(design)))
    return results


def format_qor_results(results: List[QorResult], *, title: str) -> str:
    lines = [title,
             f"{'design':>16} {'HLS NAND2':>12} {'hand NAND2':>12} {'delta %':>9}"]
    for r in results:
        lines.append(f"{r.design:>16} {r.hls_area:>12,.0f} "
                     f"{r.hand_area:>12,.0f} {100 * r.delta:>9.1f}")
    worst = max(abs(r.delta) for r in results)
    lines.append(f"worst |delta|: {100 * worst:.1f} %")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI entry points, referenced by name from repro.catalog
# ----------------------------------------------------------------------
def cli_runner(params: dict, seed) -> dict:
    return {"hls_vs_hand": hls_vs_hand_qor(),
            "bad_constraints": bad_constraint_ablation()}


def cli_format(payload: dict) -> str:
    return (format_qor_results(payload["hls_vs_hand"],
                               title="HLS vs hand RTL (paper: ±10 %)")
            + "\n\n"
            + format_qor_results(payload["bad_constraints"],
                                 title="...with bad constraints (ablation)"))
