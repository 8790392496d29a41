"""Figure 6: performance-model accuracy on six SoC-level tests.

The paper runs six SoC-level tests on both the SystemC performance model
(sim-accurate Connections) and HLS-generated RTL in a Verilog simulator,
reporting 20-30x wall-clock speedup at < 3 % elapsed-cycle error.

Here each workload runs on the prototype SoC twice: ``mode="fast"``
(the performance model) and ``mode="rtl"`` (signal-level links plus
per-unit netlist activity).  Both runs produce bit-exact results — the
checks inside :func:`~repro.workloads.soc_workloads.run_workload` assert
it — so the comparison isolates modelling speed and timing fidelity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from ..sweep.point import SweepPoint
from ..workloads.soc_workloads import (
    SocWorkload,
    conv2d_workload,
    dot_product_workload,
    kmeans_workload,
    memcpy_workload,
    reduction_workload,
    run_workload,
    vector_scale_workload,
)

__all__ = ["Fig6Point", "run_fig6_test", "figure6", "format_figure6",
           "fig6_workloads_small", "pe_scaling_space",
           "run_pe_scaling_point", "summarize_pe_scaling"]


@dataclass(frozen=True)
class Fig6Point:
    """One SoC-level test's fast-vs-RTL comparison."""

    name: str
    cycles_fast: int
    cycles_rtl: int
    wall_fast: float
    wall_rtl: float

    @property
    def speedup(self) -> float:
        """Wall-clock speedup of the performance model over RTL."""
        return self.wall_rtl / self.wall_fast

    @property
    def cycle_error(self) -> float:
        """Relative elapsed-cycles discrepancy (fast vs RTL reference)."""
        return abs(self.cycles_fast - self.cycles_rtl) / self.cycles_rtl


def fig6_workloads_small() -> List[SocWorkload]:
    """Reduced-size variants of the six tests (tractable RTL runtimes)."""
    return [
        vector_scale_workload(n_pes=16, n_per_pe=32),
        memcpy_workload(n_pes=16, n_per_pe=32),
        reduction_workload(n_pes=16, n_per_pe=32),
        dot_product_workload(n_pes=16, n_per_pe=24),
        conv2d_workload(height=5, width=10),
        kmeans_workload(n_points=16, dim=2, k=2, n_pes=4),
    ]


def run_fig6_test(workload: SocWorkload) -> Fig6Point:
    """Run one workload in both modes and compare."""
    start = time.perf_counter()
    soc_fast = run_workload(workload, mode="fast")
    wall_fast = time.perf_counter() - start

    start = time.perf_counter()
    soc_rtl = run_workload(workload, mode="rtl")
    wall_rtl = time.perf_counter() - start

    return Fig6Point(
        name=workload.name,
        cycles_fast=soc_fast.finish_time // soc_fast.CLOCK_PERIOD,
        cycles_rtl=soc_rtl.finish_time // soc_rtl.CLOCK_PERIOD,
        wall_fast=wall_fast,
        wall_rtl=wall_rtl,
    )


def figure6(workloads: Optional[List[SocWorkload]] = None) -> List[Fig6Point]:
    """Regenerate Figure 6's data (six points by default)."""
    if workloads is None:
        workloads = fig6_workloads_small()
    return [run_fig6_test(w) for w in workloads]


# ----------------------------------------------------------------------
# sweep integration (repro.sweep): PE-array strong scaling, one point
# per PE count at a fixed total problem size
# ----------------------------------------------------------------------
def pe_scaling_space(*, pe_counts=(1, 2, 4, 8), total_words: int = 256,
                     mode: str = "fast", seed: int = 0) -> List[SweepPoint]:
    """Enumerate the PE strong-scaling sweep on the prototype SoC.

    The workload data is deterministic; ``seed`` only contributes to the
    point identity (so differently-seeded sweeps cache separately).
    """
    return [
        SweepPoint("pe_scaling",
                   {"n_pes": n, "n_per_pe": total_words // n, "mode": mode},
                   seed=seed)
        for n in pe_counts
    ]


def run_pe_scaling_point(params: dict, seed: int) -> dict:
    """Run one PE count's workload; the sweep registry's point runner."""
    workload = vector_scale_workload(n_pes=params["n_pes"],
                                     n_per_pe=params["n_per_pe"])
    soc = run_workload(workload, mode=params["mode"])
    return {"n_pes": params["n_pes"], "n_per_pe": params["n_per_pe"],
            "mode": params["mode"],
            "cycles": soc.finish_time // soc.CLOCK_PERIOD}


def summarize_pe_scaling(results: List[dict]) -> str:
    """Render the strong-scaling table (throughput relative to 1 PE)."""
    recs = sorted(results, key=lambda r: r["n_pes"])
    base = next((r["cycles"] for r in recs if r["n_pes"] == 1),
                recs[0]["cycles"] if recs else 0)
    lines = ["PE-array strong scaling (vector scale, fixed total words)",
             f"{'PEs':>5} {'words/PE':>9} {'cycles':>9} {'speedup':>8}"]
    for r in recs:
        speedup = base / r["cycles"] if r["cycles"] else 0.0
        lines.append(f"{r['n_pes']:>5} {r['n_per_pe']:>9} "
                     f"{r['cycles']:>9} {speedup:>8.2f}")
    return "\n".join(lines)


def format_figure6(points: List[Fig6Point]) -> str:
    """Render the speedup-vs-error scatter as a table."""
    lines = [
        "Figure 6: SystemC performance model vs RTL, SoC-level tests",
        f"{'test':>16} {'cycles(fast)':>12} {'cycles(rtl)':>12} "
        f"{'error %':>8} {'speedup x':>10}",
    ]
    for p in points:
        lines.append(
            f"{p.name:>16} {p.cycles_fast:>12} {p.cycles_rtl:>12} "
            f"{100 * p.cycle_error:>8.2f} {p.speedup:>10.1f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI entry points, referenced by name from repro.catalog
# ----------------------------------------------------------------------
def cli_runner(params: dict, seed) -> List[Fig6Point]:
    return figure6()


def cli_design():
    """A small Figure 6 SoC in fast mode (2x2 PE array)."""
    from ..soc.chip import PrototypeSoC

    return PrototypeSoC(mode="fast", pe_columns=2, pe_rows=2, lanes=4,
                        spad_words=256, gmem_words=1024).sim
