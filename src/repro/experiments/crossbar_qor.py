"""Section 2.4 case study: src-loop vs dst-loop crossbar QoR.

The paper measured a 25 % area penalty for the src-loop coding of a
32-lane 32-bit crossbar in Catapult HLS, plus significantly longer
compile times and worse scaling.  This experiment regenerates the
comparison with the reproduction's HLS engine: a lane sweep, the paper's
exact configuration, and a clock sweep showing how the penalty decomposes
(comparator/priority logic vs forced pipelining).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..hls import (
    crossbar_dst_loop_design,
    crossbar_src_loop_design,
    estimate_area,
    schedule,
)
from ..sweep.point import SweepPoint

__all__ = ["QorPoint", "crossbar_qor_sweep", "crossbar_clock_sweep",
           "format_qor_table", "sweep_space", "run_sweep_point",
           "summarize_sweep"]


@dataclass(frozen=True)
class QorPoint:
    """src-vs-dst comparison at one configuration."""

    lanes: int
    width: int
    clock_period_ps: float
    dst_area: float
    src_area: float
    dst_latency: int
    src_latency: int
    dst_compile_s: float
    src_compile_s: float

    @property
    def area_penalty(self) -> float:
        """Relative extra area of the src-loop implementation."""
        return self.src_area / self.dst_area - 1.0

    @property
    def compile_ratio(self) -> float:
        return self.src_compile_s / max(self.dst_compile_s, 1e-9)


def _point(lanes: int, width: int, clock_period_ps: float) -> QorPoint:
    dst = crossbar_dst_loop_design(lanes, width)
    src = crossbar_src_loop_design(lanes, width)
    # Compile time is the best of three alternating schedule() calls per
    # design: one cold call (the first of a process pays warm-up) can
    # flip the ratio.  Area and latency are the same on every call.
    dst_s, src_s = [], []
    for _ in range(3):
        sched_dst = schedule(dst, clock_period_ps=clock_period_ps)
        sched_src = schedule(src, clock_period_ps=clock_period_ps)
        dst_s.append(sched_dst.compile_seconds)
        src_s.append(sched_src.compile_seconds)
    rpt_dst = estimate_area(sched_dst)
    rpt_src = estimate_area(sched_src)
    return QorPoint(
        lanes=lanes, width=width, clock_period_ps=clock_period_ps,
        dst_area=rpt_dst.total, src_area=rpt_src.total,
        dst_latency=rpt_dst.latency, src_latency=rpt_src.latency,
        dst_compile_s=min(dst_s), src_compile_s=min(src_s),
    )


def crossbar_qor_sweep(lanes: Sequence[int] = (8, 16, 32, 64), *,
                       width: int = 32,
                       clock_period_ps: float = 909.0) -> List[QorPoint]:
    """Lane sweep at the paper's 1.1 GHz clock (909 ps)."""
    return [_point(n, width, clock_period_ps) for n in lanes]


def crossbar_clock_sweep(periods_ps: Sequence[float] = (700, 909, 1250, 2500),
                         *, lanes: int = 32, width: int = 32) -> List[QorPoint]:
    """Clock sweep at the paper's 32x32 configuration.

    Shows the penalty's two components: at relaxed clocks only the
    comparator/priority logic remains; tight clocks add pipeline
    registers and control for the deep priority chain.
    """
    return [_point(lanes, width, p) for p in periods_ps]


# ----------------------------------------------------------------------
# sweep integration (repro.sweep): lane sweep + clock sweep, one point
# per (lanes, width, clock) configuration
# ----------------------------------------------------------------------
def sweep_space(*, lanes: Sequence[int] = (8, 16, 32, 64), width: int = 32,
                clock_period_ps: float = 909.0,
                periods_ps: Sequence[float] = (700, 909, 1250, 2500),
                clock_lanes: int = 32, seed: int = 0) -> List[SweepPoint]:
    """Enumerate both paper sweeps (analytic; seed is identity-only)."""
    grid = [(n, width, float(clock_period_ps)) for n in lanes]
    grid += [(clock_lanes, width, float(p)) for p in periods_ps]
    return [
        SweepPoint("crossbar_qor",
                   {"lanes": n, "width": w, "clock_period_ps": p},
                   seed=seed)
        for n, w, p in grid
    ]


def run_sweep_point(params: dict, seed: int) -> dict:
    """Schedule one configuration; the sweep registry's point runner."""
    from dataclasses import asdict

    return asdict(_point(params["lanes"], params["width"],
                         params["clock_period_ps"]))


def summarize_sweep(results: List[dict]) -> str:
    return format_qor_table([QorPoint(**rec) for rec in results])


def format_qor_table(points: List[QorPoint]) -> str:
    lines = [
        "src-loop vs dst-loop crossbar QoR (paper 2.4: 25% penalty at 32x32)",
        f"{'lanes':>6} {'clk ps':>7} {'dst NAND2':>12} {'src NAND2':>12} "
        f"{'penalty %':>10} {'dst/src lat':>12} {'compile x':>10}",
    ]
    for p in points:
        lines.append(
            f"{p.lanes:>6} {p.clock_period_ps:>7.0f} {p.dst_area:>12,.0f} "
            f"{p.src_area:>12,.0f} {100 * p.area_penalty:>10.1f} "
            f"{f'{p.dst_latency}/{p.src_latency}':>12} {p.compile_ratio:>10.1f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI entry points, referenced by name from repro.catalog
# ----------------------------------------------------------------------
def cli_runner(params: dict, seed) -> dict:
    return {"lane_sweep": crossbar_qor_sweep(),
            "clock_sweep": crossbar_clock_sweep()}


def cli_format(payload: dict) -> str:
    return (format_qor_table(payload["lane_sweep"]) + "\n\n"
            + format_qor_table(payload["clock_sweep"]))
