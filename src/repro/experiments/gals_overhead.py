"""Section 3.1: GALS area overhead and the synchronous alternative.

The paper: "Although we incur a small area penalty for local clock
generators and pausible bisynchronous FIFOs, we estimate this overhead
to be less than 3 % for typical partition sizes."

Two experiments:

* a partition-size sweep locating the crossover below which fine-grained
  GALS stops being cheap,
* the testchip's actual partition inventory (15 replicated PEs, two
  global memories, RISC-V, I/O — section 4) with chip-level overhead,
  against the synchronous baseline's clock-tree area and skew/OCV margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..gals.overhead import GalsOverheadModel, Partition, SynchronousBaseline
from ..trace.adapter import SweepAdapter
from ..sweep.point import SweepPoint

__all__ = [
    "OverheadPoint",
    "partition_size_sweep",
    "testchip_partitions",
    "testchip_overhead",
    "format_overhead_table",
    "sweep_space",
    "run_sweep_point",
    "summarize_sweep",
]

DEFAULT_SIZES = (5e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6)


@dataclass(frozen=True)
class OverheadPoint:
    logic_gates: float
    overhead_gates: float

    @property
    def fraction(self) -> float:
        return self.overhead_gates / self.logic_gates


def partition_size_sweep(sizes: Sequence[float] = DEFAULT_SIZES, *,
        n_interfaces: int = 5, interface_width: int = 64,
        model: GalsOverheadModel = GalsOverheadModel()) -> List[OverheadPoint]:
    """GALS overhead fraction vs partition logic size."""
    points = []
    for gates in sizes:
        p = Partition("sweep", logic_gates=gates, n_interfaces=n_interfaces,
                      interface_width=interface_width)
        points.append(OverheadPoint(gates, model.overhead_gates(p)))
    return points


def testchip_partitions() -> List[Partition]:
    """The prototype SoC's partition inventory (section 4).

    87M transistors ~= 22M NAND2-equivalent gates, split across the five
    unique digital partition types: 15 replicated PEs, left/right global
    memory, RISC-V, and I/O.
    """
    return (
        [Partition(f"pe{i}", logic_gates=260_000, macro_gates=550_000,
                   n_interfaces=5) for i in range(15)]
        + [Partition("gmem_left", logic_gates=500_000, macro_gates=3_000_000,
                     n_interfaces=6),
           Partition("gmem_right", logic_gates=500_000, macro_gates=3_000_000,
                     n_interfaces=6),
           Partition("riscv", logic_gates=900_000, macro_gates=500_000,
                     n_interfaces=3),
           Partition("io", logic_gates=700_000, n_interfaces=4)]
    )


@dataclass(frozen=True)
class TestchipOverheadReport:
    chip_overhead_fraction: float
    per_partition: List[tuple]
    sync_clock_tree_gates: float
    sync_skew_margin_ps: float
    sync_frequency_penalty: float


def testchip_overhead(*, clock_period_ps: float = 909.0,
                      model: GalsOverheadModel = GalsOverheadModel(),
                      baseline: SynchronousBaseline = SynchronousBaseline()
                      ) -> TestchipOverheadReport:
    """Chip-level GALS overhead vs what the synchronous design pays."""
    partitions = testchip_partitions()
    per_partition = [(p.name, model.overhead_fraction(p)) for p in partitions]
    return TestchipOverheadReport(
        chip_overhead_fraction=model.chip_overhead_fraction(partitions),
        per_partition=per_partition,
        sync_clock_tree_gates=baseline.clock_tree_gates(partitions),
        sync_skew_margin_ps=baseline.skew_margin_ps(partitions),
        sync_frequency_penalty=baseline.frequency_penalty(partitions,
                                                          clock_period_ps),
    )


# ----------------------------------------------------------------------
# sweep integration (repro.sweep): one point per partition size
# ----------------------------------------------------------------------
def sweep_space(*, sizes: Sequence[float] = DEFAULT_SIZES,
                n_interfaces: int = 5, interface_width: int = 64,
                seed: int = 0) -> List[SweepPoint]:
    """Enumerate the partition-size sweep (analytic; seed is identity-only)."""
    return [
        SweepPoint("gals_overhead",
                   {"logic_gates": float(gates), "n_interfaces": n_interfaces,
                    "interface_width": interface_width},
                   seed=seed)
        for gates in sizes
    ]


def run_sweep_point(params: dict, seed: int) -> dict:
    """Evaluate one partition size; the sweep registry's point runner."""
    model = GalsOverheadModel()
    p = Partition("sweep", logic_gates=params["logic_gates"],
                  n_interfaces=params["n_interfaces"],
                  interface_width=params["interface_width"])
    return {"logic_gates": params["logic_gates"],
            "overhead_gates": model.overhead_gates(p)}


#: Closed-form model, no kernel: every point is derivable by evaluating
#: :func:`run_sweep_point` in-process, skipping the pool entirely.
SWEEP_ADAPTER = SweepAdapter(analytic=True)


def summarize_sweep(results: List[dict]) -> str:
    points = [OverheadPoint(r["logic_gates"], r["overhead_gates"])
              for r in results]
    lines = ["GALS overhead vs partition size "
             "(paper 3.1: <3% for typical sizes)",
             f"{'logic gates':>14} {'overhead gates':>15} {'fraction %':>11}"]
    for p in points:
        lines.append(f"{p.logic_gates:>14,.0f} {p.overhead_gates:>15,.0f} "
                     f"{100 * p.fraction:>11.2f}")
    return "\n".join(lines)


def format_overhead_table(points: List[OverheadPoint],
                          report: TestchipOverheadReport) -> str:
    lines = ["GALS overhead vs partition size (paper 3.1: <3% for typical sizes)",
             f"{'logic gates':>14} {'overhead gates':>15} {'fraction %':>11}"]
    for p in points:
        lines.append(f"{p.logic_gates:>14,.0f} {p.overhead_gates:>15,.0f} "
                     f"{100 * p.fraction:>11.2f}")
    lines.append("")
    lines.append(f"testchip chip-level GALS overhead: "
                 f"{100 * report.chip_overhead_fraction:.2f} %")
    lines.append(f"synchronous baseline instead pays: "
                 f"{report.sync_clock_tree_gates:,.0f} clock-tree gates, "
                 f"{report.sync_skew_margin_ps:.0f} ps skew margin "
                 f"({100 * report.sync_frequency_penalty:.1f} % of the period)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI entry points, referenced by name from repro.catalog
# ----------------------------------------------------------------------
def cli_runner(params: dict, seed) -> dict:
    return {"partition_sweep": partition_size_sweep(),
            "testchip": testchip_overhead()}


def cli_format(payload: dict) -> str:
    return format_overhead_table(payload["partition_sweep"],
                                 payload["testchip"])


def cli_design():
    """A GALS SoC: per-node clock generators + pausible-FIFO links."""
    from ..soc.chip import PrototypeSoC

    return PrototypeSoC(mode="fast", gals=True, pe_columns=2, pe_rows=2,
                        lanes=4, spad_words=256, gmem_words=1024).sim
