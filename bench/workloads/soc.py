"""soc_threaded, soc_compiled, rtl_gals: programs on the prototype SoC.

Work is counted in simulated clock cycles (``elapsed_cycles`` of the
program on the modelled chip), so ``work_per_s`` is simulated cycles per
host second.  Every op reports its simulated cycles and the backend that
actually ran it as facts; ``bench/expected.json`` pins both.

Backend provenance is read from the simulator itself
(``sim.backend``), not from ``kernel.backend.last_run()``: a
threaded-requested run never updates the latter, so after a compiled run
in the same process it still says ``compiled``.
"""

from __future__ import annotations

from repro.compile import try_attach
from repro.experiments.fig3_crossbar import build_crossbar_testbench
from repro.kernel.backend import use_backend
from repro.soc.chip import PrototypeSoC
from repro.workloads import (conv2d_workload, dot_product_workload,
                             gemm_workload, memcpy_workload,
                             reduction_workload, run_workload,
                             vector_scale_workload)

from . import Op, Outcome, Workload

#: Span layer of ``soc.run()`` / ``tb.run()`` by the executor that ran it.
RUN_LAYER = {"threaded": "repro.kernel", "compiled": "repro.compile"}

VECTOR_PROGRAMS = (vector_scale_workload, memcpy_workload, reduction_workload,
                   dot_product_workload)


def conv2d_full(seed: int, **size):
    """conv2d whose 3x3 kernel has no zero weight.

    The builder drops the commands of zero weights, so the simulated
    work would otherwise change with the seed (by up to a tenth) and host
    times of different seeds could not be compared.
    """
    # Per output row: zeroing 2 + 9 weights x 3 + store/notify 2; + wait.
    full = (size["height"] - 2) * (2 + 9 * 3 + 2) + 1
    for k in range(64):
        workload = conv2d_workload(seed=seed * 100 + 5 + 1000 * k, **size)
        if len(workload.commands) == full:
            return workload
    raise RuntimeError("no conv2d kernel without a zero weight in 64 draws")


def fast_programs(cfg: dict, seed: int) -> list:
    """The six fast-mode programs at the pinned sizes, data from seed."""
    programs = [build(seed=seed * 100 + i, n_pes=cfg["n_pes"])
                for i, build in enumerate(VECTOR_PROGRAMS)]
    programs.append(gemm_workload(seed=seed * 100 + 4, **cfg["gemm"]))
    programs.append(conv2d_full(seed, **cfg["conv2d"]))
    return programs


class SocOp(Op):
    """One program on a freshly built chip, golden-checked."""

    def __init__(self, name, workload, *, backend, mode="fast", gals=False):
        self.name = name
        self.workload = workload
        self.backend = backend
        self.mode = mode
        self.gals = gals

    def run(self, rec):
        w = self.workload
        with use_backend(self.backend):
            if not rec.enabled:
                return run_workload(w, mode=self.mode, gals=self.gals)
            # The same steps as run_workload, one span per layer.
            with rec.span("PrototypeSoC", "repro.soc"):
                soc = PrototypeSoC(commands=w.commands, mode=self.mode,
                                   gals=self.gals)
                if w.preload_left:
                    soc.gmem_left.load(w.preload_left)
                if w.preload_right:
                    soc.gmem_right.load(w.preload_right)
            if self.backend == "compiled":
                with rec.span("compile.try_attach", "repro.compile"):
                    try_attach(soc.sim)
            with rec.span("soc.run", RUN_LAYER[soc.sim.backend]):
                soc.run()
            with rec.span("workload.check", "repro.workloads"):
                assert w.check(soc), f"workload {w.name} result mismatch"
        return soc

    def check(self, soc) -> Outcome:
        cycles = soc.elapsed_cycles
        return Outcome(work=cycles,
                       facts={f"sim.cycles.{self.name}": cycles,
                              f"backend.{self.name}": soc.sim.backend})


class Fig3Op(Op):
    """One crossbar accuracy point: what ``run_crossbar_accuracy`` does,
    keeping the testbench so its simulator's provenance can be read."""

    backend = "compiled"

    def __init__(self, model, *, ports, txns, seed):
        self.name = "fig3_" + model.replace("-", "_")
        self.model = model
        self.ports = ports
        self.txns = txns
        self.seed = seed

    def run(self, rec):
        with use_backend("compiled"):
            with rec.span("CrossbarTestbench", "repro.experiments"):
                tb = build_crossbar_testbench(
                    self.model, self.ports, txns_per_port=self.txns,
                    seed=self.seed)
            if not rec.enabled:
                return tb, tb.run()
            with rec.span("compile.try_attach", "repro.compile"):
                try_attach(tb.sim)
            with rec.span("tb.run", RUN_LAYER[tb.sim.backend]):
                return tb, tb.run()

    def check(self, raw) -> Outcome:
        tb, point = raw
        failures = []
        if point.transactions != self.ports * self.txns:
            failures.append(f"{point.transactions} transactions delivered, "
                            f"expected {self.ports * self.txns}")
        return Outcome(work=point.elapsed_cycles, failures=failures,
                       facts={f"sim.cycles.{self.name}": point.elapsed_cycles,
                              f"backend.{self.name}": tb.sim.backend})


class _SocPrograms(Workload):
    work_unit = "cycles"
    backend = "threaded"

    def setup(self) -> None:
        self.ops = [SocOp(w.name, w, backend=self.backend)
                    for w in fast_programs(self.ctx.cfg["soc_programs"],
                                           self.ctx.seed)]


class SocThreaded(_SocPrograms):
    backend = "threaded"


class SocCompiled(_SocPrograms):
    backend = "compiled"


class RtlGals(Workload):
    """Signal-level and multi-clock designs, all requested compiled, as a
    user who always passes ``--backend compiled`` would."""

    work_unit = "cycles"

    def setup(self) -> None:
        cfg = self.ctx.cfg["rtl_gals"]
        # The fig3 benches take 0.05-0.15 s against 3 s for the two SoCs,
        # so they run several times a pass: a handful of passes would
        # leave their medians with too few samples.
        self.ops = rtl_gals_ops(cfg, self.ctx.seed, cfg["fig3_per_pass"])


def rtl_gals_ops(cfg: dict, seed: int, fig3_per_pass: int = 1) -> list:
    ops = [Fig3Op(model, ports=cfg["fig3_ports"], txns=cfg["fig3_txns"],
                  seed=seed)
           for model in ("rtl", "sim-accurate", "signal-accurate")
           ] * fig3_per_pass
    ops.append(SocOp("gals_soc", vector_scale_workload(seed=seed * 100),
                     backend="compiled", gals=True))
    ops.append(SocOp("rtl_soc",
                     vector_scale_workload(seed=seed * 100, **cfg["rtl_soc"]),
                     backend="compiled", mode="rtl"))
    return ops
