"""The prototype SoC (Figure 5), fully assembled.

Default configuration mirrors the paper's testchip: a 4x4 spatial array
of processing elements on a WHVC-routed mesh, a RISC-V global
controller, two global-memory partitions (left/right), and an I/O node,
on a 4x5 mesh.

Three build modes reproduce the paper's methodology experiments:

* ``mode="fast"`` — the SystemC performance model: fast LI channels,
  single clock.  (Figure 6's "SystemC" series.)
* ``mode="rtl"`` — RTL co-simulation: every mesh link is a signal-level
  :class:`~repro.connections.rtl_adapter.RtlChannel`.  Slower wall
  clock, a few extra pipeline cycles per hop.  (Figure 6's "RTL".)
* ``gals=True`` — fine-grained GALS: one local (optionally noisy)
  clock generator per node, pausible-bisynchronous-FIFO links
  (section 3.1, exactly the testchip's backend: "a local clock
  generator and a NoC router per partition").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..connections.channel import Buffer
from ..connections.rtl_adapter import RtlChannel
from ..design.hierarchy import component_scope
from ..gals.clock_generator import LocalClockGenerator, SupplyNoise
from ..gals.gals_link import GalsLink
from ..kernel import Simulator
from ..noc.mesh import Mesh
from .controller import Controller
from .global_memory import GlobalMemory
from .pe import ProcessingElement

__all__ = ["PrototypeSoC"]


class PrototypeSoC:
    """The 87M-transistor ML testchip, in simulation."""

    #: Default clock: 1.1 GHz signoff frequency (909 ps at 1 tick = 1 ps).
    CLOCK_PERIOD = 909

    def __init__(self, *, commands: Sequence = (), mode: str = "fast",
                 gals: bool = False, noise_amplitude: float = 0.0,
                 pe_columns: int = 4, pe_rows: int = 4, lanes: int = 8,
                 spad_words: int = 2048, gmem_words: int = 16384,
                 sim: Optional[Simulator] = None, seed: int = 0):
        if mode not in ("fast", "rtl"):
            raise ValueError(f"mode must be 'fast' or 'rtl', got {mode!r}")
        if mode == "rtl" and gals:
            raise ValueError("rtl mode models a single synchronous domain")
        self.mode = mode
        self.gals = gals
        self.sim = sim or Simulator()
        self.n_pes = pe_columns * pe_rows
        width, height = pe_columns, pe_rows + 1
        n_nodes = width * height
        # Node map: PEs fill the first pe_rows rows; the service row holds
        # the controller, the two global memories, and I/O.
        self.pe_nodes = list(range(self.n_pes))
        service = list(range(self.n_pes, n_nodes))
        self.controller_node = service[0]
        self.gmem_left_node = service[1 % len(service)]
        self.gmem_right_node = service[2 % len(service)]
        self.io_node = service[3 % len(service)] if len(service) > 3 else None

        # The chip is the root of the user design hierarchy: everything
        # below registers as chip.mesh.*, chip.pe0.*, chip.axix.*, …
        with component_scope(self.sim, "chip", kind="PrototypeSoC",
                             obj=self, default_name=True):
            # --- clocking -------------------------------------------------
            self.clock_generators: List[LocalClockGenerator] = []
            if gals:
                clocks = []
                for node in range(n_nodes):
                    noise = (SupplyNoise(amplitude=noise_amplitude,
                                         seed=seed + node)
                             if noise_amplitude > 0 else None)
                    # Deterministic per-node period spread (+-2 %): no two
                    # partitions are exactly plesiochronous.
                    period = self.CLOCK_PERIOD + ((node * 7) % 37) - 18
                    gen = LocalClockGenerator(self.sim, f"clkgen{node}",
                                              nominal_period=period,
                                              noise=noise, seed=seed + node)
                    self.clock_generators.append(gen)
                    clocks.append(gen.clock)
                clock_of = lambda node: clocks[node]
                self.clock = clocks[self.controller_node]
            else:
                self.clock = self.sim.add_clock("clk",
                                                period=self.CLOCK_PERIOD)
                clock_of = lambda node: self.clock

            # --- interconnect --------------------------------------------
            if gals:
                def link_factory(src, dst, tag):
                    return GalsLink(self.sim, clock_of(src), clock_of(dst),
                                    name=tag)
            elif mode == "rtl":
                def link_factory(src, dst, tag):
                    return RtlChannel(self.sim, self.clock, capacity=4,
                                      name=tag)
            else:
                link_factory = None

            self.mesh = Mesh(self.sim, self.clock, width=width,
                             height=height, router="whvc", clock_of=clock_of,
                             link_factory=link_factory, name="mesh")

            # --- units ---------------------------------------------------
            self.pes: List[ProcessingElement] = [
                ProcessingElement(self.sim, clock_of(node),
                                  self.mesh.ni(node),
                                  lanes=lanes, spad_words=spad_words)
                for node in self.pe_nodes
            ]
            self.gmem_left = GlobalMemory(
                self.sim, clock_of(self.gmem_left_node),
                self.mesh.ni(self.gmem_left_node),
                words=gmem_words, name="gmem_left")
            self.gmem_right = GlobalMemory(
                self.sim, clock_of(self.gmem_right_node),
                self.mesh.ni(self.gmem_right_node),
                words=gmem_words, name="gmem_right")
            # AXI control plane (Figure 5's "AXI Bus"): the controller's
            # MMIO window drives chip-level CSRs through a doorbell bridge
            # and the interconnect fabric.
            from ..axi.interconnect import AddressRange, AxiInterconnect
            from ..axi.slave import AxiRegisterSlave
            from .axi_bridge import MmioAxiBridge

            ctrl_clock = clock_of(self.controller_node)
            self.axi_bridge = MmioAxiBridge(self.sim, ctrl_clock)
            self.axi_fabric = AxiInterconnect(self.sim, ctrl_clock,
                                              name="axix")
            self.axi_fabric.connect_master(self.axi_bridge.master)
            self.csr = AxiRegisterSlave(self.sim, ctrl_clock, n_regs=16,
                                        name="csr")
            self.csr.regs[0] = 0xC8AF7  # chip id
            self.csr.regs[1] = self.n_pes
            self.axi_fabric.connect_slave(self.csr, AddressRange(0x0, 16))

            self.controller = Controller(self.sim, ctrl_clock,
                                         self.mesh.ni(self.controller_node),
                                         commands=commands,
                                         axi_bridge=self.axi_bridge)
            self.finish_time: Optional[int] = None

            # RTL mode: instantiate the per-unit netlist activity that a
            # Verilog simulator would be evaluating every cycle.
            self.rtl_activities = []
            if mode == "rtl":
                from .rtl_activity import DEFAULT_UNIT_REGS, RtlActivity

                def attach(kind, node, index):
                    self.rtl_activities.append(RtlActivity(
                        self.sim, clock_of(node),
                        n_regs=DEFAULT_UNIT_REGS[kind],
                        name=f"rtl_{kind}{index}"))

                for i, node in enumerate(self.pe_nodes):
                    attach("pe", node, i)
                for node in range(n_nodes):
                    attach("router", node, node)
                attach("gmem", self.gmem_left_node, 0)
                attach("gmem", self.gmem_right_node, 1)
                attach("controller", self.controller_node, 0)

    # ------------------------------------------------------------------
    # convenience API
    # ------------------------------------------------------------------
    def gmem(self, node: int) -> GlobalMemory:
        if node == self.gmem_left_node:
            return self.gmem_left
        if node == self.gmem_right_node:
            return self.gmem_right
        raise ValueError(f"node {node} is not a global memory partition")

    def run(self, *, max_ticks: int = 50_000_000) -> int:
        """Run until the controller firmware halts; returns elapsed ticks."""
        # The core halts inside its last step; the controller thread
        # stamps halt_time at its next resume, one cycle later, which
        # may be in the next chunk.
        while self.controller.halt_time is None and self.sim.now < max_ticks:
            self.sim.run(max_steps=500)
        if self.controller.halt_time is None:
            raise RuntimeError(
                f"SoC did not finish within {max_ticks} ticks "
                f"(done tokens: {self.controller.done_count})"
            )
        self.finish_time = self.controller.halt_time
        return self.finish_time

    @property
    def elapsed_cycles(self) -> Optional[int]:
        """Controller-clock cycles to completion (after :meth:`run`)."""
        if self.finish_time is None:
            return None
        return self.finish_time // self.CLOCK_PERIOD

    @property
    def total_pe_elements(self) -> int:
        return sum(pe.elements_processed for pe in self.pes)

    def telemetry_report(self, *, label: str = "soc"):
        """Snapshot this chip into a :class:`~repro.observe.TelemetryReport`.

        Always includes NoC router/link counters and clock-domain
        activity (they are maintained unconditionally); kernel counters
        and per-channel occupancy histograms additionally require the
        simulator to have been built with telemetry enabled — either
        ``PrototypeSoC(sim=Simulator(telemetry=True), ...)`` or
        construction inside an :func:`repro.observe.capture` window.

        Usage::

            from repro import observe
            with observe.capture():
                soc = run_workload(conv2d_workload())
            print(observe.format_report(soc.telemetry_report()))
        """
        from ..observe.report import collect

        return collect(self.sim, label=label, meshes=(self.mesh,),
                       clock_generators=self.clock_generators)
