"""AXI slave interfaces.

:class:`AxiMemorySlave` serves reads/writes from a
:class:`~repro.matchlib.mem_array.MemArray`;
:class:`AxiRegisterSlave` exposes a register file with read/write
callbacks — the control/status register block every accelerator in the
prototype SoC hangs off the AXI bus.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from ..connections.ports import In, Out
from ..design.hierarchy import component_scope
from ..kernel import Gate
from ..matchlib.mem_array import MemArray
from .types import AxiAR, AxiAW, AxiB, AxiR, AxiResp, AxiW

__all__ = ["AxiMemorySlave", "AxiRegisterSlave"]


class _SlaveBase:
    """Shared five-channel slave plumbing and the service loop."""

    def __init__(self, sim, clock, *, name: str, latency: int = 1):
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.latency = latency
        with component_scope(sim, name, kind=type(self).__name__, obj=self,
                             clock=clock) as inst:
            self.name = inst.name if inst is not None else name
            self.aw: In = In(name="aw")
            self.w: In = In(name="w")
            self.b: Out = Out(name="b")
            self.ar: In = In(name="ar")
            self.r: Out = Out(name="r")
            self.reads_served = 0
            self.writes_served = 0
            # Idle-wait point: the loop parks here under either executor
            # and is reopened when a request lands on aw or ar.
            self._gate = Gate()
            sim.add_thread(self._run(), clock, name="ctl")

    def _run(self) -> Generator:
        # Park only when both request channels expose the wake hook.
        gate = self._gate
        hooks = [getattr(port._channel, "add_wake_gate", None)
                 for port in (self.aw, self.ar)]
        parkable = all(hook is not None for hook in hooks)
        if parkable:
            for hook in hooks:
                hook(gate)
            gate.idle_pops(self.aw._channel, self.ar._channel)
        while True:
            progressed = False
            ok, aw = self.aw.pop_nb()
            if ok:
                yield from self._serve_write(aw)
                progressed = True
            ok, ar = self.ar.pop_nb()
            if ok:
                yield from self._serve_read(ar)
                progressed = True
            if not progressed:
                yield gate if parkable else None

    def _serve_write(self, aw: AxiAW) -> Generator:
        resp = AxiResp.OKAY
        for beat in range(aw.length):
            w: AxiW = yield from self.w.pop()
            if not self._do_write(aw.addr + beat, w.data):
                resp = AxiResp.SLVERR
        if self.latency:
            yield self.latency
        yield from self.b.push(AxiB(resp=resp, id_=aw.id_))
        self.writes_served += 1

    def _serve_read(self, ar: AxiAR) -> Generator:
        if self.latency:
            yield self.latency
        for beat in range(ar.length):
            ok, data = self._do_read(ar.addr + beat)
            yield from self.r.push(AxiR(
                data=data,
                last=(beat == ar.length - 1),
                resp=AxiResp.OKAY if ok else AxiResp.SLVERR,
                id_=ar.id_,
            ))
        self.reads_served += 1

    # subclass hooks ----------------------------------------------------
    def _do_read(self, addr: int) -> tuple[bool, Any]:
        raise NotImplementedError

    def _do_write(self, addr: int, data: Any) -> bool:
        raise NotImplementedError


class AxiMemorySlave(_SlaveBase):
    """Memory-backed AXI slave."""

    def __init__(self, sim, clock, memory: MemArray, *, name: str = "axis",
                 latency: int = 1):
        self.memory = memory
        super().__init__(sim, clock, name=name, latency=latency)

    def _do_read(self, addr: int) -> tuple[bool, Any]:
        if not 0 <= addr < self.memory.entries:
            return False, 0
        return True, self.memory.read(addr)

    def _do_write(self, addr: int, data: Any) -> bool:
        if not 0 <= addr < self.memory.entries:
            return False
        self.memory.write(addr, data)
        return True


class AxiRegisterSlave(_SlaveBase):
    """Register-file AXI slave with per-register write callbacks.

    ``on_write`` (if given) is called as ``on_write(addr, value)`` after
    each register update — how accelerator control units observe kick-off
    writes.
    """

    def __init__(self, sim, clock, *, n_regs: int, name: str = "axireg",
                 latency: int = 0,
                 on_write: Optional[Callable[[int, Any], None]] = None):
        if n_regs < 1:
            raise ValueError("need at least one register")
        self.regs: Dict[int, Any] = {i: 0 for i in range(n_regs)}
        self.on_write = on_write
        super().__init__(sim, clock, name=name, latency=latency)

    def _do_read(self, addr: int) -> tuple[bool, Any]:
        if addr not in self.regs:
            return False, 0
        return True, self.regs[addr]

    def _do_write(self, addr: int, data: Any) -> bool:
        if addr not in self.regs:
            return False
        self.regs[addr] = data
        if self.on_write is not None:
            self.on_write(addr, data)
        return True
