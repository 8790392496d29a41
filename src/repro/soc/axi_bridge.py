"""MMIO-to-AXI bridge: the controller's window onto the AXI bus.

Figure 5 shows the RISC-V processor attached to an AXI bus.  The core's
loads/stores are synchronous, while AXI transactions take many cycles,
so the bridge exposes the standard doorbell pattern:

========  =====================================================
offset    register
========  =====================================================
``0x00``  ADDR   — target AXI address
``0x04``  WDATA  — write data
``0x08``  CMD    — write 1 = AXI read, 2 = AXI write (fires)
``0x0C``  STATUS — 0 idle, 1 busy, 2 done-ok, 3 done-error
``0x10``  RDATA  — read data from the last AXI read
========  =====================================================

Firmware writes ADDR (+WDATA), kicks CMD, polls STATUS, reads RDATA.
A bridge thread performs the transaction through a normal
:class:`~repro.axi.master.AxiMaster`.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..axi.master import AxiError, AxiMaster
from ..design.hierarchy import component_scope
from ..kernel import Gate

__all__ = ["MmioAxiBridge"]

_IDLE, _BUSY, _DONE_OK, _DONE_ERR = 0, 1, 2, 3


class MmioAxiBridge:
    """Doorbell bridge between the core's MMIO and an AXI master."""

    def __init__(self, sim, clock, *, name: str = "mmio_axi"):
        with component_scope(sim, name, kind="MmioAxiBridge", obj=self,
                             clock=clock) as inst:
            self.name = inst.name if inst is not None else name
            self.master = AxiMaster(name="master")
            self.addr = 0
            self.wdata = 0
            self.rdata = 0
            self.status = _IDLE
            self._pending: Optional[int] = None  # 1 = read, 2 = write
            self.transactions = 0
            # Idle-wait point: the loop parks here under either executor
            # and is reopened by a CMD doorbell write.
            self._gate = Gate()
            sim.add_thread(self._run(), clock, name="ctl")

    # MMIO side (called synchronously from the core) --------------------
    def mmio_read(self, offset: int) -> int:
        if offset == 0x0C:
            return self.status
        if offset == 0x10:
            return self.rdata
        if offset == 0x00:
            return self.addr
        if offset == 0x04:
            return self.wdata
        return 0

    def mmio_write(self, offset: int, value: int) -> None:
        if offset == 0x00:
            self.addr = value
        elif offset == 0x04:
            self.wdata = value
        elif offset == 0x08:
            if self.status == _BUSY:
                raise RuntimeError(f"{self.name}: CMD while busy")
            if value not in (1, 2):
                raise ValueError(f"{self.name}: bad CMD {value}")
            self._pending = value
            self.status = _BUSY
            self._gate.open()

    # AXI side -----------------------------------------------------------
    def _run(self) -> Generator:
        while True:
            if self._pending is None:
                yield self._gate   # idle until the next doorbell
                continue
            cmd, self._pending = self._pending, None
            try:
                if cmd == 1:
                    self.rdata = yield from self.master.read(self.addr)
                else:
                    yield from self.master.write(self.addr, self.wdata)
                self.status = _DONE_OK
            except AxiError:
                self.status = _DONE_ERR
            self.transactions += 1
            yield
