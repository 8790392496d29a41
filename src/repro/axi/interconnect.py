"""AXI interconnect fabric: N masters, M slaves, address-range decode.

The bridge/fabric component of Table 2's AXI family.  Each slave owns an
address window; the fabric routes requests by address (rebasing to the
slave's local addresses) and returns responses to the requesting master.
One outstanding transaction per master per direction keeps response
routing trivial — the configuration the prototype SoC's control plane
needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from ..connections.channel import Buffer
from ..connections.ports import In, Out
from ..design.hierarchy import component_scope
from ..kernel import Gate
from .master import AxiMaster
from .slave import _SlaveBase
from .types import AxiAR, AxiAW, AxiB, AxiR, AxiResp, AxiW

__all__ = ["AddressRange", "AxiInterconnect"]


@dataclass(frozen=True)
class AddressRange:
    """Half-open address window [base, base + size) mapped to a slave."""

    base: int
    size: int

    def __post_init__(self):
        if self.size < 1 or self.base < 0:
            raise ValueError("need base >= 0 and size >= 1")

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def rebase(self, addr: int) -> int:
        return addr - self.base


class AxiInterconnect:
    """Single-threaded AXI crossbar with address decoding.

    Wire masters with :meth:`connect_master` and slaves with
    :meth:`connect_slave` *before* the simulation starts.
    """

    def __init__(self, sim, clock, *, name: str = "axix", channel_depth: int = 2):
        self._sim = sim
        self._clock = clock
        self._depth = channel_depth
        # One outstanding transaction per master per direction means the
        # fabric's request/response loops always drain, so channel-cycle
        # lint waives cycles through the fabric instance.
        with component_scope(sim, name, kind="AxiInterconnect", obj=self,
                             clock=clock,
                             attrs={"deadlock_free":
                                    "single outstanding txn per master"}
                             ) as inst:
            self._inst = inst
            self.name = inst.name if inst is not None else name
            # Per-master channel bundles (fabric side).
            self._m_aw: List[In] = []
            self._m_w: List[In] = []
            self._m_b: List[Out] = []
            self._m_ar: List[In] = []
            self._m_r: List[Out] = []
            # Per-slave channel bundles (fabric side) and ranges.
            self._s_aw: List[Out] = []
            self._s_w: List[Out] = []
            self._s_b: List[In] = []
            self._s_ar: List[Out] = []
            self._s_r: List[In] = []
            self.ranges: List[AddressRange] = []
            self.transactions = 0
            self.decode_errors = 0
            # Idle-wait point: the loop parks here under either executor
            # and is reopened when any master's aw/ar delivers.
            self._gate = Gate()
            sim.add_thread(self._run(), clock, name="ctl")

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _enter(self):
        """Re-enter the fabric's scope for post-construction wiring."""
        design = getattr(self._sim, "design", None)
        if design is None or self._inst is None:
            from contextlib import nullcontext
            return nullcontext()
        return design.enter(self._inst)

    def _chan(self, tag: str) -> Buffer:
        return Buffer(self._sim, self._clock, capacity=self._depth, name=tag)

    def connect_master(self, master: AxiMaster) -> int:
        """Attach a master; returns its index."""
        idx = len(self._m_aw)
        with self._enter():
            for tag, m_port, lst, fabric_end in (
                ("aw", master.aw, self._m_aw, In),
                ("w", master.w, self._m_w, In),
                ("b", master.b, self._m_b, Out),
                ("ar", master.ar, self._m_ar, In),
                ("r", master.r, self._m_r, Out),
            ):
                chan = self._chan(f"m{idx}.{tag}")
                m_port.bind(chan)
                end = fabric_end(chan, name=f"m{idx}.{tag}")
                lst.append(end)
        # A parked fabric must wake to watch (and declare) the new
        # master's request channels.
        self._gate.open()
        return idx

    def connect_slave(self, slave: _SlaveBase, range_: AddressRange) -> int:
        """Attach a slave owning ``range_``; returns its index."""
        for existing in self.ranges:
            if (range_.base < existing.base + existing.size
                    and existing.base < range_.base + range_.size):
                raise ValueError("overlapping slave address ranges")
        idx = len(self._s_aw)
        with self._enter():
            for tag, s_port, lst, fabric_end in (
                ("aw", slave.aw, self._s_aw, Out),
                ("w", slave.w, self._s_w, Out),
                ("b", slave.b, self._s_b, In),
                ("ar", slave.ar, self._s_ar, Out),
                ("r", slave.r, self._s_r, In),
            ):
                chan = self._chan(f"s{idx}.{tag}")
                end = fabric_end(chan, name=f"s{idx}.{tag}")
                s_port.bind(chan)
                lst.append(end)
        self.ranges.append(range_)
        return idx

    def _decode(self, addr: int) -> Optional[int]:
        for idx, r in enumerate(self.ranges):
            if r.contains(addr):
                return idx
        return None

    # ------------------------------------------------------------------
    # fabric engine: serve masters round-robin, one txn at a time
    # ------------------------------------------------------------------
    def _run(self) -> Generator:
        # Request channels are fabric-built Buffers (see _chan), so the
        # wake hook always exists; masters connected after the first
        # posedge simply join the watch set on the next idle pass.
        gate = self._gate
        watched = 0
        while True:
            if watched < len(self._m_aw):
                for ports in (self._m_aw[watched:], self._m_ar[watched:]):
                    for port in ports:
                        port._channel.add_wake_gate(gate)
                        gate.idle_pops(port._channel)
                watched = len(self._m_aw)
            progressed = False
            for m in range(len(self._m_aw)):
                ok, aw = self._m_aw[m].pop_nb()
                if ok:
                    yield from self._route_write(m, aw)
                    progressed = True
                ok, ar = self._m_ar[m].pop_nb()
                if ok:
                    yield from self._route_read(m, ar)
                    progressed = True
            if not progressed:
                yield gate

    def _route_write(self, m: int, aw: AxiAW) -> Generator:
        s = self._decode(aw.addr)
        if s is None:
            # Consume the data beats, return a decode error.
            while True:
                w: AxiW = yield from self._m_w[m].pop()
                if w.last:
                    break
            self.decode_errors += 1
            yield from self._m_b[m].push(AxiB(resp=AxiResp.DECERR, id_=aw.id_))
            return
        rng = self.ranges[s]
        yield from self._s_aw[s].push(
            AxiAW(addr=rng.rebase(aw.addr), length=aw.length, id_=aw.id_))
        while True:
            w = yield from self._m_w[m].pop()
            yield from self._s_w[s].push(w)
            if w.last:
                break
        rsp: AxiB = yield from self._s_b[s].pop()
        yield from self._m_b[m].push(rsp)
        self.transactions += 1

    def _route_read(self, m: int, ar: AxiAR) -> Generator:
        s = self._decode(ar.addr)
        if s is None:
            self.decode_errors += 1
            yield from self._m_r[m].push(
                AxiR(data=0, last=True, resp=AxiResp.DECERR, id_=ar.id_))
            return
        rng = self.ranges[s]
        yield from self._s_ar[s].push(
            AxiAR(addr=rng.rebase(ar.addr), length=ar.length, id_=ar.id_))
        while True:
            beat: AxiR = yield from self._s_r[s].pop()
            yield from self._m_r[m].push(beat)
            if beat.last:
                break
        self.transactions += 1
