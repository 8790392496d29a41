"""Processing element (Figure 5).

Each PE contains a banked scratchpad (MatchLib arbitrated scratchpad),
a vector datapath (MatchLib vector + float functions), a control unit
(the command interpreter below), and router interface logic (the mesh
network interface).  PEs execute compute kernels — vector multiply,
dot product, reduction, and friends — on data staged in the scratchpad,
exactly the organization the paper describes.

Timing model: the datapath processes ``lanes`` elements per cycle; every
scratchpad access goes through the arbitrated banks (conflict-free at
unit stride when ``n_banks == lanes``); LOAD/STORE traffic crosses the
NoC as flit-per-word messages.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, List, Optional

from ..design.hierarchy import component_scope
from ..kernel import Gate
from ..matchlib.arbitrated_scratchpad import ArbitratedScratchpad
from ..matchlib.fp import FP16, fp_add, fp_mul, fp_mul_add
from ..noc.mesh import NetworkInterface
from .protocol import Cmd, KERNEL_FP_BASE, Kernel, NO_REPLY

__all__ = ["ProcessingElement"]

_MASK = 0xFFFFFFFF


def _s32(value: int) -> int:
    value &= _MASK
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


class ProcessingElement:
    """One PE: scratchpad + vector datapath + control + router interface."""

    def __init__(self, sim, clock, ni: NetworkInterface, *, lanes: int = 8,
                 spad_words: int = 1024, name: Optional[str] = None):
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        requested = name or f"pe{ni.node}"
        self.node = ni.node
        self.lanes = lanes
        self.ni = ni
        with component_scope(sim, requested, kind="ProcessingElement",
                             obj=self, clock=clock) as inst:
            self.name = inst.name if inst is not None else requested
            self.spad = ArbitratedScratchpad(
                n_requesters=lanes, n_banks=lanes,
                bank_entries=-(-spad_words // lanes), width=32,
            )
            self._inbox: deque = deque()
            self._data_msgs: dict[int, List[int]] = {}
            self._next_tag = 0
            self.commands_executed = 0
            self.elements_processed = 0
            # Idle-wait point: the loop parks here under either executor
            # and every message arrival reopens it.
            self._gate = Gate()
            ni.handler = self._on_message
            sim.add_thread(self._run(), clock, name="ctl")

    # ------------------------------------------------------------------
    # router interface
    # ------------------------------------------------------------------
    def _on_message(self, src: int, payloads: List[int]) -> None:
        if payloads and payloads[0] == Cmd.GM_DATA:
            self._data_msgs[payloads[1]] = payloads[2:]
        else:
            self._inbox.append(payloads)
        self._gate.open()

    # ------------------------------------------------------------------
    # scratchpad access (through the arbitrated banks)
    # ------------------------------------------------------------------
    def _spad_write(self, base: int, words: List[int]) -> Generator:
        # One vector per cycle through the banks: unit stride across
        # n_banks == lanes never conflicts, so each chunk is a single
        # conflict-free arbitration round (see write_vector).
        lanes = self.lanes
        spad = self.spad
        for chunk_base in range(0, len(words), lanes):
            spad.write_vector(
                base + chunk_base,
                [w & _MASK for w in words[chunk_base:chunk_base + lanes]])
            yield

    def _spad_read(self, base: int, length: int) -> Generator:
        lanes = self.lanes
        spad = self.spad
        out: List[int] = []
        for chunk_base in range(0, length, lanes):
            out += spad.read_vector(base + chunk_base,
                                    min(lanes, length - chunk_base))
            yield
        return out

    # ------------------------------------------------------------------
    # control unit
    # ------------------------------------------------------------------
    def _run(self) -> Generator:
        while True:
            if not self._inbox:
                yield self._gate   # idle until the next message arrives
                continue
            msg = self._inbox.popleft()
            op = msg[0]
            if op == Cmd.LOAD:
                yield from self._do_load(*msg[1:5])
            elif op == Cmd.STORE:
                yield from self._do_store(*msg[1:5])
            elif op == Cmd.COMPUTE:
                yield from self._do_compute(*msg[1:7])
            elif op == Cmd.NOTIFY:
                self.ni.send(msg[1], [int(Cmd.DONE), msg[2]])
            elif op == Cmd.WRITE_SPAD:
                yield from self._spad_write(msg[1], msg[2:])
            else:
                raise ValueError(f"{self.name}: unknown command {op}")
            self.commands_executed += 1
            yield

    def _do_load(self, gmem_node: int, gmem_base: int, spad_base: int,
                 length: int) -> Generator:
        tag = self._next_tag
        self._next_tag += 1
        self.ni.send(gmem_node,
                     [int(Cmd.GM_READ), gmem_base, length, self.node, tag])
        while tag not in self._data_msgs:
            yield self._gate
        words = self._data_msgs.pop(tag)
        if len(words) != length:
            raise ValueError(
                f"{self.name}: LOAD expected {length} words, got {len(words)}")
        yield from self._spad_write(spad_base, words)

    def _do_store(self, gmem_node: int, gmem_base: int, spad_base: int,
                  length: int) -> Generator:
        words = yield from self._spad_read(spad_base, length)
        tag = self._next_tag
        self._next_tag += 1
        self.ni.send(gmem_node, [int(Cmd.GM_WRITE), gmem_base, self.node, tag]
                     + list(words))
        # Wait for the write ack so later commands (NOTIFY) order after
        # the data is durably in global memory.
        while tag not in self._data_msgs:
            yield self._gate
        self._data_msgs.pop(tag)

    # ------------------------------------------------------------------
    # vector datapath
    # ------------------------------------------------------------------
    def _do_compute(self, kernel: int, a_base: int, b_base: int,
                    dst_base: int, length: int, param: int) -> Generator:
        is_fp = kernel >= KERNEL_FP_BASE
        base_kernel = Kernel(kernel - KERNEL_FP_BASE if is_fp else kernel)
        a = yield from self._spad_read(a_base, length)
        needs_b = base_kernel in (Kernel.VADD, Kernel.VMUL, Kernel.DOT,
                                  Kernel.L2DIST, Kernel.VMIN)
        b = (yield from self._spad_read(b_base, length)) if needs_b else None
        result = self._kernel_fp(base_kernel, a, b, param) if is_fp \
            else self._kernel_int(base_kernel, a, b, param)
        # Datapath cost: lanes elements per cycle.  Kept as per-cycle
        # yields: a single bucketed `yield n` would subscribe the thread
        # n edges early and wake it ahead of threads that resubscribed in
        # the interim, shifting same-cycle arbitration order — measurably
        # different finish times on multi-PE workloads.  Cycle-exactness
        # with the recorded experiment tables wins over the speedup here.
        for _ in range(-(-length // self.lanes)):
            yield
        self.elements_processed += length
        yield from self._spad_write(dst_base, result)

    def _kernel_int(self, kernel: Kernel, a: List[int],
                    b: Optional[List[int]], param: int) -> List[int]:
        sa = [_s32(x) for x in a]
        if kernel == Kernel.VADD:
            return [(x + y) & _MASK for x, y in zip(a, b)]
        if kernel == Kernel.VMUL:
            return [(_s32(x) * _s32(y)) & _MASK for x, y in zip(a, b)]
        if kernel == Kernel.VSUM:
            return [sum(sa) & _MASK]
        if kernel == Kernel.VMAX:
            return [max(sa) & _MASK]
        if kernel == Kernel.DOT:
            return [sum(_s32(x) * _s32(y) for x, y in zip(a, b)) & _MASK]
        if kernel == Kernel.RELU:
            return [x if _s32(x) > 0 else 0 for x in a]
        if kernel == Kernel.SCALE:
            return [(_s32(x) * _s32(param)) & _MASK for x in a]
        if kernel == Kernel.L2DIST:
            return [sum((_s32(x) - _s32(y)) ** 2
                        for x, y in zip(a, b)) & _MASK]
        if kernel == Kernel.ADDS:
            return [(x + _s32(param)) & _MASK for x in a]
        if kernel == Kernel.VMIN:
            return [min(_s32(x), _s32(y)) & _MASK for x, y in zip(a, b)]
        raise ValueError(f"unknown kernel {kernel}")

    def _kernel_fp(self, kernel: Kernel, a: List[int],
                   b: Optional[List[int]], param: int) -> List[int]:
        spec = FP16
        if kernel == Kernel.VADD:
            return [fp_add(spec, x, y) for x, y in zip(a, b)]
        if kernel == Kernel.VMUL:
            return [fp_mul(spec, x, y) for x, y in zip(a, b)]
        if kernel == Kernel.VSUM:
            acc = spec.zero()
            for x in a:
                acc = fp_add(spec, acc, x)
            return [acc]
        if kernel == Kernel.VMAX:
            return [max(a, key=spec.decode)]
        if kernel == Kernel.DOT:
            acc = spec.zero()
            for x, y in zip(a, b):
                acc = fp_mul_add(spec, x, y, acc)
            return [acc]
        if kernel == Kernel.RELU:
            return [x if spec.decode(x) > 0 else spec.zero() for x in a]
        if kernel == Kernel.SCALE:
            return [fp_mul(spec, x, param) for x in a]
        if kernel == Kernel.L2DIST:
            acc = spec.zero()
            for x, y in zip(a, b):
                diff = fp_add(spec, x, y ^ (1 << (spec.width - 1)))  # x - y
                acc = fp_mul_add(spec, diff, diff, acc)
            return [acc]
        if kernel == Kernel.ADDS:
            return [fp_add(spec, x, param) for x in a]
        if kernel == Kernel.VMIN:
            return [min(x, y, key=spec.decode) for x, y in zip(a, b)]
        raise ValueError(f"unknown kernel {kernel}")
