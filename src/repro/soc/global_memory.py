"""Global memory node (Figure 5).

Banked on-chip memory built from MatchLib's ``mem_array`` banks behind
an arbitrated crossbar (here the :class:`ArbitratedScratchpad`, which is
exactly banks + arbitration), serving GM_READ/GM_WRITE messages from the
NoC.  Throughput: ``n_banks`` words per cycle at unit stride.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, List, Optional

from ..design.hierarchy import component_scope
from ..kernel import Gate
from ..matchlib.arbitrated_scratchpad import ArbitratedScratchpad
from ..noc.mesh import NetworkInterface
from .protocol import Cmd, NO_REPLY

__all__ = ["GlobalMemory"]


class GlobalMemory:
    """A global-memory partition on the NoC."""

    def __init__(self, sim, clock, ni: NetworkInterface, *, words: int = 65536,
                 n_banks: int = 8, name: Optional[str] = None):
        if n_banks < 1:
            raise ValueError("n_banks must be >= 1")
        requested = name or f"gmem{ni.node}"
        self.node = ni.node
        self.n_banks = n_banks
        self.ni = ni
        with component_scope(sim, requested, kind="GlobalMemory",
                             obj=self, clock=clock) as inst:
            self.name = inst.name if inst is not None else requested
            self.core = ArbitratedScratchpad(
                n_requesters=n_banks, n_banks=n_banks,
                bank_entries=-(-words // n_banks), width=32,
            )
            self._inbox: deque = deque()
            self.reads_served = 0
            self.writes_served = 0
            # Idle-wait point: the loop parks here under either executor
            # and every message arrival reopens it.
            self._gate = Gate()
            ni.handler = self._on_message
            sim.add_thread(self._run(), clock, name="ctl")

    def _on_message(self, src: int, payloads: List[int]) -> None:
        self._inbox.append(payloads)
        self._gate.open()

    @property
    def words(self) -> int:
        return self.core.entries

    # Testbench conveniences --------------------------------------------
    def load(self, values: List[int], *, base: int = 0) -> None:
        self.core.load([v & 0xFFFFFFFF for v in values], base=base)

    def dump(self, base: int, length: int) -> List[int]:
        return self.core.dump(base, length)

    # ------------------------------------------------------------------
    def _access(self, base: int, words: Optional[List[int]],
                length: int) -> Generator:
        """Banked access, ``n_banks`` words per cycle; returns read data."""
        # Unit stride across the banks never conflicts, so every chunk
        # is one conflict-free arbitration round (see write_vector).
        n_banks = self.n_banks
        core = self.core
        if words is not None:
            for chunk_base in range(0, length, n_banks):
                core.write_vector(
                    base + chunk_base,
                    [w & 0xFFFFFFFF
                     for w in words[chunk_base:chunk_base + n_banks]])
                yield
            return []
        out: List[int] = []
        for chunk_base in range(0, length, n_banks):
            out += core.read_vector(base + chunk_base,
                                    min(n_banks, length - chunk_base))
            yield
        return out

    def _run(self) -> Generator:
        while True:
            if not self._inbox:
                yield self._gate   # idle until the next message arrives
                continue
            msg = self._inbox.popleft()
            op = msg[0]
            if op == Cmd.GM_READ:
                base, length, reply_node, tag = msg[1:5]
                data = yield from self._access(base, None, length)
                self.ni.send(reply_node, [int(Cmd.GM_DATA), tag] + list(data))
                self.reads_served += 1
            elif op == Cmd.GM_WRITE:
                base, reply_node, tag = msg[1:4]
                payload = msg[4:]
                yield from self._access(base, payload, len(payload))
                self.writes_served += 1
                if reply_node != NO_REPLY:
                    self.ni.send(reply_node, [int(Cmd.GM_DATA), tag])
            elif op == Cmd.NOTIFY:
                self.ni.send(msg[1], [int(Cmd.DONE), msg[2]])
            else:
                raise ValueError(f"{self.name}: unknown command {op}")
            yield
