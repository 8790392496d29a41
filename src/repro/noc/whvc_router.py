"""Wormhole router with virtual channels (MatchLib's WHVCRouter).

Microarchitecture (one module thread, one iteration per cycle):

* per-(input port, VC) flit queues,
* XY route computation on head flits,
* per-output round-robin arbitration among competing (port, VC)
  wormholes; a granted wormhole holds the output until its tail flit
  passes (wormhole switching),
* backpressure through the LI channels (a full downstream link simply
  rejects the push; the wormhole stalls in place).

Virtual channels let independent packets interleave on one physical
link: a blocked wormhole on VC 0 does not prevent VC 1 traffic from
using the link.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..connections.channel import FastChannel
from ..connections.ports import In, Out
from ..design.hierarchy import component_scope
from ..kernel import Gate
from ..matchlib.arbiter import RoundRobinArbiter
from ..matchlib.fifo import Fifo
from .flit import NocFlit
from .routing import Port, xy_route

__all__ = ["WHVCRouter"]

N_PORTS = 5  # LOCAL, NORTH, SOUTH, EAST, WEST


class WHVCRouter:
    """Wormhole virtual-channel router for a 2-D mesh node."""

    def __init__(self, sim, clock, *, node: int, mesh_width: int,
                 n_vcs: int = 2, vc_depth: int = 4, name: Optional[str] = None):
        if n_vcs < 1 or vc_depth < 1:
            raise ValueError("need n_vcs >= 1 and vc_depth >= 1")
        requested = name or f"whvc{node}"
        self.node = node
        self.mesh_width = mesh_width
        self.n_vcs = n_vcs
        # XY dimension-order routing is deadlock-free by construction
        # (no cyclic turn dependencies), so channel-cycle lint waives
        # cycles through router instances.
        with component_scope(sim, requested, kind="WHVCRouter", obj=self,
                             clock=clock, default_name=name is None,
                             attrs={"deadlock_free":
                                    "xy dimension-order routing"}) as inst:
            self.name = inst.name if inst is not None else requested
            # Boundary ports on mesh edges legitimately stay unbound.
            self.ins = [In(name=f"in{p}", optional=True)
                        for p in range(N_PORTS)]
            self.outs = [Out(name=f"out{p}", optional=True)
                         for p in range(N_PORTS)]
            # Per (input port, vc) flit queue.
            self._queues = [[Fifo(capacity=vc_depth) for _ in range(n_vcs)]
                            for _ in range(N_PORTS)]
            # Per-output arbiter over (port, vc) requesters.
            self._arbiters = [RoundRobinArbiter(N_PORTS * n_vcs)
                              for _ in range(N_PORTS)]
            # Per-output wormhole lock: (in_port, vc) or None.
            self._locks: list[Optional[tuple[int, int]]] = [None] * N_PORTS
            # Cached output request per (port, vc) queue, flattened as
            # p * n_vcs + v: the head flit's computed route when the head
            # is a head flit, else -1 (body flit or empty queue).  Updated
            # at the only two mutation points (accept push, wormhole pop),
            # so arbitration reads it instead of re-peeking every queue
            # for every output every cycle.
            self._head_route = [-1] * (N_PORTS * n_vcs)
            # (peek, pop) / (can_push, push) bound-method pairs per port,
            # snapshotted by _run once the mesh has bound the links.
            self._in_ops: list = []
            self._out_ops: list = []
            # Set by _run when all links are stock FastChannels; the
            # accept/forward loops then read channel state directly.
            self._fast_in: Optional[list] = None
            self._fast_out: Optional[list] = None
            self._active_locks = 0  # outputs with a wormhole in flight
            self._buffered = 0  # flits across all VC queues
            self.flits_forwarded = 0
            self.packets_forwarded = 0
            #: Cycles a granted wormhole could not advance (downstream full
            #: or the next flit not yet arrived) — link-level backpressure.
            self.output_stall_cycles = 0
            # Idle-wait point: the loop parks here under either executor
            # and is reopened by arrivals on any input link.
            self._gate = Gate()
            sim.add_thread(self._run(), clock, name="ctl")

    # ------------------------------------------------------------------
    def _route_of(self, flit: NocFlit) -> Port:
        return xy_route(self.node, flit.dest, self.mesh_width)

    def _run(self) -> Generator:
        # Ports are bound at mesh elaboration, before the first posedge;
        # boundary ports stay unbound forever, so snapshot the channels
        # and bind their handshake methods once (bound methods resolve
        # any channel-kind override, so this is the port call minus the
        # per-cycle attribute walk).  The idle-exit reads
        # FastChannel._queue directly; custom link kinds (GALS links,
        # RTL signal links) run the full body always.
        in_channels = [p._channel for p in self.ins if p._channel is not None]
        fast_links = all(isinstance(ch, FastChannel) for ch in in_channels)
        self._in_ops = [(p._channel.peek, p._channel.do_pop)
                        if p._channel is not None else None
                        for p in self.ins]
        self._out_ops = [(p._channel.can_push, p._channel.do_push)
                         if p._channel is not None else None
                         for p in self.outs]
        # Direct-state fast paths apply only when every link is a stock
        # FastChannel (the inlined checks mirror peek()/can_push()).
        if fast_links:
            self._fast_in = [(p, port._channel)
                             for p, port in enumerate(self.ins)
                             if port._channel is not None]
        if all(p._channel is None or isinstance(p._channel, FastChannel)
               for p in self.outs):
            self._fast_out = [p._channel for p in self.outs]
        gate = self._gate
        if fast_links:
            for ch in in_channels:
                ch.add_wake_gate(gate)
        while True:
            # Idle-exit: nothing buffered, no wormhole holding an output,
            # nothing arriving on any input link.  The full body would be
            # a provable no-op (peeks fail, arbiters see no requests, no
            # stall counting without a lock), so skip it.  Any held lock
            # forces the full body: a starved wormhole must keep counting
            # output_stall_cycles.
            if (fast_links and self._buffered == 0 and self._active_locks == 0
                    and all(not ch._queue for ch in in_channels)):
                yield gate
                continue
            self._accept_flits()
            self._forward_flits()
            yield

    def _accept_flits(self) -> None:
        """Move at most one flit per input port into its VC queue."""
        fast = self._fast_in
        if fast is not None:
            # Inlined peek (stalled/empty check) and Fifo.push; do_pop
            # stays a call so handshake stats and flags update as ever.
            queues = self._queues
            n_vcs = self.n_vcs
            head_route = self._head_route
            accepted = 0
            for p, ch in fast:
                chq = ch._queue
                if not chq or ch._stalled:
                    continue
                flit = chq[0]
                queue = queues[p][flit.vc % n_vcs]
                items = queue._queue
                if len(items) >= queue.capacity:
                    continue  # backpressure: leave it in the channel
                ok, flit = ch.do_pop()
                if ok:
                    was_empty = not items
                    items.append(flit)
                    queue.total_pushed += 1
                    occ = len(items)
                    if occ > queue.peak_occupancy:
                        queue.peak_occupancy = occ
                    accepted += 1
                    if was_empty:
                        vc = flit.vc % n_vcs
                        head_route[p * n_vcs + vc] = (
                            self._route_of(flit) if flit.is_head else -1)
            if accepted:
                self._buffered += accepted
            return
        for p, ops in enumerate(self._in_ops):
            if ops is None:
                continue
            ok, flit = ops[0]()
            if not ok:
                continue
            queue = self._queues[p][flit.vc % self.n_vcs]
            if queue.full:
                continue  # backpressure: leave it in the channel
            ok, flit = ops[1]()
            if ok:
                was_empty = queue.empty
                queue.push(flit)
                self._buffered += 1
                if was_empty:
                    vc = flit.vc % self.n_vcs
                    self._head_route[p * self.n_vcs + vc] = (
                        self._route_of(flit) if flit.is_head else -1)

    def _forward_flits(self) -> None:
        """Arbitrate each output and forward one flit per output."""
        fast = self._fast_out
        locks = self._locks
        head_route = self._head_route
        for out_port in range(N_PORTS):
            if fast is not None:
                ch = fast[out_port]
                # inlined can_push: not pushed yet and capacity left
                if ch is None or ch._pushed \
                        or ch._occ_start >= ch.capacity:
                    continue
            else:
                ops = self._out_ops[out_port]
                if ops is None or not ops[0]():
                    continue
            lock = locks[out_port]
            if lock is not None:
                self._advance_wormhole(out_port, *lock)
                continue
            # Head flits requesting this output, from the cached routes.
            # No requesters means pick() would be a stateless no-op.
            if out_port not in head_route:
                continue
            # Inlined round-robin pick over the route cache: scan from
            # the arbiter's priority pointer, grant the first requester
            # (same rotation and grant count pick() would apply).
            arb = self._arbiters[out_port]
            n = arb.n
            idx = arb._next
            while head_route[idx] != out_port:
                idx += 1
                if idx >= n:
                    idx -= n
            arb._next = (idx + 1) % n
            arb.grants[idx] += 1
            p, v = divmod(idx, self.n_vcs)
            self._locks[out_port] = (p, v)
            self._active_locks += 1
            self._advance_wormhole(out_port, p, v)

    def _advance_wormhole(self, out_port: int, p: int, v: int) -> None:
        # Direct deque access: Fifo peek/pop/empty carry no stats, so
        # the inlined form is observably identical.
        items = self._queues[p][v]._queue
        if not items:
            self.output_stall_cycles += 1
            return  # next flit not here yet; hold the lock
        flit = items[0]
        if self._out_ops[out_port][1](flit):
            items.popleft()
            self._buffered -= 1
            self.flits_forwarded += 1
            slot = p * self.n_vcs + v
            if not items:
                self._head_route[slot] = -1
            else:
                nxt = items[0]
                self._head_route[slot] = (
                    self._route_of(nxt) if nxt.is_head else -1)
            if flit.is_tail:
                self._locks[out_port] = None
                self._active_locks -= 1
                self.packets_forwarded += 1
        else:
            self.output_stall_cycles += 1
