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

Two loops run it.  When every bound link is a FastChannel (the
fast-mode SoC), the router thread runs the *stage loop*: accept,
arbitrate-and-forward and the wormhole advance inline, over flat
per-(port, VC) state held in locals.  Any other link kind (RTL signal
links, GALS links) gets the *ops loop*, which goes through each link's
handshake methods; it is also the stage loop's byte-identity reference.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..connections.channel import FastChannel
from ..connections.ports import In, Out
from ..design.hierarchy import component_scope
from ..gals.gals_link import GalsLink
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
            # Per-output wormhole lock: the flat (port, vc) slot
            # p * n_vcs + v holding the output, or None.
            self._locks: list[Optional[int]] = [None] * N_PORTS
            # Cached output request per (port, vc) queue, by flat slot:
            # the head flit's computed route when the head is a head
            # flit, else -1 (body flit or empty queue).  Updated at the
            # only two mutation points (accept push, wormhole pop), so
            # arbitration reads it instead of re-peeking every queue for
            # every output every cycle.
            self._head_route = [-1] * (N_PORTS * n_vcs)
            # dest -> output Port, filled lazily by _route_of.
            self._routes: dict[int, Port] = {}
            # (peek, pop) / (can_push, push) bound-method pairs per port,
            # snapshotted by the ops loop once the mesh has bound the links.
            self._in_ops: list = []
            self._out_ops: list = []
            # Ops-loop state (the stage loop keeps both in locals).
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
        route = self._routes.get(flit.dest)
        if route is None:
            route = self._routes[flit.dest] = xy_route(
                self.node, flit.dest, self.mesh_width)
        return route

    def _stage_links(self) -> Optional[tuple[list, list]]:
        """The bound links as ``(inputs, outputs)`` when every one is a
        FastChannel, else None: ``inputs`` holds ``(slot base, channel,
        queue, do_pop)`` and ``outputs`` ``(port, channel, do_push)``,
        in port order."""
        ins = [(p * self.n_vcs, port._channel)
               for p, port in enumerate(self.ins)
               if port._channel is not None]
        outs = [(p, port._channel) for p, port in enumerate(self.outs)
                if port._channel is not None]
        if not all(isinstance(ch, FastChannel) for _, ch in ins + outs):
            return None
        return ([(base, ch, ch._queue, ch.do_pop) for base, ch in ins],
                [(p, ch, ch.do_push) for p, ch in outs])

    def _run(self) -> Generator:
        # Ports are bound at mesh elaboration, before the first posedge;
        # boundary ports stay unbound forever, so snapshot the links
        # once.  The idle-exit reads the queue of the FastChannel each
        # input really pops from: the link itself, or a GALS link's
        # receive buffer.  Other link kinds (RTL signal links) run the
        # full body always.
        in_channels = [p._channel for p in self.ins if p._channel is not None]
        sources = [ch._rx_chan if isinstance(ch, GalsLink) else ch
                   for ch in in_channels]
        watched = all(isinstance(ch, FastChannel) for ch in sources)
        gate = self._gate
        if watched:
            for ch in sources:
                ch.add_wake_gate(gate)
        links = self._stage_links()
        if links is None:
            # The ops loop: any link kind, through its handshake methods
            # (bound once; bound methods resolve any channel-kind
            # override, so this is the port call minus the per-cycle
            # attribute walk).
            self._in_ops = [(p._channel.peek, p._channel.do_pop)
                            if p._channel is not None else None
                            for p in self.ins]
            self._out_ops = [(p._channel.can_push, p._channel.do_push)
                             if p._channel is not None else None
                             for p in self.outs]
            while True:
                # Idle-exit: nothing buffered, no wormhole holding an
                # output, nothing arriving on any input link.  The full
                # body would be a provable no-op (peeks fail, arbiters
                # see no requests, no stall counting without a lock), so
                # skip it.  Any held lock forces the full body: a starved
                # wormhole must keep counting output_stall_cycles.
                if (watched and self._buffered == 0
                        and self._active_locks == 0
                        and all(not ch._queue for ch in sources)):
                    yield gate
                    continue
                self._accept_flits()
                self._forward_flits()
                yield
        # The stage loop: every link is a FastChannel, so the three
        # stages run inline over flat per-(port, vc) state, with peek(),
        # can_push() and Fifo.push inlined; do_pop()/do_push() stay
        # calls so handshake stats, flags and fault hooks update as
        # ever.  Same idle exit, same yields, same counters as the ops
        # loop, which is its reference.
        ins, outs = links
        in_queues = [chq for _, _, chq, _ in ins]
        n_vcs = self.n_vcs
        fifos = [fifo for vcs in self._queues for fifo in vcs]
        vcq = [fifo._queue for fifo in fifos]
        depth = fifos[0].capacity
        head_route = self._head_route
        locks = self._locks
        arbiters = self._arbiters
        n_req = N_PORTS * n_vcs
        routes = self._routes
        route_of = self._route_of
        buffered = active = 0
        while True:
            # Idle exit, as the ops loop's.
            if not buffered and not active:
                for chq in in_queues:
                    if chq:
                        break
                else:
                    yield gate
                    continue
            # Accept: at most one flit per input into its VC queue.  An
            # empty queue's head_route slot is -1 already, so only a
            # head flit landing in one sets it.
            for base, ch, chq, pop in ins:
                if not chq or ch._stalled:
                    continue
                slot = base + chq[0].vc % n_vcs
                items = vcq[slot]
                if len(items) >= depth:
                    continue  # backpressure: leave it in the channel
                ok, flit = pop()
                if ok:
                    items.append(flit)
                    fifo = fifos[slot]
                    fifo.total_pushed += 1
                    occ = len(items)
                    if occ > fifo.peak_occupancy:
                        fifo.peak_occupancy = occ
                    buffered += 1
                    if occ == 1 and flit.is_head:
                        route = routes.get(flit.dest)
                        head_route[slot] = (route if route is not None
                                            else route_of(flit))
            # Arbitrate and forward: one flit per output whose link can
            # take a push.
            for out_port, ch, push in outs:
                if ch._pushed or ch._occ_start >= ch.capacity:
                    continue
                slot = locks[out_port]
                if slot is None:
                    # No requesters means pick() would be a stateless
                    # no-op.  Else the inlined round-robin pick: scan
                    # from the priority pointer, grant the first
                    # requester (same rotation and grant count).
                    if out_port not in head_route:
                        continue
                    arb = arbiters[out_port]
                    slot = arb._next
                    while head_route[slot] != out_port:
                        slot += 1
                        if slot == n_req:
                            slot = 0
                    arb._next = slot + 1 if slot + 1 < n_req else 0
                    arb.grants[slot] += 1
                    locks[out_port] = slot
                    active += 1
                # Advance the wormhole.
                items = vcq[slot]
                if not items:
                    self.output_stall_cycles += 1
                    continue  # next flit not here yet; hold the lock
                flit = items[0]
                if push(flit):
                    items.popleft()
                    buffered -= 1
                    self.flits_forwarded += 1
                    if items and items[0].is_head:
                        nxt = items[0]
                        route = routes.get(nxt.dest)
                        head_route[slot] = (route if route is not None
                                            else route_of(nxt))
                    else:
                        head_route[slot] = -1
                    if flit.is_tail:
                        locks[out_port] = None
                        active -= 1
                        self.packets_forwarded += 1
                else:
                    self.output_stall_cycles += 1
            yield

    def _accept_flits(self) -> None:
        """Move at most one flit per input port into its VC queue."""
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
        locks = self._locks
        head_route = self._head_route
        for out_port in range(N_PORTS):
            ops = self._out_ops[out_port]
            if ops is None or not ops[0]():
                continue
            slot = locks[out_port]
            if slot is not None:
                self._advance_wormhole(out_port, slot)
                continue
            # Head flits requesting this output, from the cached routes.
            # No requesters means pick() would be a stateless no-op.
            if out_port not in head_route:
                continue
            slot = self._arbiters[out_port].pick(
                [route == out_port for route in head_route])
            locks[out_port] = slot
            self._active_locks += 1
            self._advance_wormhole(out_port, slot)

    def _advance_wormhole(self, out_port: int, slot: int) -> None:
        # Direct deque access: Fifo peek/pop/empty carry no stats, so
        # the inlined form is observably identical.
        items = self._queues[slot // self.n_vcs][slot % self.n_vcs]._queue
        if not items:
            self.output_stall_cycles += 1
            return  # next flit not here yet; hold the lock
        flit = items[0]
        if self._out_ops[out_port][1](flit):
            items.popleft()
            self._buffered -= 1
            self.flits_forwarded += 1
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
