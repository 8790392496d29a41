"""2-D mesh construction and network interfaces.

Builds a ``width x height`` mesh of routers (wormhole or
store-and-forward) connected by LI channels, one flit per link per
cycle, with a :class:`NetworkInterface` per node for message-level
send/receive — the NoC substrate of the prototype SoC's PE array.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Generator, List, Optional

from ..connections.channel import Buffer
from ..connections.ports import In, Out
from ..design.hierarchy import component_scope, design_path
from ..kernel import Gate
from .flit import NocFlit, make_packet
from .routing import Port, node_xy, xy_node
from .sf_router import SFRouter
from .whvc_router import WHVCRouter

__all__ = ["Mesh", "NetworkInterface"]


class NetworkInterface:
    """Message-level endpoint at a mesh node.

    ``send`` queues a message for packetization; received messages are
    reassembled and delivered to :attr:`received` (or a handler).
    """

    def __init__(self, sim, clock, mesh: "Mesh", node: int):
        self.node = node
        self.mesh = mesh
        self._sim = sim
        self.last_arrival_time: Optional[int] = None
        self._packet_ids = itertools.count()
        self._tx: deque = deque()
        self._rx_partial: dict = {}
        self.received: list[tuple[int, list]] = []  # (src, payloads)
        self.handler: Optional[Callable[[int, list], None]] = None
        # Idle-wait point: the loop parks here under either executor and
        # is opened by send() and by the eject channel delivering a flit
        # (see repro.kernel.Gate).
        self._gate = Gate()
        with component_scope(sim, f"ni{node}", kind="NetworkInterface",
                             obj=self, clock=clock):
            self.inject_port: Out = Out(name="inject")
            self.eject_port: In = In(name="eject")
            self.messages_sent = 0
            self.messages_received = 0
            sim.add_thread(self._run(), clock, name="ctl")

    def send(self, dest: int, payloads: list, *, vc: int = 0) -> None:
        """Queue one message (any number of flit payloads) to ``dest``."""
        flits = make_packet(src=self.node, dest=dest, payloads=list(payloads),
                            vc=vc, packet_id=next(self._packet_ids))
        self._tx.extend(flits)
        self.messages_sent += 1
        self._gate.open()

    def _run(self) -> Generator:
        gate = self._gate
        # Park only when arrivals can reopen the gate: the eject channel
        # must expose the wake hook (custom RTL/CDC links may not).
        hook = getattr(self.eject_port._channel, "add_wake_gate", None)
        parkable = hook is not None
        if parkable:
            hook(gate)
            gate.idle_pops(self.eject_port._channel)  # the idle eject pop
        # Ports are bound at mesh construction, before the first posedge;
        # bound channel methods resolve any channel-kind override once.
        tx = self._tx
        inject_push = self.inject_port._channel.do_push
        eject_pop = self.eject_port._channel.do_pop
        while True:
            if tx and inject_push(tx[0]):
                tx.popleft()
            ok, flit = eject_pop()
            if ok:
                key = (flit.src, flit.packet_id, flit.vc)
                self._rx_partial.setdefault(key, []).append(flit)
                if flit.is_tail:
                    flits = self._rx_partial.pop(key)
                    payloads = [f.payload for f in flits]
                    self.messages_received += 1
                    self.last_arrival_time = self._sim.now
                    if self.handler is not None:
                        self.handler(flit.src, payloads)
                    else:
                        self.received.append((flit.src, payloads))
            if parkable and not tx and not ok:
                yield gate        # idle: no tx backlog, eject empty
            else:
                yield


class Mesh:
    """A width x height mesh NoC with per-node network interfaces."""

    def __init__(self, sim, clock, *, width: int, height: int,
                 router: str = "whvc", n_vcs: int = 2, link_depth: int = 2,
                 name: str = "mesh", clock_of=None, link_factory=None,
                 **router_kwargs):
        """Build the mesh.

        ``clock_of(node) -> Clock`` gives each node its own clock domain
        (fine-grained GALS); default is the single ``clock``.
        ``link_factory(src_node, dst_node, tag) -> channel-like`` builds
        inter-router links; default is a fast Buffer in the destination
        node's domain.  GALS meshes pass a factory producing
        :class:`~repro.gals.gals_link.GalsLink` CDC links.
        """
        if width < 1 or height < 1:
            raise ValueError("mesh needs width >= 1 and height >= 1")
        if router not in ("whvc", "sf"):
            raise ValueError(f"unknown router type {router!r}")
        self.width = width
        self.height = height
        self.n_nodes = width * height
        self.routers: List = []
        self.nis: List[NetworkInterface] = []
        #: Link inventory for utilization reports:
        #: ``(src_node, dst_node, tag, channel)`` per inter-router link.
        self.links: List[tuple] = []
        self._clock_of = clock_of or (lambda node: clock)
        self._link_factory = link_factory
        self._link_depth = link_depth
        self._sim = sim

        with component_scope(sim, name, kind="Mesh", obj=self,
                             clock=clock) as inst:
            self.name = self._name = inst.name if inst is not None else name

            for node in range(self.n_nodes):
                node_clock = self._clock_of(node)
                if router == "whvc":
                    r = WHVCRouter(sim, node_clock, node=node,
                                   mesh_width=width, n_vcs=n_vcs,
                                   name=f"r{node}", **router_kwargs)
                else:
                    r = SFRouter(sim, node_clock, node=node, mesh_width=width,
                                 name=f"r{node}", **router_kwargs)
                self.routers.append(r)

            # Inter-router links (one channel per direction per edge).
            for node in range(self.n_nodes):
                x, y = node_xy(node, width)
                if x + 1 < width:
                    east = xy_node(x + 1, y, width)
                    self._link(sim, clock, node, Port.EAST, east, Port.WEST,
                               link_depth)
                    self._link(sim, clock, east, Port.WEST, node, Port.EAST,
                               link_depth)
                if y + 1 < height:
                    north = xy_node(x, y + 1, width)
                    self._link(sim, clock, node, Port.NORTH, north,
                               Port.SOUTH, link_depth)
                    self._link(sim, clock, north, Port.SOUTH, node,
                               Port.NORTH, link_depth)

            # Local ports -> network interfaces (in the node's own domain).
            for node in range(self.n_nodes):
                node_clock = self._clock_of(node)
                ni = NetworkInterface(sim, node_clock, self, node)
                inject = Buffer(sim, node_clock, capacity=link_depth,
                                name=f"inj{node}")
                eject = Buffer(sim, node_clock, capacity=link_depth,
                               name=f"ej{node}")
                ni.inject_port.bind(inject)
                self.routers[node].ins[Port.LOCAL].bind(inject)
                self.routers[node].outs[Port.LOCAL].bind(eject)
                ni.eject_port.bind(eject)
                self.nis.append(ni)

        # Observability: registered meshes appear in telemetry reports
        # with per-router flit counts and per-link utilization.
        hub = getattr(sim, "telemetry", None)
        if hub is not None:
            hub.register_mesh(self)

    def _link(self, sim, clock, src: int, src_port: Port, dst: int,
              dst_port: Port, depth: int) -> None:
        local = f"l{src}p{int(src_port)}"
        if self._link_factory is not None:
            chan = self._link_factory(src, dst, local)
        else:
            # Links live in the destination router's clock domain.
            chan = Buffer(sim, self._clock_of(dst), capacity=depth,
                          name=local)
        self.routers[src].outs[src_port].bind(chan)
        self.routers[dst].ins[dst_port].bind(chan)
        # Report keys use the full hierarchical path of the channel.
        self.links.append((src, dst, design_path(chan), chan))

    # ------------------------------------------------------------------
    @property
    def total_flits_forwarded(self) -> int:
        return sum(getattr(r, "flits_forwarded", 0) for r in self.routers)

    def link_utilization(self) -> dict[str, float]:
        """Per-link utilization: transfers per observed channel cycle.

        Uses the always-on :class:`~repro.connections.channel.ChannelStats`
        of each inter-router link; links built by a custom
        ``link_factory`` without ``stats`` (e.g. CDC links) report 0.0.
        """
        out = {}
        for _src, _dst, tag, chan in self.links:
            stats = getattr(chan, "stats", None)
            if stats is not None and stats.cycles:
                out[tag] = stats.transfers / stats.cycles
            else:
                out[tag] = 0.0
        return out

    def ni(self, node: int) -> NetworkInterface:
        return self.nis[node]
