"""Arbitrated crossbar (MatchLib Table 2) in three timing models.

The arbitrated crossbar is an N-to-N switch with per-output round-robin
conflict arbitration and per-input queueing.  It is the design the paper
uses to quantify modelling accuracy (Figure 3): the same microarchitecture
is provided here as

* :class:`ArbitratedCrossbarRTL` — signal-level model ("RTL" reference),
* :class:`ArbitratedCrossbarModule` — loosely-timed thread over fast
  channels (the *sim-accurate* model),
* :class:`ArbitratedCrossbarSA` — the same loosely-timed thread but with
  *signal-accurate* port routines, whose per-port delayed operations
  serialize in the main thread and inflate elapsed cycles with port count.

Messages are ``(dst, payload)`` tuples.  All three models share
:class:`ArbitratedCrossbarKernel` for queueing/arbitration policy so any
cycle-count difference is attributable purely to the modelling style —
the paper's experimental control.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from ..connections.channel import FastChannel
from ..connections.ports import In, Out
from ..connections.signal_accurate import SignalAccurateIn, SignalAccurateOut
from ..connections.signal_channel import SignalInterface
from ..design.hierarchy import component_scope
from ..kernel import Gate
from .arbiter import RoundRobinArbiter
from .fifo import Fifo

__all__ = [
    "ArbitratedCrossbarKernel",
    "ArbitratedCrossbarModule",
    "ArbitratedCrossbarRTL",
    "ArbitratedCrossbarSA",
]


class ArbitratedCrossbarKernel:
    """Shared queueing + arbitration policy.

    State: one input queue per input port, one round-robin arbiter per
    output.  :meth:`arbitrate` performs one cycle's worth of grants.
    """

    def __init__(self, n_in: int, n_out: int, *, queue_depth: int = 2):
        if n_in < 1 or n_out < 1:
            raise ValueError("need at least one input and one output")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.n_in = n_in
        self.n_out = n_out
        self.queues = [Fifo(capacity=queue_depth) for _ in range(n_in)]
        self.arbiters = [RoundRobinArbiter(n_in) for _ in range(n_out)]
        self.transactions = 0

    def accept(self, port: int, msg: tuple) -> bool:
        """Enqueue a message on an input port if there is room."""
        dst = msg[0]
        if not 0 <= dst < self.n_out:
            raise ValueError(f"destination {dst} out of range")
        return self.queues[port].push_nb(msg)

    def can_accept(self, port: int) -> bool:
        return not self.queues[port].full

    def arbitrate(self, output_free: Sequence[bool]) -> list:
        """One arbitration round.

        ``output_free[o]`` says whether output *o* can take a message this
        cycle.  Returns a list of ``(out_idx, msg)`` grants; granted
        messages are popped from their input queues.
        """
        grants = []
        if all(not q._queue for q in self.queues):
            return grants  # no requests: every pick() would be a no-op
        for o in range(self.n_out):
            if not output_free[o]:
                continue
            requests = [
                (not q.empty) and q.peek()[0] == o for q in self.queues
            ]
            winner = self.arbiters[o].pick(requests)
            if winner is not None:
                msg = self.queues[winner].pop()
                grants.append((o, msg))
                self.transactions += 1
        return grants


class ArbitratedCrossbarModule:
    """Sim-accurate model: one loosely-timed thread over fast channels.

    Ports: ``ins[i]`` (:class:`In`), ``outs[o]`` (:class:`Out`).  Each
    iteration drains input ports into the kernel queues, arbitrates every
    output, and pushes grants — all in a single cycle, as HLS would
    schedule it.
    """

    def __init__(self, sim, clock, n_in: int, n_out: int, *,
                 queue_depth: int = 2, name: str = "axbar"):
        self.kernel = ArbitratedCrossbarKernel(n_in, n_out, queue_depth=queue_depth)
        with component_scope(sim, name, kind="ArbitratedCrossbarModule",
                             obj=self, clock=clock) as inst:
            self.name = inst.name if inst is not None else name
            self.ins = [In(name=f"in{i}") for i in range(n_in)]
            self.outs = [Out(name=f"out{o}") for o in range(n_out)]
            # Idle-wait point: the loop parks here under either executor
            # and is reopened by arrivals on any input channel.
            self._gate = Gate()
            sim.add_thread(self._run(), clock, name="ctl")

    @property
    def transactions(self) -> int:
        return self.kernel.transactions

    def _run(self) -> Generator:
        kernel = self.kernel
        queues = kernel.queues
        # Ports are bound before the first posedge.  With every input a
        # stock FastChannel the loop is a gate owner: once the kernel
        # queues and every input channel are empty, the next iteration
        # is one refused pop per input and nothing else, until an
        # input's tick leaves data visible and opens the gate.
        channels = [port.channel for port in self.ins]
        gate = self._gate if all(type(ch) is FastChannel
                                 for ch in channels) else None
        if gate is not None:
            gate.idle_pops(*channels)
            for ch in channels:
                ch.add_wake_gate(gate)
        while True:
            for i, port in enumerate(self.ins):
                if kernel.can_accept(i):
                    ok, msg = port.pop_nb()
                    if ok:
                        kernel.accept(i, msg)
            free = [port.can_push() for port in self.outs]
            for o, msg in kernel.arbitrate(free):
                pushed = self.outs[o].push_nb(msg)
                assert pushed, "arbitrate() only grants free outputs"
            if (gate is not None and all(not q._queue for q in queues)
                    and all(not ch._queue for ch in channels)):
                yield gate
            else:
                yield


class ArbitratedCrossbarRTL:
    """Signal-level reference model (the "HLS-generated RTL" stand-in).

    Interfaces: ``enq[i]``/``deq[o]`` are
    :class:`~repro.connections.signal_channel.SignalInterface` bundles.
    Microarchitecture: per-input queue, per-output round-robin arbiter and
    a 1-deep output register; all handshakes evaluated per cycle at
    signal granularity.
    """

    def __init__(self, sim, clock, n_in: int, n_out: int, *,
                 queue_depth: int = 2, name: str = "axbar_rtl"):
        self.kernel = ArbitratedCrossbarKernel(n_in, n_out, queue_depth=queue_depth)
        with component_scope(sim, name, kind="ArbitratedCrossbarRTL",
                             obj=self, clock=clock) as inst:
            self.name = inst.name if inst is not None else name
            self.enq = [SignalInterface(sim, name=f"enq{i}")
                        for i in range(n_in)]
            self.deq = [SignalInterface(sim, name=f"deq{o}")
                        for o in range(n_out)]
        self._out_reg: list[Optional[tuple]] = [None] * n_out
        for iface in self.enq:
            iface.ready.write(1)
        clock.on_edge(self._edge)

    @property
    def transactions(self) -> int:
        return self.kernel.transactions

    def _edge(self, clock) -> None:
        kernel = self.kernel
        # 1. Output side: consume fires clear the output registers.
        for o, iface in enumerate(self.deq):
            if self._out_reg[o] is not None and iface.valid.read() and iface.ready.read():
                self._out_reg[o] = None
        # 2. Input side: sample enqueue fires into the input queues.
        for i, iface in enumerate(self.enq):
            if iface.valid.read() and iface.ready.read():
                accepted = kernel.accept(i, iface.msg.read())
                assert accepted, "ready guaranteed space last cycle"
        # 3. Arbitration into free output registers.
        free = [reg is None for reg in self._out_reg]
        for o, msg in kernel.arbitrate(free):
            self._out_reg[o] = msg
        # 4. Drive registered outputs for the next cycle.
        for i, iface in enumerate(self.enq):
            iface.ready.write(1 if kernel.can_accept(i) else 0)
        for o, iface in enumerate(self.deq):
            reg = self._out_reg[o]
            iface.valid.write(1 if reg is not None else 0)
            iface.msg.write(reg)


class ArbitratedCrossbarSA:
    """Signal-accurate model: the Module's loop with delayed-op ports.

    Identical algorithm to :class:`ArbitratedCrossbarModule`, but every
    ``pop_nb``/``push_nb`` costs one main-thread cycle (the paper's
    baseline style), so elapsed cycles grow with the number of ports —
    the growing error of Figure 3.
    """

    def __init__(self, sim, clock, n_in: int, n_out: int, *,
                 queue_depth: int = 2, name: str = "axbar_sa"):
        self.kernel = ArbitratedCrossbarKernel(n_in, n_out, queue_depth=queue_depth)
        with component_scope(sim, name, kind="ArbitratedCrossbarSA",
                             obj=self, clock=clock) as inst:
            self.name = inst.name if inst is not None else name
            self.enq = [SignalInterface(sim, name=f"enq{i}")
                        for i in range(n_in)]
            self.deq = [SignalInterface(sim, name=f"deq{o}")
                        for o in range(n_out)]
            self._ins = [SignalAccurateIn(iface) for iface in self.enq]
            self._outs = [SignalAccurateOut(iface) for iface in self.deq]
            self._pending: list[Optional[tuple]] = [None] * n_out
            sim.add_thread(self._run(), clock, name="ctl")

    @property
    def transactions(self) -> int:
        return self.kernel.transactions

    def _run(self) -> Generator:
        kernel = self.kernel
        while True:
            # Drain inputs: each pop_nb is a delayed operation (1 cycle).
            for i, port in enumerate(self._ins):
                if kernel.can_accept(i):
                    ok, msg = yield from port.pop_nb()
                    if ok:
                        kernel.accept(i, msg)
            # Arbitrate outputs whose previous push completed.
            free = [p is None for p in self._pending]
            for o, msg in kernel.arbitrate(free):
                self._pending[o] = msg
            # Push pending messages: each push_nb is a delayed operation.
            for o, port in enumerate(self._outs):
                if self._pending[o] is not None:
                    ok = yield from port.push_nb(self._pending[o])
                    if ok:
                        self._pending[o] = None
            yield
