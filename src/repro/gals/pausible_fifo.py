"""Pausible bisynchronous FIFO [Keller, Fojtik, Khailany — ASYNC'15].

The clock-domain crossing primitive of the paper's fine-grained GALS
methodology (section 3.1): all communication between partitions passes
through these FIFOs, which integrate the synchronizer with the receiving
partition's *pausible* clock generator.  When a write lands inside the
metastability window of an upcoming receiver clock edge, the receiver's
clock is paused (stretched) until the pointer has settled — giving
low-latency, error-free crossings instead of the 2-3 cycle penalty of a
brute-force multi-flop synchronizer.

Two models are provided:

* :class:`PausibleBisyncFIFO` — the paper's design.  ``pausible=False``
  degrades it to an unprotected crossing that *counts metastability
  windows it read through* (useful for verification experiments: the
  count must be zero when pausing is on).
* :class:`BruteForceSyncFIFO` — the conventional 2-flop-synchronizer
  alternative, for the latency-comparison ablation.

Both expose LI ``In``/``Out`` ports, so HLS-generated units connect to
partition boundaries without knowing a clock crossing is there — the
"correct-by-construction top-level interfaces" claim.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from ..connections.channel import FastChannel
from ..connections.ports import In, Out
from ..design.hierarchy import component_scope
from ..kernel import Gate
from ..matchlib.encoding import binary_to_gray

__all__ = ["PausibleBisyncFIFO", "BruteForceSyncFIFO"]


def _watch(port: In, gate: Gate) -> Optional[FastChannel]:
    """Make ``gate`` the idle-wait point of a thread popping ``port``.

    Ports are bound before the first posedge, so a thread calls this
    first thing.  When the port pops a stock ``FastChannel`` (a
    ``GalsLink``'s transmit buffer, say), the channel is returned and
    ``gate`` is declared one refused pop per skipped poll and opened by
    every tick that leaves data visible: a thread whose pop was refused
    on the empty channel yields ``gate`` and parks, since every poll
    until that tick would be refused alike.  Any other channel: None,
    and the thread polls.
    """
    channel = port.channel
    if type(channel) is not FastChannel:
        return None
    gate.idle_pops(channel)
    channel.add_wake_gate(gate)
    return channel


class PausibleBisyncFIFO:
    """Low-latency CDC FIFO with pausible-clock protection.

    ``in_port`` lives in the transmit clock domain, ``out_port`` in the
    receive domain.  ``settle_ps`` is the synchronizer settling window:
    a receiver edge may not sample a write pointer younger than this.
    """

    def __init__(self, sim, tx_clock, rx_clock, *, capacity: int = 4,
                 settle_ps: int = 50, pausible: bool = True,
                 name: Optional[str] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if settle_ps < 0:
            raise ValueError("settle_ps must be >= 0")
        requested = name if name is not None else "pbfifo"
        self.sim = sim
        self.tx_clock = tx_clock
        self.rx_clock = rx_clock
        self.capacity = capacity
        self.settle_ps = settle_ps
        self.pausible = pausible
        # Idle-wait points of the two domain threads (see _tx_run /
        # _rx_run): both park under either executor.
        self._tx_gate = Gate()
        self._rx_gate = Gate()
        with component_scope(sim, requested, kind="PausibleBisyncFIFO",
                             obj=self, default_name=name is None) as inst:
            self.name = inst.name if inst is not None else requested
            # Each side of the crossing lives in its own domain sub-scope
            # so elaboration resolves the ports' clocks correctly.
            with component_scope(sim, "tx", kind="domain", clock=tx_clock):
                self.in_port: In = In(name="in")
                sim.add_thread(self._tx_run(), tx_clock, name="ctl")
            with component_scope(sim, "rx", kind="domain", clock=rx_clock):
                self.out_port: Out = Out(name="out")
                sim.add_thread(self._rx_run(), rx_clock, name="ctl")
        # Entries are (visible_at_ps, msg).
        self._queue: deque = deque()
        # Gray-coded pointers, kept for fidelity/introspection.
        self._wptr = 0
        self._rptr = 0
        self.transfers = 0
        self.metastability_risks = 0

    @property
    def wptr_gray(self) -> int:
        return binary_to_gray(self._wptr % (2 * self.capacity))

    @property
    def rptr_gray(self) -> int:
        return binary_to_gray(self._rptr % (2 * self.capacity))

    # ------------------------------------------------------------------
    def _tx_run(self) -> Generator:
        source = _watch(self.in_port, self._tx_gate)
        while True:
            if len(self._queue) < self.capacity:
                ok, msg = self.in_port.pop_nb()
                if ok:
                    visible = self.sim.now + self.settle_ps
                    self._queue.append((visible, msg))
                    self._wptr += 1
                    if self.pausible:
                        # Pausible clocking: hold off any receiver edge
                        # that would land inside the settling window.
                        self.rx_clock.pause_until(visible)
                    self._rx_gate.open()
                elif source is not None and not source._queue:
                    yield self._tx_gate  # see _watch
                    continue
            yield

    def _rx_run(self) -> Generator:
        while True:
            if not self._queue:
                # Nothing to deliver until _tx_run appends, which opens
                # this gate from the transmit domain.
                yield self._rx_gate
                continue
            visible, msg = self._queue[0]
            now = self.sim.now
            if now >= visible:
                if self.out_port.push_nb(msg):
                    self._queue.popleft()
                    self._rptr += 1
                    self.transfers += 1
            elif not self.pausible:
                # An unprotected design would have sampled a pointer
                # mid-flight here: record the hazard, then read the
                # data anyway (silicon would sometimes corrupt it).
                self.metastability_risks += 1
                if self.out_port.push_nb(msg):
                    self._queue.popleft()
                    self._rptr += 1
                    self.transfers += 1
            yield

    @property
    def occupancy(self) -> int:
        return len(self._queue)


class BruteForceSyncFIFO:
    """Conventional CDC FIFO with an N-flop pointer synchronizer.

    A written entry becomes visible only after its write pointer has
    crossed ``sync_stages`` receiver clock edges — the classic safe but
    slow design the pausible FIFO improves on.
    """

    def __init__(self, sim, tx_clock, rx_clock, *, capacity: int = 4,
                 sync_stages: int = 2, name: Optional[str] = None):
        if capacity < 1 or sync_stages < 1:
            raise ValueError("capacity and sync_stages must be >= 1")
        requested = name if name is not None else "bffifo"
        self.sim = sim
        self.rx_clock = rx_clock
        self.capacity = capacity
        self.sync_stages = sync_stages
        self._tx_gate = Gate()
        self._rx_gate = Gate()
        with component_scope(sim, requested, kind="BruteForceSyncFIFO",
                             obj=self, default_name=name is None) as inst:
            self.name = inst.name if inst is not None else requested
            with component_scope(sim, "tx", kind="domain", clock=tx_clock):
                self.in_port: In = In(name="in")
                sim.add_thread(self._tx_run(), tx_clock, name="ctl")
            with component_scope(sim, "rx", kind="domain", clock=rx_clock):
                self.out_port: Out = Out(name="out")
                sim.add_thread(self._rx_run(), rx_clock, name="ctl")
        # Entries are (rx_edges_seen, msg); visible after sync_stages edges.
        self._queue: deque = deque()
        self.transfers = 0

    def _tx_run(self) -> Generator:
        source = _watch(self.in_port, self._tx_gate)
        while True:
            if len(self._queue) < self.capacity:
                ok, msg = self.in_port.pop_nb()
                if ok:
                    self._queue.append([0, msg])
                    self._rx_gate.open()
                elif source is not None and not source._queue:
                    yield self._tx_gate  # see _watch
                    continue
            yield

    def _rx_run(self) -> Generator:
        while True:
            if not self._queue:
                yield self._rx_gate  # opened by _tx_run's append
                continue
            for entry in self._queue:
                entry[0] += 1
            if self._queue and self._queue[0][0] > self.sync_stages:
                if self.out_port.push_nb(self._queue[0][1]):
                    self._queue.popleft()
                    self.transfers += 1
            yield

    @property
    def occupancy(self) -> int:
        return len(self._queue)
