"""Fast (sim-accurate) latency-insensitive channel implementations.

This is the reproduction of the *sim-accurate model* of the paper's
Connections library (section 2.3).  In the paper, push/pop handshakes are
moved out of the module's main thread into helper threads that drive the
valid/ready signals, so the main thread's elapsed cycles match
HLS-generated RTL.  Here the same effect is achieved by making the channel
itself a cycle-accurate queue updated once per clock edge, with ports that
complete non-blocking operations in zero simulated time inside the calling
thread — the end state of the paper's optimization.

Cycle semantics (shared by every kind):

* a message pushed at edge *k* becomes visible to ``pop`` at edge *k+1*
  (one-cycle handshake visibility, matching a registered valid/ready
  interface),
* at most one push and one pop complete per cycle per channel,
* backpressure is evaluated against the occupancy frozen at the start of
  the cycle, which makes results independent of thread execution order
  inside a delta cycle,
* optional ``extra_latency`` models retiming registers inserted on
  inter-partition interfaces (section 2.3).

Kind differences (capacity only; see the signal-level models in
:mod:`repro.connections.signal_channel` for the exact RTL semantics of
Bypass/Pipeline ready/valid path cutting):

=================  =================================================
Combinational      zero storage in RTL; modelled here with a 2-entry
                   skid so steady-state throughput is 1 msg/cycle
Bypass(cap)        cuts the ready path; effective capacity ``cap``
Pipeline(cap)      cuts the valid path, ENQ allowed when full if
                   dequeuing; modelled with capacity ``cap + 1``
Buffer(cap)        plain FIFO of ``cap`` entries
=================  =================================================

The residual cycle differences between this fast model and the
signal-level models are the reproduction of the paper's reported < 3 %
elapsed-cycle error (Figure 6).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Optional

from ..kernel.simulator import Gate

__all__ = [
    "FastChannel",
    "Combinational",
    "Bypass",
    "Pipeline",
    "Buffer",
    "ChannelStats",
]


class ChannelStats:
    """Per-channel occupancy and traffic statistics (always on).

    These integer counters are cheap enough to maintain unconditionally:

    * ``transfers`` — completed pops (messages actually moved),
    * ``push_attempts`` / ``pop_attempts`` — port operations, including
      retries of blocking ``push()``/``pop()``,
    * ``push_rejections`` — attempts refused by backpressure (the
      producer saw no ready),
    * ``pop_rejections`` — attempts refused because no message was
      available (or an injected stall withheld valid),
    * ``stall_cycles`` — cycles an injected verification stall was
      active (:meth:`FastChannel.set_stall`),
    * ``occupancy_sum`` / ``cycles`` — for :attr:`mean_occupancy`.

    Occupancy *histograms* and handshake stall-cycle counters are part
    of the opt-in telemetry layer (:mod:`repro.observe`), attached only
    when the simulator has a telemetry hub.
    """

    __slots__ = ("transfers", "push_attempts", "pop_attempts",
                 "push_rejections", "pop_rejections", "stall_cycles",
                 "occupancy_sum", "cycles")

    def __init__(self) -> None:
        self.transfers = 0
        self.push_attempts = 0
        self.pop_attempts = 0
        self.push_rejections = 0
        self.pop_rejections = 0
        self.stall_cycles = 0
        self.occupancy_sum = 0
        self.cycles = 0

    @property
    def mean_occupancy(self) -> float:
        return self.occupancy_sum / self.cycles if self.cycles else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ChannelStats(transfers={self.transfers}, "
            f"mean_occ={self.mean_occupancy:.2f})"
        )


class FastChannel:
    """Cycle-accurate queue-based LI channel (sim-accurate model).

    Construct via the :func:`Combinational` / :func:`Bypass` /
    :func:`Pipeline` / :func:`Buffer` factories, which mirror Table 1 of
    the paper.
    """

    #: Constructor-chosen default names per kind: collisions between
    #: these dedup silently; collisions between *explicit* names are
    #: recorded for the duplicate-name lint rule.
    DEFAULT_NAMES = {
        "Combinational": "comb",
        "Bypass": "bypass",
        "Pipeline": "pipe",
        "Buffer": "buf",
    }

    __slots__ = (
        "sim", "clock", "name", "kind", "capacity", "extra_latency",
        "_queue", "_transit", "_occ_start", "_pushed", "_popped",
        "_stall_probability", "_stall_rng", "_stalled", "stats",
        "telemetry", "_design_owner", "_faults",
        "_wake_gates", "_slot", "_skip_from", "_pop_gate",
    )

    def __init__(
        self,
        sim,
        clock,
        *,
        kind: str,
        capacity: int,
        extra_latency: int = 0,
        name: Optional[str] = None,
    ):
        if capacity < 1:
            raise ValueError(f"channel capacity must be >= 1, got {capacity}")
        if extra_latency < 0:
            raise ValueError("extra_latency must be >= 0")
        self.sim = sim
        self.clock = clock
        default = name is None
        if default:
            name = self.DEFAULT_NAMES.get(kind, "chan")
        self.name = name
        self.kind = kind
        # Register into the owning scope of the design hierarchy; the
        # claim dedups the name (``chan``, ``chan_1``, …) so telemetry
        # and VCD keys never silently merge two channels' stats.
        self._design_owner = None
        design = getattr(sim, "design", None)
        if design is not None:
            self.name = design.register_channel(self, name, default=default)
        self.capacity = capacity
        self.extra_latency = extra_latency
        self._queue: deque = deque()
        self._transit: deque = deque()  # (ready_cycle, msg) retiming stages
        self._occ_start = 0
        self._pushed = False
        self._popped = False
        self._stall_probability = 0.0
        self._stall_rng: Optional[random.Random] = None
        self._stalled = False
        # Fault-injection hook (see repro.faults.plan.ChannelFaults).
        # None by default: the hot path pays one attribute load.
        self._faults = None
        # What a pop blocked on this channel while parked waits on (see
        # In.pop): the first of the consumer Gates this channel's tick
        # opens when it leaves data visible (see add_wake_gate); its
        # skipped polls are refused pops.
        self._pop_gate = Gate()
        self._pop_gate.idle_pops(self)
        self._wake_gates = [self._pop_gate]
        # Park state (see Clock.on_edge): ``_skip_from`` is the cycle of
        # the last tick before the clock parked this empty channel, None
        # while it ticks every edge — one ``is None`` test on the push
        # path.  The clock stamps and clears it; ``_credit`` accounts the
        # skipped ticks when ``_rearm`` (or a run exit) catches up.
        self._skip_from = None
        self.stats = ChannelStats()
        # Opt-in occupancy/stall telemetry (None when the hub is off).
        hub = getattr(sim, "telemetry", None)
        self.telemetry = hub.register_channel(self) if hub is not None else None
        self._slot = clock.on_edge(self._tick)

    # ------------------------------------------------------------------
    # per-cycle update (runs before module threads at every posedge)
    # ------------------------------------------------------------------
    def _tick(self, clock) -> bool:
        # Hot path: runs once per channel per un-parked posedge; keep
        # attribute loads hoisted and branches cheap.
        queue = self._queue
        transit = self._transit
        if transit:
            cycles = clock.cycles
            while transit and transit[0][0] <= cycles:
                queue.append(transit.popleft()[1])
        if self.telemetry is not None:
            self.telemetry.on_cycle(len(queue), self._popped)
        self._occ_start = len(queue) + len(transit)
        self._pushed = False
        self._popped = False
        stats = self.stats
        if self._stall_probability > 0.0:
            self._stalled = self._stall_rng.random() < self._stall_probability
            if self._stalled:
                stats.stall_cycles += 1
        stats.cycles += 1
        stats.occupancy_sum += len(queue)
        if queue:
            # Data a pop would see: wake the consumers parked on it.
            if not self._stalled:
                for gate in self._wake_gates:
                    # Gate.open() inlined for the common case: nobody
                    # parked, so the next wait polls once.
                    if gate._waiters is None:
                        gate._open = True
                    else:
                        gate.open()
            return False
        # Quiescent: while empty, later ticks only count cycles and draw
        # stalls, which _credit reproduces in bulk — the clock parks us.
        return not transit and self._faults is None

    def _credit(self, n: int) -> None:
        """Account ``n`` skipped ticks of this empty channel, exactly.

        Each would have counted one cycle of zero occupancy and, with
        stall injection on, drawn once from the stall RNG.  While the
        queue is empty only the hit count and the last outcome of those
        draws are observable, so drawing them late leaves the RNG
        stream, every counter and every later pop bit-identical.
        """
        stats = self.stats
        stats.cycles += n
        probability = self._stall_probability
        if probability > 0.0:
            draw = self._stall_rng.random
            hits = 0
            for _ in range(n):
                stalled = draw() < probability
                hits += stalled
            self._stalled = stalled
            stats.stall_cycles += hits
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.cycles += n
            hist = telemetry.occupancy_hist
            hist[0] = hist.get(0, 0) + n

    def _rearm(self) -> None:
        """Resume ticking (state is about to re-enter a parked channel),
        first catching up on the ticks skipped under the old state."""
        skipped = self.clock._rearm(self._slot)
        if skipped:
            self._credit(skipped)

    # ------------------------------------------------------------------
    # port-side operations (called by In/Out ports inside module threads)
    # ------------------------------------------------------------------
    def can_push(self) -> bool:
        return (not self._pushed) and self._occ_start + 1 <= self.capacity

    def do_push(self, msg: Any) -> bool:
        stats = self.stats
        stats.push_attempts += 1
        # inlined can_push()
        if self._pushed or self._occ_start + 1 > self.capacity:
            stats.push_rejections += 1
            if self.telemetry is not None:
                self.telemetry.on_push_rejected()
            return False
        self._pushed = True
        if self._skip_from is not None:
            self._rearm()  # before the fault hook: a dropped push ticks too
        faults = self._faults
        if faults is not None:
            action, msg = faults.on_push(msg)
            if action == 1:  # drop: accepted by the handshake, then lost
                return True
        # +1 models the one-cycle handshake; extra_latency adds retiming.
        ready = self.clock.cycles + 1 + self.extra_latency
        self._transit.append((ready, msg))
        self._occ_start += 1
        if faults is not None and action == 2:  # duplicate
            self._transit.append((ready, msg))
            self._occ_start += 1
        return True

    def can_pop(self) -> bool:
        return (not self._popped) and (not self._stalled) and bool(self._queue)

    def do_pop(self) -> tuple[bool, Any]:
        stats = self.stats
        stats.pop_attempts += 1
        # inlined can_pop()
        if self._popped or self._stalled or not self._queue:
            stats.pop_rejections += 1
            return False, None
        self._popped = True
        stats.transfers += 1
        return True, self._queue.popleft()

    def _refused_pops(self, n: int) -> None:
        """``n`` polls a consumer parked on a gate of this channel skipped
        (see ``Gate.idle_pops``): all refused, since the gate opens at
        the first tick that leaves data a pop would see."""
        stats = self.stats
        stats.pop_attempts += n
        stats.pop_rejections += n

    def peek(self) -> tuple[bool, Any]:
        """Non-destructive inspection of the head message."""
        if self._stalled or not self._queue:
            return False, None
        return True, self._queue[0]

    # ------------------------------------------------------------------
    # verification hooks (section 2.3: random stall injection)
    # ------------------------------------------------------------------
    def set_stall(self, probability: float, *, seed: int = 0) -> None:
        """Randomly withhold valid with the given per-cycle probability.

        This is the paper's verification hook: modified timing of unit
        interactions without changing design or testbench code.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"stall probability must be in [0,1], got {probability}")
        if self._skip_from is not None:
            self._rearm()  # skipped ticks drew from the old schedule
        self._stall_probability = probability
        if probability > 0.0:
            self._stall_rng = random.Random(seed)
        else:
            # Full reset: probability 0 restores the pristine state.
            self._stall_rng = None
            self._stalled = False

    # ------------------------------------------------------------------
    # snapshot state protocol (see repro.kernel.snapshot)
    # ------------------------------------------------------------------
    def _snapshot_state(self) -> dict:
        """Everything mutable a restore must rewind (config included:
        warm sweeps mutate capacity/stall/latency per point and rely on
        restore to reset them)."""
        stats = self.stats
        faults = self._faults
        return {
            "capacity": self.capacity,
            "extra_latency": self.extra_latency,
            "queue": tuple(self._queue),
            "transit": tuple(self._transit),
            "occ_start": self._occ_start,
            "pushed": self._pushed,
            "popped": self._popped,
            "stall_probability": self._stall_probability,
            "stall_rng": (self._stall_rng.getstate()
                          if self._stall_rng is not None else None),
            "stalled": self._stalled,
            "stats": (stats.transfers, stats.push_attempts,
                      stats.pop_attempts, stats.push_rejections,
                      stats.pop_rejections, stats.stall_cycles,
                      stats.occupancy_sum, stats.cycles),
            "faults": ((faults, faults._snapshot_state())
                       if faults is not None else None),
        }

    def _restore_state(self, state: dict) -> None:
        if self._skip_from is not None:
            # The restored state may not be an empty one.  No credit:
            # the stats are overwritten below and the last run exit
            # settled everything else.
            self.clock._rearm(self._slot)
        self.capacity = state["capacity"]
        self.extra_latency = state["extra_latency"]
        self._queue.clear()
        self._queue.extend(state["queue"])
        self._transit.clear()
        self._transit.extend(state["transit"])
        self._occ_start = state["occ_start"]
        self._pushed = state["pushed"]
        self._popped = state["popped"]
        self._stall_probability = state["stall_probability"]
        rng_state = state["stall_rng"]
        if rng_state is None:
            self._stall_rng = None
        else:
            if self._stall_rng is None:
                self._stall_rng = random.Random()
            self._stall_rng.setstate(rng_state)
        self._stalled = state["stalled"]
        stats = self.stats
        (stats.transfers, stats.push_attempts, stats.pop_attempts,
         stats.push_rejections, stats.pop_rejections, stats.stall_cycles,
         stats.occupancy_sum, stats.cycles) = state["stats"]
        fault_state = state["faults"]
        if fault_state is None:
            self._faults = None
        else:
            self._faults = fault_state[0]
            self._faults._restore_state(fault_state[1])

    def add_wake_gate(self, gate) -> None:
        """Register a consumer's :class:`~repro.kernel.Gate`.

        Every tick that leaves the queue non-empty and unstalled opens
        the registered gates (the channel's own pop gate first) —
        exactly when a polling consumer would first observe the message
        — so a consumer parked on its gate wakes at the cycle its poll
        would have found the data, under either executor.
        """
        if gate not in self._wake_gates:
            self._wake_gates.append(gate)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Messages currently stored (committed + in transit)."""
        return len(self._queue) + len(self._transit)

    @property
    def path(self) -> str:
        """Full hierarchical dotted path (equals ``name`` at root scope)."""
        owner = self._design_owner
        return owner.join(self.name) if owner is not None else self.name

    def __len__(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FastChannel({self.path!r}, kind={self.kind}, occ={self.occupancy})"


def Combinational(sim, clock, *, name: Optional[str] = None,
                  extra_latency: int = 0) -> FastChannel:
    """Combinationally connects ports (Table 1).

    Zero storage in hardware; the fast model uses a 2-entry skid so that
    steady-state throughput is one message per cycle.
    """
    return FastChannel(sim, clock, kind="Combinational", capacity=2,
                       extra_latency=extra_latency, name=name)


def Bypass(sim, clock, *, capacity: int = 1, name: Optional[str] = None,
           extra_latency: int = 0) -> FastChannel:
    """Enables DEQ when empty (Table 1): cuts the ready timing path."""
    return FastChannel(sim, clock, kind="Bypass", capacity=max(capacity, 2),
                       extra_latency=extra_latency, name=name)


def Pipeline(sim, clock, *, capacity: int = 1, name: Optional[str] = None,
             extra_latency: int = 0) -> FastChannel:
    """Enables ENQ when full (Table 1): cuts the valid timing path."""
    return FastChannel(sim, clock, kind="Pipeline", capacity=capacity + 1,
                       extra_latency=extra_latency, name=name)


def Buffer(sim, clock, *, capacity: int = 8, name: Optional[str] = None,
           extra_latency: int = 0) -> FastChannel:
    """FIFO channel of ``capacity`` entries (Table 1)."""
    return FastChannel(sim, clock, kind="Buffer", capacity=capacity,
                       extra_latency=extra_latency, name=name)
