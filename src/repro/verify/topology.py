"""Generated design topologies: spec, golden model, and builder.

The verification campaigns need *legal* random designs — lint-clean by
construction, deterministic, and provably live — so the strategies draw
declarative :class:`TopologySpec` values and this module turns them
into simulations.  The family is a layered **in-forest** of LI
dataflow:

* layer 0: sources, each streaming a fixed packet list into one channel;
* middle layers: units that merge their input channels (statically
  scheduled round-robin), add a per-unit constant, and forward into
  exactly one output channel;
* last layer: sinks that merge and record.

Every non-sink node drives exactly **one** output channel (no forks),
and every merge follows a pop schedule computed from the exact
per-input message counts (:func:`merge_schedule`).  That makes the
design deadlock-free by construction: the channel graph is an acyclic
forest, and no thread ever waits on a message that cannot arrive.
Forks are deliberately excluded — a round-robin fork feeding skewed
merges through bounded channels *can* deadlock, which would make hangs
an expected outcome rather than a bug signal.

Layers may live in different clock domains; domain crossings become
:class:`~repro.gals.GalsLink` bridges (CDC-safe, so the crossing lint
rule stays clean), everything else draws from the Table 1 channel
kinds.  :func:`golden_outputs` computes the expected sink sequences
with pure Python — the oracle the simulations are held to.

``inject`` seeds a deliberate bug for shrinking demos:

* ``"deadlock"`` — every sink with an input pops one message too many
  (re-enacting the deadlock fixture of the fault campaigns);
* ``"corrupt"`` — sinks record ``value ^ 1`` (silent data corruption).

This module imports no Hypothesis; strategies live in
:mod:`repro.verify.strategies`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..connections import Buffer, Bypass, Combinational, In, Out, Pipeline
from ..gals import GalsLink
from ..kernel import Simulator

__all__ = [
    "ChannelSpec",
    "TopologySpec",
    "BuiltTopology",
    "merge_schedule",
    "node_inputs",
    "edge_sequences",
    "golden_outputs",
    "validate",
    "build_topology",
    "INJECT_MODES",
]

#: Table 1 channel kinds a generated edge may use.
CHANNEL_KINDS = ("buffer", "bypass", "pipeline", "comb")

INJECT_MODES = (None, "none", "deadlock", "corrupt")

_FACTORIES = {
    "buffer": Buffer,
    "bypass": Bypass,
    "pipeline": Pipeline,
}


@dataclass(frozen=True)
class ChannelSpec:
    """One generated edge's channel configuration."""

    kind: str = "buffer"
    capacity: int = 2
    extra_latency: int = 0


@dataclass(frozen=True)
class TopologySpec:
    """Declarative layered in-forest design (see module docstring).

    ``consumers[i][j]`` names the layer ``i+1`` node fed by node ``j``
    of layer ``i`` — one entry per producer, so fan-out is exactly one
    and the graph is a forest by construction.  ``streams`` carries the
    per-source packet lists, ``addends`` the per-unit constants.
    """

    periods: Tuple[int, ...] = (10,)
    domains: Tuple[int, ...] = (0, 0)
    widths: Tuple[int, ...] = (1, 1)
    consumers: Tuple[Tuple[int, ...], ...] = ((0,),)
    channels: Tuple[Tuple[ChannelSpec, ...], ...] = ((ChannelSpec(),),)
    streams: Tuple[Tuple[int, ...], ...] = ((1, 2, 3),)
    addends: Tuple[Tuple[int, ...], ...] = ()

    @property
    def n_layers(self) -> int:
        return len(self.widths)

    @property
    def total_messages(self) -> int:
        return sum(len(s) for s in self.streams)

    def describe(self) -> dict:
        """A JSON-friendly summary (counterexample reports)."""
        return {
            "periods": list(self.periods),
            "domains": list(self.domains),
            "widths": list(self.widths),
            "consumers": [list(c) for c in self.consumers],
            "channels": [[[c.kind, c.capacity, c.extra_latency]
                          for c in layer] for layer in self.channels],
            "streams": [list(s) for s in self.streams],
            "addends": [list(a) for a in self.addends],
        }


def validate(spec: TopologySpec) -> None:
    """Raise ``ValueError`` on a malformed spec (strategy sanity net)."""
    if len(spec.widths) < 2:
        raise ValueError("need at least a source and a sink layer")
    if any(w < 1 for w in spec.widths):
        raise ValueError("every layer needs at least one node")
    if len(spec.domains) != len(spec.widths):
        raise ValueError("one domain per layer")
    if any(not 0 <= d < len(spec.periods) for d in spec.domains):
        raise ValueError("layer domain out of range")
    if len(spec.consumers) != len(spec.widths) - 1:
        raise ValueError("one consumer row per producing layer")
    if len(spec.channels) != len(spec.widths) - 1:
        raise ValueError("one channel row per producing layer")
    for i, row in enumerate(spec.consumers):
        if len(row) != spec.widths[i]:
            raise ValueError(f"consumer row {i} width mismatch")
        if any(not 0 <= k < spec.widths[i + 1] for k in row):
            raise ValueError(f"consumer row {i} target out of range")
        if len(spec.channels[i]) != spec.widths[i]:
            raise ValueError(f"channel row {i} width mismatch")
    for row in spec.channels:
        for chan in row:
            if chan.kind not in CHANNEL_KINDS:
                raise ValueError(f"unknown channel kind {chan.kind!r}")
            if chan.capacity < 1 or chan.extra_latency < 0:
                raise ValueError("bad channel capacity/latency")
    if len(spec.streams) != spec.widths[0]:
        raise ValueError("one stream per source")
    if len(spec.addends) != max(0, len(spec.widths) - 2):
        raise ValueError("one addend row per unit layer")
    for i, row in enumerate(spec.addends):
        if len(row) != spec.widths[i + 1]:
            raise ValueError(f"addend row {i} width mismatch")


def merge_schedule(counts: Tuple[int, ...]) -> Tuple[int, ...]:
    """Static round-robin pop order over inputs, skipping exhausted ones.

    ``counts[i]`` is the exact number of messages input ``i`` will
    carry; the schedule visits inputs round-robin but only while they
    still have messages, so a consumer following it never blocks on an
    input that is already dry.
    """
    remaining = list(counts)
    total = sum(remaining)
    schedule: List[int] = []
    idx = 0
    n = len(remaining)
    while len(schedule) < total:
        if remaining[idx] > 0:
            schedule.append(idx)
            remaining[idx] -= 1
        idx = (idx + 1) % n
    return tuple(schedule)


def node_inputs(spec: TopologySpec, layer: int, node: int) \
        -> Tuple[int, ...]:
    """Producer indices in ``layer - 1`` feeding ``(layer, node)``."""
    return tuple(j for j in range(spec.widths[layer - 1])
                 if spec.consumers[layer - 1][j] == node)


def edge_sequences(spec: TopologySpec) -> Dict[Tuple[int, int],
                                               Tuple[int, ...]]:
    """Message sequence carried by every edge ``(layer, producer)``."""
    seq: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for j, stream in enumerate(spec.streams):
        seq[(0, j)] = tuple(stream)
    for layer in range(1, spec.n_layers - 1):
        for node in range(spec.widths[layer]):
            merged = _merge_node(spec, seq, layer, node)
            addend = spec.addends[layer - 1][node]
            seq[(layer, node)] = tuple(v + addend for v in merged)
    return seq


def _merge_node(spec, seq, layer, node) -> Tuple[int, ...]:
    inputs = node_inputs(spec, layer, node)
    streams = [seq[(layer - 1, j)] for j in inputs]
    cursors = [0] * len(inputs)
    merged = []
    for idx in merge_schedule(tuple(len(s) for s in streams)):
        merged.append(streams[idx][cursors[idx]])
        cursors[idx] += 1
    return tuple(merged)


def golden_outputs(spec: TopologySpec) -> Tuple[Tuple[int, ...], ...]:
    """Expected recorded sequence per sink (pure-Python dataflow)."""
    seq = edge_sequences(spec)
    last = spec.n_layers - 1
    return tuple(_merge_node(spec, seq, last, node)
                 for node in range(spec.widths[last]))


@dataclass
class BuiltTopology:
    """A spec elaborated into a runnable simulation."""

    spec: TopologySpec
    sim: Simulator
    clocks: tuple
    #: Edge ``(layer, producer)`` -> channel object, insertion-ordered.
    channels: dict
    #: Dotted design paths of the same edges, same order (fault targets).
    paths: Tuple[str, ...]
    expected: Tuple[Tuple[int, ...], ...]
    got: Tuple[List[int], ...]
    #: Watchdog/run budget in cycles of ``clocks[0]``.
    cycle_budget: int
    _done: List[bool] = field(default_factory=list)

    def done(self) -> bool:
        """True once every sink has drained its schedule."""
        return all(self._done)

    def run(self, *, chunk: int = 128) -> None:
        """Run until every sink finishes or the cycle budget lapses.

        Chunked so GALS fifo helper threads (which never terminate) do
        not keep the simulation alive after the payload work is done; the
        caller's watchdog, if any, fires inside the chunks.
        """
        clk = self.clocks[0]
        # One spare chunk past the budget so a budget-kind watchdog
        # check scheduled at the boundary still gets to run.
        limit = self.cycle_budget + 2 * chunk
        while not self.done() and clk.cycles < limit:
            self.sim.run_cycles(clk, chunk)


def _cycle_budget(spec: TopologySpec) -> int:
    # Worst case per delivered message: channel latency, merge-schedule
    # turn waits, and GALS crossing settle, all scaled by the slowest
    # domain's period ratio; plus headroom for generated stall bursts
    # (starts <= 200, lengths <= 300 in the strategies).
    ratio = max(spec.periods) // min(spec.periods) + 1
    hops = spec.total_messages * (spec.n_layers - 1)
    return 800 + 40 * ratio * max(1, hops)


def build_topology(spec: TopologySpec, *, inject: Optional[str] = None,
                   backend: Optional[str] = None) -> BuiltTopology:
    """Elaborate ``spec`` into a :class:`BuiltTopology`.

    All threads are factory-registered (snapshot- and compiled-backend
    eligible); channel/unit names are unique by construction so lint's
    duplicate-name rule cannot fire.
    """
    validate(spec)
    if inject not in INJECT_MODES:
        raise ValueError(f"unknown inject mode {inject!r}")
    inject = None if inject == "none" else inject
    sim = Simulator(backend=backend)
    clocks = tuple(sim.add_clock(f"clk{d}", period=p)
                   for d, p in enumerate(spec.periods))
    seq = edge_sequences(spec)
    expected = golden_outputs(spec)
    channels: dict = {}
    paths: List[str] = []
    got: Tuple[List[int], ...] = tuple([] for _ in range(spec.widths[-1]))
    done = [False] * spec.widths[-1]

    with sim.design.scope("top", kind="GeneratedTopology"):
        for layer in range(spec.n_layers - 1):
            dom_tx = spec.domains[layer]
            dom_rx = spec.domains[layer + 1]
            for j in range(spec.widths[layer]):
                cspec = spec.channels[layer][j]
                name = f"c{layer}_{j}"
                if dom_tx != dom_rx:
                    chan = GalsLink(sim, clocks[dom_tx], clocks[dom_rx],
                                    capacity=max(2, cspec.capacity),
                                    name=name)
                elif cspec.kind == "comb":
                    chan = Combinational(sim, clocks[dom_tx], name=name,
                                         extra_latency=cspec.extra_latency)
                else:
                    chan = _FACTORIES[cspec.kind](
                        sim, clocks[dom_tx], capacity=cspec.capacity,
                        extra_latency=cspec.extra_latency, name=name)
                channels[(layer, j)] = chan
                paths.append(f"top.{name}")

        for j, stream in enumerate(spec.streams):
            clk = clocks[spec.domains[0]]
            with sim.design.scope(f"src{j}", kind="Source", clock=clk):
                out = Out(channels[(0, j)], name="out")
                sim.add_thread(_source(out, tuple(stream)), clk,
                               name="ctl")

        for layer in range(1, spec.n_layers - 1):
            clk = clocks[spec.domains[layer]]
            for node in range(spec.widths[layer]):
                inputs = node_inputs(spec, layer, node)
                schedule = merge_schedule(
                    tuple(len(seq[(layer - 1, j)]) for j in inputs))
                with sim.design.scope(f"u{layer}_{node}", kind="Unit",
                                      clock=clk):
                    ins = tuple(In(channels[(layer - 1, j)],
                                   name=f"in{pos}")
                                for pos, j in enumerate(inputs))
                    out = Out(channels[(layer, node)], name="out")
                    sim.add_thread(
                        _unit(ins, out, schedule,
                              spec.addends[layer - 1][node]),
                        clk, name="ctl")

        last = spec.n_layers - 1
        clk = clocks[spec.domains[last]]
        for node in range(spec.widths[last]):
            inputs = node_inputs(spec, last, node)
            schedule = merge_schedule(
                tuple(len(seq[(last - 1, j)]) for j in inputs))
            with sim.design.scope(f"sink{node}", kind="Sink", clock=clk):
                ins = tuple(In(channels[(last - 1, j)], name=f"in{pos}")
                            for pos, j in enumerate(inputs))
                sim.add_thread(
                    _sink(ins, schedule, got[node], done, node, inject),
                    clk, name="ctl")

    return BuiltTopology(spec=spec, sim=sim, clocks=clocks,
                         channels=channels, paths=tuple(paths),
                         expected=expected, got=got,
                         cycle_budget=_cycle_budget(spec), _done=done)


def _source(out, stream):
    def factory():
        def run():
            for value in stream:
                yield from out.push(value)
        return run()
    return factory


def _unit(ins, out, schedule, addend):
    def factory():
        def run():
            for idx in schedule:
                value = yield from ins[idx].pop()
                yield from out.push(value + addend)
        return run()
    return factory


def _sink(ins, schedule, record, done, node, inject):
    def factory():
        def run():
            for idx in schedule:
                value = yield from ins[idx].pop()
                record.append(value ^ 1 if inject == "corrupt" else value)
            if inject == "deadlock" and ins:
                # The seeded bug: one pop beyond the schedule re-enacts
                # the deadlock fixture on a generated design.
                yield from ins[0].pop()
            done[node] = True
        return run()
    return factory
