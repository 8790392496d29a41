"""Lowering: compile a :class:`DesignGraph` into a static node schedule.

This is the front half of the compiled simulation backend
(``docs/COMPILED_BACKEND.md``).  Elaboration already produced an
explicit graph of the design — instances, channel endpoints, clock
domains.  Lowering re-expresses that graph as the *event/dataflow graph
the dispatch loop executes*:

* **nodes** — the periodic clock edge, one node per channel core
  (its per-cycle ``_tick``), and one node per kernel thread;
* **edges** — data/handshake dependencies: producer thread → channel
  (push side) and channel → consumer thread (pop side), taken from the
  elaborated endpoint sets;
* **schedule** — the static per-edge dispatch order.  It mirrors the
  threaded kernel exactly: the clock edge fires, then every channel
  core ticks in registration order, then threads resume in wakeup
  order.  The compiled engine (:mod:`repro.compile.engine`) executes
  this order with idle nodes elided.

Channel nodes are classified **managed** (a
:class:`~repro.connections.channel.FastChannel` whose tick the engine
may skip while provably idle) or **unmanaged** (any other per-edge
callback — e.g. an RTL adapter channel — which the engine must run
every cycle).  Thread nodes record the gate-based handshake edges used
for parking, so ``schedule.describe()`` shows exactly which
dependencies wake which node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from .elaborate import DesignGraph, elaborate

__all__ = ["ChannelNode", "ThreadNode", "NodeSchedule", "edge_callbacks",
           "lower"]


@dataclass
class ChannelNode:
    """One channel core in the static schedule (its per-cycle tick)."""

    channel: Any
    path: str
    kind: str
    managed: bool                 # tick elidable while provably idle
    consumers: List[str] = field(default_factory=list)  # thread paths woken


@dataclass
class ThreadNode:
    """One kernel thread in the static schedule."""

    thread: Any
    path: str
    parkable: bool                # owns a Gate (idle iterations elidable)


@dataclass
class NodeSchedule:
    """The static event/dataflow graph a compiled run executes.

    ``channels`` is in clock-callback registration order (the tick
    phase's dispatch order); ``threads`` is in registration order (the
    initial wakeup-bucket order).  ``unmanaged_callbacks`` are per-edge
    callbacks the engine runs unconditionally every cycle.
    """

    clock: Any
    channels: List[ChannelNode]
    threads: List[ThreadNode]
    unmanaged_callbacks: List[Callable]
    edges: List[tuple]            # (src node path, dst node path, kind)
    callback_count: int           # len(clock._callbacks) at lowering time

    @property
    def managed_channels(self) -> List[Any]:
        return [node.channel for node in self.channels if node.managed]

    def stats(self) -> dict:
        return {
            "clock": self.clock.name,
            "channel_nodes": len(self.channels),
            "managed": sum(1 for n in self.channels if n.managed),
            "unmanaged_callbacks": len(self.unmanaged_callbacks),
            "thread_nodes": len(self.threads),
            "parkable": sum(1 for n in self.threads if n.parkable),
            "edges": len(self.edges),
        }

    def describe(self, *, max_rows: Optional[int] = None) -> str:
        """Human-readable schedule dump (``docs/COMPILED_BACKEND.md``)."""
        s = self.stats()
        lines = [
            f"clock {s['clock']}: period {self.clock.period}",
            f"phase 1  edge      1 clock node",
            f"phase 2  ticks     {s['channel_nodes']} channel nodes "
            f"({s['managed']} managed, "
            f"{s['unmanaged_callbacks']} unmanaged callbacks)",
            f"phase 3  threads   {s['thread_nodes']} thread nodes "
            f"({s['parkable']} parkable)",
            f"handshake edges    {s['edges']}",
        ]
        rows = self.edges if max_rows is None else self.edges[:max_rows]
        for src, dst, kind in rows:
            lines.append(f"  {src} -> {dst}  [{kind}]")
        if max_rows is not None and len(self.edges) > max_rows:
            lines.append(f"  ... {len(self.edges) - max_rows} more")
        return "\n".join(lines)


def _thread_paths(graph: DesignGraph) -> dict:
    """Map each registered kernel thread to its hierarchical path."""
    paths: dict = {}
    for inst in graph.instances:
        for thread in inst.threads:
            paths[id(thread)] = inst.join(getattr(thread, "name", "thread"))
    return paths


def edge_callbacks(clock):
    """Yield ``(callback, channel, name)`` per per-edge callback of
    ``clock``, in tick order: ``channel`` is the FastChannel whose tick
    the callback is (managed), or None for any other callback, which
    ``name`` then labels."""
    from ..connections.channel import FastChannel

    for cb in clock._callbacks:
        owner = getattr(cb, "__self__", None)
        if isinstance(owner, FastChannel) and cb.__name__ == "_tick":
            yield cb, owner, None
        else:
            yield cb, None, str(getattr(owner, "name", None)
                                or getattr(cb, "__name__", repr(cb)))


def lower(sim, graph: Optional[DesignGraph] = None) -> NodeSchedule:
    """Lower an elaborated design to its static node schedule.

    Requires a design with exactly one fast-lane (periodic, generator-
    free) clock — the compiled backend's structural precondition; the
    capability check in :mod:`repro.compile.capability` reports richer
    reasons for the general case.
    """
    if len(sim._fast_clocks) != 1:
        raise ValueError(
            f"lowering needs exactly one fast-lane clock, design has "
            f"{len(sim._fast_clocks)}")
    clock = sim._fast_clocks[0]
    if graph is None:
        graph = elaborate(sim)
    thread_paths = _thread_paths(graph)

    # Channel records by object identity, for callback classification.
    records = {id(rec.channel): rec for rec in graph.channels}

    channels: List[ChannelNode] = []
    unmanaged: List[Callable] = []
    for cb, owner, name in edge_callbacks(clock):
        if owner is not None:
            rec = records.get(id(owner))
            path = rec.path if rec is not None else owner.path
            consumers = ([p.owner.path for p in rec.consumers]
                         if rec is not None else [])
            channels.append(ChannelNode(channel=owner, path=path,
                                        kind=owner.kind, managed=True,
                                        consumers=consumers))
        else:
            unmanaged.append(cb)
            owner = getattr(cb, "__self__", None)
            channels.append(ChannelNode(channel=owner, path=name,
                                        kind=type(owner).__name__
                                        if owner is not None else "callback",
                                        managed=False))

    threads: List[ThreadNode] = []
    for thread in sim._threads:
        path = thread_paths.get(id(thread), thread.name)
        owner = getattr(thread.gen, "gi_frame", None)
        parkable = False
        if owner is not None and owner.f_locals:
            inst = owner.f_locals.get("self")
            parkable = getattr(inst, "_gate", None) is not None
        threads.append(ThreadNode(thread=thread, path=path,
                                  parkable=parkable))

    edges: List[tuple] = []
    for rec in graph.channels:
        for src in rec.producers:
            edges.append((src.owner.path, rec.path, "push"))
        for dst in rec.consumers:
            edges.append((rec.path, dst.owner.path, "pop"))

    return NodeSchedule(clock=clock, channels=channels, threads=threads,
                        unmanaged_callbacks=unmanaged, edges=edges,
                        callback_count=len(clock._callbacks))
