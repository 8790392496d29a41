"""Lowering: the design's static tick and resume order, by instance path.

Elaboration produced an explicit graph of the design — instances,
channel endpoints, clock domains.  Lowering re-expresses the part of it
a per-edge executor walks, in the order the threaded kernel walks it:

* **channel nodes** — one per per-edge callback of the design's one
  periodic clock, in registration (tick) order.  A node is **managed**
  when the callback is a :class:`~repro.connections.channel.FastChannel`
  tick, and unmanaged for any other callback (an RTL adapter channel, a
  netlist activity counter);
* **thread nodes** — one per kernel thread, in registration (initial
  wakeup) order.

Trace capture (:mod:`repro.trace.capture`) indexes its op scripts by
these nodes.  The compiled backend needs none of it: its engine walks
the clock's own callback list and wakeup buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from .elaborate import DesignGraph, elaborate

__all__ = ["ChannelNode", "ThreadNode", "NodeSchedule", "edge_callbacks",
           "lower"]


@dataclass
class ChannelNode:
    """One per-edge callback of the clock, in tick order."""

    channel: Any                  # the callback's owner
    path: str
    managed: bool                 # a FastChannel tick


@dataclass
class ThreadNode:
    """One kernel thread, in registration order."""

    thread: Any
    path: str


@dataclass
class NodeSchedule:
    """Channel nodes in tick order, thread nodes in registration order."""

    channels: List[ChannelNode]
    threads: List[ThreadNode]


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
    """Lower an elaborated design to its channel and thread nodes.

    Requires a design with exactly one fast-lane (periodic, generator-
    free) clock; the capability table (:mod:`repro.kernel.capability`)
    reports richer reasons for the general case.
    """
    if len(sim._fast_clocks) != 1:
        raise ValueError(
            f"lowering needs exactly one fast-lane clock, design has "
            f"{len(sim._fast_clocks)}")
    if graph is None:
        graph = elaborate(sim)
    channel_paths = {id(rec.channel): rec.path for rec in graph.channels}
    thread_paths = {id(thread): inst.join(getattr(thread, "name", "thread"))
                    for inst in graph.instances for thread in inst.threads}

    channels = []
    for cb, owner, name in edge_callbacks(sim._fast_clocks[0]):
        if owner is not None:
            channels.append(ChannelNode(
                owner, channel_paths.get(id(owner), owner.path), True))
        else:
            channels.append(ChannelNode(getattr(cb, "__self__", None), name,
                                        False))
    threads = [ThreadNode(thread, thread_paths.get(id(thread), thread.name))
               for thread in sim._threads]
    return NodeSchedule(channels=channels, threads=threads)
