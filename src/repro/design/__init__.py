"""repro.design — design hierarchy, elaboration, and static lint.

The paper's whole pitch is *modular composition*: an SoC assembled from
reusable MatchLib/Connections components by a push-button flow.  This
package is the reproduction's structural backbone for that claim — the
layer that knows **what was built**, separate from the kernel that knows
how to simulate it:

* :mod:`.hierarchy` — a parent-scoped :class:`Instance` tree.  Every
  component constructor opens a :meth:`Hierarchy.scope`, so channels,
  ports, threads, clocks, and signals all acquire a stable dotted
  instance path (``chip.pe3.spad`` …).  Objects built outside any scope
  land in a compatibility root, so pre-hierarchy constructor call
  styles keep working unchanged.
* :mod:`.elaborate` — the one-time, pre-run **elaboration pass**: walks
  the hierarchy into a queryable :class:`DesignGraph` (instances, port
  endpoints, channel connectivity, clock domains).
* :mod:`.lower` — the **lowering pass** trace capture
  (:mod:`repro.trace.capture`) indexes its op scripts by: channel ticks
  in tick order and threads in registration order, each with its
  instance path.
* :mod:`.lint` — static checks over the design graph: unbound ports,
  dangling channels, duplicate explicit names, multi-driver channels,
  unsynchronized clock-domain crossings, and channel-cycle (potential
  deadlock) detection.

Nothing here runs on the simulation hot path: registration happens at
construction time and elaboration is a single pre-run walk.

Usage::

    from repro.design import elaborate, lint

    sim = Simulator()
    ... build the design ...
    graph = elaborate(sim)
    print(graph.tree())
    for finding in lint(sim):
        print(finding)

From the command line, ``python -m repro inspect <experiment>`` prints
the hierarchy tree and ``python -m repro lint <experiment>`` runs every
rule (see ``docs/DESIGN_GRAPH.md``).
"""

from .hierarchy import (Hierarchy, Instance, component_scope, current_scope,
                        design_path)
from .elaborate import ChannelRecord, DesignGraph, PortRecord, elaborate
from .lint import LINT_RULES, LintFinding, format_findings, lint, lint_graph
from .lower import ChannelNode, NodeSchedule, ThreadNode, lower

__all__ = [
    "Hierarchy",
    "Instance",
    "component_scope",
    "current_scope",
    "design_path",
    "DesignGraph",
    "ChannelRecord",
    "PortRecord",
    "elaborate",
    "lower",
    "NodeSchedule",
    "ChannelNode",
    "ThreadNode",
    "LintFinding",
    "LINT_RULES",
    "lint",
    "lint_graph",
    "format_findings",
]
