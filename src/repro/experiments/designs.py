"""Design builders: construct each experiment's design without running it.

.. deprecated::
    This module is now a thin view over :mod:`repro.registry` — the
    manifest (:mod:`repro.catalog`) declares each experiment's design
    builder on its :class:`~repro.registry.ExperimentSpec` and this
    registry is derived from those specs.  ``DESIGN_BUILDERS`` and :func:`build_design` keep
    their exact historical surface for existing imports; new code should
    use ``registry.get(name).design`` / ``registry.build_design``.
    The alias is slated for removal once nothing in-tree imports it
    (tracked in ``docs/REGISTRY.md``).

``python -m repro inspect <experiment>`` and ``python -m repro lint
<experiment>`` need a *constructed* simulator — elaboration and lint are
pre-run passes over the design hierarchy, never a simulation.  The
builders assemble a representative instance of each experiment's design
(cheap: construction only, no ``sim.run``) and return the
:class:`~repro.kernel.Simulator`.  Experiments that are purely analytic
(QoR models, flow-runtime models) have no simulated design; their entry
is ``None`` and the CLI reports that instead of failing.

Usage::

    from repro.design import elaborate, lint
    from repro.experiments.designs import build_design

    sim = build_design("fig3")
    print(elaborate(sim).tree())
    assert not lint(sim)
"""

from __future__ import annotations

from ..registry import build_design, design_builders_view

__all__ = ["DESIGN_BUILDERS", "build_design"]

#: Experiment verb -> design builder (``None`` = analytic, no design).
#: A live read-through view of the experiment registry.
DESIGN_BUILDERS = design_builders_view()
