"""Differential oracle for the graph-compiled backend.

The contract (see ``docs/COMPILED_BACKEND.md``) is that
``backend="compiled"`` is *observably identical* to the threaded
reference kernel: every cycle count, every statistic, every telemetry
counter — only wall-clock time may differ.  These tests enforce that
contract across all nine registered experiment verbs, plus the
fallback paths (capability rejection, instrumentation attach) and the
sweep-cache identity rules.

Experiments here run at reduced sizes so the whole file stays in
tier-1 time budgets; the byte-identity argument does not depend on
size (the resume-order proof in ``repro/compile/engine.py`` is
per-cycle, not per-workload).
"""

from __future__ import annotations

import pytest

from repro.kernel.backend import last_run, use_backend
from repro.sweep.serialize import NONDETERMINISTIC_FIELDS, to_jsonable


def _run_both(fn):
    """Run ``fn`` under both backends; return comparable payloads."""
    with use_backend("threaded"):
        threaded = fn()
    with use_backend("compiled"):
        compiled = fn()
    return (to_jsonable(threaded, exclude=NONDETERMINISTIC_FIELDS),
            to_jsonable(compiled, exclude=NONDETERMINISTIC_FIELDS))


def _assert_identical(fn):
    threaded, compiled = _run_both(fn)
    assert threaded == compiled


# ----------------------------------------------------------------------
# one differential test per CLI verb (python -m repro <verb>)
# ----------------------------------------------------------------------
def test_fig3_identical():
    from repro.experiments import figure3

    _assert_identical(lambda: figure3(ports=(2, 4), txns_per_port=15,
                                      seed=1))


def test_fig6_identical():
    from repro.experiments import figure6
    from repro.workloads.soc_workloads import (
        memcpy_workload,
        vector_scale_workload,
    )

    workloads = [vector_scale_workload(n_pes=2, n_per_pe=8),
                 memcpy_workload(n_pes=2, n_per_pe=8)]
    _assert_identical(lambda: figure6(workloads=workloads))


def test_pe_scaling_identical_and_compiled_engages():
    """The flagship sweep: must be identical AND actually compiled."""
    from repro.experiments.fig6_soc import run_pe_scaling_point

    def run():
        return [run_pe_scaling_point(
            {"n_pes": n, "n_per_pe": 64, "mode": "fast"}, 0)
            for n in (1, 2, 4)]

    threaded, compiled = _run_both(run)
    assert threaded == compiled
    # The provenance record proves the compiled engine really ran —
    # a silent fallback would make the comparison vacuous.
    assert last_run() == ("compiled", None)


def test_crossbar_qor_identical():
    from repro.experiments import crossbar_clock_sweep, crossbar_qor_sweep

    _assert_identical(lambda: {"lane_sweep": crossbar_qor_sweep(),
                               "clock_sweep": crossbar_clock_sweep()})


def test_hls_qor_identical():
    from repro.experiments import bad_constraint_ablation, hls_vs_hand_qor

    _assert_identical(lambda: {"hls_vs_hand": hls_vs_hand_qor(),
                               "bad_constraints": bad_constraint_ablation()})


def test_gals_identical():
    from repro.experiments import partition_size_sweep, testchip_overhead

    _assert_identical(lambda: {"partition_sweep": partition_size_sweep(),
                               "testchip": testchip_overhead()})


def test_adaptive_clocking_identical():
    from repro.experiments import adaptive_clocking_experiment

    _assert_identical(adaptive_clocking_experiment)


def test_stalls_identical():
    from repro.experiments import stall_campaign

    _assert_identical(lambda: stall_campaign(0.3, trials=3, base_seed=7))


def test_backend_turnaround_identical():
    from repro.flow import (
        FlowRuntimeModel,
        inventory_partitions,
        testchip_inventory,
    )

    def run():
        model = FlowRuntimeModel()
        parts = inventory_partitions(testchip_inventory())
        return {"gals": model.turnaround(parts, gals=True),
                "synchronous": model.turnaround(parts, gals=False),
                "flat_hours": model.flat_hours(parts)}

    _assert_identical(run)


def test_productivity_identical():
    from repro.flow import (
        OOHLS_METHODOLOGY,
        RTL_METHODOLOGY,
        inventory_efforts,
        productivity_report,
        testchip_inventory,
    )

    def run():
        efforts = inventory_efforts(testchip_inventory())
        return {"oohls": productivity_report(efforts, OOHLS_METHODOLOGY),
                "rtl": productivity_report(efforts, RTL_METHODOLOGY)}

    _assert_identical(run)


# ----------------------------------------------------------------------
# fallback paths: ineligible designs and instrumentation
# ----------------------------------------------------------------------
def test_capability_rejection_falls_back_with_reason():
    """A design outside the capability proof runs threaded, recorded."""
    from repro.experiments import figure3

    with use_backend("threaded"):
        reference = figure3(ports=(2,), txns_per_port=10, seed=1)
    with use_backend("compiled"):
        result = figure3(ports=(2,), txns_per_port=10, seed=1)
    backend, reason = last_run()
    assert backend == "threaded"
    assert reason is not None  # the *why* is part of the contract
    assert (to_jsonable(result, exclude=NONDETERMINISTIC_FIELDS)
            == to_jsonable(reference, exclude=NONDETERMINISTIC_FIELDS))


def test_telemetry_attach_falls_back_and_matches():
    """A telemetry hub needs the instrumented delta loop: compiled
    detaches, results (including telemetry counters) stay identical."""
    from repro import observe
    from repro.experiments.fig6_soc import run_pe_scaling_point

    params = {"n_pes": 2, "n_per_pe": 32, "mode": "fast"}

    with use_backend("threaded"), observe.capture() as ref_session:
        reference = run_pe_scaling_point(dict(params), 0)
    ref_records = observe.to_records(ref_session.report(label="pt"))

    with use_backend("compiled"), observe.capture() as session:
        result = run_pe_scaling_point(dict(params), 0)
    records = observe.to_records(session.report(label="pt"))

    backend, reason = last_run()
    assert backend == "threaded"
    assert reason is not None and "telemetry" in reason
    assert result == reference
    assert (to_jsonable(records, exclude=NONDETERMINISTIC_FIELDS)
            == to_jsonable(ref_records, exclude=NONDETERMINISTIC_FIELDS))


def test_attach_builds_no_design_graph(monkeypatch):
    """Attach is the capability check alone: with elaboration and
    lowering made to fail, a fast-mode SoC program still runs compiled
    and matches the threaded kernel byte for byte."""
    from importlib import import_module

    from repro.workloads import run_workload, vector_scale_workload

    workload = vector_scale_workload(n_pes=2, n_per_pe=16)

    def run():
        soc = run_workload(workload, mode="fast")
        channels = [chan for inst in soc.sim.design.root.walk()
                    for chan in inst.channels]
        observed = {"cycles": soc.elapsed_cycles, "now": soc.sim.now,
                    "stats": [{name: getattr(chan.stats, name)
                               for name in type(chan.stats).__slots__}
                              for chan in channels]}
        return soc.sim, observed

    with use_backend("threaded"):
        _, reference = run()

    def refuse(*args, **kwargs):
        raise RuntimeError("attach must not build a design graph")

    # The package re-exports both functions over their module names.
    monkeypatch.setattr(import_module("repro.design.lower"), "lower", refuse)
    monkeypatch.setattr(import_module("repro.design.elaborate"), "elaborate",
                        refuse)
    with use_backend("compiled"):
        sim, observed = run()
    assert sim.backend == "compiled"
    assert sim.backend_fallback_reason is None
    assert observed == reference


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        with use_backend("jit"):
            pass  # pragma: no cover - use_backend raises before the body


# ----------------------------------------------------------------------
# sweep integration: cache identity and end-to-end point execution
# ----------------------------------------------------------------------
def test_sweep_point_default_backend_keeps_cache_keys():
    """Points predating the backend field must stay cache-addressable."""
    from repro.sweep.point import SweepPoint

    point = SweepPoint("pe_scaling", {"n_pes": 2}, seed=3)
    assert point.backend == "threaded"
    assert "backend" not in point.identity()


def test_sweep_point_compiled_backend_enters_cache_key():
    from repro.sweep.point import SweepPoint

    threaded = SweepPoint("pe_scaling", {"n_pes": 2}, seed=3)
    compiled = SweepPoint("pe_scaling", {"n_pes": 2}, seed=3,
                          backend="compiled")
    assert compiled.identity()["backend"] == "compiled"
    assert threaded.canonical() != compiled.canonical()


def test_sweep_executes_compiled_points_identically():
    from repro.jobs import JobRequest, execute
    from repro.sweep.point import SweepPoint

    params = {"n_pes": 2, "n_per_pe": 32, "mode": "fast"}
    threaded = execute(JobRequest.from_point(
        SweepPoint("pe_scaling", params, seed=0)))
    compiled = execute(JobRequest.from_point(
        SweepPoint("pe_scaling", params, seed=0, backend="compiled")))
    assert threaded.payload == compiled.payload
    assert last_run() == ("compiled", None)
