"""Completeness checks for the unified experiment registry.

Every capability the CLI, sweep engine, and fault campaigns consume is
derived from :mod:`repro.registry`; these tests pin down the catalog's
shape so a missing registration fails loudly instead of silently
dropping an experiment from a verb.
"""

import dataclasses

import pytest

from repro import registry

#: The nine paper experiments plus adaptive-clocking and the generative
#: verification campaign, in `repro list` order — extend this when a new
#: experiment module registers a spec.
RUNNABLE = [
    "fig3", "fig6", "crossbar-qor", "hls-qor", "gals",
    "adaptive-clocking", "stalls", "li-latency", "backend",
    "productivity", "verify",
]
HIDDEN = ["packet_stream", "deadlock_demo", "fault_campaign"]


def test_catalog_lists_every_experiment_in_order():
    assert registry.names(runnable=True) == RUNNABLE


def test_hidden_specs_registered_but_not_runnable():
    all_names = registry.names(hidden=True)
    for name in HIDDEN:
        assert name in all_names
        assert not registry.get(name).runnable
    assert not set(HIDDEN) & set(registry.names())


@pytest.mark.parametrize("name", RUNNABLE)
def test_runnable_spec_is_complete(name):
    spec = registry.get(name)
    assert callable(spec.runner)
    assert callable(spec.formatter)
    assert spec.summary
    assert spec.schema and spec.schema_version >= 1
    # Runner and formatter compose for every runnable spec: that is the
    # contract `repro run` and the legacy verbs rely on.  (Execution is
    # covered by the CLI parity suite; here we only require presence.)
    caps = spec.capabilities()
    assert set(caps) == {"design", "sweep", "replay", "harness",
                        "compiled", "seedable", "schema", "warm"}


@pytest.mark.parametrize("name", registry.names(hidden=True))
def test_manifest_matches_the_code_it_points_at(name):
    """Every reference resolves, and what `repro list` / `describe`
    print from the manifest's plain values is what the resolved objects
    say — the catalog cannot promise a capability the code lacks."""
    from repro.faults.campaign import Harness
    from repro.trace.adapter import SweepAdapter

    spec = registry.get(name)
    for value in (spec.runner, spec.formatter, spec.design):
        assert value is None or callable(value)
    assert spec.runnable == (spec.runner is not None and not spec.hidden)
    assert spec.has_design == (spec.design is not None)
    assert spec.harness is None or isinstance(spec.harness, Harness)
    sweep = spec.sweep
    if sweep is not None:
        assert callable(sweep.space) and callable(sweep.runner)
        assert sweep.summarize is None or callable(sweep.summarize)
        assert sweep.adapter is None or isinstance(sweep.adapter,
                                                   SweepAdapter)
    # The listing, recomputed from the resolved objects alone.
    assert spec.capabilities() == {
        "design": spec.design is not None,
        "sweep": sweep.name if sweep else None,
        "replay": sweep.adapter.replay_kind
        if sweep and sweep.adapter else None,
        "warm": bool(sweep and sweep.adapter and sweep.adapter.warm),
        "harness": spec.harness.name if spec.harness else None,
        "compiled": spec.compiled,
        "seedable": spec.seedable,
        "schema": f"{spec.schema}/v{spec.schema_version}",
    }


def test_reference_needs_its_listing_value_beside_it():
    with pytest.raises(ValueError, match="harness_name must be declared"):
        registry.ExperimentSpec(name="probe", summary="probe",
                                harness="repro.faults.campaign:GALS_HARNESS")
    with pytest.raises(ValueError,
                       match="replay_kind / warm must be declared"):
        registry.SweepSpec(
            name="probe", help="probe", space=lambda **kw: [],
            runner=lambda p, s: {},
            adapter="repro.experiments.li_latency:SWEEP_ADAPTER")


def test_real_objects_describe_themselves():
    harness = registry.get_harness("packet_stream")
    spec = registry.ExperimentSpec(name="probe", summary="probe",
                                   harness=harness)
    assert spec.harness is harness
    assert spec.harness_name == "packet_stream"
    from dataclasses import replace

    adapter = registry.get_sweep("li_latency").adapter

    def listed(adapter):
        sweep = registry.SweepSpec(name="probe", help="probe",
                                   space=lambda **kw: [],
                                   runner=lambda p, s: {}, adapter=adapter)
        return sweep.replay_kind, sweep.warm

    assert listed(adapter) == ("trace", True)
    # The session half alone: warm, no replay.
    assert listed(replace(adapter, overrides=None, derive=None)) == \
        (None, True)
    assert listed(registry.get_sweep("gals_overhead").adapter) == \
        ("analytic", False)


def test_resolve_rejects_a_string_that_is_not_a_reference():
    assert registry.resolve("repro.registry:resolve") is registry.resolve
    with pytest.raises(ValueError, match="package.module:attr"):
        registry.resolve("repro.registry.resolve")


def test_specs_sorted_by_order_then_name():
    orders = [(s.order, s.name) for s in registry.specs(hidden=True)]
    assert orders == sorted(orders)


def test_every_sweep_has_a_resolvable_owner():
    for sweep_name in registry.sweep_names():
        owner = registry.sweep_owner(sweep_name)
        assert owner is not None
        assert owner.sweep is not None
        assert owner.sweep.name == sweep_name
        assert registry.get_sweep(sweep_name) is owner.sweep


def test_every_harness_resolves_by_name():
    for harness_name in registry.harness_names():
        harness = registry.get_harness(harness_name)
        assert registry.get_harness(harness_name) is harness
        assert harness.name == harness_name


def test_build_design_serves_every_designed_spec():
    from repro.kernel import Simulator

    for name in registry.names(runnable=True):
        if registry.get(name).design is None:
            with pytest.raises(ValueError, match="analytic"):
                registry.build_design(name)
        else:
            assert isinstance(registry.build_design(name), Simulator)


def test_unknown_lookups_preserve_legacy_messages():
    with pytest.raises(KeyError, match="unknown experiment 'nope'"):
        registry.build_design("nope")
    with pytest.raises(KeyError, match="unknown sweep experiment 'nope'"):
        registry.get_sweep("nope")
    with pytest.raises(KeyError, match="unknown fault-campaign harness"):
        registry.get_harness("nope")


def test_declared_compiled_eligibility():
    """The catalog's ``compiled=`` is the capability table's verdict on
    the spec's own design, so the declaration cannot drift from it."""
    from repro.kernel.capability import findings

    for name in RUNNABLE:
        spec = registry.get(name)
        eligible = spec.has_design and not list(
            findings(spec.design(), "compiled"))
        assert spec.compiled == eligible, name


def test_declared_seedability():
    seedable = {n for n in RUNNABLE if registry.get(n).seedable}
    assert seedable == {"fig3", "adaptive-clocking", "stalls",
                        "li-latency", "verify"}


# ----------------------------------------------------------------------
# name listings and lookups follow the registry's state
# ----------------------------------------------------------------------
def test_harness_names_keep_registration_order():
    assert registry.harness_names() == [
        "stall_verification", "fig3_crossbar", "gals_overhead",
        "packet_stream", "deadlock_demo"]


def test_views_reflect_later_registrations():
    name = "registry_view_probe"
    assert name not in registry.sweep_names()
    sweep = registry.SweepSpec(name=name, help="probe",
                               space=lambda **kw: [], runner=lambda p: {})
    registry.register_sweep(sweep)
    try:
        assert registry.get_sweep(name) is sweep
        assert name in registry.sweep_names()
        assert registry.get(name).hidden
    finally:
        registry._SPECS.pop(name, None)
        registry._SWEEP_INDEX.pop(name, None)
    assert name not in registry.sweep_names()


def test_cross_spec_sweep_name_collision_rejected():
    taken = registry.get("fig3").sweep.name
    clash = registry.ExperimentSpec(
        name="collision_probe", summary="probe",
        sweep=registry.SweepSpec(name=taken, help="clash",
                                 space=lambda **kw: [],
                                 runner=lambda p: {}))
    with pytest.raises(ValueError, match="already registered"):
        registry.register(clash)
    assert "collision_probe" not in registry._SPECS


# ----------------------------------------------------------------------
# re-registration drops the names only the replaced spec claimed
# ----------------------------------------------------------------------
@pytest.fixture
def probe_spec():
    """Register ``reindex_probe`` variants; unregister on the way out."""
    def make(sweep_name=None):
        sweep = sweep_name and registry.SweepSpec(
            name=sweep_name, help=sweep_name, space=lambda **kw: [],
            runner=lambda p, s: {})
        return registry.register(registry.ExperimentSpec(
            name="reindex_probe", summary="probe", sweep=sweep,
            hidden=True))

    registry.load()
    try:
        yield make
    finally:
        make()  # sweep-less: releases whatever sweep name is held
        registry._SPECS.pop("reindex_probe", None)


def test_reregistering_with_another_sweep_drops_the_old_name(probe_spec):
    probe_spec("reindex_a")
    assert registry.get_sweep("reindex_a").name == "reindex_a"
    probe_spec("reindex_b")
    assert registry.get_sweep("reindex_b").name == "reindex_b"
    with pytest.raises(KeyError, match="unknown sweep experiment"):
        registry.get_sweep("reindex_a")  # used to return sweep "b"
    assert "reindex_a" not in registry.sweep_names()


def test_reregistering_without_a_sweep_drops_the_name(probe_spec):
    probe_spec("reindex_a")
    probe_spec()
    with pytest.raises(KeyError, match="unknown sweep experiment"):
        registry.get_sweep("reindex_a")  # used to return None
    assert "reindex_a" not in registry.sweep_names()
    assert registry.sweep_owner("reindex_a") is None


def test_reregistering_keeps_a_shared_names_place():
    before = registry.harness_names()
    stalls = registry.get("stalls")
    try:
        registry.register(dataclasses.replace(stalls, summary="edited"))
        assert registry.harness_names() == before
    finally:
        registry.register(stalls)


def test_reregistering_drops_a_stale_harness_name():
    harness = registry.get_harness("packet_stream")
    probe = dataclasses.replace(harness, name="reindex_harness")
    try:
        registry.register(registry.ExperimentSpec(
            name="reindex_probe", summary="probe", harness=probe,
            hidden=True))
        assert registry.get_harness("reindex_harness") is probe
        registry.register(registry.ExperimentSpec(
            name="reindex_probe", summary="probe", hidden=True))
        with pytest.raises(KeyError, match="unknown fault-campaign"):
            registry.get_harness("reindex_harness")
        assert "reindex_harness" not in registry.harness_names()
    finally:
        registry._SPECS.pop("reindex_probe", None)
        registry._HARNESS_INDEX.pop("reindex_harness", None)


# ----------------------------------------------------------------------
# satellite regression: CLI choices == the registry's name listings
# ----------------------------------------------------------------------
def test_faults_cli_choices_derive_from_registry():
    from repro.cli import _build_parser

    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0])))
    faults = sub.choices["faults"]
    choice_action = next(a for a in faults._actions
                         if a.dest == "experiment")
    assert tuple(choice_action.choices) == (*registry.harness_names(), "all")


def test_sweep_cli_choices_derive_from_registry():
    from repro.cli import _build_parser

    parser = _build_parser()
    sweep = parser._subparsers._group_actions[0].choices["sweep"]
    choice_action = next(a for a in sweep._actions
                         if a.dest == "experiment")
    assert sorted(choice_action.choices) == sorted(registry.sweep_names())
