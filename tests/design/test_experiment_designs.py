"""Every bundled experiment elaborates and lints clean (the CI gate)."""

import pytest

from repro import registry
from repro.design import design_path, elaborate, lint
from repro.registry import build_design

_RUNNABLE = sorted(registry.names(runnable=True))
_BUILDABLE = [name for name in _RUNNABLE if registry.get(name).has_design]
_ANALYTIC = [name for name in _RUNNABLE if not registry.get(name).has_design]


@pytest.mark.parametrize("experiment", _BUILDABLE)
def test_experiment_design_lints_clean(experiment):
    sim = build_design(experiment)
    findings = lint(sim)
    assert findings == [], "\n".join(str(f) for f in findings)


@pytest.mark.parametrize("experiment", _BUILDABLE)
def test_experiment_design_elaborates(experiment):
    graph = elaborate(build_design(experiment))
    stats = graph.stats()
    assert stats["instances"] > 1
    assert stats["clocks"] > 0
    assert graph.tree(max_depth=1)


@pytest.mark.parametrize("experiment", _ANALYTIC)
def test_analytic_experiments_report_no_design(experiment):
    with pytest.raises(ValueError, match="analytic"):
        build_design(experiment)


def test_unknown_experiment_raises_key_error():
    with pytest.raises(KeyError, match="unknown experiment"):
        build_design("nope")


def test_registry_covers_every_cli_experiment():
    """Every runnable spec is a CLI verb and `inspect`/`lint` accept it."""
    from repro.cli import _build_parser

    verbs = _build_parser()._subparsers._group_actions[0].choices
    assert set(_RUNNABLE) <= set(verbs)
    inspect_choices = next(a for a in verbs["inspect"]._actions
                           if a.dest == "experiment").choices
    assert sorted(inspect_choices) == _RUNNABLE


def test_soc_units_have_hierarchical_paths():
    sim = build_design("fig6")
    graph = elaborate(sim)
    paths = {inst.path for inst in graph.instances}
    assert "chip" in paths
    assert "chip.mesh" in paths
    assert "chip.pe0" in paths
    assert "chip.axix" in paths
    # Router ports live three levels deep with honest dotted paths.
    router = graph.instance("chip.mesh.r0")
    assert router.ports and all(
        p.path.startswith("chip.mesh.r0.") for p in router.ports)


def test_gals_design_has_cdc_safe_links_and_many_domains():
    sim = build_design("gals")
    graph = elaborate(sim)
    assert len(graph.clocks) > 1
    crossings = graph.crossings()
    assert crossings, "a GALS mesh must contain clock-domain crossings"
    assert all(rec.cdc_safe for rec in crossings)
