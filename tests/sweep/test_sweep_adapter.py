"""The one sweep adapter: one projection, one grouping, both modes.

``warm=True`` and ``incremental=True`` take their groups from the same
step — :func:`repro.trace.adapter.classify` projects each point onto
``{**params, **adapter.base}`` — so one declaration decides both, and
the shared oracle (``assert_modes_match_fresh``) holds both to a serial
fresh sweep: for every registered adapter, on grids nobody hand-wrote,
and — the negative control — it must *fail* for an adapter whose
``run`` forgets a knob its ``base`` names.
"""

from dataclasses import replace

import pytest

from repro import registry
from repro.experiments import li_latency
from repro.sweep import SweepPoint
from repro.verify import hypothesis_available

from ._differential import assert_modes_match_fresh


def _adapter_sweeps():
    """Catalog sweeps only: hidden specs are other tests' fixtures."""
    return sorted(spec.sweep.name for spec in registry.specs()
                  if spec.sweep is not None
                  and spec.sweep.adapter is not None)


def _structure(point, adapter):
    """The parameters a point does *not* share with ``adapter.base``."""
    return tuple(sorted((k, v) for k, v in point.params.items()
                        if k not in adapter.base))


def _li_point(*, stages=1, n_msgs=12, capacity=2, stall_probability=0.0,
              period=10, trial=0, seed=7):
    return SweepPoint("li_latency",
                      {"stages": stages, "n_msgs": n_msgs,
                       "capacity": capacity,
                       "stall_probability": stall_probability,
                       "trial": trial, "period": period}, seed=seed)


@pytest.mark.parametrize("name", _adapter_sweeps())
def test_every_registered_adapter_matches_fresh_in_every_mode(name):
    sweep = registry.get_sweep(name)
    # A slice through the default space that keeps every structural
    # configuration and several knob settings of each.
    points = sweep.space()[::3]
    _, warm, incremental = assert_modes_match_fresh(points)
    groups = len({_structure(p, sweep.adapter) for p in points})
    if sweep.warm:
        assert warm.warm_groups == groups
        assert not warm.fallback_reasons
    if sweep.replay_kind == "trace":
        assert incremental.captures == groups


def test_points_differing_outside_base_never_share_a_group():
    """The divergence this API retired: a projection that also moved
    ``n_msgs`` was an honest fallback under ``incremental=True`` and a
    silently wrong record under ``warm=True`` (the short point answered
    from the long point's session).  ``base`` cannot express it, and
    both modes now split such points — and match fresh."""
    assert "n_msgs" not in li_latency.SWEEP_ADAPTER.base
    points = [_li_point(n_msgs=8, capacity=1),
              _li_point(n_msgs=16, capacity=1),
              _li_point(n_msgs=8, capacity=4, stall_probability=0.25)]
    fresh, warm, incremental = assert_modes_match_fresh(points)
    assert warm.warm_groups == incremental.captures == 2
    assert incremental.derived == len(points)
    assert not warm.fallback_reasons and not incremental.fallback_reasons
    assert [r["completion_cycle"] for r in fresh.results] == \
        [r["completion_cycle"] for r in warm.results]


def _run_forgetting_capacity(session, params, seed):
    # The base session was built at BASE_CAPACITY; not re-applying the
    # point's own capacity answers every point at the base's depth.
    return li_latency.SWEEP_ADAPTER.run(
        session, {**params, "capacity": li_latency.BASE_CAPACITY}, seed)


def test_oracle_catches_a_run_that_forgets_a_base_knob(monkeypatch):
    """Negative control: the oracle has teeth."""
    points = [_li_point(capacity=1), _li_point(capacity=8)]
    assert_modes_match_fresh(points)  # the real adapter passes
    spec = registry.get_sweep("li_latency")
    forgetful = replace(spec.adapter, run=_run_forgetting_capacity)
    monkeypatch.setitem(spec.__dict__, "adapter", forgetful)
    with pytest.raises(AssertionError, match="warm != fresh"):
        assert_modes_match_fresh(points)


if hypothesis_available():
    from hypothesis import given, strategies as st

    from repro.verify.profiles import property_settings

    _points = st.builds(
        _li_point,
        stages=st.integers(1, 3),
        n_msgs=st.integers(1, 10),
        capacity=st.integers(1, 8),
        stall_probability=st.sampled_from((0.0, 0.1, 0.35, 0.6)),
        period=st.sampled_from((2, 7, 10, 20)),
        trial=st.integers(0, 3),
        seed=st.integers(0, 2**31 - 1))

    @property_settings(scale=2.0)
    @given(st.lists(_points, min_size=1, max_size=8))
    def test_drawn_li_grids_group_by_structure_and_match_fresh(points):
        _, warm, incremental = assert_modes_match_fresh(points)
        groups = len({_structure(p, li_latency.SWEEP_ADAPTER)
                      for p in points})
        assert warm.warm_groups == incremental.captures == groups
