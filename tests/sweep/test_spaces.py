"""Registered experiment sweep spaces: shape, determinism, runners."""

import pytest

from repro.experiments import stall_verification as sv
from repro.registry import build_space, get_sweep
from repro.sweep import SweepPoint

_REAL_SPECS = ("stall_verification", "fig3_crossbar", "gals_overhead",
               "crossbar_qor", "pe_scaling")


@pytest.mark.parametrize("name", _REAL_SPECS)
def test_space_is_nonempty_and_deterministic(name):
    spec = get_sweep(name)
    points = spec.space()
    assert points, f"{name} produced an empty space"
    assert points == spec.space()  # same call, same points
    for p in points:
        assert isinstance(p, SweepPoint)
        assert p.experiment == name
        assert isinstance(p.params, dict)


@pytest.mark.parametrize("name", _REAL_SPECS)
def test_registry_exposes_runner_and_summarizer(name):
    spec = get_sweep(name)
    assert callable(spec.runner)
    assert spec.summarize is None or callable(spec.summarize)
    assert spec.help


def test_build_space_threads_seed():
    base = build_space("stall_verification")
    shifted = build_space("stall_verification", seed=500)
    assert len(base) == len(shifted)
    assert base != shifted
    assert all(p.seed >= 500 for p in shifted)


def test_build_space_rejects_unknown_name():
    with pytest.raises(KeyError, match="stall_verification"):
        build_space("definitely_not_registered")


def test_stall_space_matches_serial_campaign_grid():
    points = sv.sweep_space(probabilities=(0.0, 0.3), trials=4, seed=10)
    assert len(points) == 2 * 4
    # Per-trial seeds reproduce stall_campaign's base_seed + trial rule.
    for p in points:
        assert p.seed == 10 + p.params["trial"]


def test_stall_point_matches_one_trial():
    spec = get_sweep("stall_verification")
    rec = spec.runner({"stall_probability": 0.5, "n_msgs": 60,
                       "bug": True, "trial": 0}, seed=100)
    assert rec["detected"] == sv._one_trial(0.5, 100, n_msgs=60, bug=True)


def test_cheap_analytic_points_run_and_summarize():
    # gals_overhead and crossbar_qor are pure analytic models — run one
    # point of each end-to-end and render its summary text.
    for name in ("gals_overhead", "crossbar_qor"):
        spec = get_sweep(name)
        point = spec.space()[0]
        rec = spec.runner(point.params, point.seed)
        assert isinstance(rec, dict) and rec
        if spec.summarize is not None:
            text = spec.summarize([rec])
            assert isinstance(text, str) and text.strip()


def test_stall_summarize_renders_campaign_table():
    points = sv.sweep_space(probabilities=(0.5,), trials=3)
    spec = get_sweep("stall_verification")
    records = [spec.runner(p.params, p.seed) for p in points]
    text = spec.summarize(records)
    assert "0.5" in text
    campaigns = sv.campaigns_from_sweep(records)
    assert len(campaigns) == 1
    assert campaigns[0].trials == 3
