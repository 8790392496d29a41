"""The incremental sweep engine: differential oracle + accounting.

Every test compares ``run_sweep(..., incremental=True)`` against a
plain full-simulation sweep of the same points via
``SweepResult.canonical()`` — the byte-comparable serialization — so
replayed, analytically derived, cache-served and fallback results are
all held to the same standard: indistinguishable from fresh
simulations.  The per-experiment comparisons go through the shared
``assert_modes_match_fresh`` oracle (which holds ``warm=True`` to the
same bar); the cache-fronted ones compare directly.
"""

import pytest

from repro.cli import main
from repro.registry import build_space
from repro.sweep import ResultCache, run_sweep
from tests.sweep._accounting import assert_accounting
from tests.sweep._differential import assert_modes_match_fresh

pytestmark = pytest.mark.usefixtures("pinned_rev")


@pytest.fixture
def pinned_rev(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_REV", "trace-test")


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"), version="trace-test")


def _canonical(points):
    return run_sweep(points, telemetry=False).canonical()


def test_li_latency_incremental_is_byte_identical():
    points = build_space("li_latency")
    _, _, result = assert_modes_match_fresh(points)
    # The headline property: 48 points, 2 structural bases, 0 fallbacks.
    assert result.derived == len(points)
    assert result.captures == 2
    assert result.executed == 0 and result.errors == 0
    assert result.fallback_reasons == {}
    assert all(o.mode == "derived" for o in result.outcomes)


def test_li_latency_meets_derived_floor(cache):
    """The CI gate: >= 90 % of the default space must be derived."""
    points = build_space("li_latency")
    result = run_sweep(points, cache=cache, incremental=True)
    assert result.derived / len(points) >= 0.9


def test_warm_incremental_is_fully_cached_and_identical(cache):
    points = build_space("li_latency")
    run_sweep(points, cache=cache, incremental=True)
    warm = run_sweep(points, cache=cache, incremental=True)
    assert warm.cache_hits == len(points)
    assert warm.captures == 0 and warm.derived == 0
    assert warm.canonical() == _canonical(points)
    assert_accounting(warm)


def test_one_probed_point_is_one_cache_lookup(cache, tmp_path, capsys):
    """A point costs one hit or one miss however many modes the probe
    accepts; only the trace lookups of the captures count besides."""
    points = build_space("li_latency")
    cold = run_sweep(points, cache=cache, incremental=True)
    assert cache.stats.hits == 0
    assert cache.stats.misses == len(points) + cold.captures
    rerun = ResultCache(cache.root, version=cache.version)
    run_sweep(points, cache=rerun, incremental=True)
    assert (rerun.stats.hits, rerun.stats.misses) == (len(points), 0)
    assert rerun.stats.hits_derived == len(points)
    # And the line the user reads says so.
    argv = ["sweep", "li_latency", "--incremental",
            "--cache-dir", str(tmp_path / "cli-cache")]
    assert main(argv) == 0
    assert f"0 hits / {len(points) + cold.captures} misses" \
        in capsys.readouterr().out
    assert main(argv) == 0
    assert f"{len(points)} hits / 0 misses (100% hit rate)" \
        in capsys.readouterr().out


def test_warm_traces_skip_recapture(cache):
    points = build_space("li_latency")
    run_sweep(points, cache=cache, incremental=True)
    # New satellite points against the same structural bases: the
    # cached traces serve them without a single new simulation.
    fresh = build_space("li_latency", capacities=(3, 5))
    result = run_sweep(fresh, cache=cache, incremental=True)
    assert result.captures == 0
    assert result.derived == len(fresh)
    assert result.canonical() == _canonical(fresh)


def test_derived_entries_never_shadow_exact(cache):
    points = build_space("li_latency")[:4]
    run_sweep(points, cache=cache, incremental=True)
    # A plain sweep with the same cache sees only exact keys: the
    # derived entries must be invisible to it.
    plain = run_sweep(points, cache=cache, telemetry=False)
    assert plain.cache_hits == 0 and plain.executed == len(points)
    # And once exact entries exist, incremental lookups prefer them.
    marked = dict(plain.outcomes[0].result)
    cache.put(points[0], {"result": marked, "telemetry": None})
    warm = run_sweep(points, cache=cache, incremental=True)
    assert warm.outcomes[0].mode == "exact"
    assert warm.outcomes[0].result == marked


def test_stall_verification_falls_back_with_recorded_reasons():
    points = build_space("stall_verification", trials=2)
    _, _, result = assert_modes_match_fresh(points)
    # Statically derivable, dynamically refused: the one capture runs,
    # records the harness's non-blocking ops, and every point simulates.
    assert result.derived == 0
    assert result.executed == len(points)
    assert result.captures == 1
    reasons = "; ".join(result.fallback_reasons)
    assert "pop_nb" in reasons and "push_nb" in reasons
    assert all(o.fallback_reason for o in result.outcomes)


def test_gals_overhead_is_analytically_derived():
    points = build_space("gals_overhead")
    _, _, result = assert_modes_match_fresh(points)
    assert result.derived == len(points)
    assert result.captures == 0 and result.executed == 0


def test_experiment_without_adapter_falls_back(cache):
    points = build_space("fig3_crossbar", ports=(2,), txns_per_port=6)
    result = run_sweep(points, cache=cache, incremental=True)
    assert result.canonical() == _canonical(points)
    assert result.derived == 0 and result.executed == len(points)
    assert list(result.fallback_reasons) == [
        "experiment registers no replay adapter"]
    assert_accounting(result)


def test_incremental_requires_single_experiment(cache):
    mixed = build_space("li_latency")[:1] + build_space("gals_overhead")[:1]
    with pytest.raises(ValueError, match="single experiment"):
        run_sweep(mixed, cache=cache, incremental=True)


def test_incremental_without_cache_still_works():
    points = build_space("li_latency")[:6]
    result = run_sweep(points, incremental=True)
    assert result.canonical() == _canonical(points)
    assert result.derived == len(points)


def test_payload_reports_modes_and_fallbacks(cache):
    points = build_space("li_latency")[:4]
    payload = run_sweep(points, cache=cache,
                        incremental=True).to_payload()
    assert payload["incremental"] is True
    assert payload["modes"] == ["derived"] * 4
    assert payload["derived"] == 4
    assert "fallback_reasons" in payload
