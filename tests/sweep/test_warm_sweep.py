"""Warm batched sweeps: byte identity, provenance, containment.

The correctness bar for ``run_sweep(..., warm=True)`` is differential:
for every experiment whose :class:`SweepAdapter` carries the session
half (``build`` / ``run``), a warm sweep must be byte-identical under
``SweepResult.canonical()`` to the serial and parallel fresh paths (and,
through the shared cache keys, to a cached rerun; the serial comparison
is the shared ``assert_modes_match_fresh`` oracle, which holds
``incremental=True`` to the same bar).  Failure containment is pinned
with a synthetic adapter: a point that wedges inside a batch loses only
itself — the SIGALRM fires inside ``adapter.run``, the finally-restore
re-arms the session, and the victim re-runs through the fresh path.
"""

import multiprocessing as mp
import os
import time
from dataclasses import replace

import pytest

from repro import registry
from repro.registry import SweepSpec, register_sweep
from repro.kernel import Simulator
from repro.sweep import ResultCache, SweepPoint, WarmSession, run_sweep
from repro.sweep.warm import batch_adapter_for, group_key, reset_sessions
from repro.sweep.warm import session_count
from repro.trace.adapter import SweepAdapter

from ._accounting import assert_accounting
from ._differential import assert_modes_match_fresh

_FORK = mp.get_start_method(allow_none=False) == "fork"
needs_fork = pytest.mark.skipif(
    not _FORK, reason="parallel registry tests need fork-started workers")


@pytest.fixture(autouse=True)
def _fresh_sessions():
    """Each test starts (and leaves) an empty in-process session cache."""
    reset_sessions()
    yield
    reset_sessions()


def _batch_experiments():
    names = []
    for spec in registry.specs(hidden=True):
        if spec.sweep is not None and spec.sweep.warm:
            names.append(spec.sweep.name)
    return sorted(names)


def _small_space(name):
    """A reduced default space: every group, a handful of points each."""
    points = registry.get_sweep(name).space()
    by_group = {}
    adapter = batch_adapter_for(name)
    kept = []
    for p in points:
        digest, _, _ = group_key(p, adapter)
        if by_group.setdefault(digest, 0) < 6:
            by_group[digest] += 1
            kept.append(p)
    return kept


# ----------------------------------------------------------------------
# the differential bar: warm == serial == parallel, every adapter
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", _batch_experiments())
def test_warm_identical_to_serial(name):
    points = _small_space(name)
    assert points, f"{name} enumerated an empty space"
    serial, warm, _ = assert_modes_match_fresh(points)
    assert warm.warm and not serial.warm
    assert warm.warm_points == len(points)
    assert warm.restores == len(points)
    assert not warm.fallback_reasons


@needs_fork
@pytest.mark.parametrize("name", _batch_experiments())
def test_warm_parallel_identical_to_serial(name):
    points = _small_space(name)
    serial = run_sweep(points, jobs=1, telemetry=False)
    warm = run_sweep(points, jobs=2, warm=True)
    assert serial.errors == warm.errors == 0
    assert warm.canonical() == serial.canonical()
    assert warm.warm_points == len(points)
    assert_accounting(warm)


@needs_fork
def test_warm_compiled_identical_to_threaded_serial():
    name = _batch_experiments()[0]
    points = [replace(p, backend="compiled") for p in _small_space(name)]
    serial = run_sweep(points, jobs=1, telemetry=False)
    warm = run_sweep(points, jobs=2, warm=True)
    assert serial.errors == warm.errors == 0
    assert warm.canonical() == serial.canonical()
    # And the compiled results agree with the plain threaded ones.
    threaded = run_sweep(_small_space(name), jobs=1, telemetry=False)
    assert [o.result for o in warm.outcomes] == \
        [o.result for o in threaded.outcomes]


def test_at_least_two_experiments_register_batch_adapters():
    assert len(_batch_experiments()) >= 2


# ----------------------------------------------------------------------
# provenance: warm/restored/fresh, session reuse, result payload
# ----------------------------------------------------------------------
def test_execution_provenance_counts():
    name = _batch_experiments()[0]
    points = _small_space(name)
    result = run_sweep(points, jobs=1, warm=True)
    execs = [o.execution for o in result.outcomes]
    # In-process (jobs=1) each group builds exactly once: one "warm"
    # point per group, every other point runs restored.
    assert execs.count("warm") == result.warm_groups
    assert execs.count("restored") == len(points) - result.warm_groups
    assert "fresh" not in execs
    assert session_count() == result.warm_groups

    # A second warm sweep in the same process reuses the live sessions:
    # construction is skipped entirely, everything runs restored.
    again = run_sweep(points, jobs=1, warm=True)
    assert [o.execution for o in again.outcomes] == ["restored"] * len(points)
    assert again.canonical() == result.canonical()


def test_warm_payload_and_summary_surface_provenance():
    name = _batch_experiments()[0]
    points = _small_space(name)[:4]
    result = run_sweep(points, jobs=1, warm=True)
    payload = result.to_payload()
    assert payload["warm"] is True
    assert payload["warm_points"] == len(points)
    assert payload["executions"] == [o.execution for o in result.outcomes]
    assert "warm" in result.summary()


def test_warm_interchanges_with_cache_and_fresh():
    name = _batch_experiments()[0]
    points = _small_space(name)[:5]
    cache_dir = os.path.join(os.getcwd(), ".pytest-warm-cache")
    try:
        cache = ResultCache(cache_dir, version="t", rev="r")
        warm = run_sweep(points, jobs=1, warm=True, cache=cache)
        assert warm.cache_hits == 0 and warm.warm_points == len(points)
        # The result's cache snapshot already includes this run.
        assert warm.cache["warm_points"] == warm.warm_points
        assert warm.cache["warm_restores"] == warm.restores
        # Warm results satisfy a later *fresh* sweep from the cache...
        cached = run_sweep(points, jobs=1, telemetry=False, cache=cache)
        assert cached.cache_hits == len(points)
        assert cached.canonical() == warm.canonical()
        assert_accounting(warm)
        assert_accounting(cached)
        # ...and the persistent stats carry the warm counters.
        persisted = ResultCache(cache_dir, version="t",
                                rev="r").persistent_stats()
        assert persisted["warm_points"] == len(points)
        assert persisted["warm_restores"] == len(points)
    finally:
        import shutil

        shutil.rmtree(cache_dir, ignore_errors=True)


def test_warm_and_incremental_are_mutually_exclusive():
    name = _batch_experiments()[0]
    points = _small_space(name)[:2]
    with pytest.raises(ValueError):
        run_sweep(points, warm=True, incremental=True)


def test_warm_rejects_mixed_experiments():
    a, b = _batch_experiments()[:2]
    points = [registry.get_sweep(a).space()[0],
              registry.get_sweep(b).space()[0]]
    with pytest.raises(ValueError):
        run_sweep(points, warm=True)


# ----------------------------------------------------------------------
# fallback: no adapter registered -> fresh path, reason recorded
# ----------------------------------------------------------------------
def _plain_runner(params, seed):
    return {"i": params["i"], "seed": seed, "double": params["i"] * 2}


register_sweep(SweepSpec("warm_plain_test", "test", space=lambda **kw: [],
                         runner=_plain_runner))


def test_no_adapter_falls_back_to_fresh():
    points = [SweepPoint("warm_plain_test", {"i": i}, seed=i)
              for i in range(5)]
    serial = run_sweep(points, jobs=1, telemetry=False)
    warm = run_sweep(points, jobs=1, warm=True)
    assert warm.errors == 0
    assert warm.canonical() == serial.canonical()
    assert warm.warm_points == 0 and warm.warm_groups == 0
    assert warm.fallback_reasons == {"no batch adapter registered": 5}
    assert [o.execution for o in warm.outcomes] == ["fresh"] * 5
    assert_accounting(warm)


# ----------------------------------------------------------------------
# containment: a wedged point dies alone inside its batch
# ----------------------------------------------------------------------
def _sleepy_warm_runner(params, seed):
    if params.get("sentinel") and not os.path.exists(params["sentinel"]):
        with open(params["sentinel"], "w"):
            pass
        time.sleep(params["sleep"])
    return {"i": params["i"], "seed": seed}


def _sleepy_warm_build(base_params, base_seed):
    sim = Simulator()
    sim.add_clock("clk", period=10)
    return WarmSession(sim=sim, context=None)


def _sleepy_warm_run(session, params, seed):
    session.sim.run(until=100)
    return _sleepy_warm_runner(params, seed)


# No parameter is structural: every point shares the one session.
_SLEEPY_ADAPTER = SweepAdapter(
    base={"i": 0, "sentinel": "", "sleep": 0.0},
    build=_sleepy_warm_build,
    run=_sleepy_warm_run,
)

register_sweep(SweepSpec("warm_sleepy_test", "test", space=lambda **kw: [],
                         runner=_sleepy_warm_runner,
                         adapter=_SLEEPY_ADAPTER))


def test_timeout_kills_only_the_wedged_point(tmp_path):
    """Satellite: per-point SIGALRM inside a batch.

    Point 2 wedges on its first (warm) evaluation; the alarm kills it
    mid-``adapter.run``, the finally-restore re-arms the session, the
    rest of the batch completes warm, and the victim recovers through
    the fresh retry (the sentinel makes the wedge one-shot).
    """
    points = [SweepPoint("warm_sleepy_test",
                         {"i": i,
                          "sentinel": str(tmp_path / "wedge") if i == 2
                          else "",
                          "sleep": 30.0 if i == 2 else 0.0},
                         seed=i)
              for i in range(6)]
    t0 = time.perf_counter()
    result = run_sweep(points, jobs=1, warm=True, timeout=0.5)
    assert time.perf_counter() - t0 < 10.0
    assert result.errors == 0
    assert [r["i"] for r in result.results] == list(range(6))
    # Only the victim left the warm path; the batch kept going.
    execs = [o.execution for o in result.outcomes]
    assert execs[2] == "fresh" and execs.count("fresh") == 1
    assert result.warm_points == 5
    assert result.restores == 6  # the finally-restore ran for the victim too
    assert result.retried == 1
    assert result.outcomes[2].attempts == 2
    assert "warm execution failed" in result.outcomes[2].fallback_reason
    assert "PointTimeout" in result.outcomes[2].fallback_reason


def test_point_error_inside_batch_retries_fresh(tmp_path):
    """A crash inside adapter.run is contained the same way."""

    points = [SweepPoint("warm_sleepy_test", {"i": i, "sentinel": "",
                                              "sleep": 0.0}, seed=i)
              for i in range(3)]
    # Crash point: a sleep-free sentinel point cannot crash, so wedge a
    # nonexistent directory into the sentinel open() instead.
    points.insert(1, SweepPoint(
        "warm_sleepy_test",
        {"i": 99, "sentinel": str(tmp_path / "no" / "such" / "dir"),
         "sleep": 0.0},
        seed=99))
    result = run_sweep(points, jobs=1, warm=True, retries=0)
    # The crashing point fails warm AND fresh (the directory never
    # exists) -> one error; the rest of its batch is untouched.
    assert result.errors == 1
    assert result.executed == 3
    bad = result.outcomes[1]
    assert bad.status == "error"
    assert "warm execution failed" in bad.fallback_reason
    assert result.warm_points == 3
