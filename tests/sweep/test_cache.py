"""The content-addressed result cache: keys, LRU eviction, recovery.

Eviction test shapes follow the related priority-expiry-cache repo:
drive the cache to its bound, touch an entry to refresh its recency,
and check exactly the least-recently-used entry disappeared.
"""

import json
import os
import pathlib

from repro.sweep import ResultCache, SweepPoint


def _point(i: int, **params) -> SweepPoint:
    return SweepPoint("fake_exp", {"i": i, **params}, seed=i)


def _cache(tmp_path, **kw) -> ResultCache:
    kw.setdefault("version", "1.0-test")
    kw.setdefault("rev", "deadbee")
    return ResultCache(str(tmp_path / "cache"), **kw)


def _age(cache: ResultCache, point: SweepPoint, seconds: float) -> None:
    """Backdate an entry's mtime so LRU ordering is deterministic."""
    path = pathlib.Path(cache.root) / f"{cache.key_for(point)}.json"
    st = path.stat()
    os.utime(path, (st.st_atime - seconds, st.st_mtime - seconds))


# ----------------------------------------------------------------------
# hit / miss
# ----------------------------------------------------------------------
def test_miss_then_hit(tmp_path):
    cache = _cache(tmp_path)
    p = _point(0)
    assert cache.get(p) is None
    cache.put(p, {"result": {"v": 42}})
    assert cache.get(p) == {"result": {"v": 42}}
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_param_change_misses(tmp_path):
    cache = _cache(tmp_path)
    cache.put(_point(0, knob="a"), {"result": 1})
    assert cache.get(_point(0, knob="b")) is None
    assert cache.get(_point(0, knob="a")) == {"result": 1}


def test_seed_change_misses(tmp_path):
    cache = _cache(tmp_path)
    p = _point(0)
    cache.put(p, {"result": 1})
    assert cache.get(SweepPoint(p.experiment, dict(p.params), seed=99)) is None


def test_param_order_does_not_matter(tmp_path):
    cache = _cache(tmp_path)
    cache.put(SweepPoint("e", {"a": 1, "b": 2}, seed=0), {"result": 1})
    assert cache.get(SweepPoint("e", {"b": 2, "a": 1}, seed=0)) == {"result": 1}


# ----------------------------------------------------------------------
# invalidation on version / revision change
# ----------------------------------------------------------------------
def test_version_bump_invalidates(tmp_path):
    old = _cache(tmp_path, version="1.0")
    old.put(_point(0), {"result": 1})
    new = _cache(tmp_path, version="1.1")
    assert new.get(_point(0)) is None
    # ...and the old entry is still intact for the old version.
    assert old.get(_point(0)) == {"result": 1}


def test_rev_change_invalidates(tmp_path):
    old = _cache(tmp_path, rev="aaaa111")
    old.put(_point(0), {"result": 1})
    new = _cache(tmp_path, rev="bbbb222")
    assert new.get(_point(0)) is None


def test_default_version_and_rev_resolve(tmp_path):
    import repro

    cache = ResultCache(str(tmp_path / "c"))
    assert cache.version == repro.__version__
    assert cache.rev  # "unknown" at worst, never None/empty


# ----------------------------------------------------------------------
# LRU + max-size eviction
# ----------------------------------------------------------------------
def test_lru_eviction_at_max_entries(tmp_path):
    cache = _cache(tmp_path, max_entries=3)
    points = [_point(i) for i in range(3)]
    for age, p in enumerate(points):
        cache.put(p, {"result": p.seed})
        _age(cache, p, seconds=100 - age)  # p0 oldest ... p2 newest
    # Touch the oldest entry: it becomes most-recently-used.
    assert cache.get(points[0]) is not None
    cache.put(_point(99), {"result": 99})
    cache.flush_stats()  # eviction runs once per sweep, at the flush
    # points[1] is now the LRU entry and must be the one evicted.
    assert cache.get(points[1]) is None
    assert cache.get(points[0]) is not None
    assert cache.get(points[2]) is not None
    assert cache.get(_point(99)) is not None
    assert cache.stats.evictions == 1
    assert len(cache) == 3


def test_max_bytes_eviction(tmp_path):
    cache = _cache(tmp_path, max_bytes=2048)
    blob = "x" * 512
    points = [_point(i) for i in range(8)]
    for age, p in enumerate(points):
        cache.put(p, {"result": blob})
        _age(cache, p, seconds=100 - age)
    cache.flush_stats()
    assert cache.stats.evictions > 0
    total = sum(f.stat().st_size
                for f in pathlib.Path(cache.root).glob("*.json"))
    assert total <= 2048
    # Survivors are the most recently inserted ones.
    assert cache.get(points[-1]) is not None
    assert cache.get(points[0]) is None


# ----------------------------------------------------------------------
# corrupted-entry recovery
# ----------------------------------------------------------------------
def test_corrupt_entry_recovers_as_miss(tmp_path):
    cache = _cache(tmp_path)
    p = _point(0)
    cache.put(p, {"result": 1})
    path = pathlib.Path(cache.root) / f"{cache.key_for(p)}.json"
    path.write_text("{not json at all")
    assert cache.get(p) is None          # dropped, not raised
    assert not path.exists()
    assert cache.stats.corrupt_dropped == 1
    cache.put(p, {"result": 2})          # cache still fully usable
    assert cache.get(p) == {"result": 2}


def test_schema_mismatch_recovers_as_miss(tmp_path):
    cache = _cache(tmp_path)
    p = _point(0)
    cache.put(p, {"result": 1})
    path = pathlib.Path(cache.root) / f"{cache.key_for(p)}.json"
    path.write_text(json.dumps({"schema": "other/9", "value": {"r": 1}}))
    assert cache.get(p) is None
    assert cache.stats.corrupt_dropped == 1


def test_clear_and_describe(tmp_path):
    cache = _cache(tmp_path)
    for i in range(4):
        cache.put(_point(i), {"result": i})
    desc = cache.describe()
    assert desc["entries"] == 4 and desc["puts"] == 4
    assert cache.clear() == 4
    assert len(cache) == 0


# ----------------------------------------------------------------------
# mode-tagged keys (exact / derived / trace)
# ----------------------------------------------------------------------
def test_modes_have_distinct_keys(tmp_path):
    cache = _cache(tmp_path)
    p = _point(0)
    keys = {cache.key_for(p, mode=m) for m in ("exact", "derived", "trace")}
    assert len(keys) == 3


def test_exact_key_has_no_mode_field(tmp_path):
    """Untagged exact keys keep the schema-/1 key shape: old entries
    stay addressable and derived entries can never shadow them."""
    cache = _cache(tmp_path)
    p = _point(0)
    assert cache.key_for(p) == cache.key_for(p, mode="exact")
    cache.put(p, {"result": "exact"})
    cache.put(p, {"result": "derived"}, mode="derived")
    assert cache.get(p) == {"result": "exact"}
    assert cache.get(p, mode="derived") == {"result": "derived"}


def test_require_predicate_turns_hit_into_miss(tmp_path):
    cache = _cache(tmp_path)
    p = _point(0)
    cache.put(p, {"result": 1, "telemetry": None})
    missed = cache.get(p, require=lambda v: v.get("telemetry") is not None)
    assert missed is None
    assert cache.stats.misses == 1 and cache.stats.hits == 0
    # The entry itself is untouched — an unconditional get still hits.
    assert cache.get(p) == {"result": 1, "telemetry": None}


# ----------------------------------------------------------------------
# cost-aware eviction
# ----------------------------------------------------------------------
def test_expensive_entry_survives_cheap_fresher_one(tmp_path):
    cache = _cache(tmp_path, max_entries=2)
    costly, cheap, trigger = _point(0), _point(1), _point(2)
    cache.put(costly, {"result": 1}, cost=120.0)
    _age(cache, costly, seconds=100)           # oldest, but expensive
    cache.put(cheap, {"result": "x" * 256}, cost=0.01)
    _age(cache, cheap, seconds=50)
    cache.put(trigger, {"result": 3}, cost=60.0)
    cache.flush_stats()
    assert cache.get(costly) is not None       # pure LRU would drop this
    assert cache.get(cheap) is None
    assert cache.stats.evictions == 1


def test_zero_cost_entries_degrade_to_lru(tmp_path):
    cache = _cache(tmp_path, max_entries=2)
    old, new, trigger = _point(0), _point(1), _point(2)
    cache.put(old, {"result": 1})
    _age(cache, old, seconds=100)
    cache.put(new, {"result": 2})
    _age(cache, new, seconds=50)
    cache.put(trigger, {"result": 3})
    cache.flush_stats()
    assert cache.get(old) is None
    assert cache.get(new) is not None


# ----------------------------------------------------------------------
# stats: per-mode hits, recompute credit, persistence, recount
# ----------------------------------------------------------------------
def test_per_mode_hit_counters_and_recompute_credit(tmp_path):
    cache = _cache(tmp_path)
    e, d, t = _point(0), _point(1), _point(2)
    cache.put(e, {"result": 1}, cost=2.5)
    cache.put(d, {"result": 2}, mode="derived", cost=0.5)
    cache.put(t, {"trace": {}}, mode="trace", cost=4.0)
    cache.get(e)
    cache.get(d, mode="derived")
    cache.get(t, mode="trace")
    s = cache.stats
    assert (s.hits_exact, s.hits_derived, s.hits_trace) == (1, 1, 1)
    assert s.hits == 3
    assert s.recompute_seconds_saved == 7.0


def test_flush_stats_persists_deltas_once(tmp_path):
    cache = _cache(tmp_path)
    p = _point(0)
    cache.put(p, {"result": 1}, cost=3.0)
    cache.get(p)
    cache.flush_stats()
    cache.flush_stats()                        # no new activity: no-op
    persisted = cache.persistent_stats()
    assert persisted["hits"] == 1 and persisted["puts"] == 1
    assert persisted["recompute_seconds_saved"] == 3.0
    # In-memory stats survive the flush (the CLI prints them after).
    assert cache.stats.hits == 1
    # A second session accumulates on top.
    other = _cache(tmp_path)
    other.get(p)
    other.flush_stats()
    assert cache.persistent_stats()["hits"] == 2


def test_stats_sidecar_is_not_a_cache_entry(tmp_path):
    cache = _cache(tmp_path)
    cache.put(_point(0), {"result": 1})
    cache.flush_stats()
    assert cache.describe()["entries"] == 1
    assert len(cache) == 1


def test_describe_recounts_after_corrupt_drop(tmp_path):
    """Regression: describe() used to report stale entry/byte counts
    after a corrupt entry was dropped by get()."""
    cache = _cache(tmp_path)
    for i in range(3):
        cache.put(_point(i), {"result": i})
    before = cache.describe()
    assert before["entries"] == 3
    path = pathlib.Path(cache.root) / f"{cache.key_for(_point(1))}.json"
    path.write_text("{broken")
    assert cache.get(_point(1)) is None
    after = cache.describe()
    assert after["entries"] == 2
    assert after["bytes"] < before["bytes"]


def test_describe_deep_reports_modes_and_cost(tmp_path):
    cache = _cache(tmp_path)
    cache.put(_point(0), {"result": 1}, cost=1.0)
    cache.put(_point(1), {"result": 2}, mode="derived", cost=0.25)
    cache.put(_point(2), {"trace": {}}, mode="trace", cost=5.0)
    deep = cache.describe(deep=True)
    assert deep["by_mode"] == {"exact": 1, "derived": 1, "trace": 1}
    assert deep["stored_cost_seconds"] == {
        "exact": 1.0, "derived": 0.25, "trace": 5.0}
    assert "persistent" in deep


# ----------------------------------------------------------------------
# one eviction scan per sweep
# ----------------------------------------------------------------------
def test_eviction_scans_once_per_fresh_sweep_and_never_when_cached(
        tmp_path, monkeypatch):
    """A put scans nothing: the directory is listed once, for eviction
    at the sweep's flush, and not at all by a run that stored nothing
    (the result's cache block is built from counters, not a listing)."""
    from repro.experiments import li_latency
    from repro.sweep import run_sweep

    scans = [0]
    entries = ResultCache._entries

    def counted_entries(self):
        scans[0] += 1
        return entries(self)

    monkeypatch.setattr(ResultCache, "_entries", counted_entries)
    points = [p for period in range(5, 10)
              for p in li_latency.sweep_space(
                  probabilities=(0.0, 0.2, 0.4), trials=1, period=period)]
    assert len(points) == 120

    def eviction_scans(cache):
        scans[0] = 0
        result = run_sweep(points, cache=cache)
        return result, scans[0]

    cache = _cache(tmp_path, max_entries=100)
    fresh, n = eviction_scans(cache)
    assert fresh.executed == 120 and n == 1
    # The one scan enforced the limit for the whole sweep.
    assert len(cache) == 100
    assert fresh.cache["evictions"] == 20
    cached, n = eviction_scans(_cache(tmp_path))
    assert cached.cache_hits == 100 and cached.executed == 20 and n == 1
    rerun, n = eviction_scans(_cache(tmp_path))
    assert rerun.cache_hits == 120 and n == 0
