"""Multi-process ResultCache stress: shared directory, exact stats.

Warm and parallel sweeps routinely share one cache directory across
worker processes (and across concurrently launched sweeps).  Entry
writes were always atomic (temp file + ``os.replace``), but the two
read-modify-write sections — the ``_stats.json`` merge and the
over-limit eviction scan — now run under a POSIX ``flock`` on
``<root>/_lock``.  These tests hammer both from real concurrent
processes and assert *exact* outcomes: no lost counter increments, no
corrupt entries, no over-eviction below the configured limit.
"""

import json
import multiprocessing as mp
import pathlib

import pytest

from repro.sweep import ResultCache, SweepPoint
from repro.sweep import cache as cache_mod

_FORK = mp.get_start_method(allow_none=False) == "fork"
needs_fork = pytest.mark.skipif(
    not _FORK, reason="multi-process stress needs fork-started workers")
needs_flock = pytest.mark.skipif(
    cache_mod.fcntl is None, reason="exact stats merging needs fcntl.flock")

N_PROCS = 6
PUTS_PER_PROC = 12


def _point(worker: int, i: int) -> SweepPoint:
    return SweepPoint("cache_stress", {"worker": worker, "i": i},
                      seed=worker * 1000 + i)


def _stress_writer(root: str, worker: int, barrier) -> None:
    """One writer: put + flush on every iteration (maximal contention)."""
    cache = ResultCache(root, version="t", rev="r")
    barrier.wait()
    for i in range(PUTS_PER_PROC):
        cache.put(_point(worker, i), {"result": {"worker": worker, "i": i}},
                  cost=0.5)
        cache.flush_stats()


def _evict_writer(root: str, worker: int, barrier) -> None:
    cache = ResultCache(root, version="t", rev="r", max_entries=20)
    barrier.wait()
    for i in range(PUTS_PER_PROC):
        cache.put(_point(worker, i), {"result": i}, cost=float(i))
    cache.flush_stats()


def _run_workers(target, root):
    ctx = mp.get_context("fork")
    barrier = ctx.Barrier(N_PROCS)
    procs = [ctx.Process(target=target, args=(root, w, barrier))
             for w in range(N_PROCS)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    return procs


@needs_fork
@needs_flock
def test_concurrent_flushes_merge_exactly(tmp_path):
    root = str(tmp_path / "shared")
    _run_workers(_stress_writer, root)

    cache = ResultCache(root, version="t", rev="r")
    persisted = cache.persistent_stats()
    # flock makes the read-modify-write merge exact: every one of the
    # N_PROCS * PUTS_PER_PROC interleaved flushes landed.
    assert persisted["puts"] == N_PROCS * PUTS_PER_PROC
    assert len(cache) == N_PROCS * PUTS_PER_PROC

    # Every entry survived the concurrent traffic intact and every
    # written result is served back verbatim.
    for path in pathlib.Path(root).glob("*.json"):
        if path.name.startswith("_"):
            json.loads(path.read_text())  # sidecar: merely valid JSON
            continue
        entry = json.loads(path.read_text())
        assert entry["schema"] and "value" in entry
    for w in range(N_PROCS):
        for i in range(PUTS_PER_PROC):
            hit = cache.get(_point(w, i))
            assert hit == {"result": {"worker": w, "i": i}}

    # No temp files were stranded (atomic replace completed everywhere).
    assert not list(pathlib.Path(root).glob("*.tmp.*"))


@needs_fork
@needs_flock
def test_concurrent_eviction_never_races_the_scan(tmp_path):
    root = str(tmp_path / "shared")
    _run_workers(_evict_writer, root)

    cache = ResultCache(root, version="t", rev="r", max_entries=20)
    # The locked re-list prevents two writers deleting from one stale
    # listing: the survivors respect the limit without over-evicting
    # to nothing, and every survivor still parses.
    assert 0 < len(cache) <= 20
    for _, _, path in cache._entries():
        with open(path) as fh:
            entry = json.load(fh)
        assert "value" in entry
    assert cache.persistent_stats()["puts"] == N_PROCS * PUTS_PER_PROC


def test_lock_file_is_not_a_cache_entry(tmp_path):
    cache = ResultCache(str(tmp_path), version="t", rev="r")
    cache.put(_point(0, 0), {"result": 1})
    cache.flush_stats()
    with cache._locked():
        pass
    assert len(cache) == 1  # _lock and _stats.json are not entries


def test_degrades_lock_free_without_fcntl(tmp_path, monkeypatch):
    """No fcntl (non-POSIX): best-effort merge, never a crash."""
    monkeypatch.setattr(cache_mod, "fcntl", None)
    cache = ResultCache(str(tmp_path), version="t", rev="r")
    cache.put(_point(1, 1), {"result": 2}, cost=1.0)
    merged = cache.flush_stats()
    assert merged["puts"] == 1
    assert cache.persistent_stats()["puts"] == 1


def test_unwritable_root_degrades_lock_free(tmp_path):
    cache = ResultCache(str(tmp_path / "c"), version="t", rev="r")
    cache.put(_point(2, 2), {"result": 3})
    import os
    import stat

    os.chmod(cache.root, stat.S_IRUSR | stat.S_IXUSR)
    try:
        if os.access(pathlib.Path(cache.root) / "x", os.W_OK):
            pytest.skip("running as root: chmod does not revoke writes")
        with cache._locked():
            pass  # open('a+') fails -> lock-free section, no raise
    finally:
        os.chmod(cache.root, stat.S_IRWXU)
