"""Disk-backed content-addressed result cache for sweep points.

Every executed :class:`~repro.sweep.point.SweepPoint` is stored under a
key that hashes *everything its result depends on*: the experiment
name, the canonicalized parameters, the seed, the ``repro`` package
version, and the repository revision.  Re-running an unchanged sweep is
then near-instant, an incremental sweep only simulates new points, and
bumping the package version (or committing new code) invalidates every
stale entry automatically — no manual flushing.

Entry **modes** (``sweep --incremental``, ``docs/INCREMENTAL_SIM.md``):
an entry is ``exact`` (a full simulation's result — the default, left
untagged in the key so exact keys are stable), ``derived`` (recomputed
analytically from a captured trace), or ``trace`` (a captured op trace
a future incremental sweep can replay from).  The mode is part of the
cache *key* for non-exact entries, so a derived result can never
shadow — or be shadowed by — the exact result for the same point.

Eviction is **value-aware**: every entry stores its measured recompute
cost (the wall-clock seconds it took to produce), and when the cache
exceeds ``max_entries`` / ``max_bytes`` the entries with the lowest
cost *per byte* go first — a 40-minute fig6 point outlives a 5 ms
trial even if the trial is fresher.  Recency (mtime, refreshed on every
hit) breaks ties, so among equally cheap entries the cache degrades to
plain LRU.

Layout: one ``<sha256>.json`` file per entry inside the cache root (a
flat directory).  Entries are written atomically (temp file +
``os.replace``) so concurrent sweeps sharing a cache directory can only
ever observe complete entries.  A corrupted entry (truncated write,
schema mismatch, garbage) is dropped the moment a lookup touches it and
counted — and :meth:`ResultCache.describe` recounts from disk on every
call, so a dropped entry disappears from the totals immediately, not at
the next :meth:`~ResultCache.evict`.  Cumulative hit/miss/saved-seconds
counters persist across processes in ``_stats.json`` (best-effort
merge; see :meth:`ResultCache.flush_stats`), which is what
``python -m repro stats`` reports as cache effectiveness.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

try:  # POSIX only; Windows falls back to lock-free best effort
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from .point import SweepPoint
from .serialize import canonical_digest

__all__ = ["CacheStats", "ResultCache", "default_cache_dir", "repo_rev"]

SCHEMA = "repro-sweep-cache/2"

#: Entry modes; "exact" stays untagged in keys (see key_for).
MODES = ("exact", "derived", "trace")

#: Cumulative counters persisted to ``<root>/_stats.json``.
_PERSISTED = ("hits", "misses", "puts", "evictions", "corrupt_dropped",
              "hits_exact", "hits_derived", "hits_trace",
              "recompute_seconds_saved",
              "warm_points", "warm_restores")

_REV_CACHE: dict = {}


def repo_rev() -> str:
    """The repository's short git revision, or ``"unknown"``.

    Part of every cache key so results never survive a code change.
    Overridable with ``REPRO_SWEEP_REV`` (useful for installed packages
    without a git checkout, and for tests).
    """
    if "rev" not in _REV_CACHE:
        env = os.environ.get("REPRO_SWEEP_REV")
        if env:
            _REV_CACHE["rev"] = env
        else:
            root = pathlib.Path(__file__).resolve().parents[3]
            try:
                proc = subprocess.run(
                    ["git", "rev-parse", "--short", "HEAD"], cwd=root,
                    capture_output=True, text=True, timeout=10)
                rev = proc.stdout.strip()
                _REV_CACHE["rev"] = rev if proc.returncode == 0 and rev \
                    else "unknown"
            except (OSError, subprocess.SubprocessError):
                _REV_CACHE["rev"] = "unknown"
    return _REV_CACHE["rev"]


def default_cache_dir() -> str:
    """``$REPRO_SWEEP_CACHE``, else ``~/.cache/repro/sweeps``."""
    env = os.environ.get("REPRO_SWEEP_CACHE")
    if env:
        return env
    return str(pathlib.Path.home() / ".cache" / "repro" / "sweeps")


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt_dropped: int = 0
    hits_exact: int = 0
    hits_derived: int = 0
    hits_trace: int = 0
    #: Sum of the stored recompute cost of every hit — the wall-clock
    #: seconds this cache instance saved its callers.
    recompute_seconds_saved: float = 0.0
    #: Warm batched-sweep accounting (see :mod:`repro.sweep.warm`),
    #: credited by the engine after every ``warm=True`` run so
    #: ``repro stats --cache`` reports batch effectiveness alongside
    #: cache effectiveness.
    warm_points: int = 0
    warm_restores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class ResultCache:
    """Content-addressed sweep-result store, cost-aware eviction."""

    root: str
    max_entries: int = 4096
    max_bytes: int = 256 * 1024 * 1024
    #: Key components; default to the live package version / git rev so
    #: any code change invalidates.  Tests override them explicitly.
    version: Optional[str] = None
    rev: Optional[str] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._flushed: dict = {}  # per-counter high-water mark
        if self.version is None:
            from .. import __version__

            self.version = __version__
        if self.rev is None:
            self.rev = repo_rev()
        pathlib.Path(self.root).mkdir(parents=True, exist_ok=True)

    # -- keys ----------------------------------------------------------
    def key_for(self, point: SweepPoint, *, mode: str = "exact") -> str:
        """Content hash of everything the point's result depends on.

        ``mode`` enters the key only when not ``"exact"``: exact keys
        keep their historical shape, and non-exact entries can never
        collide with (and thus shadow) them.
        """
        if mode not in MODES:
            raise ValueError(f"unknown cache mode {mode!r}; one of {MODES}")
        payload = {
            "schema": SCHEMA,
            **point.identity(),
            "version": self.version,
            "rev": self.rev,
        }
        if mode != "exact":
            payload["mode"] = mode
        return canonical_digest(payload)

    def _path(self, key: str) -> pathlib.Path:
        return pathlib.Path(self.root) / f"{key}.json"

    # -- lookup / store ------------------------------------------------
    def get(self, point: SweepPoint, *, mode: str = "exact",
            require=None) -> Optional[dict]:
        """The stored payload for ``point``, or ``None`` on a miss.

        One-mode :meth:`probe` (see there for the accounting).
        """
        found = self.probe(point, (mode,), require=require)
        return found[1] if found is not None else None

    def probe(self, point: SweepPoint, modes: Sequence[str], *,
              require=None) -> Optional[Tuple[str, dict]]:
        """One lookup: ``(mode, payload)`` from the first of ``modes``
        holding an acceptable entry, or ``None`` on a miss.

        A hit — in whichever mode — is one ``stats.hits`` and no miss;
        a point absent in every mode is one ``stats.misses``.  A hit
        refreshes the entry's LRU clock and credits the entry's stored
        recompute cost to ``stats.recompute_seconds_saved``.
        Unreadable or schema-mismatched entries are unlinked and treated
        as absent.  ``require`` is an optional predicate on the payload:
        a stored value that fails it is absent too (the entry stays on
        disk and is not credited as saved work) — the engine uses this
        so a telemetry-less entry can never satisfy a telemetry-enabled
        sweep.
        """
        for mode in modes:
            path = self._path(self.key_for(point, mode=mode))
            try:
                with open(path) as fh:
                    entry = json.load(fh)
                if entry.get("schema") != SCHEMA or "value" not in entry:
                    raise ValueError("cache entry schema mismatch")
            except FileNotFoundError:
                continue
            except (OSError, ValueError):
                path.unlink(missing_ok=True)
                self.stats.corrupt_dropped += 1
                continue
            if require is not None and not require(entry["value"]):
                continue
            try:
                os.utime(path)  # LRU touch
            except OSError:
                pass
            self.stats.hits += 1
            setattr(self.stats, f"hits_{mode}",
                    getattr(self.stats, f"hits_{mode}") + 1)
            try:
                self.stats.recompute_seconds_saved += float(
                    entry.get("cost", 0.0))
            except (TypeError, ValueError):
                pass
            return mode, entry["value"]
        self.stats.misses += 1
        return None

    def put(self, point: SweepPoint, value: dict, *, mode: str = "exact",
            cost: float = 0.0) -> str:
        """Store ``value`` atomically; returns the key.

        ``cost`` is the measured wall-clock seconds it took to produce
        the value — the currency of cost-per-byte eviction and of the
        ``recompute_seconds_saved`` effectiveness counter.
        """
        key = self.key_for(point, mode=mode)
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        entry = {"schema": SCHEMA, "mode": mode,
                 "cost": max(0.0, float(cost)), "key": {
                     **point.identity(), "version": self.version,
                     "rev": self.rev,
                 }, "value": value}
        tmp.write_text(json.dumps(entry, sort_keys=True) + "\n")
        os.replace(tmp, path)
        self.stats.puts += 1
        self.evict()
        return key

    # -- cross-process exclusion ---------------------------------------
    @contextmanager
    def _locked(self):
        """Exclusive advisory lock on ``<root>/_lock`` (POSIX flock).

        Serializes the cache's two read-modify-write critical sections
        — the ``_stats.json`` merge and the eviction scan — across
        concurrent sweep processes sharing one cache directory.  Entry
        reads and writes stay lock-free (they are already atomic via
        temp-file + ``os.replace``).  Where ``fcntl`` is unavailable
        the sections run unlocked, degrading to the historical
        best-effort behaviour: possible lost counter increments, never
        a corrupt file.
        """
        if fcntl is None:
            yield
            return
        path = pathlib.Path(self.root) / "_lock"
        try:
            fh = open(path, "a+")
        except OSError:  # unwritable root: degrade to lock-free
            yield
            return
        try:
            fcntl.flock(fh, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fh, fcntl.LOCK_UN)
            finally:
                fh.close()

    # -- maintenance ---------------------------------------------------
    def _entries(self) -> List[Tuple[float, int, pathlib.Path]]:
        """(mtime, size, path) for every entry, oldest first."""
        out = []
        for path in pathlib.Path(self.root).glob("*.json"):
            if path.name.startswith("_"):  # _stats.json sidecar
                continue
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((st.st_mtime_ns, st.st_size, path))
        out.sort()
        return [(m / 1e9, s, p) for m, s, p in out]

    def evict(self) -> int:
        """Drop entries until ``max_entries`` / ``max_bytes`` hold.

        Victims are chosen by lowest recompute-cost-per-byte (the
        cheapest results to regenerate relative to the space they
        occupy), with recency as the tiebreaker.  The stat-only scan
        runs first: under the limits — the common case, since eviction
        runs on every put — no entry file is ever opened, and no lock
        is taken.  An over-limit cache evicts under the cross-process
        lock so two concurrent writers never race the same scan (each
        would otherwise delete from a stale listing and over-evict).
        """
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        if len(entries) <= self.max_entries and total <= self.max_bytes:
            return 0
        with self._locked():
            return self._evict_locked()

    def _evict_locked(self) -> int:
        entries = self._entries()  # re-list under the lock
        total = sum(size for _, size, _ in entries)
        if len(entries) <= self.max_entries and total <= self.max_bytes:
            return 0
        indexed = []
        for mtime, size, path in entries:
            try:
                with open(path) as fh:
                    cost = float(json.load(fh).get("cost", 0.0))
            except (OSError, ValueError, TypeError):
                cost = -1.0  # unreadable: first against the wall
            indexed.append((cost / max(size, 1), mtime, size, path))
        indexed.sort()
        dropped = 0
        while indexed and (len(indexed) > self.max_entries
                           or total > self.max_bytes):
            _, _, size, path = indexed.pop(0)
            path.unlink(missing_ok=True)
            total -= size
            dropped += 1
        self.stats.evictions += dropped
        return dropped

    def clear(self) -> int:
        """Remove every entry; returns how many were dropped."""
        n = 0
        for _, _, path in self._entries():
            path.unlink(missing_ok=True)
            n += 1
        return n

    def __len__(self) -> int:
        return len(self._entries())

    # -- effectiveness accounting --------------------------------------
    def _stats_path(self) -> pathlib.Path:
        return pathlib.Path(self.root) / "_stats.json"

    def flush_stats(self) -> dict:
        """Merge this instance's counters into ``_stats.json``.

        Called by the sweep engine after every run so ``repro stats``
        can report effectiveness across processes.  The read-modify-
        write runs under the cross-process lock (:meth:`_locked`), so
        concurrent sweeps sharing a cache directory merge exactly —
        no increment is ever lost where ``flock`` is available, and
        the file is never corrupt regardless (atomic replace).  Only
        the delta since this instance's previous flush is added, so
        repeated flushes never double-count — and ``self.stats``
        itself is left untouched for callers still reporting on this
        run.
        """
        with self._locked():
            merged = self.persistent_stats()
            for name in _PERSISTED:
                current = getattr(self.stats, name)
                delta = current - self._flushed.get(name, 0)
                merged[name] = merged.get(name, 0) + delta
                self._flushed[name] = current
            path = self._stats_path()
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(merged, sort_keys=True) + "\n")
            os.replace(tmp, path)
        return merged

    def persistent_stats(self) -> dict:
        """Cumulative counters from ``_stats.json`` (empty when absent)."""
        try:
            with open(self._stats_path()) as fh:
                data = json.load(fh)
            return {k: data[k] for k in _PERSISTED if k in data}
        except (OSError, ValueError):
            return {}

    def describe(self, *, deep: bool = False) -> dict:
        """Stats + configuration as a plain serializable dict.

        Entry totals are recounted from disk on every call, so entries
        dropped by :meth:`get` (corruption) disappear immediately.
        With ``deep`` the per-mode breakdown and stored-cost totals are
        included (opens every entry; used by ``repro stats``).
        """
        entries = self._entries()
        out = {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "version": self.version,
            "rev": self.rev,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "puts": self.stats.puts,
            "evictions": self.stats.evictions,
            "corrupt_dropped": self.stats.corrupt_dropped,
            "hits_exact": self.stats.hits_exact,
            "hits_derived": self.stats.hits_derived,
            "hits_trace": self.stats.hits_trace,
            "recompute_seconds_saved": self.stats.recompute_seconds_saved,
            "warm_points": self.stats.warm_points,
            "warm_restores": self.stats.warm_restores,
        }
        if deep:
            by_mode = {mode: 0 for mode in MODES}
            cost_by_mode = {mode: 0.0 for mode in MODES}
            for _, _, path in entries:
                try:
                    with open(path) as fh:
                        entry = json.load(fh)
                    mode = entry.get("mode", "exact")
                    cost = float(entry.get("cost", 0.0))
                except (OSError, ValueError, TypeError):
                    continue
                if mode not in by_mode:
                    mode = "exact"
                by_mode[mode] += 1
                cost_by_mode[mode] += cost
            out["by_mode"] = by_mode
            out["stored_cost_seconds"] = cost_by_mode
            out["persistent"] = self.persistent_stats()
        return out
