#!/usr/bin/env python3
"""Parallel sweep engine tour: spaces, pools, and the result cache.

Enumerates the stall-verification bug hunt as independent seeded
``SweepPoint``s, then runs the same space three ways:

* **cold** through the process-pool engine with a fresh
  content-addressed cache (every point executes and is stored);
* **warm** — the identical space again, now served entirely from the
  cache without executing a single simulation;
* **grown** — a larger space, where only the new points execute and
  the old ones come back as hits (incremental sweeps).

Every run's merged, ordered report is byte-identical under the
canonical serialization — the cache and the pool are invisible to the
science.  The demo keeps its cache in a temp dir so it leaves nothing
behind.

Run:  python examples/sweep_demo.py [--backend compiled]

``--backend compiled`` stamps every point with the graph-compiled
backend (docs/COMPILED_BACKEND.md).  A non-default backend enters each
point's cache key, so threaded and compiled results are cached
separately — the cache observes their byte-identity, never assumes it.

Equivalent CLI:

    python -m repro sweep stall_verification --jobs 4
    python -m repro sweep stall_verification --jobs 4   # all cache hits
    python -m repro sweep stall_verification --backend compiled

See the sweep section of docs/PERFORMANCE.md for the cache-key and
eviction semantics.
"""

import argparse
import tempfile
from dataclasses import replace

from repro.experiments.stall_verification import sweep_space
from repro.registry import get_sweep
from repro.sweep import ResultCache, run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=("threaded", "compiled"),
                        default="threaded",
                        help="simulation backend for every point")
    args = parser.parse_known_args()[0]

    spec = get_sweep("stall_verification")
    # A deliberately tiny space so the demo stays ~1 s: 2 stall
    # probabilities x 3 seeded trials = 6 independent points.
    points = sweep_space(probabilities=(0.0, 0.5), trials=3)
    if args.backend != "threaded":
        points = [replace(p, backend=args.backend) for p in points]
    print(f"space: {len(points)} points, e.g. {points[0].label}")

    with tempfile.TemporaryDirectory() as tmp:
        def cache() -> ResultCache:
            return ResultCache(tmp)  # same dir -> same cache keys

        cold = run_sweep(points, jobs=2, cache=cache())
        print("\n--- cold run ---")
        print(cold.summary())
        print(spec.summarize(cold.ok_results))

        warm = run_sweep(points, jobs=2, cache=cache())
        print("\n--- warm rerun ---")
        print(warm.summary())
        assert warm.executed == 0 and warm.cache_hits == len(points)
        assert warm.canonical() == cold.canonical(), \
            "cache must reproduce the cold run byte-for-byte"

        grown_points = sweep_space(probabilities=(0.0, 0.5), trials=5)
        if args.backend != "threaded":
            grown_points = [replace(p, backend=args.backend)
                            for p in grown_points]
        grown = run_sweep(grown_points, jobs=2, cache=cache())
        print("\n--- grown space (5 trials) ---")
        print(grown.summary())
        assert grown.cache_hits == len(points)  # old trials reused
        assert grown.executed == len(grown.points) - len(points)

    print("\ncache reproduced the cold run exactly; only new points ran.")


if __name__ == "__main__":
    main()
