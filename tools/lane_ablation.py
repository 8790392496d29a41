#!/usr/bin/env python3
"""Time the kernel's elision lanes by switching each off, in-process.

The switches are the test-local reference patches of
``tests/sweep/_never_park.py`` (no switch exists in ``src/``):

* ``never_park`` — all three elisions off (channel ticks never park,
  no edge is skipped, gate waits are bare polls);
* ``never_gate`` — gate waits are bare polls, channels still park;
* ``every_edge`` — ``Clock._next_time`` never looks past ``next_edge``
  (no idle-skip under either executor), everything else on;
* ``never_lane`` — no run enters the lone-clock lane
  (``repro.kernel.lane``): every timestep runs on the general loop;
* ``generic_router`` — every WHVC router runs its generic ops loop, not
  the stage loop its all-FastChannel routers take.

Each of seven rounds runs every variant once, in a rotated order, over
five groups: the six ``soc_threaded`` programs, the same six under a
compiled request (``soc_compiled``), the
``rtl_gals`` ops (fig3 crossbars once each, the GALS SoC, the RTL SoC),
and both sweep grids run ``--warm`` (``sweep_warm``) and
``--incremental`` (``sweep_incremental``), serially (``jobs=1``).
Sizes and seed come from ``bench/config.json``.  Every variant must
produce the same simulated cycles, with the same backend verdict, and
the same sweep results as the unpatched kernel (they are references, not
approximations); the script prints per-group medians of wall seconds,
the quartiles of ``none`` and each switch's change against it.

Usage::

    python tools/lane_ablation.py
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from pathlib import Path
from unittest.mock import patch

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO)]

from bench.spans import NullRecorder  # noqa: E402
from bench.workloads.soc import fast_programs, rtl_gals_ops  # noqa: E402
from bench.workloads.sweep import build_grids  # noqa: E402
from repro.kernel.backend import use_backend  # noqa: E402
from repro.kernel.clock import Clock  # noqa: E402
from repro.sweep import run_sweep  # noqa: E402
from repro.workloads import run_workload  # noqa: E402
from tests.sweep._never_park import (generic_router,  # noqa: E402
                                     never_gate, never_lane, never_park)


@contextlib.contextmanager
def every_edge():
    def next_time(self):
        return None if self._stopped else self.next_edge

    with patch.object(Clock, "_next_time", next_time):
        yield


VARIANTS = {"none": contextlib.nullcontext, "never_park": never_park,
            "never_gate": never_gate, "every_edge": every_edge,
            "never_lane": never_lane, "generic_router": generic_router}
ROUNDS = 7


def groups(cfg: dict, seed: int) -> dict:
    """``group -> callable`` returning a result the variants must share."""
    programs = fast_programs(cfg["soc_programs"], seed)
    gals_ops = rtl_gals_ops(cfg["rtl_gals"], seed)
    grids = build_grids(cfg["sweeps"], seed)

    def soc(backend):
        def run():
            with use_backend(backend):
                socs = [run_workload(w, mode="fast") for w in programs]
            return [(soc.elapsed_cycles, soc.sim.backend) for soc in socs]
        return run

    def rtl_gals():
        out = []
        for op in gals_ops:
            raw = op.run(NullRecorder())
            out.append(raw[1].elapsed_cycles if isinstance(raw, tuple)
                       else raw.elapsed_cycles)
        return out

    def sweep(mode):
        return lambda: [run_sweep(points, jobs=1, **{mode: True}).canonical()
                        for points in grids.values()]

    return {"soc_threaded": soc("threaded"), "soc_compiled": soc("compiled"),
            "rtl_gals": rtl_gals, "sweep_warm": sweep("warm"),
            "sweep_incremental": sweep("incremental")}


def main() -> int:
    cfg = json.loads((REPO / "bench" / "config.json").read_text())
    work = groups(cfg, cfg["default_seed"])
    names = list(VARIANTS)
    times = {(v, g): [] for v in names for g in work}
    results = {}
    for r in range(ROUNDS):
        order = names[r % len(names):] + names[:r % len(names)]
        for variant in order:
            for group, fn in work.items():
                with VARIANTS[variant]():
                    start = time.perf_counter()
                    result = fn()
                    times[variant, group].append(time.perf_counter() - start)
                if results.setdefault(group, result) != result:
                    raise SystemExit(f"{variant} changed the {group} result")
        print(f"round {r + 1}/{ROUNDS} done", file=sys.stderr)
    print("| switch | " + " | ".join(work) + " |")
    print("|---|" + "---|" * len(work))
    for variant in names:
        cells = []
        for group in work:
            q1, med, q3 = statistics.quantiles(times[variant, group], n=4)
            base = statistics.median(times["none", group])
            cells.append(f"{med:.3f} [{q1:.3f}, {q3:.3f}]"
                         if variant == "none"
                         else f"{med:.3f} ({(med / base - 1) * 100:+.1f} %)")
        print(f"| `{variant}` | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
