"""Watched differential property: a watchdog does not change the executor.

Both runs of every drawn topology are watched, so the compiled side
runs on the engine whenever the design allows it (one clock), and must
still agree with the threaded side on sinks, cycles and channel stats
with no ``HangError``.
"""

from hypothesis import given

from repro.faults.watchdog import HangError
from repro.verify import oracles
from repro.verify.profiles import property_settings
from repro.verify.strategies import topologies
from repro.verify.topology import build_topology


def _watched(spec, backend):
    built = build_topology(spec, backend=backend)
    try:
        oracles.run_watched(built)
    except HangError as exc:  # pragma: no cover - the property's point
        raise AssertionError(
            f"watched generated design hung ({backend}):\n"
            + exc.diagnosis.format()) from exc
    assert built.done()
    return built.sim.backend, {
        "sinks": [list(got) for got in built.got],
        "now": built.sim.now,
        "cycles": [clk.cycles for clk in built.clocks],
        "channels": [oracles._channel_stats(chan)
                     for chan in built.channels.values()],
    }


@given(spec=topologies())
@property_settings()
def test_watched_runs_agree_across_executors(spec):
    _, threaded = _watched(spec, "threaded")
    backend, compiled = _watched(spec, "compiled")
    assert compiled == threaded
    assert (backend == "compiled") == (len(spec.periods) == 1)
