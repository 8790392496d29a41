"""Watched differential property: a watchdog does not change the executor.

Every run of every drawn topology is watched, so the compiled side runs
on the engine whenever the design allows it (one clock), and the
threaded side on the lone-clock lane; both must agree with the general
loop alone (``never_lane()``) on sinks, cycles and channel stats with
no ``HangError``.  A drawn ``hub`` attaches a telemetry hub too, which
changes no executor either: the telemetry records (kernel counters,
channel histograms) must agree as well.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro import observe
from repro.faults.watchdog import HangError
from repro.sweep.serialize import NONDETERMINISTIC_FIELDS, canonical_json
from repro.verify import oracles
from repro.verify.profiles import property_settings
from repro.verify.strategies import topologies
from repro.verify.topology import build_topology

from tests.sweep._never_park import lane_entries, never_lane


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


def _observed(spec, backend, hub):
    if not hub:
        return _watched(spec, backend)
    with observe.capture() as session:
        backend, observed = _watched(spec, backend)
    observed["telemetry"] = canonical_json(
        observe.to_records(session.report(label="watched")),
        exclude=NONDETERMINISTIC_FIELDS)
    return backend, observed


@given(spec=topologies(), hub=st.booleans())
@property_settings()
def test_watched_runs_agree_across_executors(spec, hub):
    with never_lane():
        _, general = _observed(spec, "threaded", hub)
    with lane_entries() as entries:
        _, threaded = _observed(spec, "threaded", hub)
    backend, compiled = _observed(spec, "compiled", hub)
    assert threaded == general
    assert compiled == threaded
    one_clock = len(spec.periods) == 1
    assert (backend == "compiled") == one_clock
    assert (entries[0] > 0) == one_clock
