"""The oracle for quiescent-channel parking: every edge executed, every
waiting thread resumed.

The kernel parks an empty channel's tick, bulk-advances an idle clock,
settles the skipped edges later (``Clock.on_edge``,
``FastChannel._credit``) and parks a thread that yields a shut ``Gate``
— a gate owner's idle loop, or a ``pop()`` blocked on a parked channel
— crediting the polls it skipped.  The reference it must equal is the
same kernel with all three elisions off, which exists only here, as
three patches: a ``FastChannel._tick`` wrapper that swallows the
quiescence verdict (so no clock ever parks a channel), a
``Clock._next_time`` that never looks past ``next_edge`` (so no edge is
ever skipped), and threads whose every ``Gate`` wait is a bare ``yield``
(so every poll is the generator's own).  There is no such switch in
``src/``.

``assert_parks_exactly(scenario)`` runs ``scenario()`` under both and
compares, byte for byte, its result record and a fingerprint of every
simulator it constructed: ``sim.now``, every clock's ``activity()``,
every fast channel's eight ``ChannelStats`` counters with ``_stalled``
and the stall RNG state, and the telemetry records (kernel counters and
channel histograms; ``proc_seconds`` is wall time and excluded).
"""

from contextlib import contextmanager
import json
from unittest.mock import patch

from repro import observe
from repro.connections.channel import ChannelStats, FastChannel
from repro.design.lower import edge_callbacks
from repro.kernel import Simulator
from repro.kernel.clock import Clock
from repro.kernel.simulator import Gate
from repro.sweep.serialize import NONDETERMINISTIC_FIELDS, canonical_json


@contextmanager
def never_park():
    """Channels bind ``_tick`` at construction: build the design inside."""
    tick = FastChannel._tick

    def _tick(self, clock):  # lowering knows channel ticks by this name
        tick(self, clock)

    def every_edge(self):
        return None if self._stopped else self.next_edge

    with patch.object(FastChannel, "_tick", _tick), \
            patch.object(Clock, "_next_time", every_edge), never_gate():
        yield


def _ungated(gen):
    """``gen`` with every ``Gate`` it yields turned into a bare poll."""
    for request in gen:
        yield None if type(request) is Gate else request


@contextmanager
def never_gate():
    """The third patch alone: threads registered inside the block wait
    on their gates with a bare ``yield``, so every idle iteration of a
    gate owner's loop and every retry of a blocked ``pop()`` runs, under
    either executor (channels still park)."""
    add_thread = Simulator.add_thread

    def add_ungated(self, gen, clock, *, name="thread"):
        if callable(gen):
            factory = gen
            gen = lambda: _ungated(factory())  # noqa: E731
        else:
            gen = _ungated(gen)
        return add_thread(self, gen, clock, name=name)

    with patch.object(Simulator, "add_thread", add_ungated):
        yield


@contextmanager
def skipped_polls():
    """Counts the polls parked threads skipped (credited through their
    gates): zero would mean the scenario never parked anything."""
    count = [0]
    skipped = Gate._skipped

    def counted(self, sim, n):
        count[0] += max(n, 0)
        skipped(self, sim, n)

    with patch.object(Gate, "_skipped", counted):
        yield count


@contextmanager
def constructed_simulators():
    """Collects every Simulator constructed inside the block."""
    sims = []
    init = Simulator.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    with patch.object(Simulator, "__init__", recording_init):
        yield sims


def fast_channels(sim):
    """Every FastChannel ticking on one of ``sim``'s clocks, tick order."""
    return [chan for clock in sim._clocks
            for _cb, chan, _name in edge_callbacks(clock) if chan is not None]


def fingerprint(sim) -> dict:
    return {
        "now": sim.now,
        "clocks": [clock.activity() for clock in sim._clocks],
        "channels": [
            [chan.path, [getattr(chan.stats, f) for f in ChannelStats.__slots__],
             chan._stalled,
             chan._stall_rng.getstate() if chan._stall_rng else None]
            for chan in fast_channels(sim)],
        "telemetry": observe.to_records(observe.collect(sim)),
    }


def observe_run(scenario) -> str:
    """``scenario()``'s result record and the fingerprint of every
    simulator it constructed, as canonical JSON without wall times."""
    with constructed_simulators() as sims:
        result = scenario()
    return canonical_json(
        {"result": result,
         "simulators": [fingerprint(sim) for sim in sims]},
        exclude=NONDETERMINISTIC_FIELDS)


def assert_parks_exactly(scenario, *, telemetry: bool = False) -> dict:
    """``scenario`` behaves as if every edge had executed.  Returns the
    parked run's observation, decoded, for scenario-specific checks."""
    def run():
        if not telemetry:
            return observe_run(scenario)
        with observe.capture():
            return observe_run(scenario)

    with never_park():
        reference = run()
    parked = run()
    assert parked == reference, _first_difference(parked, reference)
    return json.loads(parked)


def _first_difference(parked: str, reference: str) -> str:
    at = next((i for i, (a, b) in enumerate(zip(parked, reference))
               if a != b), min(len(parked), len(reference)))
    lo = max(0, at - 200)
    return (f"parked run differs from the every-edge reference at byte "
            f"{at}:\n  parked:    ...{parked[lo:at + 120]}\n"
            f"  reference: ...{reference[lo:at + 120]}")
