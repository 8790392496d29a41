"""Observed runs execute compiled: watchdog, VCD trace and trace capture.

Every observer but telemetry works through what both executors expose —
the thread being resumed (``sim._current``) and the committed signal
changes (``sim.trace``) — so a watched, traced or captured design runs
on the compiled engine and must produce exactly the threaded bytes.
Each test below compares the two executors and checks that the compiled
side really ran on the engine.
"""

import dataclasses
import io

import pytest

from repro import registry
from repro.connections import Buffer, In, Out
from repro.faults import HangError, Watchdog, campaign
from repro.jobs import JobRequest, execute
from repro.kernel import BusSignal, Simulator, Trace, use_backend, write_vcd
from repro.kernel.backend import last_run, record_run
from repro.kernel.capability import reason
from repro.observe import TelemetryHub
from repro.trace.adapter import classify

from tests.sweep._never_park import constructed_simulators


# ----------------------------------------------------------------------
# fault campaigns: every case runs under a Watchdog
# ----------------------------------------------------------------------
def test_campaign_records_equal_across_executors(monkeypatch):
    sims = []

    class Recording(campaign.Watchdog):
        def __init__(self, sim, *args, **kwargs):
            sims.append(sim)
            super().__init__(sim, *args, **kwargs)

    monkeypatch.setattr(campaign, "Watchdog", Recording)
    for harness in registry.harness_names():
        single_clock = harness != "gals_overhead"
        for seed in range(3):
            plan = campaign.default_plan(harness, seed)
            ref = campaign.execute(harness, plan, seed)
            with use_backend("compiled"):
                got = campaign.execute(harness, plan, seed)
            assert got == ref, (harness, seed)
            # A hang is raised out of the engine: ask the simulator.
            assert (sims[-1].backend == "compiled") == single_clock


def test_hang_raised_inside_the_engine_records_compiled():
    """Provenance is recorded on every exit of the engine, a watchdog
    ``HangError`` raised from inside it too."""
    with use_backend("compiled"):
        sim, clk = campaign.build_deadlock_fixture()
    Watchdog(sim, clk, window=100, max_cycles=2_000)
    record_run("threaded", "stale")
    with pytest.raises(HangError):
        sim.run(until=1_000_000)
    assert sim.backend == "compiled"
    assert last_run() == ("compiled", None)


# ----------------------------------------------------------------------
# trace capture: the sweep bases of the two replay-capable experiments
# ----------------------------------------------------------------------
def _bases(name):
    spec = registry.get_sweep(name)
    bases = []
    for point in spec.space():
        _mode, _reason, params, seed = classify(spec.adapter, point.params,
                                                point.seed)
        if (params, seed) not in bases:
            bases.append((params, seed))
    return spec.adapter, bases


@pytest.mark.parametrize("name", ["li_latency", "stall_verification"])
def test_capture_traces_equal_across_executors(name):
    adapter, bases = _bases(name)
    sims = []

    def build(params, seed):
        session = adapter.build(params, seed)
        sims.append(session.sim)
        return session

    recording = dataclasses.replace(adapter, build=build)
    for params, seed in bases:
        ref = recording.capture(params, seed)
        with use_backend("compiled"):
            got = recording.capture(params, seed)
        assert got == ref
        assert sims[-1].backend == "compiled"


# ----------------------------------------------------------------------
# VCD trace
# ----------------------------------------------------------------------
def _counter_pair(backend, n=12):
    """Two threads writing bus signals around one Buffer, traced."""
    sim = Simulator(backend=backend)
    clk = sim.add_clock("clk", period=10)
    sim.trace = Trace(autowatch=True)
    chan = Buffer(sim, clk, capacity=2, name="pipe")
    out, inp = Out(chan, name="out"), In(chan, name="in")
    sent = BusSignal(sim, width=8, name="sent")
    got = BusSignal(sim, width=8, name="got")

    def producer():
        for i in range(n):
            yield from out.push(i)
            sent.write(i + 1)
            yield 2

    def consumer():
        for _ in range(n):
            msg = yield from inp.pop()
            got.write(msg * 3 % 256)

    sim.add_thread(producer, clk, name="p")
    sim.add_thread(consumer, clk, name="c")
    return sim, clk, sent


def _vcd(sim):
    fh = io.StringIO()
    write_vcd(sim.trace, fh)
    return fh.getvalue()


def test_vcd_text_equal_with_the_engine_engaged():
    ref, _, _ = _counter_pair("threaded")
    ref.run(until=1_000)
    sim, _, _ = _counter_pair("compiled")
    sim.run(until=1_000)
    assert sim.backend == "compiled"
    assert len(sim.trace.changes) > 2 * 12  # seeds plus every write
    assert _vcd(sim) == _vcd(ref)


def _job_vcd(experiment, backend, params=None):
    """A ``--trace-vcd`` job (no stats): its provenance line, the VCD
    text of its best trace (None without signal activity), and the
    backends of the simulators it built."""
    with constructed_simulators() as sims:
        result = execute(JobRequest(experiment, params=params or {},
                                    backend=backend, trace_signals=True))
    assert result.session.hubs == []  # a trace alone attaches no hub
    trace = result.session.best_trace()
    text = None
    if trace is not None:
        fh = io.StringIO()
        write_vcd(trace, fh)
        text = fh.getvalue()
    return result.provenance(), text, [sim.backend for sim in sims]


def test_vcd_job_runs_on_the_requested_backend():
    line, text, _ = _job_vcd("li-latency", "compiled")
    assert line == "simulation backend: compiled"
    assert text == _job_vcd("li-latency", "threaded")[1]


def test_vcd_job_text_equal_with_the_engine_engaged():
    """fig3's RTL crossbar has signal activity and runs compiled."""
    params = {"ports": "2", "txns": 4}
    _, ref, _ = _job_vcd("fig3", "threaded", params)
    _, got, backends = _job_vcd("fig3", "compiled", params)
    assert ref is not None and "$var wire" in ref
    assert got == ref
    assert backends[0] == "compiled"  # the RTL model, the traced one


# ----------------------------------------------------------------------
# attaching an observer between two compiled runs
# ----------------------------------------------------------------------
def test_telemetry_between_runs_detaches():
    sim, clk, _ = _counter_pair("compiled")
    sim.run_cycles(clk, 5)
    assert sim.backend == "compiled"
    sim.telemetry = TelemetryHub(sim)
    sim.run_cycles(clk, 5)
    assert sim.backend == "threaded"
    assert sim.backend_fallback_reason == reason("telemetry", "compiled")


def test_trace_between_runs_stays_compiled():
    changes = []
    for backend in ("threaded", "compiled"):
        sim, clk, sent = _counter_pair(backend)
        sim.trace = None
        sim.run_cycles(clk, 5)
        sim.trace = Trace([sent])
        sim.run_cycles(clk, 20)
        assert sim.backend == backend
        assert sim.backend_fallback_reason is None
        changes.append(sim.trace.changes)
    assert len(changes[1]) > 1  # the seed plus recorded writes
    assert changes[1] == changes[0]
