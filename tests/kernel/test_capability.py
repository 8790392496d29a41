"""The capability table: one construct per row, one verdict per executor.

``repro.kernel.capability`` is the only place that says which construct
blocks which executor.  These tests build one minimal simulator per
statically detectable row and pin the exact set of row keys each
executor reports, pin the bundled designs' verdicts, and check that the
three consumers (``try_attach``, ``enable_snapshots``, ``capture``)
record those rows' texts and nothing of their own.
"""

import re
from pathlib import Path

import pytest

import repro
from repro import registry
from repro.compile import try_attach
from repro.connections import Buffer, In, Out
from repro.design import component_scope
from repro.faults import FaultPlan, Watchdog
from repro.kernel import Signal, Simulator, SnapshotError, Trace
from repro.kernel.capability import EXECUTORS, ROWS, TABLE, findings, reason
from repro.trace import capture


def _pipe(*, telemetry=None, factory=True, generator=None):
    """Producer -> Buffer -> consumer: eligible for every executor."""
    sim = Simulator(telemetry=telemetry)
    clk = sim.add_clock("clk", period=10, generator=generator)
    chan = Buffer(sim, clk, capacity=2, name="pipe")
    out, inp = Out(chan, name="out"), In(chan, name="in")

    def producer():
        for i in range(4):
            yield from out.push(i)

    def consumer():
        for _ in range(4):
            yield from inp.pop()

    for body, name in ((producer, "p"), (consumer, "c")):
        sim.add_thread(body if factory else body(), clk, name=name)
    return sim, clk, chan


def _keys(sim):
    return {executor: {key for key, _text in findings(sim, executor)}
            for executor in EXECUTORS}


def _verdict(compiled=(), snapshot=(), replay=()):
    return {"compiled": set(compiled), "snapshot": set(snapshot),
            "replay": set(replay)}


# ----------------------------------------------------------------------
# one minimal simulator per statically detectable row
# ----------------------------------------------------------------------
def _second_clock():
    sim, _, _ = _pipe()
    sim.add_clock("aux", period=7).on_edge(lambda clock: None)
    return sim, _verdict(compiled={"clocks"}, replay={"clocks", "unmanaged"})


def _period_generator():
    sim, _, _ = _pipe(generator=lambda clock: 10)
    # A generator clock schedules its edges through the timed-event heap.
    return sim, _verdict(compiled={"clockgen", "timed"},
                         replay={"clockgen", "timed"})


def _stopped_clock():
    sim, clk, _ = _pipe()
    clk.stop()
    return sim, _verdict(compiled={"stopped"}, replay={"stopped"})


def _ticked_clock():
    sim, clk, _ = _pipe()
    sim.run_cycles(clk, 40)  # the four messages have drained
    return sim, _verdict(replay={"started"})


def _paused_clock():
    sim, clk, _ = _pipe()
    clk.pause_until(35)
    return sim, _verdict(compiled={"paused"}, replay={"paused"})


def _timed_event():
    sim, _, _ = _pipe()
    sim.schedule(55, lambda: None)
    return sim, _verdict(compiled={"timed"}, replay={"timed"})


def _method():
    sim, _, _ = _pipe()
    sim.add_method(lambda: None, [Signal(sim, name="s")], name="m")
    # add_method also schedules the method's time-zero settling run.
    return sim, _verdict(compiled={"timed", "methods"},
                         replay={"timed", "methods"})


def _telemetry_hub():
    sim, _, _ = _pipe(telemetry=True)
    return sim, _verdict(compiled={"telemetry"}, snapshot={"telemetry"})


def _vcd_trace():
    sim, _, _ = _pipe()
    sim.trace = Trace(autowatch=True)
    return sim, _verdict(snapshot={"trace"})


def _watchdog():
    sim, clk, _ = _pipe()
    Watchdog(sim, clk)
    # The watchdog's checker is itself a raw-generator thread.
    return sim, _verdict(snapshot={"rawthread", "watchdog"},
                         replay={"watchdog"})


def _raw_generator_thread():
    sim, _, _ = _pipe(factory=False)
    return sim, _verdict(snapshot={"rawthread"})


def _channel_without_snapshot_state():
    sim, _, _ = _pipe()
    sim.design.register_channel(object(), "opaque")
    return sim, _verdict(snapshot={"nosnapstate"})


def _raw_signal():
    sim, clk, _ = _pipe()
    with component_scope(sim, "dut", clock=clk):
        Signal(sim, name="wire")
    return sim, _verdict(replay={"signals"})


def _preloaded_channel():
    sim, _, chan = _pipe()
    Out(chan, name="pre").push_nb(99)
    return sim, _verdict(replay={"preloaded"})


def _fault_hook():
    sim, _, _ = _pipe()
    FaultPlan(seed=0).drop("pipe", probability=0.5).apply(sim)
    return sim, _verdict(replay={"faults"})


def _no_per_edge_callbacks():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)

    def body():
        yield

    sim.add_thread(body, clk, name="t")
    return sim, _verdict(compiled={"idle"})


_CASES = (_second_clock, _period_generator, _stopped_clock, _ticked_clock,
          _paused_clock, _timed_event, _method, _telemetry_hub, _vcd_trace,
          _watchdog, _raw_generator_thread, _channel_without_snapshot_state,
          _raw_signal, _preloaded_channel, _fault_hook,
          _no_per_edge_callbacks)


def test_plain_pipeline_is_eligible_everywhere():
    sim, _, _ = _pipe()
    assert _keys(sim) == _verdict()


@pytest.mark.parametrize("case", _CASES, ids=lambda fn: fn.__name__[1:])
def test_each_construct_blocks_exactly_its_executors(case):
    sim, expected = case()
    assert _keys(sim) == expected


def test_every_static_row_has_a_minimal_simulator():
    reported = set()
    for case in _CASES:
        sim, _ = case()
        for keys in _keys(sim).values():
            reported |= keys
    assert reported == {row.key for row in TABLE if row.detect is not None}


def test_table_shape():
    assert len(ROWS) == len(TABLE)  # keys are unique
    for row in TABLE:
        refused = [e for e in EXECUTORS if getattr(row, e) is not None]
        assert refused, f"row {row.key!r} blocks nothing"


# ----------------------------------------------------------------------
# the bundled designs' verdicts
# ----------------------------------------------------------------------
_BUNDLED = {
    "fig3": _verdict(snapshot={"rawthread"}),
    "fig6": _verdict(snapshot={"rawthread"}),
    "gals": _verdict(compiled={"clocks", "clockgen", "timed"},
                     snapshot={"rawthread", "nosnapstate"},
                     replay={"clocks", "clockgen", "timed"}),
    "adaptive-clocking": _verdict(
        compiled={"clocks", "clockgen", "idle", "timed"},
        replay={"clocks", "clockgen", "timed"}),
    "stalls": _verdict(),
    "li-latency": _verdict(),
}


def test_every_bundled_design_is_pinned():
    designed = [name for name in registry.names(runnable=True)
                if registry.get(name).has_design]
    assert sorted(designed) == sorted(_BUNDLED)


@pytest.mark.parametrize("name", sorted(_BUNDLED))
def test_bundled_design_verdicts(name):
    assert _keys(registry.build_design(name)) == _BUNDLED[name]


# ----------------------------------------------------------------------
# wiring: the consumers record the table's texts
# ----------------------------------------------------------------------
def test_try_attach_records_the_first_compiled_finding():
    sim, _ = _method()
    assert try_attach(sim) is None
    first = next(findings(sim, "compiled"))
    assert first[0] == "timed"
    assert sim.backend_fallback_reason == first[1]


def test_snapshot_error_lists_every_snapshot_finding():
    sim, _, _ = _pipe(telemetry=True, factory=False)
    texts = [text for _key, text in findings(sim, "snapshot")]
    assert len(texts) == 3  # two raw threads + the hub
    with pytest.raises(SnapshotError) as excinfo:
        sim.enable_snapshots()
    assert str(excinfo.value) == (
        "design is not snapshot-eligible: " + "; ".join(texts))


def test_capture_reasons_are_the_replay_findings_then_the_run_s():
    sim, _ = _preloaded_channel()
    static = [text for _key, text in findings(sim, "replay")]
    with capture(sim) as session:
        sim.schedule(55, lambda: None)
        sim.run(until=500)
    assert session.trace["reasons"] == static + [reason("schedule", "replay")]
    assert not session.trace["eligible"]


def test_capture_records_the_watchdog_row():
    sim, _ = _watchdog()
    with capture(sim) as session:
        sim.run(until=500)
    assert reason("watchdog", "replay") in session.trace["reasons"]
    assert not session.trace["eligible"]


def test_midrun_detach_records_a_table_row():
    sim, clk, _ = _pipe()
    sim._backend_requested = "compiled"
    sim.run_cycles(clk, 2)
    assert sim.backend == "compiled"
    sim.schedule(5, lambda: None)
    sim.run_cycles(clk, 2)
    assert sim.backend == "threaded"
    assert sim.backend_fallback_reason == reason("schedule", "compiled")


# ----------------------------------------------------------------------
# every detection site cites a row that has a text for its executor
# ----------------------------------------------------------------------
#: ``reason("key", "executor"`` or ``reason(name, "executor"``, where
#: ``name`` is a local bound to string literals (``name = "key"``).
_CITE = re.compile(r'reason\(\s*(?:"(\w+)"|(\w+)),\s*"(\w+)"')
#: Capture's recorder cites replay rows as ``self.reason("key"``.
_RECORDER = re.compile(r'self\.reason\(\s*"(\w+)"')


def _citations():
    src = Path(repro.__file__).parent
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        for literal, name, executor in _CITE.findall(text):
            keys = [literal] if literal else re.findall(
                rf'\b{name} = "(\w+)"', text)
            for key in keys:
                yield path.name, key, executor
        if path.relative_to(src).as_posix() == "trace/capture.py":
            for key in _RECORDER.findall(text):
                yield path.name, key, "replay"


def test_every_cited_row_has_a_text_for_its_executor():
    cited = set(_citations())
    for file, key, executor in sorted(cited):
        assert executor in EXECUTORS, (file, key, executor)
        assert key in ROWS, f"{file} cites missing row {key!r}"
        assert getattr(ROWS[key], executor) is not None, (
            f"{file} cites row {key!r}, which has no {executor} text")
    # The scan sees literal, variable-bound and recorder citations.
    pairs = {(key, executor) for _file, key, executor in cited}
    assert {("boundary", "compiled"), ("midthread", "compiled"),
            ("telemetry", "compiled"), ("nb", "replay")} <= pairs
