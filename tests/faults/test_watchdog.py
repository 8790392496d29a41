"""Watchdog semantics: deadlock, livelock, budget, and no false alarms."""

import io
import json

import pytest

from repro import observe
from repro.connections import Buffer, In, Out
from repro.faults import HangError, Watchdog, build_deadlock_fixture
from repro.kernel import Simulator


# ----------------------------------------------------------------------
# deadlock diagnosis (the acceptance-criterion fixture)
# ----------------------------------------------------------------------
def test_deadlock_raises_instead_of_spinning_to_until():
    sim, clk = build_deadlock_fixture()
    Watchdog(sim, clk, window=400)
    with pytest.raises(HangError):
        sim.run(until=10_000_000)
    # Diagnosed within a couple of windows, not at the time bound.
    assert sim.now < 100_000


def test_deadlock_diagnosis_names_threads_and_dotted_paths():
    sim, clk = build_deadlock_fixture()
    Watchdog(sim, clk, window=400)
    with pytest.raises(HangError) as excinfo:
        sim.run(until=10_000_000)
    diag = excinfo.value.diagnosis
    assert diag.kind == "deadlock"
    by_thread = {t.thread: t for t in diag.threads}
    assert set(by_thread) == {"chip.a.ctl", "chip.b.ctl"}
    assert by_thread["chip.a.ctl"].channel == "chip.ba"
    assert by_thread["chip.b.ctl"].channel == "chip.ab"
    assert all(t.op == "pop" for t in diag.threads)
    assert all(t.waited_cycles > 0 for t in diag.threads)
    # Crossed handshakes form a wait-for cycle over both channels.
    assert diag.wait_cycle
    joined = " ".join(diag.wait_cycle)
    assert "chip.ab" in joined and "chip.ba" in joined
    # Human rendering names the paths too.
    text = str(excinfo.value)
    assert "chip.a.ctl" in text and "chip.ba" in text


def test_diagnosis_exports_as_jsonl():
    sim, clk = build_deadlock_fixture()
    Watchdog(sim, clk, window=400)
    with pytest.raises(HangError) as excinfo:
        sim.run(until=10_000_000)
    records = excinfo.value.diagnosis.to_records()
    fh = io.StringIO()
    assert observe.write_jsonl(records, fh) == len(records)
    lines = fh.getvalue().splitlines()
    head = json.loads(lines[0])
    assert head["type"] == "hang" and head["kind"] == "deadlock"
    kinds = {json.loads(line)["type"] for line in lines}
    assert {"hang", "hang.thread", "hang.channel"} <= kinds


# ----------------------------------------------------------------------
# livelock / starvation
# ----------------------------------------------------------------------
def test_livelock_on_zero_token_progress():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    with sim.design.scope("chip", kind="Chip", clock=clk):
        chan = Buffer(sim, clk, capacity=2, name="c")
        inp = In(chan, name="in")

        def poller():
            while True:  # alive and polling, but nothing ever arrives
                inp.pop_nb()
                yield

        sim.add_thread(poller(), clk, name="poll")
    Watchdog(sim, clk, window=200)
    with pytest.raises(HangError) as excinfo:
        sim.run(until=1_000_000)
    diag = excinfo.value.diagnosis
    assert diag.kind == "livelock"
    assert diag.window == 200


def test_slow_but_live_design_never_trips_across_window_boundaries():
    """One token per 90 cycles under a 100-cycle window: progress always
    lands inside every window, including ones straddling check times."""
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    received = []
    with sim.design.scope("chip", kind="Chip", clock=clk):
        chan = Buffer(sim, clk, capacity=2, name="c")
        out = Out(chan, name="out")
        inp = In(chan, name="in")

        def producer():
            for i in range(12):
                yield 90
                assert out.push_nb(i)

        def consumer():
            for _ in range(1150):
                ok, msg = inp.pop_nb()
                if ok:
                    received.append(msg)
                yield

        sim.add_thread(producer(), clk, name="prod")
        sim.add_thread(consumer(), clk, name="cons")
    Watchdog(sim, clk, window=100)
    sim.run(until=12_000)  # no HangError: slow is not stuck
    assert received == list(range(12))


def test_watchdog_stands_down_when_design_finishes():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    with sim.design.scope("chip", kind="Chip", clock=clk):
        chan = Buffer(sim, clk, capacity=4, name="c")
        out = Out(chan, name="out")

        def short():
            yield from out.push(1)

        sim.add_thread(short(), clk, name="ctl")
    wd = Watchdog(sim, clk, window=40)
    # Design threads end immediately; the watchdog must notice, retire
    # its own thread, and never raise on the finished design.
    sim.run(until=2_000)
    assert wd._thread.done


# ----------------------------------------------------------------------
# cycle budget
# ----------------------------------------------------------------------
def test_budget_diagnosis_when_design_overstays():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    with sim.design.scope("chip", kind="Chip", clock=clk):
        chan = Buffer(sim, clk, capacity=2, name="c")
        out = Out(chan, name="out")
        inp = In(chan, name="in")

        def churner():
            i = 0
            while True:  # forever busy: real progress, never finishes
                if out.push_nb(i):
                    i += 1
                inp.pop_nb()
                yield

        sim.add_thread(churner(), clk, name="ctl")
    Watchdog(sim, clk, window=100_000, max_cycles=500)
    with pytest.raises(HangError) as excinfo:
        sim.run(until=100_000_000)
    assert excinfo.value.diagnosis.kind == "budget"
    assert sim.now <= 10 * 1200  # stopped near the 500-cycle budget


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------
def test_blocked_state_cleared_on_unblock():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    with sim.design.scope("chip", kind="Chip", clock=clk):
        chan = Buffer(sim, clk, capacity=2, name="c")
        out = Out(chan, name="out")
        inp = In(chan, name="in")

        def producer():
            yield 5
            assert out.push_nb(42)

        def consumer():
            msg = yield from inp.pop()  # blocks for ~6 cycles first
            assert msg == 42

        sim.add_thread(producer(), clk, name="prod")
        sim.add_thread(consumer(), clk, name="cons")
    wd = Watchdog(sim, clk, window=1000)
    sim.run(until=200)
    assert wd._blocked == {}


def test_double_watchdog_rejected_and_params_validated():
    sim, clk = build_deadlock_fixture()
    Watchdog(sim, clk, window=400)
    with pytest.raises(ValueError):
        Watchdog(sim, clk, window=400)
    sim2, clk2 = build_deadlock_fixture()
    with pytest.raises(ValueError):
        Watchdog(sim2, clk2, window=1)
