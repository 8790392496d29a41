"""Trace capture: eligibility findings, op scripts, scoping rules."""

import pytest

from repro.connections import Buffer, In, Out
from repro.kernel import Simulator
from repro.trace import CaptureError, TRACE_SCHEMA, capture


def _producer(port, n):
    for i in range(n):
        yield from port.push(i)


def _consumer(port, n):
    for _ in range(n):
        yield from port.pop()


def _pipe(n_msgs=8, capacity=2):
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    chan = Buffer(sim, clk, capacity=capacity, name="pipe")
    sim.add_thread(_producer(Out(chan, name="out"), n_msgs), clk, name="p")
    sim.add_thread(_consumer(In(chan, name="in"), n_msgs), clk, name="c")
    return sim, chan


def test_blocking_pipeline_is_eligible():
    sim, chan = _pipe()
    with capture(sim) as session:
        sim.run(until=2000)
    trace = session.trace
    assert trace["schema"] == TRACE_SCHEMA
    assert trace["eligible"] and trace["reasons"] == []
    assert [c["path"] for c in trace["channels"]] == ["pipe"]
    assert trace["channels"][0]["stats"]["transfers"] == 8
    # Two threads, one completed op script each, both generators done.
    assert all(t["finished"] and t["pending"] is None
               for t in trace["threads"])
    assert sum(len(t["ops"]) for t in trace["threads"]) == 16


def test_trace_records_kernel_counters_verbatim():
    sim, chan = _pipe()
    with capture(sim) as session:
        sim.run(until=2000)
    stats = session.trace["channels"][0]["stats"]
    s = chan.stats
    assert stats == {
        "transfers": s.transfers,
        "push_attempts": s.push_attempts,
        "pop_attempts": s.pop_attempts,
        "push_rejections": s.push_rejections,
        "pop_rejections": s.pop_rejections,
        "stall_cycles": s.stall_cycles,
        "occupancy_sum": s.occupancy_sum,
        "cycles": s.cycles,
    }


def test_nonblocking_ops_recorded_as_reasons():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    chan = Buffer(sim, clk, capacity=2, name="pipe")
    out = Out(chan, name="out")

    def poller(port):
        while not port.can_pop():
            yield
        port.pop_nb()

    sim.add_thread(_producer(out, 1), clk, name="p")
    sim.add_thread(poller(In(chan, name="in")), clk, name="c")
    with capture(sim) as session:
        sim.run(until=500)
    trace = session.trace
    assert not trace["eligible"]
    text = " ".join(trace["reasons"])
    assert "can_pop" in text and "pop_nb" in text


def test_two_clocks_are_a_reason():
    sim = Simulator()
    sim.add_clock("a", period=10)
    sim.add_clock("b", period=7)
    with capture(sim) as session:
        sim.run(until=100)
    assert not session.trace["eligible"]
    assert any("2 clocks" in r for r in session.trace["reasons"])


def test_already_started_clock_is_a_reason():
    sim, _ = _pipe()
    sim.run(until=50)
    with capture(sim) as session:
        sim.run(until=500)
    assert any("already ticked" in r for r in session.trace["reasons"])


def test_midrun_set_stall_is_a_reason():
    sim, chan = _pipe()
    with capture(sim) as session:
        sim.run(until=100)
        chan.set_stall(0.5, seed=7)
        sim.run(until=2000)
    assert any("mid-run" in r for r in session.trace["reasons"])


def test_capture_time_set_stall_records_seed():
    sim, chan = _pipe()
    with capture(sim) as session:
        chan.set_stall(0.25, seed=42)
        sim.run(until=2000)
    rec = session.trace["channels"][0]
    assert rec["stall_probability"] == 0.25 and rec["stall_seed"] == 42
    # set_stall before the first tick is not "mid-run".
    assert not any("mid-run" in r for r in session.trace["reasons"])


def test_preexisting_stall_seed_is_unknown():
    sim, chan = _pipe()
    chan.set_stall(0.25, seed=42)  # before the capture window
    with capture(sim) as session:
        sim.run(until=2000)
    trace = session.trace
    assert trace["channels"][0]["stall_seed"] is None
    assert any("predates the capture window" in r for r in trace["reasons"])


def test_preloaded_channel_is_a_reason():
    sim, chan = _pipe()
    Out(chan, name="pre").push_nb(99)  # message in flight before capture
    with capture(sim) as session:
        sim.run(until=2000)
    assert any("before" in r and "pipe" in r
               for r in session.trace["reasons"])


def test_timed_schedule_during_capture_is_a_reason():
    sim, _ = _pipe()
    with capture(sim) as session:
        sim.schedule(55, lambda: None)
        sim.run(until=2000)
    assert any("timed event was scheduled" in r
               for r in session.trace["reasons"])


def test_multiple_pushers_are_a_reason():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    chan = Buffer(sim, clk, capacity=4, name="shared")
    sim.add_thread(_producer(Out(chan, name="o1"), 2), clk, name="p1")
    sim.add_thread(_producer(Out(chan, name="o2"), 2), clk, name="p2")
    sim.add_thread(_consumer(In(chan, name="in"), 4), clk, name="c")
    with capture(sim) as session:
        sim.run(until=2000)
    assert any("2 pushing threads" in r for r in session.trace["reasons"])


def test_pending_op_recorded_when_horizon_cuts_midrun():
    sim, _ = _pipe(n_msgs=50, capacity=1)
    with capture(sim) as session:
        sim.run(until=80)  # far too short for 50 messages
    trace = session.trace
    assert trace["eligible"]
    producer = next(t for t in trace["threads"] if t["path"] == "p")
    assert not producer["finished"]
    assert producer["pending"] is not None or producer["ops"]


def test_captures_do_not_nest():
    sim, _ = _pipe()
    with capture(sim):
        with pytest.raises(CaptureError, match="nest"):
            with capture(sim):
                pass


def test_instrumentation_is_scoped():
    """Patched methods are restored when the capture window closes."""
    from repro.connections.channel import FastChannel

    before = FastChannel.do_push
    sim, _ = _pipe()
    with capture(sim):
        assert FastChannel.do_push is not before
        sim.run(until=500)
    assert FastChannel.do_push is before
    assert sim.watchdog is None
