"""The lone-clock lane against the general loop, byte for byte.

The threaded kernel enters the lane (``repro.kernel.lane``) at every
timestep boundary with its shape, leaves it at its exit guards and
re-enters at the next boundary that qualifies; the compiled engine runs
the same lane.  Each scenario below drives the lane through one
construct, most of them making it leave and re-enter, and must read the
same as the general loop alone (``never_lane()``,
``tests/sweep/_never_park.py``) and as the compiled backend: the
resume-order log, ``sim.now`` after every run, and the fingerprint of
every simulator it built.
"""

import io

import pytest

from repro import observe
from repro.connections import Buffer, In, Out
from repro.faults import HangError, Watchdog
from repro.kernel import BusSignal, Simulator, Trace, write_vcd
from repro.trace import capture

from tests.sweep._never_park import lane_entries, never_lane, observe_run


def _design(backend):
    """Three pollers, a producer pushing through a Buffer and a consumer
    whose blocked pops park on the channel's pop gate."""
    sim = Simulator(backend=backend)
    clk = sim.add_clock("clk", period=10)
    chan = Buffer(sim, clk, capacity=2, name="pipe")
    out, inp = Out(chan, name="out"), In(chan, name="in")
    log = []

    def poller(name, every=1):
        def body():
            while True:
                log.append((name, sim.now))
                yield every
        return body

    def producer():
        for i in range(8):
            yield from out.push(i)
            log.append(("push", sim.now, i))
            yield 4

    def consumer():
        while True:
            msg = yield from inp.pop()
            log.append(("pop", sim.now, msg))

    sim.add_thread(poller("a"), clk, name="a")
    sim.add_thread(producer, clk, name="producer")
    sim.add_thread(poller("b"), clk, name="b")
    sim.add_thread(consumer, clk, name="consumer")
    sim.add_thread(poller("slow", 3), clk, name="slow")
    return sim, clk, log


def _at_cycle(sim, clk, cycle, fn, name="hook"):
    """A poller that calls ``fn()`` when ``clk`` reaches ``cycle``."""
    def body():
        while True:
            if clk.cycles == cycle:
                fn()
            yield
    sim.add_thread(body, clk, name=name)


def _schedule(sim, clk, log):
    note = lambda tag: lambda: log.append((tag, sim.now))  # noqa: E731
    _at_cycle(sim, clk, 5, lambda: sim.schedule(3, note("late")))
    _at_cycle(sim, clk, 9, lambda: sim.schedule(0, note("now")), "now")
    _at_cycle(sim, clk, 12, lambda: sim.schedule(10, note("edge")), "edge")

    def tick(clock):  # a callback scheduling onto the next edge's time:
        if clock.cycles == 15:  # its event fires before that edge
            sim.schedule(10, note("tick"))
        elif clock.cycles == 16:
            log.append(("edge16", sim.now))
    clk.on_edge(tick)
    return [sim.run(until=until) for until in (55, 85, 400)]


def _midthread(sim, clk, log):
    def spawn(name):
        def body():
            while True:
                log.append((name, sim.now))
                yield
        return lambda: sim.add_thread(body, clk, name=name)
    _at_cycle(sim, clk, 4, spawn("spawned"))

    def tick(clock):
        if clock.cycles == 8:
            spawn("ticked")()
    clk.on_edge(tick)
    return [sim.run(until=300)]


def _event(sim, clk, log):
    event = sim.event("go")

    def waiter():
        for _ in range(3):
            yield event
            log.append(("woke", sim.now))
            yield
            log.append(("polled", sim.now))
    sim.add_thread(waiter, clk, name="waiter")
    _at_cycle(sim, clk, 6, event.notify, "notify")
    _at_cycle(sim, clk, 11, lambda: event.notify_at(0), "notify0")
    _at_cycle(sim, clk, 16, lambda: event.notify_at(25), "notify25")
    return [sim.run(until=400)]


def _callback_event(sim, clk, log):
    """An edge callback notifies: the general loop resumes the waiter
    ahead of the cycle's bucket, sleepers included, in the same delta."""
    event = sim.event("tick")

    def waiter():
        for _ in range(3):
            yield event
            log.append(("woke", sim.now))
            yield
            log.append(("polled", sim.now))
    sim.add_thread(waiter, clk, name="waiter")

    def tick(clock):
        if clock.cycles in (6, 12, 18):  # 6 and 18: "slow" is due too
            event.notify()
    clk.on_edge(tick)
    return [sim.run(until=400)]


def _run_cycles(sim, clk, log):
    # An event due in the timestep that ends a run fires inside it.
    _at_cycle(sim, clk, 11, lambda: sim.schedule(
        0, lambda: log.append(("now", sim.now))))
    nows = []
    for n in (1, 3, 7, 2):
        nows.append(sim.run_cycles(clk, n))
        log.append(("run", sim.now))
        sim.schedule(4, lambda: log.append(("between", sim.now)))
    nows.append(sim.run_cycles(clk, 30))
    return nows


def _max_steps(sim, clk, log):
    _at_cycle(sim, clk, 3, lambda: sim.schedule(0, lambda: None))
    _at_cycle(sim, clk, 7, lambda: sim.schedule(2, lambda: None))
    nows = [sim.run(max_steps=n) for n in (1, 4, 6, 3)]
    nows.append(sim.run(until=350, max_steps=20))
    nows.append(sim.run(until=400))
    return nows


def _vcd(sim, clk, log):
    sim.trace = Trace(autowatch=True)
    sent = BusSignal(sim, width=8, name="sent")

    def writer():
        for i in range(20):
            sent.write(i * 7 % 256)
            yield 1 + i % 3
    sim.add_thread(writer, clk, name="writer")
    nows = [sim.run(until=200), sim.run(until=400)]
    fh = io.StringIO()
    write_vcd(sim.trace, fh)
    return nows + [fh.getvalue()]


def _watchdog(sim, clk, log):
    Watchdog(sim, clk, window=40, max_cycles=2_000)
    return [sim.run(until=400)]


def _snapshot(sim, clk, log):
    sim.enable_snapshots()
    sim.on_restore(log.clear)
    nows = [sim.run(until=120)]
    snap = sim.snapshot()
    nows.append(sim.run(until=300))
    first = list(log)
    sim.restore(snap)
    nows.append(sim.now)
    nows.append(sim.run(until=300))
    return nows + [log == first]


def _capture(sim, clk, log):
    with capture(sim) as session:
        nows = [sim.run(until=300)]
    return nows + [session.trace]


def _method(sim, clk, log):
    """The lane leaves once the registering delta's writes are committed:
    a thread that delta's event wakes reads the new value."""
    sig = BusSignal(sim, width=8, name="sig")
    event = sim.event("written")

    def waiter():
        yield event
        log.append(("waiter", sim.now, sig.read()))
    sim.add_thread(waiter, clk, name="waiter")

    def add():
        sim.add_method(lambda: log.append(("method", sim.now, sig.read())),
                       [sig], name="m")
        sig.write(9)
        event.notify()
    _at_cycle(sim, clk, 6, add)
    return [sim.run(until=300)]


def _set_period(sim, clk, log):
    def tick(clock):  # the next edge is placed after the callbacks
        if clock.cycles == 6:
            clock.set_period(7)
    clk.on_edge(tick)
    return [sim.run(until=300)]


class _Boom(Exception):
    pass


def _boom():
    raise _Boom


def _rerun(sim, log, runs):
    """Run to each horizon, catching a raise and running on."""
    nows = []
    for until in runs:
        try:
            nows.append(sim.run(until=until))
        except _Boom:
            log.append(("caught", sim.now))
    return nows + [sim.pending_threads]


def _raise_in_scan(sim, clk, log):
    """A poller raises mid-scan: it and the pollers behind it are lost."""
    _at_cycle(sim, clk, 5, _boom, "boom")

    def behind():
        while True:
            log.append(("behind", sim.now))
            yield
    sim.add_thread(behind, clk, name="behind")
    return _rerun(sim, log, (100, 200))


def _raise_in_delta(sim, clk, log):
    """A thread an event woke raises in the extra delta: the one woken
    behind it is lost."""
    event = sim.event("go")

    def woken(name, fail):
        def body():
            yield event
            if fail:
                raise _Boom
            while True:
                log.append((name, sim.now))
                yield
        return body
    sim.add_thread(woken("first", True), clk, name="first")
    sim.add_thread(woken("second", False), clk, name="second")
    _at_cycle(sim, clk, 7, event.notify, "notify")
    return _rerun(sim, log, (100, 200))


def _raise_in_callback(sim, clk, log):
    """An edge callback raises: that cycle's bucket never wakes."""
    def tick(clock):
        if clock.cycles == 9:
            raise _Boom
    clk.on_edge(tick)
    return _rerun(sim, log, (150, 300))


def _stop_and_pause(sim, clk, log):
    _at_cycle(sim, clk, 4, lambda: clk.pause_until(sim.now + 25))
    _at_cycle(sim, clk, 20, clk.stop, "stop")
    return [sim.run(until=400), sim.run()]


SCENARIOS = {"schedule": _schedule, "midthread": _midthread,
             "event": _event, "callback_event": _callback_event,
             "run_cycles": _run_cycles,
             "max_steps": _max_steps, "vcd": _vcd, "watchdog": _watchdog,
             "snapshot": _snapshot, "capture": _capture, "method": _method,
             "stop_and_pause": _stop_and_pause, "set_period": _set_period,
             "raise_in_scan": _raise_in_scan,
             "raise_in_delta": _raise_in_delta,
             "raise_in_callback": _raise_in_callback}


def _observe(case, backend, hub=False):
    """The scenario's observation; with ``hub``, run under a telemetry
    capture, plus the thread names each hub's ``proc_seconds`` charged
    (wall time, so only the names compare)."""
    def scenario():
        sim, clk, log = _design(backend)
        nows = case(sim, clk, log)
        return {"nows": nows, "log": log, "backend": sim.backend}
    if not hub:
        return observe_run(scenario), None
    with observe.capture() as session:
        observed = observe_run(scenario)
    return observed, [sorted(h.kernel.proc_seconds) for h in session.hubs]


#: Every scenario, and every one again with a telemetry hub but warm
#: restore (a hub makes a design snapshot-ineligible).
CASES = [pytest.param(name, False, id=name) for name in sorted(SCENARIOS)] \
    + [pytest.param(name, True, id=f"{name}-hub")
       for name in sorted(SCENARIOS) if name != "snapshot"]


@pytest.mark.parametrize("name,hub", CASES)
def test_lane_leaves_and_reenters_byte_identically(name, hub):
    """With a hub the lane keeps the kernel counters itself and must
    leave them, with the channel histograms, where the general loop
    leaves them: through every leave, re-entry and caught exception."""
    case = SCENARIOS[name]
    with never_lane() as declined:
        reference, threads = _observe(case, "threaded", hub)
    with lane_entries() as entries:
        laned = _observe(case, "threaded", hub)
    assert laned == (reference, threads)
    assert entries[0] >= 1 and declined[0] >= 1
    assert not hub or threads[0]
    compiled, compiled_threads = _observe(case, "compiled", hub)
    # Identical but for provenance: the compiled request may fall back.
    assert compiled.replace('"compiled"', '"threaded"') == reference
    assert compiled_threads == threads


def test_the_lane_leaves_on_every_exit_guard():
    """Each scenario meant to leave the lane does, and re-enters; a
    design with a method never re-enters, and a thread or callback
    registered mid-run is run on the lane without leaving it."""
    for name in ("schedule", "midthread", "event", "run_cycles",
                 "max_steps", "snapshot", "method"):
        with lane_entries() as entries:
            _observe(SCENARIOS[name], "threaded")
        once = name in ("method", "midthread")
        assert (entries[0] == 1) if once else (entries[0] >= 2)


@pytest.mark.parametrize("backend", ["threaded", "compiled"])
@pytest.mark.parametrize("lane", [True, False])
def test_timed_event_before_the_horizon_fires_in_its_run(backend, lane):
    """A thread schedules ``fn`` 3 ticks after its edge at 50: it fires
    at 53 inside ``run(until=55)``, and time never runs backwards."""
    sim = Simulator(backend=backend)
    clk = sim.add_clock("clk", period=10)
    Buffer(sim, clk, capacity=2, name="pipe")  # a callback: compiled attaches
    fired, seen = [], []

    def body():
        yield 5
        sim.schedule(3, lambda: fired.append(sim.now))
        while True:
            seen.append(sim.now)
            yield

    sim.add_thread(body, clk, name="t")
    ctx = never_lane() if not lane else lane_entries()
    with ctx:
        seen.append(sim.run(until=55))
        assert fired == [53]
        seen.append(sim.run(until=70))
    assert fired == [53]
    assert seen == sorted(seen) and seen[-1] == 70


def test_a_hang_under_the_lane_matches_the_general_loop():
    def hang():
        sim, clk, log = _design("threaded")
        chan = Buffer(sim, clk, capacity=1, name="dead")
        inp = In(chan, name="dead_in")

        def stuck():
            yield from inp.pop()
        sim.add_thread(stuck, clk, name="stuck")
        Watchdog(sim, clk, window=40, max_cycles=300)
        with pytest.raises(HangError) as exc:
            sim.run()
        return {"log": log, "diagnosis": exc.value.diagnosis.format()}

    with never_lane():
        reference = observe_run(hang)
    assert observe_run(hang) == reference
