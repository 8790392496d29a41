"""Fault-injection campaigns: seeded runs, outcome triage, shrinking.

A *campaign case* is one experiment harness run under one seeded
:class:`~repro.faults.plan.FaultPlan` with a
:class:`~repro.faults.watchdog.Watchdog` attached, classified as:

* ``clean`` — the design absorbed the faults and produced the exact
  expected output (the LI-robustness claim: drops never happened, or
  only backpressure faults were injected),
* ``detected`` — the output differs, and the injected-fault budget
  (drops + duplicates + corruptions, plus harness-side detectors such
  as checksum mismatch counters) explains it,
* ``hang`` — the watchdog raised :class:`HangError`; the record embeds
  the full path-level diagnosis,
* ``crash`` — an unexpected exception, or an output mismatch that *no*
  injected fault explains (a silent-corruption escape — the outcome
  campaigns exist to catch).

Everything is derived from the case seed: the plan (drawn from the
harness's fault menu), every fault's RNG stream, and the harness's
stimulus.  Running the same seed twice produces byte-identical records,
which is what lets ``repro faults`` results be diffed across machines
and lets :func:`shrink` re-run a failing case while removing directives
one at a time until only the faults needed to reproduce remain.

Campaigns integrate with the PR 4 sweep engine as the
``fault_campaign`` experiment: each case is one
:class:`~repro.sweep.point.SweepPoint`, so campaigns parallelize across
a process pool and land in the content-addressed result cache like any
other sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from .. import registry
from ..connections import Buffer, In, Out
from ..connections.packet import (DePacketizer, Packetizer, int_deserializer,
                                  int_serializer)
from ..experiments.stall_verification import build_stall_testbench
from ..gals.gals_link import GalsLink
from ..kernel import Simulator
from ..matchlib.arbitrated_crossbar import ArbitratedCrossbarModule
from ..sweep.point import SweepPoint
from .plan import FaultPlan
from .watchdog import HangError, Watchdog

__all__ = ["Rig", "Harness", "default_plan", "execute",
           "shrink", "outcome_class", "build_deadlock_fixture",
           "sweep_space", "run_sweep_point", "summarize_sweep",
           "OUTCOMES"]

#: Classification vocabulary, in severity order.
OUTCOMES = ("clean", "detected", "hang", "crash")


def _zero() -> int:
    return 0


@dataclass
class Rig:
    """One built testbench instance, ready to run under faults."""

    sim: Any
    clock: Any
    until: int                       # sim.run time bound (ticks)
    verify: Callable[[], bool]       # True when the output is exact
    window: int = 4000               # watchdog livelock window (cycles)
    max_cycles: Optional[int] = None
    detected: Callable[[], int] = _zero  # harness-side fault detectors


@dataclass(frozen=True)
class Harness:
    """A campaign target: rig builder + its menu of applicable faults.

    Menu entries are ``(plan, rng) -> None`` callables that append one
    directive; :func:`default_plan` samples 1-3 of them per case.
    ``expected`` is the outcome set the CLI treats as success — the
    deliberately-deadlocked fixture *expects* ``hang``.
    """

    name: str
    build: Callable[[int], Rig]
    menu: Tuple[Callable, ...] = ()
    expected: Tuple[str, ...] = ("clean", "detected")
    in_default_matrix: bool = True


# ----------------------------------------------------------------------
# harness: stall_verification (LeakyForwarder pipeline, bug disabled)
# ----------------------------------------------------------------------
def _build_stall_rig(seed: int) -> Rig:
    n_msgs = 40
    # bug=False: the *design* is correct; only injected faults may lose
    # messages.  The consumer drains a fixed n_msgs*40 = 1600 cycles, so
    # the run ends by time bound shortly after.
    sim, received = build_stall_testbench(0.0, seed, n_msgs=n_msgs,
                                          bug=False)
    expected = list(range(n_msgs))
    return Rig(sim=sim, clock=sim._clocks[0], until=n_msgs * 425,
               verify=lambda: received == expected,
               window=4000, max_cycles=8000)


_STALL_MENU = (
    lambda plan, rng: plan.drop(
        "down", probability=round(0.05 + 0.25 * rng.random(), 3)),
    lambda plan, rng: plan.duplicate(
        "down", probability=round(0.05 + 0.2 * rng.random(), 3)),
    lambda plan, rng: plan.corrupt(
        "up", probability=round(0.05 + 0.25 * rng.random(), 3)),
    lambda plan, rng: plan.stall_burst(
        "down", start=rng.randrange(0, 100),
        length=rng.randrange(50, 200),
        probability=round(0.3 + 0.5 * rng.random(), 3)),
)


# ----------------------------------------------------------------------
# harness: fig3_crossbar (2x2 arbitrated crossbar, sim-accurate model)
# ----------------------------------------------------------------------
def _crossbar_corrupter(msg, rng: random.Random):
    """Payload-only single-bit flip: ``(dest, (port, i))`` keeps its
    dest valid so corruption is *detected* at the sinks rather than
    crashing arbitration on an out-of-range destination."""
    dest, (port, i) = msg
    return dest, (port, i ^ (1 << rng.randrange(8)))


def _build_crossbar_rig(seed: int) -> Rig:
    n, n_msgs = 2, 16
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    with sim.design.scope("chip", kind="Chip", clock=clk):
        xbar = ArbitratedCrossbarModule(sim, clk, n, n, name="xbar")
        ins = [Buffer(sim, clk, capacity=2, name=f"i{i}") for i in range(n)]
        outs = [Buffer(sim, clk, capacity=2, name=f"o{o}") for o in range(n)]
        for i in range(n):
            xbar.ins[i].bind(ins[i])
            xbar.outs[i].bind(outs[i])
        rng = random.Random(f"fig3:{seed}")
        stimulus = [[(rng.randrange(n), (p, i)) for i in range(n_msgs)]
                    for p in range(n)]
        got: List[List[tuple]] = [[] for _ in range(n)]

        def producer(src: Out, msgs: List[tuple]) -> Generator:
            for msg in msgs:
                yield from src.push(msg)

        def consumer(dst: In, sink: List[tuple]) -> Generator:
            for _ in range(600):  # bounded drain: covers any stall burst
                ok, msg = dst.pop_nb()
                if ok:
                    sink.append(msg)
                yield

        for p in range(n):
            with sim.design.scope(f"src{p}", kind="StreamSource"):
                sim.add_thread(producer(Out(ins[p], name="out"),
                                        stimulus[p]), clk, name="ctl")
        for o in range(n):
            with sim.design.scope(f"snk{o}", kind="StreamSink"):
                sim.add_thread(consumer(In(outs[o], name="in"),
                                        got[o]), clk, name="ctl")

    want = [sorted(m for msgs in stimulus for m in msgs if m[0] == o)
            for o in range(n)]

    def verify() -> bool:
        return all(sorted(got[o]) == want[o] for o in range(n))

    return Rig(sim=sim, clock=clk, until=7000, verify=verify,
               window=4000, max_cycles=8000)


_CROSSBAR_MENU = (
    lambda plan, rng: plan.drop(
        "chip.o0", probability=round(0.05 + 0.2 * rng.random(), 3)),
    lambda plan, rng: plan.duplicate(
        "chip.i1", probability=round(0.05 + 0.2 * rng.random(), 3)),
    lambda plan, rng: plan.corrupt(
        "chip.i0", probability=round(0.05 + 0.25 * rng.random(), 3),
        corrupter=_crossbar_corrupter),
    lambda plan, rng: plan.stall_burst(
        "chip.o1", start=rng.randrange(0, 50),
        length=rng.randrange(50, 200),
        probability=round(0.3 + 0.5 * rng.random(), 3)),
)


# ----------------------------------------------------------------------
# harness: gals_overhead (two-domain stream over a GalsLink)
# ----------------------------------------------------------------------
def _build_gals_rig(seed: int) -> Rig:
    n_msgs = 24
    sim = Simulator()
    tx = sim.add_clock("tx", period=90)
    rx = sim.add_clock("rx", period=130)
    with sim.design.scope("chip", kind="Chip"):
        link = GalsLink(sim, tx, rx, capacity=4, name="link")
        got: List[int] = []

        def producer(src: Out) -> Generator:
            for i in range(n_msgs):
                yield from src.push(i)

        def consumer(dst: In) -> Generator:
            for _ in range(600):  # bounded drain in rx cycles
                ok, msg = dst.pop_nb()
                if ok:
                    got.append(msg)
                yield

        with sim.design.scope("prod", kind="StreamSource", clock=tx):
            sim.add_thread(producer(Out(link, name="out")), tx, name="ctl")
        with sim.design.scope("cons", kind="StreamSink", clock=rx):
            sim.add_thread(consumer(In(link, name="in")), rx, name="ctl")

    expected = list(range(n_msgs))
    return Rig(sim=sim, clock=tx, until=90_000,
               verify=lambda: got == expected,
               window=6000, max_cycles=12_000)


_GALS_MENU = (
    lambda plan, rng: plan.clock_jitter(
        "tx", amplitude=rng.randrange(2, 9), every=rng.randrange(3, 17)),
    lambda plan, rng: plan.clock_drift(
        "rx", rate=rng.choice((-2, -1, 1, 2)), every=rng.randrange(16, 65)),
    lambda plan, rng: plan.drop(
        "chip.link", probability=round(0.05 + 0.2 * rng.random(), 3)),
    lambda plan, rng: plan.duplicate(
        "chip.link", probability=round(0.05 + 0.2 * rng.random(), 3)),
    lambda plan, rng: plan.corrupt(
        "chip.link", probability=round(0.05 + 0.25 * rng.random(), 3)),
    lambda plan, rng: plan.stall_burst(
        "chip.link", start=rng.randrange(0, 100),
        length=rng.randrange(50, 150),
        probability=round(0.3 + 0.4 * rng.random(), 3)),
)


# ----------------------------------------------------------------------
# harness: packet_stream (checksummed Packetizer/DePacketizer pipe)
# ----------------------------------------------------------------------
def _build_packet_rig(seed: int) -> Rig:
    n_msgs, width, flit_width = 12, 32, 8
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    with sim.design.scope("chip", kind="Chip", clock=clk):
        src = Buffer(sim, clk, capacity=2, name="src")
        wire = Buffer(sim, clk, capacity=4, name="wire")
        dst = Buffer(sim, clk, capacity=4, name="dst")
        pkt = Packetizer(sim, clk, serialize=int_serializer(width, flit_width),
                         checksum=True, name="pkt")
        depkt = DePacketizer(sim, clk,
                             deserialize=int_deserializer(width, flit_width),
                             checksum=True, name="depkt")
        pkt.msg_in.bind(src)
        pkt.flit_out.bind(wire)
        depkt.flit_in.bind(wire)
        depkt.msg_out.bind(dst)

        rng = random.Random(f"packet:{seed}")
        stimulus = [rng.getrandbits(width) for _ in range(n_msgs)]
        got: List[int] = []

        def producer(out: Out) -> Generator:
            for msg in stimulus:
                yield from out.push(msg)

        def consumer(inp: In) -> Generator:
            for _ in range(800):  # bounded drain
                ok, msg = inp.pop_nb()
                if ok:
                    got.append(msg)
                yield

        with sim.design.scope("prod", kind="StreamSource"):
            sim.add_thread(producer(Out(src, name="out")), clk, name="ctl")
        with sim.design.scope("cons", kind="StreamSink"):
            sim.add_thread(consumer(In(dst, name="in")), clk, name="ctl")

    return Rig(sim=sim, clock=clk, until=9000,
               verify=lambda: got == stimulus,
               window=4000, max_cycles=10_000,
               detected=lambda: depkt.corrupted_messages)


_PACKET_MENU = (
    lambda plan, rng: plan.corrupt(
        "chip.wire", probability=round(0.02 + 0.1 * rng.random(), 3)),
    lambda plan, rng: plan.drop(
        "chip.wire", probability=round(0.02 + 0.08 * rng.random(), 3)),
    lambda plan, rng: plan.duplicate(
        "chip.wire", probability=round(0.02 + 0.08 * rng.random(), 3)),
    lambda plan, rng: plan.stall_burst(
        "chip.wire", start=rng.randrange(0, 80),
        length=rng.randrange(50, 150),
        probability=round(0.3 + 0.4 * rng.random(), 3)),
)


# ----------------------------------------------------------------------
# harness: deadlock_demo (deliberately crossed blocking pops)
# ----------------------------------------------------------------------
def build_deadlock_fixture(seed: int = 0):
    """A two-thread design that deadlocks on its very first cycle.

    ``chip.a`` pops ``chip.ba`` before pushing ``chip.ab``; ``chip.b``
    pops ``chip.ab`` before pushing ``chip.ba``.  Each waits for a
    message only the other can send: the canonical crossed-handshake
    deadlock, used by tests and CI to assert the watchdog names the
    exact dotted channel paths.  Returns ``(sim, clk)``.
    """
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    with sim.design.scope("chip", kind="Chip", clock=clk):
        ab = Buffer(sim, clk, capacity=2, name="ab")
        ba = Buffer(sim, clk, capacity=2, name="ba")

        def unit(inp: In, out: Out) -> Generator:
            while True:
                msg = yield from inp.pop()  # waits for the peer first
                yield from out.push(msg + 1)

        with sim.design.scope("a", kind="Unit"):
            sim.add_thread(unit(In(ba, name="in"), Out(ab, name="out")),
                           clk, name="ctl")
        with sim.design.scope("b", kind="Unit"):
            sim.add_thread(unit(In(ab, name="in"), Out(ba, name="out")),
                           clk, name="ctl")
    return sim, clk


def _build_deadlock_rig(seed: int) -> Rig:
    sim, clk = build_deadlock_fixture(seed)
    return Rig(sim=sim, clock=clk, until=1_000_000,
               verify=lambda: False, window=400, max_cycles=5000)


# ----------------------------------------------------------------------
# the harnesses, referenced by name from repro.catalog
# ----------------------------------------------------------------------
# Harness names predate the registry and follow the *sweep* naming
# (``stall_verification``), while the specs that carry them use the CLI
# verb names (``stalls``) — the registry indexes both.
STALL_HARNESS = Harness("stall_verification", _build_stall_rig, _STALL_MENU)
CROSSBAR_HARNESS = Harness("fig3_crossbar", _build_crossbar_rig,
                           _CROSSBAR_MENU)
GALS_HARNESS = Harness("gals_overhead", _build_gals_rig, _GALS_MENU)
PACKET_HARNESS = Harness("packet_stream", _build_packet_rig, _PACKET_MENU)
DEADLOCK_HARNESS = Harness("deadlock_demo", _build_deadlock_rig,
                           expected=("hang",), in_default_matrix=False)

# ----------------------------------------------------------------------
# case execution
# ----------------------------------------------------------------------
def default_plan(harness_name: str, seed: int) -> FaultPlan:
    """Draw this case's fault schedule from the harness menu.

    1-3 distinct menu entries, chosen and parameterized by a named RNG
    stream — the same ``(harness, seed)`` always yields the same plan.
    """
    harness = registry.get_harness(harness_name)
    plan = FaultPlan(seed)
    if not harness.menu:
        return plan
    rng = random.Random(f"campaign:{harness_name}:{seed}")
    picks = rng.sample(range(len(harness.menu)),
                       rng.randint(1, min(3, len(harness.menu))))
    for index in sorted(picks):
        harness.menu[index](plan, rng)
    return plan


def execute(harness_name: str, plan: FaultPlan, seed: int) -> dict:
    """Build, fault, watch, run, classify: one campaign case.

    The returned record is plain JSON-able data and fully deterministic
    for a given ``(harness, plan, seed)``.
    """
    harness = registry.get_harness(harness_name)
    rig = harness.build(seed)
    applied = plan.apply(rig.sim)
    Watchdog(rig.sim, rig.clock, window=rig.window,
             max_cycles=rig.max_cycles)
    record: dict = {"experiment": harness_name, "seed": seed,
                    "plan": plan.describe()}
    try:
        rig.sim.run(until=rig.until)
    except HangError as exc:
        record["outcome"] = "hang"
        record["diagnosis"] = exc.diagnosis.to_records()
    except Exception as exc:  # noqa: BLE001 - classified, not swallowed
        record["outcome"] = "crash"
        record["error"] = f"{type(exc).__name__}: {exc}"
    else:
        harness_detected = rig.detected()
        if rig.verify():
            record["outcome"] = "clean"
        elif applied.lossy_events() + harness_detected > 0:
            record["outcome"] = "detected"
        else:
            # The escape campaigns exist to catch: wrong output that no
            # injected fault accounts for.
            record["outcome"] = "crash"
            record["error"] = ("output mismatch with zero injected lossy "
                               "events (silent corruption escape)")
    record["injected"] = applied.counters()
    record["harness_detected"] = rig.detected()
    record["ok"] = record["outcome"] in harness.expected
    return record


def outcome_class(record: dict) -> str:
    """The *full* classification of an executed case, not just the coarse
    outcome: hangs keep their watchdog kind (``hang:deadlock`` vs
    ``hang:livelock`` vs ``hang:budget``) and crashes keep their error
    type (``crash:TypeError``, ``crash:escape`` for silent corruption).
    Shrinking validates candidates against this, so a reduction can
    never silently trade one failure mode for another.
    """
    outcome = record["outcome"]
    if outcome == "hang":
        kinds = [r.get("kind") for r in record.get("diagnosis", ())
                 if r.get("type") == "hang"]
        return f"hang:{kinds[0]}" if kinds else "hang"
    if outcome == "crash":
        error = record.get("error", "")
        if error.startswith("output mismatch"):
            return "crash:escape"
        return f"crash:{error.split(':', 1)[0] or 'unknown'}"
    return outcome


def shrink(harness_name: str, plan: FaultPlan, seed: int,
           target_outcome: Optional[str] = None, *, max_runs: int = 32,
           match: str = "class") -> FaultPlan:
    """Greedy 1-minimal reduction of a failing fault schedule.

    Repeatedly re-runs the case with one directive removed, keeping any
    reduction that still reproduces the original failure; directives
    carry frozen sub-seeds, so survivors behave identically in smaller
    plans.  Capped at ``max_runs`` executions (the reference run for
    the original plan included).

    ``match`` controls what "still reproduces" means:

    * ``"class"`` (default) — the candidate's :func:`outcome_class`
      must equal the original plan's (a livelock stays a livelock, a
      TypeError crash stays a TypeError crash);
    * ``"outcome"`` — only the coarse outcome string must match
      (a deadlock may shrink into a livelock);
    * ``"any"`` — any not-``ok`` outcome is accepted.  This is the
      naive fixpoint and it is *wrong* — it can shrink a hang into an
      unrelated crash (see ``tests/verify/test_shrink.py``) — kept
      only to document the hazard.

    ``target_outcome`` optionally asserts what the original plan's
    coarse outcome is expected to be (a mismatch raises ``ValueError``);
    ``None`` accepts whatever the reference run produces.
    """
    if match not in ("class", "outcome", "any"):
        raise ValueError(f"unknown shrink match mode {match!r}")
    harness = registry.get_harness(harness_name)
    reference = execute(harness_name, plan, seed)
    runs = 1
    if target_outcome is not None \
            and reference["outcome"] != target_outcome:
        raise ValueError(
            f"plan does not reproduce {target_outcome!r} on "
            f"{harness_name!r} (got {reference['outcome']!r})")
    target_class = outcome_class(reference)

    def reproduces(record: dict) -> bool:
        if match == "any":
            return record["outcome"] not in harness.expected
        if match == "outcome":
            return record["outcome"] == reference["outcome"]
        return outcome_class(record) == target_class

    current = plan
    improved = True
    while improved and runs < max_runs and len(current.directives) > 1:
        improved = False
        for index in range(len(current.directives)):
            candidate = current.without(index)
            runs += 1
            if reproduces(execute(harness_name, candidate, seed)):
                current = candidate
                improved = True
                break
            if runs >= max_runs:
                break
    return current


# ----------------------------------------------------------------------
# sweep integration (the ``fault_campaign`` experiment)
# ----------------------------------------------------------------------
def sweep_space(*, experiments: Optional[List[str]] = None, cases: int = 4,
                seed: int = 0) -> List[SweepPoint]:
    """Enumerate N seeded cases per harness as sweep points."""
    if experiments is None:
        names = [name for name in registry.harness_names()
                 if registry.get_harness(name).in_default_matrix]
    else:
        names = list(experiments)
        for name in names:
            registry.get_harness(name)  # KeyError names the known ones
    return [SweepPoint("fault_campaign", {"experiment": name, "case": case},
                       seed=seed + case)
            for name in names for case in range(cases)]


def run_sweep_point(params: dict, seed: int) -> dict:
    """Execute one campaign case; the sweep registry's point runner."""
    name = params["experiment"]
    record = execute(name, default_plan(name, seed), seed)
    record["case"] = params["case"]
    return record


def summarize_sweep(results: List[dict]) -> str:
    """Outcome matrix per harness, plus any hang diagnoses in full."""
    by_name: Dict[str, List[dict]] = {}
    for rec in results:
        by_name.setdefault(rec["experiment"], []).append(rec)
    lines = ["Fault-injection campaign outcomes",
             f"{'experiment':<20} {'cases':>6} " +
             " ".join(f"{o:>9}" for o in OUTCOMES)]
    for name in sorted(by_name):
        recs = by_name[name]
        counts = {o: sum(1 for r in recs if r["outcome"] == o)
                  for o in OUTCOMES}
        lines.append(f"{name:<20} {len(recs):>6} " +
                     " ".join(f"{counts[o]:>9}" for o in OUTCOMES))
    problems = [r for r in results if not r.get("ok", True)]
    for rec in problems:
        lines.append("")
        lines.append(f"-- {rec['experiment']} seed={rec['seed']}: "
                     f"{rec['outcome']}")
        if rec.get("error"):
            lines.append(f"   {rec['error']}")
        for d in rec.get("diagnosis", ()):
            if d.get("type") == "hang":
                lines.append(f"   {d['kind']}: {d['reason']}")
            elif d.get("type") == "hang.thread":
                lines.append(f"   {d['thread']} blocked in {d['op']}() on "
                             f"{d['channel']}")
    return "\n".join(lines)
