"""Section 4 verification claim: stall injection finds corner cases.

"Leveraging the advantages of LI design, we add an option to inject
random stalls into any channel ... Such testing assists in quickly
covering complex corner case scenarios that otherwise would require
significant dedicated test development effort."

The experiment plants a classic latency-insensitivity bug — a forwarding
unit that drops a message after repeated backpressure (a missing skid
buffer) — and measures how quickly randomized stall campaigns expose it.
Without stalls the consumer is always ready, backpressure never happens,
and the buggy design passes every test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from ..connections import Buffer, In, Out
from ..design.hierarchy import component_scope
from ..kernel import Simulator
from ..sweep.point import SweepPoint
from ..sweep.warm import WarmSession
from ..trace.adapter import SweepAdapter

__all__ = ["LeakyForwarder", "build_stall_testbench", "stall_campaign",
           "CampaignResult", "format_campaign", "sweep_space",
           "run_sweep_point", "campaigns_from_sweep", "summarize_sweep",
           "SWEEP_ADAPTER"]

#: Defaults shared by the serial campaign and the sweep space, so both
#: enumerate exactly the same (probability, seed) grid.
DEFAULT_PROBABILITIES = (0.0, 0.1, 0.3, 0.5)
DEFAULT_TRIALS = 10
DEFAULT_BASE_SEED = 100


class LeakyForwarder:
    """A forwarding unit with a seeded backpressure bug.

    With ``bug=True`` the unit drops the in-flight message after two
    consecutive failed pushes — exactly the kind of timing-interaction
    defect that only appears when the downstream stalls.
    """

    def __init__(self, sim, clock, *, bug: bool = True, name: str = "fwd"):
        self.bug = bug
        with component_scope(sim, name, kind="LeakyForwarder", obj=self,
                             clock=clock) as inst:
            self.name = inst.name if inst is not None else name
            self.in_port: In = In(name="in")
            self.out_port: Out = Out(name="out")
            self.forwarded = 0
            self.dropped = 0
            # Factory-style registration keeps the design snapshot-
            # eligible (warm batched sweeps re-create the generator on
            # every restore); the counters rewind via on_restore below.
            sim.add_thread(lambda: self._run(), clock, name="ctl")
            sim.on_restore(self._reset_counters)

    def _reset_counters(self) -> None:
        self.forwarded = 0
        self.dropped = 0

    def _run(self) -> Generator:
        while True:
            msg = yield from self.in_port.pop()
            fails = 0
            dropped = False
            while not self.out_port.push_nb(msg):
                fails += 1
                if self.bug and fails >= 2:
                    self.dropped += 1  # the bug: message silently lost
                    dropped = True
                    break
                yield
            if not dropped:
                self.forwarded += 1
            yield


@dataclass(frozen=True)
class CampaignResult:
    stall_probability: float
    trials: int
    detections: int
    first_detection_trial: int  # -1 if never detected

    @property
    def detection_rate(self) -> float:
        return self.detections / self.trials


def build_stall_testbench(stall_probability: float = 0.3, seed: int = 100, *,
                          n_msgs: int = 60, bug: bool = True):
    """Construct (without running) one stall-injection trial.

    Returns ``(sim, received)``: run the simulator, then compare
    ``received`` against ``list(range(n_msgs))`` to detect the bug.
    """
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    up = Buffer(sim, clk, capacity=2, name="up")
    down = Buffer(sim, clk, capacity=2, name="down")
    if stall_probability > 0:
        down.set_stall(stall_probability, seed=seed)
    dut = LeakyForwarder(sim, clk, bug=bug)
    dut.in_port.bind(up)
    dut.out_port.bind(down)
    received: List[int] = []

    def producer(src):
        for i in range(n_msgs):
            yield from src.push(i)

    def consumer(dst):
        # Fixed test length: LI-correct designs deliver everything.
        for _ in range(n_msgs * 40):
            ok, msg = dst.pop_nb()
            if ok:
                received.append(msg)
            yield

    # Ports are constructed once (inside their component scope); only
    # the generators are factory-recreated on a snapshot restore.
    with component_scope(sim, "src", kind="StreamSource", clock=clk):
        src_port = Out(up, name="out")
        sim.add_thread(lambda: producer(src_port), clk, name="ctl")
    with component_scope(sim, "snk", kind="StreamSink", clock=clk):
        snk_port = In(down, name="in")
        sim.add_thread(lambda: consumer(snk_port), clk, name="ctl")
    sim.on_restore(received.clear)
    return sim, received


def _one_trial(stall_probability: float, seed: int, *, n_msgs: int = 60,
               bug: bool = True) -> bool:
    """Returns True if the trial *detected* the bug (output mismatch)."""
    sim, received = build_stall_testbench(stall_probability, seed,
                                          n_msgs=n_msgs, bug=bug)
    sim.run(until=n_msgs * 1200)
    return received != list(range(n_msgs))


def stall_campaign(stall_probability: float, *, trials: int = 20,
                   bug: bool = True, base_seed: int = 100) -> CampaignResult:
    """Run randomized trials at one stall probability."""
    detections = 0
    first = -1
    for t in range(trials):
        if _one_trial(stall_probability, base_seed + t, bug=bug):
            detections += 1
            if first < 0:
                first = t + 1
    return CampaignResult(stall_probability, trials, detections, first)


# ----------------------------------------------------------------------
# sweep integration (repro.sweep): one point per (probability, trial)
# ----------------------------------------------------------------------
def sweep_space(*, probabilities=DEFAULT_PROBABILITIES,
                trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_BASE_SEED,
                n_msgs: int = 60, bug: bool = True) -> List[SweepPoint]:
    """Enumerate the stall campaign as independent seeded trials.

    ``seed`` is the campaign base seed; trial ``t`` runs with
    ``seed + t`` at every probability — the exact grid
    :func:`stall_campaign` walks serially.
    """
    return [
        SweepPoint("stall_verification",
                   {"stall_probability": p, "trial": t,
                    "n_msgs": n_msgs, "bug": bug},
                   seed=seed + t)
        for p in probabilities
        for t in range(trials)
    ]


def run_sweep_point(params: dict, seed: int) -> dict:
    """Execute one trial; the sweep registry's point runner."""
    detected = _one_trial(params["stall_probability"], seed,
                          n_msgs=params["n_msgs"], bug=params["bug"])
    return {"stall_probability": params["stall_probability"],
            "trial": params["trial"], "seed": seed, "detected": detected}


# ----------------------------------------------------------------------
# sweep adapter (repro.trace.adapter.SweepAdapter): warm yes, replay no
# ----------------------------------------------------------------------
# Only the stall knobs vary between trials, so every trial shares one
# structural base.  A warm session *re-simulates* each point on the
# constructed testbench, so the non-blocking ops and message values play
# out exactly as in a fresh build.  Analytical replay is the *dynamic*
# fallback showcase: the capture itself records that this harness is
# not replayable — LeakyForwarder retries with push_nb and the checker
# polls with pop_nb, and non-blocking timing races are exactly what
# replay cannot reconstruct.  `sweep --incremental` therefore captures
# the base once, reads the recorded reasons, and falls back to full
# simulation for every point — the honest path an adapter author hits
# before restructuring a harness around blocking handshakes (compare
# li_latency, which is this pipeline rebuilt replay-safe).
def _session_build(base_params: dict, base_seed: int) -> WarmSession:
    sim, received = build_stall_testbench(
        base_params["stall_probability"], base_seed,
        n_msgs=base_params["n_msgs"], bug=base_params["bug"])
    down = next(chan for inst in sim.design.root.walk()
                for chan in inst.channels if chan.path == "down")
    return WarmSession(sim=sim, context={"received": received,
                                         "down": down})


def _session_run(session: WarmSession, params: dict, seed: int) -> dict:
    if params["stall_probability"] > 0.0:
        session.context["down"].set_stall(params["stall_probability"],
                                          seed=seed)
    n_msgs = params["n_msgs"]
    session.sim.run(until=n_msgs * 1200)
    detected = session.context["received"] != list(range(n_msgs))
    return {"stall_probability": params["stall_probability"],
            "trial": params["trial"], "seed": seed, "detected": detected}


def _replay_overrides(params: dict, seed: int) -> dict:
    channels = {}
    if params["stall_probability"] > 0.0:
        channels["down"] = {"stall": [params["stall_probability"], seed]}
    return {"channels": channels}


def _replay_derive(trace: dict, result, params: dict, seed: int) -> dict:
    from ..trace.replay import ReplayError

    # Unreachable while the harness uses non-blocking ops; kept as a
    # guard because `detected` depends on message *values* (which the
    # trace does not carry), so timing replay alone can never serve it.
    raise ReplayError(
        "stall_verification records depend on delivered message values, "
        "which op traces do not capture")


SWEEP_ADAPTER = SweepAdapter(
    base={"stall_probability": 0.0, "trial": 0},
    base_seed=DEFAULT_BASE_SEED,
    build=_session_build,
    run=_session_run,
    overrides=_replay_overrides,
    derive=_replay_derive,
)


def campaigns_from_sweep(results: List[dict]) -> List[CampaignResult]:
    """Fold per-trial sweep records back into per-probability campaigns.

    Records may arrive in any order; trials are re-sorted so the
    ``first_detection_trial`` statistic matches a serial campaign.
    """
    by_p: dict = {}
    for rec in results:
        by_p.setdefault(rec["stall_probability"], []).append(rec)
    campaigns = []
    for p in sorted(by_p):
        trials = sorted(by_p[p], key=lambda r: r["trial"])
        detections = sum(1 for r in trials if r["detected"])
        first = next((r["trial"] + 1 for r in trials if r["detected"]), -1)
        campaigns.append(CampaignResult(p, len(trials), detections, first))
    return campaigns


def summarize_sweep(results: List[dict]) -> str:
    return format_campaign(campaigns_from_sweep(results))


def format_campaign(results: List[CampaignResult]) -> str:
    lines = ["Stall-injection bug hunting (seeded backpressure-drop bug)",
             f"{'stall p':>8} {'trials':>7} {'detections':>11} "
             f"{'first hit':>10}"]
    for r in results:
        first = str(r.first_detection_trial) if r.first_detection_trial > 0 \
            else "never"
        lines.append(f"{r.stall_probability:>8.2f} {r.trials:>7} "
                     f"{r.detections:>11} {first:>10}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI entry points, referenced by name from repro.catalog
# ----------------------------------------------------------------------
def cli_runner(params: dict, seed) -> List[CampaignResult]:
    base_seed = seed if seed is not None else DEFAULT_BASE_SEED
    return [stall_campaign(p, trials=10, base_seed=base_seed)
            for p in DEFAULT_PROBABILITIES]


def cli_design():
    """One stall-injection trial around the LeakyForwarder DUT."""
    sim, _received = build_stall_testbench(0.3, 100)
    return sim
