"""Observation does not change the simulation, and counts it exactly.

The scheduler has one evaluate/update loop; telemetry, a VCD trace and
a watchdog are hoisted tests inside it.  A small methods-and-signals
design (an 8-register ``RtlActivity``: one shifting thread, one
combinational method over all eight registers) runs bare, under
``observe.capture()``, with a ``Trace`` and with a ``Watchdog``; every
signal value, the cycle count and ``sim.now`` must agree, and the
kernel counters must equal the ones derived by hand below.
"""

import io

import pytest

from repro import observe
from repro.faults import Watchdog
from repro.kernel import Simulator, Trace, write_vcd
from repro.soc.rtl_activity import RtlActivity

N_REGS = 8
CYCLES = 6
MASK = (1 << 32) - 1


def build():
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)
    unit = RtlActivity(sim, clk, n_regs=N_REGS)
    return sim, clk, unit


def final_state(sim, clk, unit):
    return ([sig.read() for sig in unit._regs + unit._comb],
            clk.cycles, sim.now)


def run_bare():
    sim, clk, unit = build()
    sim.run_cycles(clk, CYCLES)
    return final_state(sim, clk, unit), None


def run_telemetry():
    with observe.capture():
        sim, clk, unit = build()
    sim.run_cycles(clk, CYCLES)
    return final_state(sim, clk, unit), sim.telemetry.kernel


def run_traced():
    sim, clk, unit = build()
    sim.trace = Trace(unit._regs + unit._comb)
    sim.run_cycles(clk, CYCLES)
    out = io.StringIO()
    write_vcd(sim.trace, out)
    assert out.getvalue().startswith("$")
    return final_state(sim, clk, unit), sim.trace


def run_watched():
    sim, clk, unit = build()
    Watchdog(sim, clk, window=2000)
    sim.run_cycles(clk, CYCLES)
    return final_state(sim, clk, unit), None


def by_hand():
    """The design's schedule worked through without the kernel.

    Registers start at 1..8.  Each posedge the thread writes
    ``r0 <- lfsr(r0, r7)`` and ``r[i] <- r[i-1]``; every register that
    changed is one commit.  Edge 1 also runs the method's elaboration
    call in the thread's delta (reading the *old* registers), so its
    output commits there too.  Any register change queues the method
    for a second delta, whose write commits if the XOR moved.
    """
    regs = list(range(1, N_REGS + 1))
    comb = 0
    commits = invocations = deltas = 0
    for edge in range(1, CYCLES + 1):
        new = [((regs[0] << 1) ^ (regs[0] >> 27) ^ regs[-1] ^ 1) & MASK]
        new += regs[:-1]
        deltas += 1
        if edge == 1:  # elaboration run of the method, old values
            invocations += 1
            xor = 0
            for value in regs:
                xor ^= value
            commits += xor != comb
            comb = xor
        changed = sum(a != b for a, b in zip(new, regs))
        commits += changed
        regs = new
        if changed:
            deltas += 1
            invocations += 1
            xor = 0
            for value in regs:
                xor ^= value
            commits += xor != comb
            comb = xor
    return regs + [comb], commits, invocations, deltas


@pytest.mark.parametrize("run", [run_telemetry, run_traced, run_watched],
                         ids=["telemetry", "trace", "watchdog"])
def test_observation_leaves_the_simulation_alone(run):
    bare, _ = run_bare()
    observed, _ = run()
    assert observed == bare
    values, _commits, _invocations, _deltas = by_hand()
    assert bare == (values, CYCLES, (CYCLES - 1) * 10)


def test_kernel_counters_are_exact():
    _, kstats = run_telemetry()
    _values, commits, invocations, deltas = by_hand()
    # Every register and the XOR move on every edge; edge 1 commits the
    # XOR twice (elaboration run, then the re-run the registers queue).
    assert commits == 10 + (CYCLES - 1) * 9
    assert kstats.signal_commits == commits
    assert kstats.method_invocations == invocations == CYCLES + 1
    assert kstats.delta_cycles == deltas == 2 * CYCLES
    assert kstats.max_deltas_per_step == 2
    assert kstats.thread_wakeups == CYCLES
    assert kstats.timesteps == CYCLES


def test_trace_records_every_commit():
    _, trace = run_traced()
    _, commits, _, _ = by_hand()
    seeds = N_REGS + 1  # one seeded value per watched signal
    assert len(trace.changes) == seeds + commits
