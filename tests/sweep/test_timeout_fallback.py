"""Per-point timeout without SIGALRM: the kernel cycle-budget fallback.

SIGALRM only works on the main thread of a POSIX process.  When a sweep
runs anywhere else, ``_alarm`` falls back to :func:`time_budget`, which
the scheduler polls between timesteps — so a wedged point still stops.
"""

import threading

import pytest

from repro.registry import SweepSpec, register_sweep
from repro.kernel import Simulator
from repro.kernel.simulator import TimeBudgetExceeded, time_budget
from repro.sweep import SweepPoint, run_sweep


def _endless_runner(params, seed):
    """A simulation that never finishes: no until, no max_steps."""
    sim = Simulator()
    clk = sim.add_clock("clk", period=10)

    def spin():
        while True:
            yield

    sim.add_thread(spin(), clk)
    sim.run(until=None)
    return {"unreachable": True}


register_sweep(SweepSpec("endless_test", "test", space=lambda **kw: [],
                         runner=_endless_runner))


def test_time_budget_interrupts_an_unbounded_run():
    with pytest.raises(TimeBudgetExceeded):
        with time_budget(0.05):
            _endless_runner({}, 0)


def test_time_budget_rejects_nonpositive():
    for bad in (0, -1, None):
        with pytest.raises(ValueError):
            with time_budget(bad):
                pass


def test_sweep_timeout_applies_off_main_thread():
    """On a worker thread SIGALRM raises ValueError; the engine must
    still bound the point via the kernel budget instead of hanging."""
    outcome = {}

    def body():
        result = run_sweep(
            [SweepPoint("endless_test", {}, seed=0)],
            jobs=1, timeout=0.2, retries=0, telemetry=False)
        outcome["result"] = result

    worker = threading.Thread(target=body)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "sweep point was not bounded"
    result = outcome["result"]
    assert result.errors == 1
    error = result.outcomes[0].error
    assert "PointTimeout" in error
    assert "cycle-budget fallback" in error
