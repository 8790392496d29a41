"""Section 3.1: adaptive local clocks reduce supply-noise margin.

"Local adaptive clock generators are able to better track local power
supply noise [Kamakshi ASYNC'16] to reduce design margin."

A synchronous design must run every cycle slow enough for the *worst*
supply droop (a static margin); an adaptive local generator stretches
only the cycles that actually see a droop and runs at nominal speed the
rest of the time.  The experiment runs both clocking styles under the
same noise process for a fixed interval and compares completed cycles —
the adaptive clock's throughput advantage equals the margin it avoids.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gals.clock_generator import LocalClockGenerator, SupplyNoise
from ..kernel import Simulator

__all__ = ["AdaptiveClockingResult", "adaptive_clocking_experiment",
           "format_adaptive_clocking"]


@dataclass(frozen=True)
class AdaptiveClockingResult:
    nominal_period: int
    duration: int
    adaptive_cycles: int
    synchronous_cycles: int
    static_margin: float
    mean_adaptive_stretch: float

    @property
    def throughput_gain(self) -> float:
        """Adaptive throughput relative to the margined synchronous clock."""
        return self.adaptive_cycles / self.synchronous_cycles - 1.0


def _worst_droop(noise_seed: int, amplitude: float, *, samples: int = 5000,
                 step: int = 1000) -> float:
    """Probe the noise process for its observed worst droop."""
    noise = SupplyNoise(amplitude=amplitude, seed=noise_seed)
    return max(noise.droop(t * step) for t in range(samples))


def adaptive_clocking_experiment(*, nominal_period: int = 909,
                                 amplitude: float = 0.08, seed: int = 3,
                                 duration: int = 5_000_000,
                                 guardband: float = 0.02
                                 ) -> AdaptiveClockingResult:
    """Run adaptive vs static-margin clocking under identical noise.

    The synchronous clock's period carries the worst observed droop plus
    ``guardband`` (the signoff slack a real methodology adds on top).
    """
    worst = _worst_droop(seed, amplitude)
    static_margin = worst + guardband
    sync_period = round(nominal_period * (1.0 + static_margin))

    sim = Simulator()
    adaptive = LocalClockGenerator(
        sim, "adaptive", nominal_period=nominal_period,
        noise=SupplyNoise(amplitude=amplitude, seed=seed))
    synchronous = sim.add_clock("sync", period=sync_period)
    sim.run(until=duration)

    return AdaptiveClockingResult(
        nominal_period=nominal_period,
        duration=duration,
        adaptive_cycles=adaptive.clock.cycles,
        synchronous_cycles=synchronous.cycles,
        static_margin=static_margin,
        mean_adaptive_stretch=adaptive.mean_period / nominal_period - 1.0,
    )


def format_adaptive_clocking(result: AdaptiveClockingResult) -> str:
    return "\n".join([
        "Adaptive local clock vs static-margin synchronous clock "
        f"({result.duration / 1e6:.0f} us window)",
        f"  static margin required:      {100 * result.static_margin:6.2f} %",
        f"  mean adaptive stretch:       "
        f"{100 * result.mean_adaptive_stretch:6.2f} %",
        f"  adaptive cycles completed:   {result.adaptive_cycles:,}",
        f"  synchronous cycles:          {result.synchronous_cycles:,}",
        f"  adaptive throughput gain:    "
        f"{100 * result.throughput_gain:6.2f} %",
    ])


# ----------------------------------------------------------------------
# CLI entry points, referenced by name from repro.catalog
# ----------------------------------------------------------------------
def cli_runner(params: dict, seed) -> AdaptiveClockingResult:
    kwargs = {} if seed is None else {"seed": seed}
    return adaptive_clocking_experiment(**kwargs)


def cli_design():
    """The adaptive-clocking duel: one noisy local clock, one static."""
    sim = Simulator()
    LocalClockGenerator(sim, "adaptive", nominal_period=909,
                        noise=SupplyNoise(amplitude=0.08, seed=3))
    sim.add_clock("sync", period=1000)
    return sim
