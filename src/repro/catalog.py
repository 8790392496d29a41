"""The experiment catalog: every bundled spec, declared once, as data.

:func:`repro.registry.load` imports this module, and this module
imports nothing but :mod:`repro.registry` — so ``repro list``, ``repro
describe`` and the argument parser cost a few milliseconds instead of
an import of the simulator.

The rule: **catalog metadata is data, behaviour is a reference.**
Names, summaries, parameters, ordering, eligibility flags and the
listing values (``replay_kind``, ``warm``, ``harness_name``) are plain
values here.  Everything that *does* something — ``runner``,
``formatter``, ``design``, ``harness``, a sweep's ``space`` / ``runner``
/ ``summarize`` / ``adapter`` — is a ``"package.module:attr"`` string
that :func:`repro.registry.resolve` imports on first use.
``tests/registry/test_registry.py`` resolves every reference and checks
each listing value against the object it describes, so this file
cannot promise a capability the code does not have.

Declaration order is load-bearing in one respect: specs carrying a
fault harness come first (``stall_verification``, ``fig3_crossbar``,
``gals_overhead``, ``packet_stream``, ``deadlock_demo`` —
:func:`repro.registry.harness_names` reports them in this order), which
fixes the default campaign matrix's point order and with it every
seeded campaign record.
``repro list`` order comes from ``order``, not from position.

Adding an experiment is one entry here plus the module the references
point at (``docs/REGISTRY.md``).
"""

from .registry import (CliParam, ExperimentSpec, SweepSpec, register,
                       register_sweep)

_EXP = "repro.experiments."
_CAMPAIGN = "repro.faults.campaign:"


def _sweep(module: str, name: str, help: str, *, space="sweep_space",
           runner="run_sweep_point", summarize="summarize_sweep",
           adapter=None, replay_kind=None, warm=False) -> SweepSpec:
    """A sweep whose callables all live in one module, under the
    conventional attribute names unless stated."""
    at = f"{module}:"
    return SweepSpec(
        name=name, help=help, space=at + space, runner=at + runner,
        summarize=at + summarize,
        adapter=at + adapter if adapter else None,
        replay_kind=replay_kind, warm=warm)


# ----------------------------------------------------------------------
# harness-bearing specs, in campaign-matrix order (see the module docstring)
# ----------------------------------------------------------------------
register(ExperimentSpec(
    name="stalls",
    summary="4: stall-injection bug hunting",
    runner=_EXP + "stall_verification:cli_runner",
    formatter=_EXP + "stall_verification:format_campaign",
    design=_EXP + "stall_verification:cli_design",
    sweep=_sweep(
        _EXP + "stall_verification", "stall_verification",
        "randomized stall-injection trials (4 probabilities x 10 seeds)",
        # Statically derivable, dynamically refused: the capture records
        # the harness's non-blocking ops and every point falls back with
        # that reason — the recorded-capability path, exercised for real.
        adapter="SWEEP_ADAPTER", replay_kind="trace", warm=True),
    harness=_CAMPAIGN + "STALL_HARNESS",
    harness_name="stall_verification",
    compiled=True,
    order=70,
))

register(ExperimentSpec(
    name="fig3",
    summary="Figure 3: crossbar modelling accuracy",
    runner=_EXP + "fig3_crossbar:cli_runner",
    formatter=_EXP + "fig3_crossbar:format_figure3",
    design=_EXP + "fig3_crossbar:cli_design",
    sweep=_sweep(
        _EXP + "fig3_crossbar", "fig3_crossbar",
        "Figure 3 modelling-accuracy grid (3 models x 4 port counts)"),
    harness=_CAMPAIGN + "CROSSBAR_HARNESS",
    harness_name="fig3_crossbar",
    params=(
        CliParam("ports", "2,4,8,16", help="comma-separated port counts"),
        CliParam("txns", 60, type=int, help="transactions per port"),
    ),
    compiled=True,
    order=10,
))

register(ExperimentSpec(
    name="gals",
    summary="3.1: GALS area overhead",
    runner=_EXP + "gals_overhead:cli_runner",
    formatter=_EXP + "gals_overhead:cli_format",
    design=_EXP + "gals_overhead:cli_design",
    sweep=_sweep(
        _EXP + "gals_overhead", "gals_overhead",
        "GALS overhead fraction vs partition logic size",
        # Closed-form model, no kernel: every point is derivable by
        # evaluating the runner in-process, skipping the pool entirely.
        adapter="SWEEP_ADAPTER", replay_kind="analytic"),
    harness=_CAMPAIGN + "GALS_HARNESS",
    harness_name="gals_overhead",
    compiled=False,       # pausible clocks are not compilable (yet)
    seedable=False,
    order=50,
))

# The two harness-only fixtures: no CLI experiment verb, but full
# fault-campaign membership.
register(ExperimentSpec(
    name="packet_stream",
    summary="checksummed Packetizer/DePacketizer pipe (fault fixture)",
    harness=_CAMPAIGN + "PACKET_HARNESS",
    harness_name="packet_stream",
    hidden=True,
))

register(ExperimentSpec(
    name="deadlock_demo",
    summary="deliberately crossed blocking pops (expects hang)",
    harness=_CAMPAIGN + "DEADLOCK_HARNESS",
    harness_name="deadlock_demo",
    hidden=True,
))

# ----------------------------------------------------------------------
# the remaining experiments, in `repro list` order
# ----------------------------------------------------------------------
register(ExperimentSpec(
    name="fig6",
    summary="Figure 6: SoC speedup vs cycle error (slow!)",
    runner=_EXP + "fig6_soc:cli_runner",
    formatter=_EXP + "fig6_soc:format_figure6",
    design=_EXP + "fig6_soc:cli_design",
    sweep=_sweep(
        _EXP + "fig6_soc", "pe_scaling",
        "PE-array strong scaling on the prototype SoC (fast mode)",
        space="pe_scaling_space", runner="run_pe_scaling_point",
        summarize="summarize_pe_scaling"),
    compiled=True,
    seedable=False,
    order=20,
))

register(ExperimentSpec(
    name="crossbar-qor",
    summary="2.4: src- vs dst-loop crossbar",
    runner=_EXP + "crossbar_qor:cli_runner",
    formatter=_EXP + "crossbar_qor:cli_format",
    sweep=_sweep(
        _EXP + "crossbar_qor", "crossbar_qor",
        "src- vs dst-loop crossbar QoR (lane sweep + clock sweep)"),
    compiled=False,       # analytic QoR model, no simulated design
    seedable=False,
    order=30,
))

register(ExperimentSpec(
    name="hls-qor",
    summary="2.2: HLS vs hand RTL",
    runner=_EXP + "hls_qor:cli_runner",
    formatter=_EXP + "hls_qor:cli_format",
    compiled=False,       # analytic QoR model, no simulated design
    seedable=False,
    order=40,
))

register(ExperimentSpec(
    name="adaptive-clocking",
    summary="3.1: adaptive clock margin",
    runner=_EXP + "adaptive_clocking:cli_runner",
    formatter=_EXP + "adaptive_clocking:format_adaptive_clocking",
    design=_EXP + "adaptive_clocking:cli_design",
    compiled=False,       # adaptive clocks are aperiodic: always falls back
    order=60,
))

register(ExperimentSpec(
    name="li-latency",
    summary="4: LI pipeline latency grid "
            "(replay-safe; see sweep --incremental)",
    runner=_EXP + "li_latency:cli_runner",
    formatter=_EXP + "li_latency:format_report",
    design=_EXP + "li_latency:build_design",
    sweep=_sweep(
        _EXP + "li_latency", "li_latency",
        "LI pipeline latency grid (FIFO depth x stall p x period); "
        "replayable from 2 captured traces via sweep --incremental",
        adapter="SWEEP_ADAPTER", replay_kind="trace", warm=True),
    compiled=True,
    order=80,
))

register(ExperimentSpec(
    name="backend",
    summary="4: RTL-to-layout turnaround",
    runner=_EXP + "flow_analyses:run_backend_turnaround",
    formatter=_EXP + "flow_analyses:format_backend_turnaround",
    compiled=False,       # flow-runtime model, no simulated design
    seedable=False,
    order=90,
))

register(ExperimentSpec(
    name="productivity",
    summary="4: gates per engineer-day",
    runner=_EXP + "flow_analyses:run_productivity",
    formatter=_EXP + "flow_analyses:format_productivity",
    compiled=False,       # effort model, no simulated design
    seedable=False,
    order=100,
))

register(ExperimentSpec(
    name="verify",
    summary="property-based verification: generated topologies vs "
            "differential/LI/classification oracles",
    runner="repro.verify:cli_runner",
    formatter="repro.verify:cli_format",
    params=(
        CliParam("profile", "dev",
                 help="hypothesis settings profile (dev, ci, thorough)"),
        CliParam("checks", "all",
                 help="comma-separated oracle families to run "
                      "(differential, li, classification; 'all')"),
        CliParam("max_examples", 0, type=int,
                 help="override examples per family (0 = profile default)"),
        CliParam("inject", "none",
                 help="deliberately seed a bug to demo shrinking "
                      "(none, deadlock, corrupt)"),
    ),
    compiled=False,  # the differential oracle drives both backends itself
    seedable=True,
    order=110,
))

# The campaign meta-sweep (a hidden sweep-only spec): each seeded fault
# case is one sweep point, so campaigns parallelize and cache like any
# other sweep.
register_sweep(_sweep(
    "repro.faults.campaign", "fault_campaign",
    "seeded fault-injection cases per harness (drop/dup/corrupt/"
    "stall/clock faults), watchdog-triaged"))
