"""Experiment harnesses: one module per paper table/figure/claim.

===========================  ==========================================
:mod:`.fig3_crossbar`        Figure 3 — modelling accuracy on the
                             arbitrated crossbar
:mod:`.fig6_soc`             Figure 6 — SoC-level speedup vs cycle error
:mod:`.crossbar_qor`         section 2.4 — src-loop vs dst-loop QoR
:mod:`.hls_qor`              section 2.2 — HLS vs hand RTL (±10 %)
:mod:`.gals_overhead`        section 3.1 — GALS area overhead (< 3 %)
:mod:`.stall_verification`   section 4 — stall injection finds bugs
:mod:`.li_latency`           section 4 — LI latency grid, replayable
                             from captured traces (``repro.trace``)
===========================  ==========================================

The flow-level analyses (12-hour turnaround, 2K-20K gates/day) live in
:mod:`repro.flow`.  The paper's claims about all of them are pinned in
``tests/experiments/test_experiments.py`` and ``tests/flow/``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "adaptive_clocking": (
        "AdaptiveClockingResult", "adaptive_clocking_experiment",
        "format_adaptive_clocking",
    ),
    "crossbar_qor": (
        "QorPoint", "crossbar_clock_sweep", "crossbar_qor_sweep",
        "format_qor_table",
    ),
    "fig3_crossbar": (
        "CrossbarTestbench", "Fig3Point", "build_crossbar_testbench",
        "figure3", "format_figure3", "run_crossbar_accuracy",
    ),
    "fig6_soc": (
        "Fig6Point", "fig6_workloads_small", "figure6", "format_figure6",
        "run_fig6_test",
    ),
    "gals_overhead": (
        "OverheadPoint", "format_overhead_table", "partition_size_sweep",
        "testchip_overhead", "testchip_partitions",
    ),
    "hls_qor": (
        "QorResult", "bad_constraint_ablation", "format_qor_results",
        "hls_vs_hand_qor",
    ),
    "li_latency": (
        "LatencyForwarder", "build_li_pipeline",
        "li_latency_report=run_report",
    ),
    "stall_verification": (
        "CampaignResult", "LeakyForwarder", "build_stall_testbench",
        "format_campaign", "stall_campaign",
    ),
})
