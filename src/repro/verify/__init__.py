"""Generative design verification (property-based campaigns).

The curated experiments and seeded fault menus exercise designs we
wrote by hand; this package turns the claim "LI channels make designs
correct under arbitrary timing" into a *property* over designs nobody
wrote.  Hypothesis strategies draw legal random topologies from the
``repro.design`` primitives (lint-clean by construction), and three
oracle families check every draw:

* **differential** — the threaded kernel and the compiled backend
  produce byte-identical sink outputs, cycle counts, and channel
  telemetry on the same generated design;
* **li** — sink outputs match the golden dataflow model and are
  invariant under any generated stall schedule (latency-insensitivity),
  with zero watchdog ``HangError`` on live designs;
* **classification** — under generated lossy fault plans the
  campaign-style triage always lands in {clean, detected, hang}; lint
  and the watchdog classify, they never crash, and a silent-corruption
  escape is a failure.

Counterexamples shrink through Hypothesis's shrinker jointly over
topology + plan + stimulus and persist to the example database, so a
failing campaign replays deterministically (``docs/ROBUSTNESS.md``).

This module is importable (and the ``repro verify`` verb is listed)
without ``hypothesis`` installed; actually *running* a campaign raises
:class:`VerifyUnavailable` with install guidance when it is missing.
"""

from __future__ import annotations

from importlib import util as _importlib_util

__all__ = [
    "VerifyUnavailable",
    "hypothesis_available",
    "require_hypothesis",
]


class VerifyUnavailable(RuntimeError):
    """``repro verify`` needs the optional ``hypothesis`` dependency."""


def hypothesis_available() -> bool:
    """Whether the optional ``hypothesis`` dependency is importable."""
    return _importlib_util.find_spec("hypothesis") is not None


def require_hypothesis(what: str = "repro verify") -> None:
    """Raise :class:`VerifyUnavailable` when ``hypothesis`` is absent."""
    if not hypothesis_available():
        raise VerifyUnavailable(
            f"{what} needs the optional 'hypothesis' dependency; "
            "install it with: pip install 'repro[test]' "
            "(or: pip install hypothesis)")


# The ``verify`` verb's entry points, referenced by name from
# repro.catalog.
def cli_runner(params, seed=None):
    # Lazy import: this package must import without hypothesis (the CLI
    # catches VerifyUnavailable); only execution requires it.
    require_hypothesis()
    from .runner import run_verification

    return run_verification(params, seed)


def cli_format(payload):
    from .runner import format_report

    return format_report(payload)
