"""Tiered Hypothesis settings profiles shared by tests and campaigns.

One registration point for the dev/ci/thorough example budgets so every
property in the repo — the ``repro verify`` oracle families, the
stateful machines, and the ad-hoc properties under ``tests/`` — scales
with a single knob instead of hard-coding ``max_examples`` per test:

* ``dev`` (default): small budgets, keeps ``pytest -x -q`` fast;
* ``ci``: >= 100 examples per property (the CI jobs export
  ``REPRO_HYPOTHESIS_PROFILE=ci``);
* ``thorough``: overnight-grade budgets for bug hunts.

``conftest.py`` calls :func:`load_profile` at collection time, honoring
the ``REPRO_HYPOTHESIS_PROFILE`` environment variable; tests that need
a different budget *scale* the active profile via
:func:`property_settings` rather than pinning absolute counts, and
non-Hypothesis tests with a budget of their own (an exhaustive oracle's
stride, a shrink campaign's starting draw) pick it by
:func:`active_profile`, so the same one knob tiers them too.
"""

from __future__ import annotations

import os

from . import require_hypothesis

__all__ = [
    "PROFILES",
    "ENV_VAR",
    "active_profile",
    "register_profiles",
    "load_profile",
    "profile_settings",
    "property_settings",
]

#: Examples-per-property budget of each tier.
PROFILES = {"dev": 20, "ci": 100, "thorough": 400}

ENV_VAR = "REPRO_HYPOTHESIS_PROFILE"

_REGISTERED = False


def register_profiles() -> None:
    """Register the dev/ci/thorough profiles with Hypothesis (idempotent).

    Simulation-heavy properties legitimately have slow examples, so all
    tiers disable the deadline and the too-slow health check;
    ``print_blob`` keeps every failure replayable via
    ``@reproduce_failure``.
    """
    global _REGISTERED
    if _REGISTERED:
        return
    require_hypothesis("repro.verify.profiles")
    from hypothesis import HealthCheck, settings

    for name, max_examples in PROFILES.items():
        settings.register_profile(
            name,
            max_examples=max_examples,
            deadline=None,
            print_blob=True,
            suppress_health_check=[HealthCheck.too_slow],
        )
    _REGISTERED = True


def active_profile() -> str:
    """The tier ``REPRO_HYPOTHESIS_PROFILE`` names, ``dev`` when unset
    — the tier-1 suite stays fast unless CI opts in."""
    return os.environ.get(ENV_VAR, "dev")


def load_profile(name: str | None = None) -> str:
    """Register and globally load a profile; returns the loaded name.

    ``name=None`` loads the :func:`active_profile`.
    """
    if name is None:
        name = active_profile()
    if name not in PROFILES:
        raise ValueError(
            f"unknown hypothesis profile {name!r}; "
            f"one of {sorted(PROFILES)}")
    register_profiles()
    from hypothesis import settings

    settings.load_profile(name)
    return name


def profile_settings(name: str):
    """The registered ``settings`` object for ``name`` (no global load)."""
    if name not in PROFILES:
        raise ValueError(
            f"unknown hypothesis profile {name!r}; "
            f"one of {sorted(PROFILES)}")
    register_profiles()
    from hypothesis import settings

    return settings.get_profile(name)


def property_settings(*, scale: float = 1.0, floor: int = 5, **overrides):
    """A ``settings`` decorator scaled from the *active* profile.

    ``scale`` multiplies the loaded profile's ``max_examples`` (a heavy
    property passes ``scale=0.25`` instead of pinning an absolute
    count, so the ci/thorough tiers still raise its budget); ``floor``
    is the minimum examples regardless of scaling.  Extra keyword
    overrides pass straight through to ``settings``.
    """
    require_hypothesis("repro.verify.profiles")
    from hypothesis import settings

    base = settings.default.max_examples
    overrides.setdefault("deadline", None)
    return settings(max_examples=max(floor, int(round(base * scale))),
                    **overrides)
