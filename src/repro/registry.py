"""The unified experiment registry: one declarative spec per experiment.

One declarative :class:`ExperimentSpec` per experiment, declared once
in the manifest (:mod:`repro.catalog`), is everything the system knows
how to do with it: the CLI verb, the construction-only design builder,
the parameter sweep and the fault-campaign harness.  The CLI's choices,
the sweep worker's runner resolution and the campaign runner all read
the specs through the accessors below (:func:`get`, :func:`names`,
:func:`get_sweep`, :func:`get_harness`, …), so they can never disagree
about what the system can run.

Catalog metadata is data and behaviour is a reference.  The first
lookup calls :func:`load`, which imports the manifest — a module that
imports nothing but this one.  Everything ``repro list`` / ``describe``
and the argument parser need (names, summaries, parameters, capability
tags) is plain values there; ``runner``, ``formatter``, ``design``, the
fault ``harness`` and a sweep's ``space`` / ``runner`` / ``summarize`` /
``replay`` / ``batch`` are ``"package.module:attr"`` references that
:func:`resolve` imports on first read of the field.  So a verb imports
only the experiment it runs, and worker processes — which resolve
runners by name through the same path — import only the module of the
experiment they execute, under spawn and fork alike.  Real callables
are accepted wherever a reference is (tests register synthetic specs).

Usage::

    from repro import registry

    spec = registry.get("fig3")
    payload = spec.runner({"ports": "2,4", "txns": 10}, seed=1)
    print(spec.formatter(payload))

See ``docs/REGISTRY.md`` for the full walkthrough, including the
job-oriented execution core (:mod:`repro.jobs`) built on top.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "CliParam", "SweepSpec", "ExperimentSpec", "resolve",
    "register", "register_sweep",
    "get", "names", "specs", "load",
    "build_design", "get_sweep", "sweep_names", "build_space",
    "get_harness", "harness_names",
]


@dataclass(frozen=True)
class CliParam:
    """One experiment-specific CLI parameter (e.g. ``fig3 --ports``).

    The same declaration drives the legacy verb's flag
    (``repro fig3 --ports 2,4``), the generic runner's key/value form
    (``repro run fig3 -p ports=2,4``), and ``repro describe``'s
    parameter table.  ``type`` parses the string form; the parsed value
    lands in the runner's ``params`` dict under ``name``.
    """

    name: str
    default: Any
    type: Callable[[str], Any] = str
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def resolve(ref: str) -> Any:
    """Import ``"package.module:attr"`` and return the attribute.

    The one resolver behind every reference in the catalog: nothing
    else turns a manifest string into code.
    """
    module, sep, attr = ref.partition(":")
    if not sep:
        raise ValueError(f"expected 'package.module:attr', got {ref!r}")
    return getattr(import_module(module), attr)


class _Ref:
    """A spec field holding an object or a reference to one.

    Reading the field resolves a ``"package.module:attr"`` string
    through :func:`resolve` and keeps the result, so consumers see the
    callable (or adapter, or harness) itself, and see the same object
    every time.  What was declared stays in the instance ``__dict__``
    until then, where the listing properties (``runnable``,
    ``has_design``, ``warm``) test for presence without importing
    anything.  ``required`` fields have no dataclass default.
    """

    def __init__(self, *, required: bool = False):
        self.required = required

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:  # class access: the dataclass default
            if self.required:
                raise AttributeError(self.name)
            return None
        value = obj.__dict__[self.name]
        if isinstance(value, str):
            value = obj.__dict__[self.name] = resolve(value)
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value


def _describe(spec, field: str, **listed: str) -> None:
    """Keep the listing values beside the ``field`` they describe.

    ``listed`` maps each listing field of the spec to the attribute of
    the described object it mirrors.  A real object describes itself;
    a reference cannot without importing its module, so the declaration
    must carry at least one listing value as data.
    """
    declared = spec.__dict__[field]
    if isinstance(declared, str):
        if not any(getattr(spec, name) for name in listed):
            raise ValueError(
                f"{spec.name}: {field}={declared!r} is a reference, so "
                f"{' / '.join(listed)} must be declared beside it")
    elif declared is not None:
        for name, attr in listed.items():
            object.__setattr__(spec, name, getattr(declared, attr, None))


@dataclass(frozen=True)
class SweepSpec:
    """One registered sweep: space builder + point runner + formatter.

    ``space``, ``runner``, ``summarize`` and ``adapter`` each hold the
    object itself or a ``"package.module:attr"`` reference to it,
    resolved on first read.

    ``adapter``, when set, is the experiment's
    :class:`~repro.trace.adapter.SweepAdapter` — the one declaration of
    its structural/latency-knob split, which opts it into incremental
    sweeps (``run_sweep(..., incremental=True)``), warm batched sweeps
    (``warm=True``), or both, depending on the halves it carries.
    Experiments without one still accept both modes; every point falls
    back to a fresh simulation with the reason recorded.
    ``replay_kind`` and ``warm`` are the adapter's properties of the
    same names as listing data (declared beside a reference).
    """

    name: str
    help: str
    space: Callable[..., List[Any]] = _Ref(required=True)
    runner: Callable[[dict, int], dict] = _Ref(required=True)
    summarize: Optional[Callable[[List[dict]], str]] = _Ref()
    adapter: Optional[Any] = _Ref()
    replay_kind: Optional[str] = None
    warm: bool = False

    def __post_init__(self):
        _describe(self, "adapter", replay_kind="replay_kind", warm="warm")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the system knows how to do with one experiment.

    One spec per experiment, declared in :mod:`repro.catalog`.  The
    capability fields are all optional; a spec with only a fault
    harness (``packet_stream``) or only a sweep (``fault_campaign``) is
    legal and simply ``hidden`` from the CLI's experiment verbs.
    ``runner``, ``formatter``, ``design`` and ``harness`` each hold the
    object itself or a ``"package.module:attr"`` reference to it,
    resolved on first read.

    ``runner(params, seed)`` returns the experiment's result payload
    (plain dataclasses/dicts, serializable through
    :mod:`repro.sweep.serialize`); ``formatter(payload)`` renders it as
    the verb's usual table.  ``seed=None`` means "use the experiment's
    default" — deterministic experiments accept and ignore it.
    """

    name: str
    summary: str
    #: (params, seed) -> result payload.  ``None`` = not directly
    #: runnable (harness- or sweep-only specs).
    runner: Optional[Callable[[dict, Optional[int]], Any]] = _Ref()
    #: payload -> human-readable text (the legacy verb's output).
    formatter: Optional[Callable[[Any], str]] = _Ref()
    #: Construction-only design builder (returns the Simulator) for
    #: ``inspect``/``lint``.  ``None`` = analytic, no simulated design.
    design: Optional[Callable[[], Any]] = _Ref()
    #: Parameter-sweep capability (space/runner/summarize/adapter).
    sweep: Optional[SweepSpec] = None
    #: Fault-campaign harness (``repro.faults.campaign.Harness``).
    harness: Optional[Any] = _Ref()
    #: The harness's ``name`` as listing data (required beside a
    #: reference): the ``faults`` choices and :func:`harness_names`.
    harness_name: Optional[str] = None
    #: Experiment-specific CLI parameters.
    params: Tuple[CliParam, ...] = ()
    #: Declared compiled-backend eligibility: whether
    #: ``--backend compiled`` is expected to engage (False = the
    #: capability check is known to fall back; the run still works).
    compiled: bool = True
    #: Whether ``--seed`` changes the result (False = accepted, ignored).
    seedable: bool = True
    #: Canonical result schema tag + version, stamped on every
    #: :class:`repro.jobs.JobResult` for downstream consumers.
    schema: str = ""
    schema_version: int = 1
    #: Hidden specs have no CLI experiment verb (harness fixtures, the
    #: fault_campaign meta-sweep).
    hidden: bool = False
    #: Stable ordering for ``repro list`` (ascending, then name).
    order: int = 1000

    def __post_init__(self):
        if not self.schema:
            object.__setattr__(
                self, "schema", self.name.replace("-", "_"))
        _describe(self, "harness", harness_name="name")

    @property
    def runnable(self) -> bool:
        """True when the spec backs a CLI experiment verb."""
        return self.__dict__["runner"] is not None and not self.hidden

    @property
    def has_design(self) -> bool:
        """True when the spec declares a simulated design."""
        return self.__dict__["design"] is not None

    def capabilities(self) -> Dict[str, Any]:
        """Capability summary (``repro list`` / ``repro describe``).

        Plain data: reading it resolves no reference.
        """
        sweep = self.sweep
        return {
            "design": self.has_design,
            "sweep": sweep.name if sweep else None,
            "replay": sweep.replay_kind if sweep else None,
            "warm": sweep.warm if sweep else False,
            "harness": self.harness_name,
            "compiled": self.compiled,
            "seedable": self.seedable,
            "schema": f"{self.schema}/v{self.schema_version}",
        }


# ----------------------------------------------------------------------
# the registry proper
# ----------------------------------------------------------------------
_SPECS: Dict[str, ExperimentSpec] = {}
#: sweep name -> spec name (a spec's sweep may use a different name:
#: the "stalls" experiment owns the "stall_verification" sweep).
_SWEEP_INDEX: Dict[str, str] = {}
#: harness name -> spec name.
_HARNESS_INDEX: Dict[str, str] = {}
_INDEXES = {"sweep": _SWEEP_INDEX, "fault harness": _HARNESS_INDEX}

_LOADED = False


def load() -> None:
    """Import the catalog manifest (idempotent).

    :mod:`repro.catalog` declares every bundled spec and imports
    nothing but this module, so loading costs a few milliseconds and
    brings in no simulator code.
    """
    global _LOADED
    if not _LOADED:
        import_module("repro.catalog")
        _LOADED = True


def _claims(spec: ExperimentSpec) -> List[Tuple[str, str]]:
    """The ``(index kind, name)`` entries a spec owns."""
    claims = []
    if spec.sweep is not None:
        claims.append(("sweep", spec.sweep.name))
    if spec.harness_name is not None:
        claims.append(("fault harness", spec.harness_name))
    return claims


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register (or re-register) one experiment's spec.

    Re-registering the same name replaces the old spec, together with
    the sweep and harness names only the old one claimed; names both
    claim keep their place in :func:`sweep_names` /
    :func:`harness_names`.  Sweep/harness *names* stay unique across
    distinct specs.
    """
    claims = _claims(spec)
    for kind, name in claims:
        owner = _INDEXES[kind].get(name)
        if owner is not None and owner != spec.name:
            raise ValueError(f"{kind} {name!r} is already registered by "
                             f"experiment {owner!r}")
    old = _SPECS.get(spec.name)
    for kind, name in (_claims(old) if old is not None else ()):
        if (kind, name) not in claims:
            del _INDEXES[kind][name]
    for kind, name in claims:
        _INDEXES[kind][name] = spec.name
    _SPECS[spec.name] = spec
    return spec


def register_sweep(sweep: SweepSpec) -> SweepSpec:
    """Register a bare sweep.

    If a spec already owns a sweep with this name the sweep is replaced
    in place; otherwise a hidden sweep-only spec is created (tests
    register synthetic experiments this way, and fork-started workers
    inherit them).
    """
    owner = _SWEEP_INDEX.get(sweep.name)
    if owner is not None:
        register(replace(_SPECS[owner], sweep=sweep))
    else:
        register(ExperimentSpec(
            name=sweep.name, summary=sweep.help, sweep=sweep, hidden=True))
    return sweep


def get(name: str) -> ExperimentSpec:
    """Look up a spec by experiment name (loads the catalog first)."""
    load()
    try:
        return _SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; one of "
            f"{sorted(_SPECS)}") from None


def names(*, hidden: bool = False, runnable: bool = False) -> List[str]:
    """Registered experiment names in ``order``-then-name order."""
    load()
    out = [s for s in _SPECS.values() if hidden or not s.hidden]
    if runnable:
        out = [s for s in out if s.runnable]
    return [s.name for s in sorted(out, key=lambda s: (s.order, s.name))]


def specs(*, hidden: bool = False) -> List[ExperimentSpec]:
    """Registered specs in ``order``-then-name order."""
    return [_SPECS[n] for n in names(hidden=hidden)]


# ----------------------------------------------------------------------
# capability lookups
# ----------------------------------------------------------------------
def build_design(experiment: str):
    """Construct the named experiment's design; returns its Simulator.

    Raises ``KeyError`` for unknown experiments and ``ValueError`` for
    analytic experiments that have no simulated design.
    """
    load()
    if experiment not in _SPECS or _SPECS[experiment].hidden:
        raise KeyError(
            f"unknown experiment {experiment!r}; one of "
            f"{sorted(names(runnable=True))}")
    spec = _SPECS[experiment]
    if not spec.has_design:
        raise ValueError(f"experiment {experiment!r} is analytic — "
                         "it builds no simulated design")
    return spec.design()


def get_sweep(name: str) -> SweepSpec:
    """Look up a sweep by *sweep* name (may differ from the spec name)."""
    load()
    try:
        return _SPECS[_SWEEP_INDEX[name]].sweep
    except KeyError:
        raise KeyError(f"unknown sweep experiment {name!r}; one of "
                       f"{sorted(_SWEEP_INDEX)}") from None


def sweep_names() -> List[str]:
    """Registered sweep names, in registration order."""
    load()
    return list(_SWEEP_INDEX)


def build_space(name: str, *, seed: Optional[int] = None,
                **options) -> List[Any]:
    """Enumerate a registered sweep's default (or re-seeded) space."""
    if seed is not None:
        options["seed"] = seed
    return get_sweep(name).space(**options)


def get_harness(name: str) -> Any:
    """Look up a fault harness by *harness* name."""
    load()
    try:
        return _SPECS[_HARNESS_INDEX[name]].harness
    except KeyError:
        raise KeyError(f"unknown fault-campaign harness {name!r}; "
                       f"one of {sorted(_HARNESS_INDEX)}") from None


def harness_names() -> List[str]:
    """Registered fault-harness names, in registration order (which
    fixes the default campaign matrix's point order)."""
    load()
    return list(_HARNESS_INDEX)


def sweep_owner(sweep_name: str) -> Optional[ExperimentSpec]:
    """The spec that owns the named sweep (None when unregistered)."""
    load()
    owner = _SWEEP_INDEX.get(sweep_name)
    return _SPECS.get(owner) if owner is not None else None
