"""Lazy package re-exports (PEP 562): import a submodule on first use.

A package ``__init__`` that eagerly re-exports its submodules makes
``import package.small_module`` pay for every sibling — importing
``repro.sweep.point`` used to execute ``repro.sweep.engine`` and
``concurrent.futures.process``.  :func:`lazy_exports` keeps the
package's public surface (``from repro.sweep import run_sweep``,
``repro.sweep.engine``, ``dir(repro.sweep)``, ``__all__``) while
deferring each submodule's import to the first access of one of its
names::

    from .._lazy import lazy_exports

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "cache": ("ResultCache", "default_cache_dir"),
        "engine": ("run_sweep", "SweepResult"),
    })

Find eager packages with ``python -X importtime -m repro <verb>`` (see
``docs/PERFORMANCE.md``, "CLI cold start").
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], object],
                            Callable[[], List[str]], List[str]]:
    """Build a package's ``(__getattr__, __dir__, __all__)``.

    ``exports`` maps a submodule name to the names re-exported from it;
    ``"alias=attr"`` re-exports ``attr`` under the name ``alias``.  A
    resolved name is stored in the package's namespace, so only the
    first access pays the lookup.  Submodules themselves resolve the
    same way (``package.submodule``), as they did when the package
    imported them all eagerly.
    """
    origin: Dict[str, Tuple[str, str]] = {}
    for submodule, names in exports.items():
        for name in names:
            alias, _, attr = name.partition("=")
            if alias in exports:
                # Importing the submodule binds it on the package under
                # this very name, so which one `package.alias` means
                # would depend on import order.
                raise ValueError(
                    f"{package}: {alias!r} names both a submodule and "
                    "an export; such a package cannot re-export lazily")
            origin[alias] = (submodule, attr or alias)
    public = list(origin)

    def __getattr__(name: str):
        if name in origin:
            submodule, attr = origin[name]
            value = getattr(import_module(f"{package}.{submodule}"), attr)
        elif name.startswith("_"):
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        else:
            target = f"{package}.{name}"
            try:
                value = import_module(target)
            except ModuleNotFoundError as exc:
                if exc.name != target:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(public))

    return __getattr__, __dir__, public
