"""Signals with SystemC evaluate/update semantics.

A :class:`Signal` holds a committed value readable by any process and a
pending value set by ``write``.  Writes become visible only after the
current delta cycle's evaluate phase — exactly the ``sc_signal``
discipline that makes RTL-style models race-free.
"""

from __future__ import annotations

from typing import Any, Generic, TypeVar

__all__ = ["Signal", "BitSignal", "BusSignal"]

T = TypeVar("T")


class Signal(Generic[T]):
    """A single driver/multi-reader signal with deferred update."""

    __slots__ = ("sim", "name", "_value", "_next", "_dirty", "_watchers",
                 "_dirty_list", "_owner", "__weakref__")

    def __init__(self, sim, init: T = 0, name: str = "sig"):
        self.sim = sim
        self.name = name
        # Design-hierarchy owner (None when built outside any scope —
        # such testbench-local signals are not retained by the hierarchy
        # and stay garbage-collectable).
        design = getattr(sim, "design", None)
        self._owner = design.register_signal(self) if design is not None \
            else None
        self._value: T = init
        self._next: T = init
        self._dirty = False
        # Methods sensitive to this signal (None until the first one is
        # registered).  The list lives on the signal itself, so the link
        # is a strong reference keyed by identity — a dropped signal can
        # never alias another signal's sensitivity list.
        self._watchers = None
        # Direct reference to the simulator's dirty list; its identity is
        # stable for the simulator's lifetime (the delta loop clears it in
        # place), so ``write`` can append without a method call.
        self._dirty_list = sim._dirty_signals
        # Elaboration-time only: auto-watching traces (--trace-vcd) pick
        # up every signal as it is created.
        trace = getattr(sim, "trace", None)
        if trace is not None and getattr(trace, "autowatch", False):
            trace.watch(self)
        # Weak registration so snapshot/restore can enumerate signals
        # without pinning testbench-local ones (repro.kernel.snapshot).
        registry = getattr(sim, "_snap_signals", None)
        if registry is not None:
            import weakref

            registry.append(weakref.ref(self))

    def read(self) -> T:
        """Return the committed value (the value as of the last delta)."""
        return self._value

    def write(self, value: T) -> None:
        """Schedule ``value`` to commit at the end of this delta cycle."""
        self._next = value
        if not self._dirty:
            self._dirty = True
            self._dirty_list.append(self)

    # Convenience sugar so handshake code reads naturally.
    @property
    def value(self) -> T:
        return self._value

    @property
    def path(self) -> str:
        """Hierarchical dotted path (equals ``name`` outside any scope)."""
        owner = self._owner
        return owner.join(self.name) if owner is not None else self.name

    def __bool__(self) -> bool:
        return bool(self._value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name!r}={self._value!r})"


class BitSignal(Signal[int]):
    """A 1-bit signal (valid/ready wires).  Values are 0/1."""

    def __init__(self, sim, init: int = 0, name: str = "bit"):
        super().__init__(sim, int(bool(init)), name)

    def write(self, value: int) -> None:
        # Flattened (no super() hop): this is the RTL-mode hot path.
        self._next = 1 if value else 0
        if not self._dirty:
            self._dirty = True
            self._dirty_list.append(self)


class BusSignal(Signal[int]):
    """An n-bit bus signal; writes are masked to the declared width."""

    __slots__ = ("width", "_mask")

    def __init__(self, sim, width: int, init: int = 0, name: str = "bus"):
        if width <= 0:
            raise ValueError(f"bus width must be positive, got {width}")
        self.width = width
        self._mask = (1 << width) - 1
        super().__init__(sim, init & self._mask, name)

    def write(self, value: int) -> None:
        # Flattened (no super() hop): this is the RTL-mode hot path.
        self._next = value & self._mask
        if not self._dirty:
            self._dirty = True
            self._dirty_list.append(self)
