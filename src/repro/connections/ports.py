"""Connections ports: the unified ``In``/``Out`` terminal objects.

Reproduces Table 1 of the paper: components declare polymorphic ``In[T]``
and ``Out[T]`` ports and are later bound to any channel kind, which is
what lets one component implementation be reused behind a combinational
wire, a FIFO, or a network (section 2.3).

API mapping to the paper:

===============  ======================
paper            this library
===============  ======================
``Pop()``        ``yield from port.pop()``
``PopNB()``      ``port.pop_nb()``
``Push()``       ``yield from port.push(msg)``
``PushNB()``     ``port.push_nb(msg)``
===============  ======================

Blocking operations are generators: they retry once per clock cycle until
they succeed, so they must be invoked with ``yield from`` inside a
clocked thread.

A ``pop()`` blocked on an idle channel *declares* its wait.  While a
plain :class:`~repro.connections.channel.FastChannel` (exact type) is
parked — empty, nothing in transit — the retry loop yields the channel's
pop :class:`~repro.kernel.Gate` instead of bare ``None``.  It means the
same to the thread — one posedge, then retry — but lets the executor
park the thread until the channel's tick leaves data visible, crediting
each skipped retry as the refused pop it would have been (see
``docs/PERFORMANCE.md``, lane 6).  A short block — data already in
transit — polls with a bare ``yield``, as does a blocked ``push()``,
which waits for a consumer rather than for the channel.
"""

from __future__ import annotations

from typing import Any, Generator, Generic, Optional, TypeVar

from ..design.hierarchy import current_scope
from .channel import FastChannel

__all__ = ["In", "Out", "PortError"]

T = TypeVar("T")


class PortError(RuntimeError):
    """Raised on illegal port use (unbound, double-bound, ...)."""


class _Port(Generic[T]):
    """Common endpoint machinery: late binding to a channel.

    Ports register into the ambient design-hierarchy scope (if one is
    open), which is how elaboration resolves channel endpoints and the
    ``unbound-port`` lint knows what to check.  A port constructed
    outside any scope but *with* a channel registers at the root of that
    channel's hierarchy (the testbench-driver compatibility path); one
    constructed with neither stays invisible to elaboration.
    ``optional=True`` marks boundary terminals that legitimately stay
    unbound (e.g. mesh-edge router ports) so lint skips them.
    """

    __slots__ = ("name", "_channel", "_owner", "optional")

    def __init__(self, channel: Optional[FastChannel] = None, *,
                 name: str = "port", optional: bool = False):
        self.name = name
        self.optional = optional
        self._channel: Optional[FastChannel] = None
        scope = current_scope()
        if scope is None and channel is not None:
            # Unscoped but bound: attach to the root of the hierarchy
            # the channel lives in, so elaboration still sees the
            # endpoint (loose testbench drivers and sinks).
            owner = getattr(channel, "_design_owner", None) \
                or getattr(channel, "_design_instance", None)
            while owner is not None and owner.parent is not None:
                owner = owner.parent
            scope = owner
        self._owner = scope
        if scope is not None:
            scope.ports.append(self)
        if channel is not None:
            self.bind(channel)

    def bind(self, channel: FastChannel) -> None:
        """Bind this terminal to a channel (any kind — ports are polymorphic)."""
        if self._channel is not None:
            raise PortError(f"port {self.name!r} is already bound")
        self._channel = channel

    @property
    def channel(self) -> FastChannel:
        if self._channel is None:
            raise PortError(f"port {self.name!r} is not bound to a channel")
        return self._channel

    @property
    def bound(self) -> bool:
        return self._channel is not None

    @property
    def path(self) -> str:
        """Hierarchical dotted path (equals ``name`` outside any scope)."""
        owner = self._owner
        return owner.join(self.name) if owner is not None else self.name


class Out(_Port[T]):
    """Producer-side terminal (``Out<T>`` in the paper)."""

    def push_nb(self, msg: T) -> bool:
        """Non-blocking push; True if the channel accepted the message."""
        return self.channel.do_push(msg)

    def push(self, msg: T) -> Generator:
        """Blocking push: retries every cycle until the channel accepts."""
        channel = self.channel
        if channel.do_push(msg):
            return
        # First attempt refused: if a watchdog is attached to the
        # channel's simulator, register this thread as blocked in a push
        # handshake so hangs get a path-level diagnosis.  Disabled-path
        # cost is zero — this code only runs once backpressure appears.
        watchdog = getattr(getattr(channel, "sim", None), "watchdog", None)
        token = watchdog.on_block(self, channel, "push") \
            if watchdog is not None else None
        while True:
            yield
            if channel.do_push(msg):
                if token is not None:
                    watchdog.on_unblock(token)
                return

    def can_push(self) -> bool:
        """Would ``push_nb`` succeed this cycle (``Full()`` inverse)?"""
        return self.channel.can_push()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Out({self.name!r})"


class In(_Port[T]):
    """Consumer-side terminal (``In<T>`` in the paper)."""

    def pop_nb(self) -> tuple[bool, Optional[T]]:
        """Non-blocking pop; returns ``(ok, msg)``."""
        return self.channel.do_pop()

    def pop(self) -> Generator:
        """Blocking pop: retries every cycle; returns the message."""
        channel = self.channel
        ok, msg = channel.do_pop()
        if ok:
            return msg
        # See Out.push: register with the simulator's watchdog (if any)
        # only once the first attempt has failed.
        watchdog = getattr(getattr(channel, "sim", None), "watchdog", None)
        token = watchdog.on_block(self, channel, "pop") \
            if watchdog is not None else None
        gate = channel._pop_gate if type(channel) is FastChannel else None
        while True:
            yield gate if gate is not None and channel._skip_from is not None \
                else None
            ok, msg = channel.do_pop()
            if ok:
                if token is not None:
                    watchdog.on_unblock(token)
                return msg

    def peek_nb(self) -> tuple[bool, Optional[T]]:
        """Inspect the head message without consuming it."""
        return self.channel.peek()

    def can_pop(self) -> bool:
        """Would ``pop_nb`` succeed this cycle (``Empty()`` inverse)?"""
        return self.channel.can_pop()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"In({self.name!r})"
