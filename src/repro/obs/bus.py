"""The typed event bus at the centre of ``repro.obs``.

Design constraints, in priority order:

1. **The detached path is free.**  A simulation loop that nobody is
   watching must pay (at most) one attribute read per potential event.
   Publishers therefore hoist a channel's subscriber list into a local
   before their hot loop and publish *positional* arguments — no event
   object, no dict, no kwargs are built unless a sink is attached.
2. **Delivery order is deterministic.**  Subscribers of one channel are
   invoked in subscription order; the engine subscribes a run's
   observers in registration order, so two observers see identical
   event sequences (see ``docs/observability.md``).
3. **Sinks are pluggable and late-bound.**  A sink subscribes to any
   subset of kinds; the bus materialises :class:`~repro.obs.events.Event`
   records (with a global monotone ``seq``) only for sink-backed
   subscriptions.

There is one process-wide *default bus*: what a methodology, engine or
executor built without a bus uses.  :func:`set_default_bus` swaps it and
:func:`scoped_bus` is the test-friendly context-manager form.  A forked
child starts on a fresh silent bus (:func:`_fresh_bus_after_fork`), so
a sink inherited from the parent — an open trace file, say — never sees
the child's writes.  A child whose events should reach its parent's
sinks records them to a file instead (:meth:`EventBus.record`, on the
kinds :meth:`EventBus.listened_kinds` of the parent's bus) and the
parent publishes them again with :meth:`EventBus.replay`.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
from typing import BinaryIO, Callable, Dict, Iterable, List, Optional, Tuple

from .events import ALL_TYPES, Event, EventType
from .metrics import MetricsRegistry


class Channel:
    """One event kind's fan-out point.

    ``subscribers`` is a plain list of callables invoked positionally;
    publishers may iterate it directly (hoisted into a local) for
    hot-loop emission.
    """

    __slots__ = ("etype", "subscribers")

    def __init__(self, etype: EventType):
        self.etype = etype
        self.subscribers: List[Callable] = []

    @property
    def active(self) -> bool:
        return bool(self.subscribers)

    def publish(self, *args) -> None:
        for fn in self.subscribers:
            fn(*args)


class _SinkAdapter:
    """Bridges one channel's positional publishes to a sink's records."""

    __slots__ = ("bus", "sink", "etype")

    def __init__(self, bus: "EventBus", sink: "Sink", etype: EventType):
        self.bus = bus
        self.sink = sink
        self.etype = etype

    def __call__(self, *args) -> None:
        self.sink.write(self.etype.record(self.bus.next_seq(), args))


class Sink:
    """Abstract event consumer (see :mod:`repro.obs.sinks`)."""

    def write(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; further writes are undefined."""


class EventBus:
    """Typed event channels plus a metrics registry."""

    def __init__(self) -> None:
        self._channels: Dict[str, Channel] = {
            name: Channel(etype) for name, etype in ALL_TYPES.items()
        }
        self._sinks: List[Tuple[Sink, List[Tuple[Channel, _SinkAdapter]]]] = []
        self._seq = 0
        self.metrics = MetricsRegistry()

    # -- sequence numbers ---------------------------------------------------

    def next_seq(self) -> int:
        """Monotone per-bus event sequence number (sink records only)."""
        self._seq += 1
        return self._seq

    # -- channels and subscribers -------------------------------------------

    def channel(self, etype: EventType) -> Channel:
        """The channel for ``etype`` (registering it on first use)."""
        channel = self._channels.get(etype.name)
        if channel is None:
            channel = self._channels[etype.name] = Channel(etype)
        return channel

    def subscribe(self, etype: EventType, fn: Callable) -> Callable:
        """Append ``fn`` to the channel; returns ``fn`` as the handle."""
        self.channel(etype).subscribers.append(fn)
        return fn

    def unsubscribe(self, etype: EventType, fn: Callable) -> None:
        subscribers = self.channel(etype).subscribers
        if fn in subscribers:
            subscribers.remove(fn)

    def emit(self, etype: EventType, *args) -> None:
        """One-shot publish (cold paths; hot loops hoist the channel)."""
        channel = self._channels.get(etype.name)
        if channel is not None and channel.subscribers:
            channel.publish(*args)

    # -- relaying another process's events -----------------------------------

    def listened_kinds(self) -> List[EventType]:
        """The event kinds that have at least one subscriber."""
        return [channel.etype for channel in self._channels.values()
                if channel.subscribers]

    def record(self, kinds: Iterable[EventType], log: BinaryIO) -> None:
        """Write every publish of ``kinds`` on this bus to ``log`` as it
        happens, one pickled ``(kind name, args)`` pair each, so a long
        run's events are held on disk, not in memory."""
        pickler = pickle.Pickler(log, pickle.HIGHEST_PROTOCOL)
        # no memo: the writer would keep every object written alive,
        # and the reader every object read
        pickler.fast = True
        for etype in kinds:
            self.channel(etype).subscribers.append(
                functools.partial(_log_publish, pickler, etype.name))

    def replay(self, log: BinaryIO) -> None:
        """Publish what :meth:`record` wrote to ``log``, in its order."""
        log.seek(0)
        load = pickle.Unpickler(log).load
        while True:
            try:
                name, args = load()
            except EOFError:
                return
            self._channels[name].publish(*args)

    # -- sinks --------------------------------------------------------------

    def add_sink(self, sink: Sink,
                 kinds: Optional[Iterable[str]] = None) -> Sink:
        """Attach ``sink`` to ``kinds`` (every registered kind if None)."""
        if kinds is None:
            names = list(self._channels)
        else:
            names = list(kinds)
        attached: List[Tuple[Channel, _SinkAdapter]] = []
        for name in names:
            etype = ALL_TYPES.get(name)
            if etype is None:
                raise KeyError(f"unknown event kind {name!r}")
            channel = self.channel(etype)
            adapter = _SinkAdapter(self, sink, etype)
            channel.subscribers.append(adapter)
            attached.append((channel, adapter))
        self._sinks.append((sink, attached))
        return sink

    def remove_sink(self, sink: Sink) -> None:
        """Detach every subscription made for ``sink`` (without closing)."""
        remaining = []
        for entry in self._sinks:
            if entry[0] is sink:
                for channel, adapter in entry[1]:
                    if adapter in channel.subscribers:
                        channel.subscribers.remove(adapter)
            else:
                remaining.append(entry)
        self._sinks = remaining

    @property
    def sinks(self) -> List[Sink]:
        return [sink for sink, _ in self._sinks]

    def event_counts(self) -> Dict[str, int]:
        """Per-kind counts from any attached CountingSink (merged)."""
        from .sinks import CountingSink

        counts: Dict[str, int] = {}
        for sink in self.sinks:
            if isinstance(sink, CountingSink):
                for kind, n in sink.counts.items():
                    counts[kind] = counts.get(kind, 0) + n
        return counts


def _log_publish(pickler: pickle.Pickler, name: str, *args) -> None:
    pickler.dump((name, args))


# -- process-wide default bus ----------------------------------------------

_DEFAULT_BUS = EventBus()


def current_bus() -> EventBus:
    """The process-wide default bus (always present, usually silent)."""
    return _DEFAULT_BUS


def set_default_bus(bus: EventBus) -> EventBus:
    """Replace the default bus; returns the previous one."""
    global _DEFAULT_BUS
    previous = _DEFAULT_BUS
    _DEFAULT_BUS = bus
    return previous


def _fresh_bus_after_fork() -> None:
    """Give a forked child a pristine default bus: pool workers observe
    nothing by default (the parent re-emits their telemetry)."""
    set_default_bus(EventBus())


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_bus_after_fork)


@contextlib.contextmanager
def scoped_bus(bus: Optional[EventBus] = None):
    """Temporarily install ``bus`` (or a fresh one) as the default."""
    bus = bus if bus is not None else EventBus()
    previous = set_default_bus(bus)
    try:
        yield bus
    finally:
        set_default_bus(previous)
