"""The telemetry runtime: which registry (if any) is currently active.

Instrumented code never holds a registry directly — it asks
:func:`active` for the current one and records into whatever comes back.
Three levels resolve, cheapest first:

* a **thread-local scope** installed by :func:`scoped` (the replay engine
  wraps each pending-item evaluation in one, so a run's VM/solver metrics
  land in that item's private registry and travel home in its evaluation);
* the **process-global registry** installed by :func:`enable`;
* the :data:`NULL_REGISTRY` when telemetry is off — its instruments are
  shared no-op singletons, so disabled instrumentation costs one attribute
  lookup and an empty method call at each site (and the VM dispatch loop
  costs literally nothing: profiling swaps in a different loop *function*
  instead of testing a flag per instruction).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator, Optional

from repro.telemetry.registry import MetricsRegistry, RegistrySnapshot

__all__ = [
    "NULL_REGISTRY",
    "NullRegistry",
    "active",
    "disable",
    "enable",
    "enabled",
    "scoped",
]


class _NullInstrument:
    """Absorbs every instrument method; one shared instance per kind."""

    __slots__ = ()
    timing = False
    value = 0
    count = 0
    sum = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled-telemetry registry: every instrument is a no-op."""

    enabled = False

    def counter(self, name: str, timing: bool = False) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, timing: bool = False) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=None,
                  timing: bool = False) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def record_span(self, span) -> None:
        pass

    def snapshot(self) -> RegistrySnapshot:
        return RegistrySnapshot()

    def merge_snapshot(self, snapshot: RegistrySnapshot) -> None:
        pass


NULL_REGISTRY = NullRegistry()

_TLS = threading.local()
_GLOBAL: object = NULL_REGISTRY
_GLOBAL_LOCK = threading.Lock()


def active():
    """The registry instrumentation should record into right now."""

    scope = getattr(_TLS, "registry", None)
    if scope is not None:
        return scope
    return _GLOBAL


def enabled() -> bool:
    """Is any real registry active on this thread?"""

    return active().enabled


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) the process-global registry."""

    global _GLOBAL
    with _GLOBAL_LOCK:
        if registry is None:
            registry = MetricsRegistry()
        _GLOBAL = registry
    return registry


def disable() -> None:
    """Drop the process-global registry; telemetry reverts to no-ops."""

    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = NULL_REGISTRY


@contextlib.contextmanager
def scoped(registry) -> Iterator[object]:
    """Route this thread's telemetry into *registry* while the scope is open.

    Scopes nest (the previous registry is restored on exit), and a scope
    shadows the process-global registry — that is what isolates one pending
    item's metrics from the engine's and from other threads'.
    """

    previous = getattr(_TLS, "registry", None)
    _TLS.registry = registry
    try:
        yield registry
    finally:
        _TLS.registry = previous
