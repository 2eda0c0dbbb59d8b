"""Deterministic fault injection for the network ingestion layer.

Chaos testing only earns its keep when a failing run can be replayed: every
fault decision here comes from a per-kind ``random.Random`` seeded from
``(seed, kind)``, so the *sequence* of injected faults of each kind is a
pure function of the spec — rerunning a client with the same spec truncates
the same attempts, flips the same bytes, stalls the same frames.

Two sides consume a spec:

* **client-side damage** (``drop`` / ``truncate`` / ``corrupt`` / ``slow``)
  simulates the network between a reporting fleet and the service; the
  :class:`~repro.service.net.UploadClient` consults its injector once per
  upload attempt, so a damaged attempt is followed by a clean (or again
  damaged) retry under the same seeded schedule;
* **server-side damage** (``spool_fail`` rate and ``crash_points``)
  simulates a failing disk and an abruptly killed process;
  ``crash_points`` name code locations (e.g. ``spool.after_temp``,
  ``net.after_ingest``) where the server SIGKILLs *itself* — the
  deterministic stand-in for ``kill -9`` arriving at exactly that moment,
  which the crash-recovery tests drive from a subprocess harness.

:data:`NULL_FAULTS` is the shared no-op injector (all rates zero, no crash
points); production code paths take it by default so the fault hooks cost a
dict lookup and a float compare when chaos is off.
"""

from __future__ import annotations

import os
import random
import signal
import threading
from dataclasses import dataclass, fields
from typing import Dict, Tuple

__all__ = ["FaultInjector", "FaultSpec", "NULL_FAULTS"]

#: The injectable fault kinds; ``<kind>_rate`` fields of :class:`FaultSpec`.
FAULT_KINDS = ("drop", "truncate", "corrupt", "slow", "spool_fail",
               "worker_kill", "checkpoint_fail")


@dataclass(frozen=True)
class FaultSpec:
    """Declarative, seeded description of the faults one run injects."""

    seed: int = 0
    #: Client: send the full upload, then close before reading the response
    #: (the acknowledgement is lost in flight — the idempotent-retry case).
    drop_rate: float = 0.0
    #: Client: send only a prefix of the frame, then close (a truncated
    #: upload the server must discard without acknowledging).
    truncate_rate: float = 0.0
    #: Client: flip one byte of the trace payload in flight (the content
    #: digest no longer matches; the server asks for a resend).
    corrupt_rate: float = 0.0
    #: Client: dribble the frame slower than the server's per-read timeout
    #: (a slow-loris attempt; the server must shed the connection).
    slow_rate: float = 0.0
    #: Server: the spool write raises ``OSError`` (failing disk);
    #: the client is told to retry — nothing was acknowledged.
    spool_fail_rate: float = 0.0
    #: Server: every spool write takes at least this long (slow disk) —
    #: the lever that deterministically takes every admission slot so
    #: overload/backpressure paths can be exercised.
    spool_delay_seconds: float = 0.0
    #: Worker: a supervised replay-search worker SIGKILLs itself after a
    #: committed item (an OOM-killed / crashed search process); the
    #: supervisor must restart it from its last checkpoint.  The per-kind
    #: stream restarts with each worker attempt, so with checkpointing on,
    #: every retry deterministically advances past the previous kill.
    worker_kill_rate: float = 0.0
    #: Worker: a checkpoint write raises ``OSError`` (failing disk); the
    #: search must shrug — a lost checkpoint costs replayed work on the
    #: next crash, never a wrong report.
    checkpoint_fail_rate: float = 0.0
    #: Server: SIGKILL self the first time each named point is reached.
    crash_points: Tuple[str, ...] = ()

    def to_json(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "truncate_rate": self.truncate_rate,
            "corrupt_rate": self.corrupt_rate,
            "slow_rate": self.slow_rate,
            "spool_fail_rate": self.spool_fail_rate,
            "spool_delay_seconds": self.spool_delay_seconds,
            "worker_kill_rate": self.worker_kill_rate,
            "checkpoint_fail_rate": self.checkpoint_fail_rate,
            "crash_points": list(self.crash_points),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "FaultSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown fault spec key(s) {unknown} "
                             f"(known: {sorted(known)})")
        kwargs = dict(payload)
        if "crash_points" in kwargs:
            kwargs["crash_points"] = tuple(kwargs["crash_points"])
        return cls(**kwargs)


class FaultInjector:
    """Live fault source for one run: seeded rolls, byte flips, crashes.

    Thread-safe; every decision draws from the per-kind stream so the kinds
    never perturb each other's schedules.  :attr:`injected` counts the
    faults actually fired, for test assertions and the load generator's
    damage report.
    """

    def __init__(self, spec: FaultSpec = None) -> None:
        self.spec = spec or FaultSpec()
        self._lock = threading.Lock()
        self._randoms: Dict[str, random.Random] = {
            kind: random.Random(f"{self.spec.seed}:{kind}")
            for kind in FAULT_KINDS
        }
        self.injected: Dict[str, int] = {}

    def roll(self, kind: str) -> bool:
        """One seeded decision: inject a *kind* fault now?"""

        rate = getattr(self.spec, f"{kind}_rate")
        if rate <= 0.0:
            return False
        with self._lock:
            fired = self._randoms[kind].random() < rate
            if fired:
                self.injected[kind] = self.injected.get(kind, 0) + 1
        return fired

    def corrupt(self, data: bytes) -> bytes:
        """Flip one seeded byte of *data* (in-flight payload damage)."""

        if not data:
            return data
        with self._lock:
            index = self._randoms["corrupt"].randrange(len(data))
        damaged = bytearray(data)
        damaged[index] ^= 0xFF
        return damaged

    def crash_point(self, name: str) -> None:
        """SIGKILL this process if *name* is one of the spec's crash points.

        SIGKILL (not ``sys.exit``) so no ``finally`` blocks, atexit hooks or
        buffered writes soften the crash — exactly what an external
        ``kill -9`` delivers, made deterministic in *where* it lands.
        """

        if name not in self.spec.crash_points:
            return
        kill = getattr(signal, "SIGKILL", None)
        if kill is None:  # non-POSIX fallback: hard exit, no cleanup
            os._exit(137)
        os.kill(os.getpid(), kill)

    def kill_now(self) -> None:
        """SIGKILL this process unconditionally (a fired ``worker_kill``)."""

        kill = getattr(signal, "SIGKILL", None)
        if kill is None:  # non-POSIX fallback: hard exit, no cleanup
            os._exit(137)
        os.kill(os.getpid(), kill)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.injected)


#: Shared no-op injector: all rates zero, no crash points.
NULL_FAULTS = FaultInjector(FaultSpec())
