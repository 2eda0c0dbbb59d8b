"""On-disk search checkpoints: pause a replay search, resume it anywhere.

The commit discipline of :class:`~repro.replay.engine.ReplayEngine` makes
this cheap and exact: results are folded into the outcome in serial pop
order, so at every commit boundary the triple *(engine, pending set,
outcome-so-far)* fully determines the rest of the search.  A checkpoint is
that triple — plus the merged telemetry snapshot and the elapsed budget
clock — framed in the same versioned, CRC-checked section envelope as trace
files (magic ``REPROCKP`` instead of ``REPROTRC``) and written with
:func:`~repro.trace.write_atomic` (temp file, fsync, rename).  Resuming from
a checkpoint taken at *any* commit index therefore reproduces a
byte-identical explored set and
:class:`~repro.service.service.ReproductionReport` versus the uninterrupted
run; the differential tests in ``tests/test_checkpoint.py`` hold this for
every workload in the suite.

Corruption is loud: truncation, bit rot (CRC), a bad pickle or an unknown
version all raise :class:`CheckpointFormatError`.  The supervisor treats a
corrupt checkpoint as poison — the cluster is quarantined with the typed
error, never silently restarted into a possibly-wrong report.

Section bodies are pickles (the engine pickles its own inputs, see
:meth:`~repro.replay.engine.ReplayEngine.__getstate__`), so the envelope
contributes the integrity story — magic, version, length and checksum —
while pickle contributes fidelity.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, List, Optional, Set, Tuple

from repro.trace import TraceFormatError, _Writer, _Reader, \
    decode_envelope, encode_envelope, write_atomic

__all__ = [
    "CHECKPOINT_MAGIC", "CHECKPOINT_VERSION", "CheckpointError",
    "CheckpointFormatError", "CheckpointPolicy", "SearchCheckpoint",
    "dump_checkpoint_bytes", "load_checkpoint", "load_checkpoint_bytes",
    "save_checkpoint",
]

CHECKPOINT_MAGIC = b"REPROCKP"
#: Version 2: the ``ENGN`` section pickles the engine itself.  A file of any
#: other version is refused with :class:`CheckpointFormatError`.
CHECKPOINT_VERSION = 2

_SECTION_ORDER = (b"META", b"ENGN", b"PEND", b"OUTC", b"TELE")


class CheckpointError(Exception):
    """Base class for search-checkpoint failures."""


class CheckpointFormatError(CheckpointError):
    """The file is not a readable checkpoint (truncated, corrupt, bad pickle)."""


@dataclass
class CheckpointPolicy:
    """When and where a running engine checkpoints, and how it is observed.

    Attached to an engine with
    :meth:`~repro.replay.engine.ReplayEngine.attach_checkpointing`; the
    engine consults it once per committed item, so every field is a
    commit-boundary behaviour:

    * ``path`` — where snapshots land (atomic replace, last write wins);
    * ``every_commits`` — cadence; ``0`` disables periodic snapshots
      (preemption still writes one);
    * ``preempt_flag`` — a file whose existence asks the search to
      checkpoint and stop (the supervisor's cooperative preemption lever);
    * ``preempt_after_commits`` — deterministic self-preemption after
      exactly N commits (differential tests and the overhead experiment);
    * ``heartbeat_path`` — a file the engine touches per commit so a
      supervisor can tell a slow search from a wedged one;
    * ``fault_spec`` — a :class:`~repro.service.faults.FaultSpec` driving
      the seeded ``worker_kill`` / ``checkpoint_fail`` streams.
    """

    path: str = ""
    every_commits: int = 0
    preempt_flag: str = ""
    preempt_after_commits: int = 0
    heartbeat_path: str = ""
    fault_spec: Optional[Any] = None


@dataclass
class SearchCheckpoint:
    """Everything needed to continue a search from one commit boundary."""

    #: The engine running the search (pickled as its constructor inputs).
    engine: Any
    #: Committed items so far — the commit index this snapshot pauses at.
    commits: int
    #: Budget clock already consumed; folded into ``max_seconds`` on resume.
    elapsed_seconds: float
    #: The live pending items, in list order (the search frontier).
    pending_items: List[Any] = field(default_factory=list)
    #: Every signature ever pushed — includes popped items, so resumed
    #: deduplication matches the uninterrupted run exactly.
    seen_signatures: Set[Tuple] = field(default_factory=set)
    dropped: int = 0
    duplicates: int = 0
    #: The outcome-so-far (a ``ReplayOutcome`` with telemetry stripped).
    outcome_state: Any = None
    #: Merged telemetry registry snapshot at the commit boundary, or None.
    telemetry: Optional[Any] = None


def _pickle(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _unpickle(body: bytes, what: str) -> Any:
    try:
        return pickle.loads(body)
    except Exception as exc:  # corrupt pickles raise a zoo of types
        raise CheckpointFormatError(
            f"corrupt {what} section in checkpoint: "
            f"{type(exc).__name__}: {exc}")


def dump_checkpoint_bytes(checkpoint: SearchCheckpoint) -> bytes:
    """Serialize *checkpoint* into the current binary form."""

    meta = _Writer()
    meta.u64(checkpoint.commits)
    meta.u64(max(0, round(checkpoint.elapsed_seconds * 1_000_000)))
    meta.u64(len(checkpoint.pending_items))
    sections = {
        b"META": meta.getvalue(),
        b"ENGN": _pickle(checkpoint.engine),
        b"PEND": _pickle({
            "items": checkpoint.pending_items,
            "seen": checkpoint.seen_signatures,
            "dropped": checkpoint.dropped,
            "duplicates": checkpoint.duplicates,
        }),
        b"OUTC": _pickle(checkpoint.outcome_state),
        b"TELE": _pickle(checkpoint.telemetry),
    }
    return encode_envelope(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                           sections, _SECTION_ORDER)


def load_checkpoint_bytes(data: bytes) -> SearchCheckpoint:
    """Decode a checkpoint; raises :class:`CheckpointFormatError` loudly."""

    try:
        sections = decode_envelope(data, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                   what="checkpoint", require=_SECTION_ORDER)
    except TraceFormatError as exc:
        raise CheckpointFormatError(str(exc))
    meta = _Reader(sections[b"META"], "checkpoint META section")
    try:
        commits = meta.u64()
        elapsed = meta.u64() / 1_000_000.0
        meta.u64()  # pending count, informational
        meta.expect_end("checkpoint META section")
    except TraceFormatError as exc:
        raise CheckpointFormatError(str(exc))
    pend = _unpickle(sections[b"PEND"], "PEND")
    if not (isinstance(pend, dict) and isinstance(pend.get("items"), list)
            and isinstance(pend.get("seen"), set)
            and type(pend.get("dropped")) is int
            and type(pend.get("duplicates")) is int):
        raise CheckpointFormatError(
            "malformed PEND section in checkpoint: expected a dict of "
            "items (list), seen (set), dropped and duplicates (ints)")
    return SearchCheckpoint(
        engine=_unpickle(sections[b"ENGN"], "ENGN"),
        commits=commits,
        elapsed_seconds=elapsed,
        pending_items=pend["items"],
        seen_signatures=pend["seen"],
        dropped=pend["dropped"],
        duplicates=pend["duplicates"],
        outcome_state=_unpickle(sections[b"OUTC"], "OUTC"),
        telemetry=_unpickle(sections[b"TELE"], "TELE"),
    )


def save_checkpoint(path: str, checkpoint: SearchCheckpoint) -> str:
    """Atomically persist *checkpoint* at *path* (tmp, fsync, replace).

    A reader never observes a torn checkpoint: either the previous complete
    snapshot or this one.  Raises ``OSError`` on write failure — callers
    treat a failed checkpoint as lost work insurance, not a failed search.
    """

    return write_atomic(path, dump_checkpoint_bytes(checkpoint))


def load_checkpoint(path: str) -> SearchCheckpoint:
    """Read a checkpoint file; see :func:`load_checkpoint_bytes`."""

    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
    return load_checkpoint_bytes(data)
