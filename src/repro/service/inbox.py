"""The trace inbox: batch ingestion and deduplication of bug reports.

The paper's deployment story has *millions* of user machines shipping compact
bug reports; the developer site cannot afford one replay search per report.
The inbox is the receiving dock for that traffic:

* **ingestion** — traces arrive as raw bytes (:meth:`TraceInbox.ingest_bytes`,
  the shape a network transport would deliver), as files
  (:meth:`TraceInbox.ingest_file`), or by polling a watched spool directory
  (:meth:`TraceInbox.poll_spool`) into which an external transport drops
  ``*.trace`` files.  The inbox API is transport-agnostic on purpose: a
  socket listener only needs to call ``ingest_bytes``.
* **deduplication** — clustering is two-level.  The *bug key* is
  ``(plan fingerprint, crash site)``: reports produced by the same
  instrumented binary crashing at the same location are the same bug, and
  clusters sharing a bug key carry the same ``bug_key`` for grouping and
  triage.  A *cluster* (the unit that gets one replay search) additionally
  requires an equivalent recording — identical bitvector, syscall log and
  input scaffold — because only then is the representative's search
  byte-identical to every member's own.  N duplicate reports therefore cost
  *one* replay search whose reproduction report fans back out to every
  member, without ever handing a trace a report its own single-shot search
  would not have produced.
* **restartable state** — the inbox persists its ledger and every ingested
  trace under its root directory, so a restarted service resumes exactly
  where it stopped: spool files already ingested are not re-ingested,
  finished clusters keep their reports, pending clusters are searched next.
  A trace whose file already lies under the root (the network listener's
  spool) is recorded by that path; one from outside (bytes, a file
  elsewhere, an external spool directory) is copied to
  ``traces/<trace id>.trace``.

The ledger is a snapshot plus an operation log, so an operation costs the
size of its own record, not of the history.  Each ingest, commit (``done``
or ``failed``, with its report) and rejection is one JSON line appended to
``inbox.log`` and fsynced before the call returns; an ingest's line carries
its trace entry, its new cluster if it made one, and its spool path.
``inbox.json`` is the snapshot: the whole ledger plus ``last_record``, the
number of the last log record it covers.  Once the log is longer than both
the snapshot and ``_COMPACT_FLOOR``, the snapshot is rewritten (with
:func:`~repro.trace.write_atomic`) and the log emptied; a snapshot of S
bytes is thus rewritten only after S bytes of records, which keeps
compaction amortized O(1) per operation.  Loading reads the snapshot, then
applies the log records numbered after ``last_record``, so a crash between
the snapshot's rename and the log's truncation applies nothing twice.  A
torn final record — bytes after the last newline — is an append that never
returned, so nothing acknowledged it: it is ignored, and overwritten by the
next append.  Every other unreadable or malformed record, and a snapshot of
the wrong shape, raises :class:`~repro.trace.TraceError` naming the file and
the record.  A root written before the log existed (an ``inbox.json`` of
version 1, compact or indented, and no log) loads unchanged.  One inbox
writes a root at a time: an append or compaction that finds the log or
the snapshot changed by another writer since this inbox last read or
wrote it raises :class:`~repro.trace.TraceError` (see
:meth:`TraceInbox._locked_log`) instead of overwriting that writer's
records.

Corrupt or truncated trace files never poison a batch: they are recorded in
the rejection ledger (with the one-line reason) and skipped on subsequent
polls.  So are decodable traces the service's ``check_trace`` hook refuses
(an unknown program, a trace from a different binary).  The ledger is
*bounded* (``max_rejected`` entries, oldest evicted) so a sustained garbage
storm cannot grow the snapshot without limit, and every rejection
increments a ``service.rejected.<reason>`` telemetry counter when the inbox
is given a registry.

A file that merely *looks* corrupt may simply still be in flight: an
external transport writing a spool file in place is indistinguishable from
a truncated upload until the writer finishes.  :meth:`TraceInbox.poll_spool`
therefore gives every unparsable file a grace poll — it is only rejected
once its size and mtime are unchanged across two consecutive polls (see
``_suspects``); a growing file is skipped and retried.

Every other file the inbox writes — the snapshot and the stored trace
copies — is written with :func:`~repro.trace.write_atomic` (temp file,
fsync, rename), so a ``kill -9`` leaves either the previous file or the new
one.  The network listener writes its spool files the same way; the
``<name>.trace.part`` temp of an interrupted write never matches the
``*.trace`` poll.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.planner.ledger import plan_fingerprint_digest, plan_version_of
from repro.trace import Trace, TraceError, load_trace_bytes, write_atomic

__all__ = [
    "IngestResult",
    "TraceCluster",
    "TraceInbox",
    "TraceTooLargeError",
    "UnknownProgramError",
    "error_line",
]

_STATE_FILE = "inbox.json"
_LOG_FILE = "inbox.log"
_TRACE_DIR = "traces"
#: The snapshot layout this build writes.  It also reads version 1, the same
#: layout without ``last_record``, written before the log existed.
_STATE_VERSION = 2
_SPOOL_SUFFIX = ".trace"
#: Bytes the log may hold before it is compacted, however small the
#: snapshot: a young inbox does not rewrite its snapshot on every operation.
_COMPACT_FLOOR = 64 * 1024
_STATUSES = ("pending", "done", "failed")


# ---------------------------------------------------------------------------
# shape checks for the state read back from disk
# ---------------------------------------------------------------------------

_NULL = type(None)
_NUMBER = (int, float)
_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer",
               float: "number", bool: "boolean", _NULL: "null"}
_REQUIRED = object()


def _expect(value, kinds: tuple, where: str):
    """*value* if its exact type is one of *kinds*, else a ``TraceError``.

    Exact types, so a JSON ``true`` is never accepted as an integer.
    """

    if type(value) not in kinds:
        expected = " or ".join(_JSON_NAMES[kind] for kind in kinds)
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise TraceError(f"{where}: expected {expected}, got {got}")
    return value


def _field(payload: dict, key: str, kinds: tuple, where: str,
           default=_REQUIRED):
    """``payload[key]`` checked against *kinds*; *default* when absent."""

    if key not in payload:
        if default is _REQUIRED:
            raise TraceError(f"{where}: missing {key!r}")
        return default
    return _expect(payload[key], kinds, f"{where}.{key}")


def _items(value, kinds: tuple, where: str):
    """A JSON object or array whose every value is one of *kinds*."""

    items = value.items() if type(value) is dict else enumerate(value)
    for key, item in items:
        _expect(item, kinds, f"{where}[{key!r}]")
    return value


def _row(value, kinds: Tuple[tuple, ...], where: str) -> None:
    """A JSON array with one element per entry of *kinds*, of its types."""

    if type(value) is not list or len(value) != len(kinds):
        raise TraceError(f"{where}: expected an array of {len(kinds)}")
    for index, (item, item_kinds) in enumerate(zip(value, kinds)):
        _expect(item, item_kinds, f"{where}[{index}]")


#: Every report field a read uses (``ReproductionReport.from_json``, the
#: replanner) and its JSON types.  The required ones are in every report ever
#: written; the others are absent from a failed cluster's report or from one
#: written before the search counters existed, and take these defaults.
_REPORT_FIELDS = (
    ("reproduced", (bool,), _REQUIRED),
    ("runs", (int,), _REQUIRED),
    ("wall_seconds", _NUMBER, _REQUIRED),
    ("timed_out", (bool,), _REQUIRED),
    ("found_input", (dict,), _REQUIRED),
    ("run_records", (list,), _REQUIRED),
    ("pending_stats", (dict,), _REQUIRED),
    ("solver_calls", (int,), _REQUIRED),
    ("warm_start_hits", (int,), _REQUIRED),
    ("crash_site", (list, _NULL), None),
    ("error", (str,), ""),
    ("vm_steps", (int,), 0),
    ("repairs", (int,), 0),
    ("repair_blocked", (dict,), {}),
    ("stop_reason", (str,), ""),
)
#: A run record: outcome, consumed bits, constraints, deviation.
_RUN_RECORD = ((str,), (int,), (int,), (str,))
#: A trace entry's fields, all strings.
_ENTRY_FIELDS = ("cluster", "program", "scenario", "file", "source")


def _check_report(report, where: str) -> dict:
    _expect(report, (dict,), where)
    for key, kinds, default in _REPORT_FIELDS:
        _field(report, key, kinds, where, default)
    _items(report["found_input"], (int,), f"{where}.found_input")
    _items(report["pending_stats"], _NUMBER, f"{where}.pending_stats")
    _items(report.get("repair_blocked", {}), (int,),
           f"{where}.repair_blocked")
    if report.get("crash_site") is not None:
        _row(report["crash_site"], ((str,), (int,)), f"{where}.crash_site")
    for index, record in enumerate(report["run_records"]):
        _row(record, _RUN_RECORD, f"{where}.run_records[{index}]")
    return report


def _check_entry(entry, where: str) -> dict:
    _expect(entry, (dict,), where)
    for key in _ENTRY_FIELDS:
        _field(entry, key, (str,), where)
    return entry


def _file_id(path: str) -> Optional[Tuple[int, int, int]]:
    """``(inode, size, mtime_ns)`` of *path*, None if it is absent: tells
    one atomic rewrite of the file from the next."""

    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return None
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


class TraceTooLargeError(TraceError):
    """An upload or spool file exceeded ``service.max_trace_bytes``."""


class UnknownProgramError(TraceError):
    """A decodable trace names a program the service cannot load: no
    registry resolves the name, its source does not compile, or the
    resolver raised."""


def error_line(error: Union[Exception, str]) -> str:
    """``"<Type>: <message>"`` on one line, for an exception or that line.

    A supervised search's exception crosses the process boundary as the
    line; the ledger and a failed report treat it as the exception itself.
    """

    if isinstance(error, Exception):
        name, message = type(error).__name__, str(error)
    else:
        name, _, message = error.partition(": ")
    return f"{name}: " + " ".join(message.split())


def _bug_key(trace: Trace) -> str:
    """Stable identity of ``(plan fingerprint, crash site)`` — *which bug*.

    A pure function of the trace contents (the plan fingerprint is itself a
    pure function of the program source since node ids became deterministic),
    so the same bug maps to the same key across processes and restarts.
    """

    crash = None
    if trace.crash_site is not None:
        crash = (trace.crash_site.function, trace.crash_site.line)
    payload = repr((trace.fingerprint(), crash)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def _recording_digest(trace: Trace) -> str:
    """Identity of the *recording* itself (everything the search consumes).

    Two traces with equal digests drive the replay engine identically, so
    one search's report is exact for both — the precondition for fanning a
    cluster's report out to all members.  The environment enters as its
    field values, not its ``repr``, so renaming its class or a field leaves
    every cluster id where it was.
    """

    syscalls = None
    if trace.syscall_log is not None:
        payload = trace.syscall_log.to_payload()
        syscalls = tuple(sorted((name, tuple(values))
                                for name, values in payload.items()))
    payload = repr((
        len(trace.bitvector),
        trace.bitvector.to_bytes(),
        trace.plan.log_syscalls,
        syscalls,
        dataclasses.astuple(trace.environment),
    )).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def _cluster_id(bug_key: str, recording_digest: str) -> str:
    return f"{bug_key}-{recording_digest[:8]}"


@dataclass
class IngestResult:
    """Typed response of one ingestion (the service API's receipt)."""

    trace_id: str
    cluster_id: str
    #: True when the cluster already had members: this trace will ride along
    #: on the cluster's single replay search instead of costing its own.
    duplicate: bool
    program: str
    scenario: str
    crash_site: Optional[str]
    bits: int
    source: str = "bytes"
    #: ``(plan fingerprint, crash site)`` identity: clusters sharing it are
    #: the same *bug* (possibly recorded from different inputs).
    bug_key: str = ""


@dataclass
class TraceCluster:
    """Equivalent bug reports: one bug, one recording, one replay search."""

    cluster_id: str
    program: str
    scenario: str
    crash_site: Optional[str]
    #: Search-size estimate (bits of the first member's bitvector); the
    #: scheduler runs smallest-estimated-search-first.
    bits: int
    #: Ingestion order of the first member: the dispatch tie-break, and the
    #: order the ``inbox`` command lists clusters in.
    arrival: int
    members: List[str] = field(default_factory=list)
    status: str = "pending"  # "pending" | "done" | "failed"
    report: Optional[Dict[str, object]] = None
    #: ``(plan fingerprint, crash site)`` identity shared by clusters that
    #: are the same bug recorded from different inputs.
    bug_key: str = ""
    #: Digest of the recording plan's instrumented-branch fingerprint: which
    #: plan *generation* the members were recorded under (see
    #: :mod:`repro.planner.ledger`).  Empty on entries persisted before
    #: adaptive planning existed.
    plan_fingerprint: str = ""
    #: Ledger version encoded in the plan's method string (``replan/vN``);
    #: 0 for unversioned base plans.
    plan_version: int = 0

    def to_json(self) -> Dict[str, object]:
        return {
            "cluster_id": self.cluster_id,
            "program": self.program,
            "scenario": self.scenario,
            "crash_site": self.crash_site,
            "bits": self.bits,
            "arrival": self.arrival,
            "members": list(self.members),
            "status": self.status,
            "report": self.report,
            "bug_key": self.bug_key,
            "plan_fingerprint": self.plan_fingerprint,
            "plan_version": self.plan_version,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object],
                  where: str = "cluster") -> "TraceCluster":
        """The cluster *payload* describes; a ``TraceError`` naming *where*
        if it has the wrong shape."""

        _expect(payload, (dict,), where)
        status = _field(payload, "status", (str,), where, "pending")
        if status not in _STATUSES:
            raise TraceError(f"{where}.status: unknown status {status!r}")
        report = _field(payload, "report", (dict, _NULL), where, None)
        if report is not None:
            _check_report(report, f"{where}.report")
        members = _field(payload, "members", (list,), where, [])
        return cls(cluster_id=_field(payload, "cluster_id", (str,), where),
                   program=_field(payload, "program", (str,), where),
                   scenario=_field(payload, "scenario", (str,), where),
                   crash_site=_field(payload, "crash_site", (str, _NULL),
                                     where, None),
                   bits=_field(payload, "bits", (int,), where),
                   arrival=_field(payload, "arrival", (int,), where),
                   members=list(_items(members, (str,), f"{where}.members")),
                   status=status, report=report,
                   bug_key=_field(payload, "bug_key", (str,), where, ""),
                   plan_fingerprint=_field(payload, "plan_fingerprint",
                                           (str,), where, ""),
                   plan_version=_field(payload, "plan_version", (int,),
                                       where, 0))


class TraceInbox:
    """Receives, stores, deduplicates and schedules bug-report traces."""

    def __init__(self, root: str, max_trace_bytes: int = 0,
                 max_rejected: int = 256,
                 registry=None,
                 check_trace: Optional[Callable[[Trace], None]] = None
                 ) -> None:
        self.root = root
        #: Hard size cap on one trace (0 = unlimited); oversize traces are
        #: rejected before parsing, and the network listener refuses them
        #: from the declared frame length before buffering anything.
        self.max_trace_bytes = max_trace_bytes
        #: Rejection-ledger size cap; oldest entries are evicted beyond it.
        self.max_rejected = max_rejected
        #: Optional :class:`~repro.telemetry.MetricsRegistry` receiving the
        #: ``service.rejected.<reason>`` counters.
        self.registry = registry
        #: Called with each decoded trace; raises a :class:`TraceError` (an
        #: unknown program, a trace from a different binary) to reject the
        #: trace like a corrupt one.
        self.check_trace = check_trace
        self.clusters: Dict[str, TraceCluster] = {}
        #: trace_id -> {cluster, program, scenario, file, source}
        self.traces: Dict[str, Dict[str, object]] = {}
        #: spool filename (absolute) -> trace_id ("" when rejected).
        self.spooled: Dict[str, str] = {}
        #: spool filename -> one-line rejection reason.
        self.rejected: Dict[str, str] = {}
        #: Unparsable spool files on their grace poll: path -> (size,
        #: mtime_ns).  A file is only rejected once it failed to parse *and*
        #: was unchanged since the previous poll — a file still being
        #: written (or appearing mid-scan) is skipped and retried instead.
        #: In-memory only: after a restart a suspect simply re-earns its
        #: grace poll.
        self._suspects: Dict[str, Tuple[int, int]] = {}
        self._sequence = 0
        #: Number of the last log record applied: the snapshot's
        #: ``last_record`` plus the records read or written after it.
        self._records = 0
        #: Bytes of whole records in the log (a torn tail not counted), and
        #: the snapshot's size: together they decide when to compact.
        self._log_bytes = 0
        self._snapshot_bytes = 0
        #: The snapshot this inbox last read or wrote (see _file_id).
        self._snapshot_id: Optional[Tuple[int, int, int]] = None
        os.makedirs(os.path.join(self.root, _TRACE_DIR), exist_ok=True)
        self._load_state()

    # -- ingestion --------------------------------------------------------------

    def ingest_bytes(self, data: bytes, source: str = "bytes") -> IngestResult:
        """Ingest one serialized trace; raises ``TraceError`` on bad bytes."""

        return self._decode_and_ingest(data, source)

    def _decode_and_ingest(self, data: bytes, source: str,
                           spool: Optional[str] = None) -> IngestResult:
        self._check_size(len(data), source)
        trace = load_trace_bytes(data)
        if self.check_trace is not None:
            self.check_trace(trace)
        return self._ingest_trace(data, trace, source, spool)

    def _ingest_trace(self, data: bytes, trace: Trace, source: str,
                      spool: Optional[str]) -> IngestResult:
        """Record *trace*, decoded from *data* and checked, in the inbox;
        *spool* is the spool file it came from, if any."""

        sequence = self._sequence + 1
        digest = hashlib.sha256(data).hexdigest()[:8]
        trace_id = f"t{sequence:05d}-{digest}"
        bug_key = _bug_key(trace)
        cluster_id = _cluster_id(bug_key, _recording_digest(trace))
        crash = (f"{trace.crash_site.function}:{trace.crash_site.line}"
                 if trace.crash_site else None)
        duplicate = cluster_id in self.clusters
        new_cluster = None
        if not duplicate:
            new_cluster = TraceCluster(
                cluster_id=cluster_id, program=trace.program_name,
                scenario=trace.scenario, crash_site=crash,
                bits=len(trace.bitvector), arrival=sequence, bug_key=bug_key,
                plan_fingerprint=plan_fingerprint_digest(trace.plan),
                plan_version=plan_version_of(trace.plan.method) or 0
            ).to_json()
        root = os.path.abspath(self.root)
        if os.path.isabs(source) and os.path.commonpath([root, source]) == root:
            # Already durable under the root (the listener's spool file):
            # record it where it lies instead of storing a second copy.
            stored = os.path.relpath(source, root)
        else:
            stored = os.path.join(_TRACE_DIR, f"{trace_id}.trace")
            write_atomic(os.path.join(self.root, stored), data)
        entry = {
            "cluster": cluster_id,
            "program": trace.program_name,
            "scenario": trace.scenario,
            "file": stored,
            "source": source,
        }
        self._log({"op": "ingest", "trace": trace_id, "entry": entry,
                   "cluster": new_cluster, "spool": spool})
        return IngestResult(trace_id=trace_id, cluster_id=cluster_id,
                            duplicate=duplicate, program=trace.program_name,
                            scenario=trace.scenario, crash_site=crash,
                            bits=len(trace.bitvector), source=source,
                            bug_key=bug_key)

    def ingest_file(self, path: str) -> IngestResult:
        with open(path, "rb") as handle:
            data = handle.read()
        return self.ingest_bytes(data, source=os.path.abspath(path))

    def ingest_spooled(self, path: str, data: bytes,
                       trace: Trace) -> IngestResult:
        """Ingest a spool file whose bytes the caller already holds.

        The network listener's path: it writes *data* into its spool
        itself, then records the ingestion against the file so a restarted
        :meth:`poll_spool` over the spool skips it.  Calling it again for
        an already-ingested path returns the original receipt (flagged
        ``duplicate``) without re-ingesting — the idempotency the upload
        retry protocol relies on.  *trace* is *data* as the listener
        decoded and checked it (see ``check_trace``), so it is not decoded
        again.
        """

        path = os.path.abspath(path)
        known = self.spooled.get(path)
        if known:
            entry = self.traces[known]
            cluster = self.clusters[entry["cluster"]]
            return IngestResult(trace_id=known,
                                cluster_id=cluster.cluster_id,
                                duplicate=True, program=cluster.program,
                                scenario=cluster.scenario,
                                crash_site=cluster.crash_site,
                                bits=cluster.bits, source=path,
                                bug_key=cluster.bug_key)
        self._check_size(len(data), path)
        return self._ingest_trace(data, trace, path, spool=path)

    def poll_spool(self, spool_dir: str) -> List[IngestResult]:
        """Ingest every not-yet-seen ``*.trace`` file in *spool_dir*.

        Files are keyed by absolute path: each spool file is one shipped bug
        report, so two files with identical contents are two reports (and
        dedup happens at the cluster level, not here).  Re-polling — in the
        same process or after a restart — skips everything already ingested
        or rejected.  A corrupt file lands in :attr:`rejected` with its
        one-line reason and never aborts the batch — but only after a grace
        poll: an unparsable file that changed (or vanished) since the last
        look is treated as still being written and retried, never
        mis-filed as corrupt (see ``_suspects``).

        Each ingested file is one log record that carries its spool path
        with its trace, so a crash mid-poll either shows a file fully
        ingested (trace + spool ledger entry) or not at all — never a trace
        that a restarted poll would ingest twice.
        """

        results: List[IngestResult] = []
        try:
            entries = sorted(os.listdir(spool_dir))
        except FileNotFoundError:
            return results
        for name in entries:
            if not name.endswith(_SPOOL_SUFFIX):
                continue
            path = os.path.abspath(os.path.join(spool_dir, name))
            if path in self.spooled or path in self.rejected:
                continue
            try:
                stamp = os.stat(path)
            except OSError:
                continue  # vanished mid-scan; retry next poll if it returns
            if self.max_trace_bytes and stamp.st_size > self.max_trace_bytes:
                # Oversize is rejectable immediately: a file still growing
                # past the cap will only ever stay oversize.
                self.reject(path, TraceTooLargeError(
                    f"spool file is {stamp.st_size} bytes "
                    f"(max_trace_bytes={self.max_trace_bytes})"))
                continue
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
                result = self._decode_and_ingest(data, path, spool=path)
            except FileNotFoundError:
                continue  # vanished between stat and read
            except (TraceError, OSError) as exc:
                signature = (stamp.st_size, stamp.st_mtime_ns)
                previous = self._suspects.get(path)
                if previous != signature:
                    # First failure, or the file changed since we last
                    # looked: likely still being written.  Skip; re-examine
                    # on the next poll.
                    self._suspects[path] = signature
                    continue
                del self._suspects[path]
                self.reject(path, exc)
                continue
            self._suspects.pop(path, None)
            results.append(result)
        return results

    def reject(self, source: str, error: Union[Exception, str]) -> None:
        """Ledger one rejection (bounded) and bump its telemetry counter.

        *error* is an exception or its ``"<Type>: <message>"`` line (see
        :func:`error_line`); the counter is ``service.rejected.<Type>``.
        Besides bad spool files, the network listener ledgers corrupt,
        oversized or over-quota uploads here under a ``net:`` source, and
        the service its poison searches under a ``cluster:`` one.
        """

        reason = error_line(error)
        self._log({"op": "reject", "source": source, "reason": reason})
        if self.registry is not None:
            self.registry.counter(
                f"service.rejected.{reason.partition(':')[0]}").inc()

    def _evict_rejected(self) -> None:
        while len(self.rejected) > self.max_rejected > 0:
            oldest = next(iter(self.rejected))
            del self.rejected[oldest]

    def _check_size(self, size: int, source: str) -> None:
        if self.max_trace_bytes and size > self.max_trace_bytes:
            raise TraceTooLargeError(
                f"trace from {source} is {size} bytes "
                f"(max_trace_bytes={self.max_trace_bytes})")

    # -- scheduling -------------------------------------------------------------

    def pending_clusters(self) -> List[TraceCluster]:
        """Clusters awaiting a replay search, in dispatch order.

        Smallest first: by the bitvector-size estimate (shortest recorded
        log ≈ smallest guided search), then by arrival, so cheap
        reproductions are reported while the expensive ones still run.
        """

        pending = [c for c in self.clusters.values() if c.status == "pending"]
        pending.sort(key=lambda c: (c.bits, c.arrival))
        return pending

    def mark_done(self, cluster_id: str, report: Dict[str, object],
                  failed: bool = False) -> None:
        """Commit *cluster_id* with *report*, a ``ReproductionReport``'s
        ``to_json()`` (the layout a reload checks)."""

        if cluster_id not in self.clusters:
            raise KeyError(cluster_id)
        self._log({"op": "failed" if failed else "done",
                   "cluster": cluster_id, "report": report})

    def trace_path(self, trace_id: str) -> str:
        """Path of *trace_id*'s stored trace: its copy, or its spool file."""

        return os.path.join(self.root, self.traces[trace_id]["file"])

    def cluster_of(self, trace_id: str) -> TraceCluster:
        return self.clusters[self.traces[trace_id]["cluster"]]

    # -- counters ---------------------------------------------------------------

    @property
    def ingested(self) -> int:
        return len(self.traces)

    def describe(self) -> Dict[str, object]:
        done = sum(1 for c in self.clusters.values() if c.status == "done")
        return {
            "traces": len(self.traces),
            "clusters": len(self.clusters),
            "pending": sum(1 for c in self.clusters.values()
                           if c.status == "pending"),
            "done": done,
            "rejected": len(self.rejected),
        }

    # -- persistence ------------------------------------------------------------

    def _state_path(self) -> str:
        return os.path.join(self.root, _STATE_FILE)

    def _log_path(self) -> str:
        return os.path.join(self.root, _LOG_FILE)

    def _log(self, record: Dict[str, object]) -> None:
        """Make one operation durable, then apply it to the ledger.

        The record is appended to the log and fsynced before anything in
        memory changes, so an operation whose append raises has changed
        nothing.  The compaction it may trigger comes after both.
        """

        number = self._records + 1
        line = json.dumps({"n": number, **record},
                          separators=(",", ":")).encode("utf-8") + b"\n"
        with self._locked_log() as fd:
            # Written after the last whole record, not at the file's end:
            # this overwrites a torn record (left by a crash, or by an
            # append that raised), and the truncation drops whatever is
            # left of it.
            if os.pwrite(fd, line, self._log_bytes) != len(line):
                raise OSError(f"short write to {self._log_path()}")
            os.ftruncate(fd, self._log_bytes + len(line))
            os.fsync(fd)
            self._records = number
            self._log_bytes += len(line)
            self._apply(record)
            if self._log_bytes > max(self._snapshot_bytes, _COMPACT_FLOOR):
                self._compact(fd)

    @contextlib.contextmanager
    def _locked_log(self):
        """The log's descriptor, under an exclusive ``flock``, once it is
        checked to hold what this inbox last read or wrote.

        Another writer on the root (a second process, or a second inbox
        object) appends after its own idea of the log's end, or rewrites
        the snapshot and empties the log when it compacts: either would
        silently drop records.  So a whole record (a newline) past this
        inbox's last one, a log shorter than that, or a snapshot this inbox
        did not last read or write is a ``TraceError`` before anything is
        written or changed in memory.  A torn record (bytes without a
        newline) is an append that never returned, and is overwritten.
        """

        path = self._log_path()
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            size = os.fstat(fd).st_size
            if size < self._log_bytes or b"\n" in os.pread(
                    fd, size - self._log_bytes, self._log_bytes) \
                    or _file_id(self._state_path()) != self._snapshot_id:
                raise TraceError(
                    f"{path}: changed by another writer since this inbox "
                    f"last read it; reopen the root")
            yield fd
        finally:
            os.close(fd)  # releases the lock

    def _apply(self, record: Dict[str, object]) -> None:
        """Apply one log record, written here or checked, to the ledger."""

        op = record["op"]
        if op == "ingest":
            trace_id, entry = record["trace"], record["entry"]
            if record["cluster"] is not None:
                cluster = TraceCluster.from_json(record["cluster"])
                self.clusters[cluster.cluster_id] = cluster
            self.clusters[entry["cluster"]].members.append(trace_id)
            self.traces[trace_id] = entry
            self._sequence += 1
            if record["spool"] is not None:
                self.spooled[record["spool"]] = trace_id
        elif op == "reject":
            source = record["source"]
            self.rejected.pop(source, None)  # re-insertion moves it to newest
            self.rejected[source] = record["reason"]
            self._evict_rejected()
        else:  # "done" or "failed"
            cluster = self.clusters[record["cluster"]]
            cluster.status = op
            cluster.report = record["report"]

    def _compact(self, fd: Optional[int] = None) -> None:
        """Rewrite the snapshot to cover every record, then empty the log.

        *fd* is the log, already locked by the append that called; without
        it the log is locked and checked here first.
        """

        if fd is None:
            with self._locked_log() as locked:
                self._compact(locked)
            return

        payload = {
            "version": _STATE_VERSION,
            "last_record": self._records,
            "sequence": self._sequence,
            "traces": self.traces,
            "clusters": {cid: cluster.to_json()
                         for cid, cluster in self.clusters.items()},
            "spooled": self.spooled,
            "rejected": self.rejected,
        }
        # Compact json.dumps runs the C encoder; json.dump (and any indent)
        # runs the pure-Python one, several times slower on a large state.
        # _load_state reads both layouts.  Keys keep their insertion order,
        # so the rejection ledger still evicts its oldest entry first after
        # a restart.
        encoded = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        write_atomic(self._state_path(), encoded)
        self._snapshot_bytes = len(encoded)
        self._snapshot_id = _file_id(self._state_path())
        # A crash before this truncation leaves records the snapshot
        # covers; loading skips them by number.
        os.ftruncate(fd, 0)
        self._log_bytes = 0

    def _load_state(self) -> None:
        path = self._state_path()
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = None
        except OSError as exc:
            raise TraceError(f"unreadable inbox state {path}: {exc}") from None
        if data is not None:
            try:
                payload = json.loads(data)
            except ValueError as exc:
                raise TraceError(
                    f"unreadable inbox state {path}: {exc}") from None
            self._restore(payload, f"{path}: snapshot")
            self._snapshot_bytes = len(data)
            self._snapshot_id = _file_id(path)
        self._replay_log()

    def _restore(self, payload, where: str) -> None:
        """Load the snapshot *payload*; a ``TraceError`` naming *where* if
        it has the wrong shape or refers to a trace or cluster it lacks."""

        _expect(payload, (dict,), where)
        version = payload.get("version")
        if type(version) is not int or version not in (1, _STATE_VERSION):
            raise TraceError(
                f"inbox state version {version} unsupported "
                f"(this build reads versions 1 and {_STATE_VERSION})")
        self._sequence = _field(payload, "sequence", (int,), where, 0)
        self._records = _field(payload, "last_record", (int,), where, 0)
        self.traces = _field(payload, "traces", (dict,), where, {})
        for trace_id, entry in self.traces.items():
            _check_entry(entry, f"{where}.traces[{trace_id!r}]")
        clusters = _field(payload, "clusters", (dict,), where, {})
        self.clusters = {
            cluster_id: TraceCluster.from_json(
                entry, f"{where}.clusters[{cluster_id!r}]")
            for cluster_id, entry in clusters.items()}
        self.spooled = _items(_field(payload, "spooled", (dict,), where, {}),
                              (str,), f"{where}.spooled")
        self.rejected = _items(
            _field(payload, "rejected", (dict,), where, {}), (str,),
            f"{where}.rejected")
        for trace_id, entry in self.traces.items():
            if entry["cluster"] not in self.clusters:
                raise TraceError(f"{where}.traces[{trace_id!r}].cluster: "
                                 f"no cluster {entry['cluster']!r}")
        for cluster_id, cluster in self.clusters.items():
            name = f"{where}.clusters[{cluster_id!r}]"
            if cluster.cluster_id != cluster_id:
                raise TraceError(f"{name}.cluster_id: "
                                 f"{cluster.cluster_id!r} differs")
            if not cluster.members:
                raise TraceError(f"{name}.members: empty")
            for member in cluster.members:
                if member not in self.traces:
                    raise TraceError(f"{name}.members: no trace {member!r}")
        for source, trace_id in self.spooled.items():
            if trace_id and trace_id not in self.traces:
                raise TraceError(f"{where}.spooled[{source!r}]: "
                                 f"no trace {trace_id!r}")
        self._evict_rejected()

    def _replay_log(self) -> None:
        """Apply, in order, the log records the snapshot does not cover."""

        path = self._log_path()
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise TraceError(f"unreadable inbox log {path}: {exc}") from None
        # Bytes after the last newline are a torn final record: its append
        # never returned, so nothing acknowledged it.  The next append
        # overwrites it.
        self._log_bytes = data.rfind(b"\n") + 1
        covered = self._records
        lines = data[:self._log_bytes].split(b"\n")[:-1]
        for index, line in enumerate(lines, start=1):
            where = f"{path}: record {index}"
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise TraceError(f"{where}: unreadable: {exc}") from None
            number = _field(_expect(record, (dict,), where), "n", (int,),
                            where)
            if number <= covered and self._records == covered:
                continue  # in the snapshot: its compaction was cut short
            if number != self._records + 1:
                raise TraceError(f"{where}.n: {number} does not follow "
                                 f"record {self._records}")
            self._check_record(record, where)
            self._apply(record)
            self._records = number

    def _check_record(self, record: Dict[str, object], where: str) -> None:
        """A ``TraceError`` naming *where* unless *record* applies here."""

        op = _field(record, "op", (str,), where)
        if op == "ingest":
            trace_id = _field(record, "trace", (str,), where)
            entry = _check_entry(_field(record, "entry", (dict,), where),
                                 f"{where}.entry")
            _field(record, "spool", (str, _NULL), where)
            cluster = _field(record, "cluster", (dict, _NULL), where)
            if trace_id in self.traces:
                raise TraceError(f"{where}.trace: {trace_id!r} is already "
                                 "in the inbox")
            if cluster is not None:
                cluster = TraceCluster.from_json(cluster, f"{where}.cluster")
                if (cluster.cluster_id in self.clusters or cluster.members
                        or cluster.cluster_id != entry["cluster"]):
                    raise TraceError(f"{where}.cluster: not a new, empty "
                                     f"cluster {entry['cluster']!r}")
            elif entry["cluster"] not in self.clusters:
                raise TraceError(f"{where}.entry.cluster: no cluster "
                                 f"{entry['cluster']!r}")
        elif op in ("done", "failed"):
            cluster_id = _field(record, "cluster", (str,), where)
            if cluster_id not in self.clusters:
                raise TraceError(f"{where}.cluster: no cluster "
                                 f"{cluster_id!r}")
            _check_report(_field(record, "report", (dict,), where),
                          f"{where}.report")
        elif op == "reject":
            _field(record, "source", (str,), where)
            _field(record, "reason", (str,), where)
        else:
            raise TraceError(f"{where}.op: unknown operation {op!r}")
