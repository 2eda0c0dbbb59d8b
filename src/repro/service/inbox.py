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
* **restartable state** — the inbox persists its ledger (``inbox.json``) and
  every ingested trace under its root directory, so a restarted service
  resumes exactly where it stopped: spool files already ingested are not
  re-ingested, finished clusters keep their reports, pending clusters are
  searched next.  A trace whose file already lies under the root (the
  network listener's spool) is recorded by that path; one from outside
  (bytes, a file elsewhere, an external spool directory) is copied to
  ``traces/<trace id>.trace``.

Corrupt or truncated trace files never poison a batch: they are recorded in
the rejection ledger (with the one-line reason) and skipped on subsequent
polls.  So are decodable traces the service's ``check_trace`` hook refuses
(an unknown program, a trace from a different binary).  The ledger is
*bounded* (``max_rejected`` entries, oldest evicted) so a sustained garbage
storm cannot grow ``inbox.json`` without limit, and every rejection
increments a ``service.rejected.<reason>`` telemetry counter when the inbox
is given a registry.

A file that merely *looks* corrupt may simply still be in flight: an
external transport writing a spool file in place is indistinguishable from
a truncated upload until the writer finishes.  :meth:`TraceInbox.poll_spool`
therefore gives every unparsable file a grace poll — it is only rejected
once its size and mtime are unchanged across two consecutive polls (see
``_suspects``); a growing file is skipped and retried.

Every file the inbox writes — ``inbox.json`` and the stored trace copies —
is written with :func:`~repro.trace.write_atomic` (temp file, fsync,
rename), so a ``kill -9`` leaves either the previous state or the new one.
The network listener writes its spool files the same way; the
``<name>.trace.part`` temp of an interrupted write never matches the
``*.trace`` poll.
"""

from __future__ import annotations

import dataclasses
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
_TRACE_DIR = "traces"
_STATE_VERSION = 1
_SPOOL_SUFFIX = ".trace"


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
    def from_json(cls, payload: Dict[str, object]) -> "TraceCluster":
        return cls(cluster_id=payload["cluster_id"],
                   program=payload["program"],
                   scenario=payload["scenario"],
                   crash_site=payload.get("crash_site"),
                   bits=payload["bits"],
                   arrival=payload["arrival"],
                   members=list(payload.get("members", [])),
                   status=payload.get("status", "pending"),
                   report=payload.get("report"),
                   bug_key=payload.get("bug_key", ""),
                   plan_fingerprint=payload.get("plan_fingerprint", ""),
                   plan_version=payload.get("plan_version", 0))


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
        os.makedirs(os.path.join(self.root, _TRACE_DIR), exist_ok=True)
        self._load_state()

    # -- ingestion --------------------------------------------------------------

    def ingest_bytes(self, data: bytes, source: str = "bytes",
                     _defer_save: bool = False) -> IngestResult:
        """Ingest one serialized trace; raises ``TraceError`` on bad bytes."""

        self._check_size(len(data), source)
        trace = load_trace_bytes(data)
        if self.check_trace is not None:
            self.check_trace(trace)
        return self._ingest_trace(data, trace, source, _defer_save)

    def _ingest_trace(self, data: bytes, trace: Trace, source: str,
                      defer_save: bool) -> IngestResult:
        """Record *trace*, decoded from *data* and checked, in the inbox."""

        self._sequence += 1
        digest = hashlib.sha256(data).hexdigest()[:8]
        trace_id = f"t{self._sequence:05d}-{digest}"
        bug_key = _bug_key(trace)
        cluster_id = _cluster_id(bug_key, _recording_digest(trace))
        crash = (f"{trace.crash_site.function}:{trace.crash_site.line}"
                 if trace.crash_site else None)
        cluster = self.clusters.get(cluster_id)
        duplicate = cluster is not None
        if cluster is None:
            cluster = TraceCluster(cluster_id=cluster_id,
                                   program=trace.program_name,
                                   scenario=trace.scenario,
                                   crash_site=crash,
                                   bits=len(trace.bitvector),
                                   arrival=self._sequence,
                                   bug_key=bug_key,
                                   plan_fingerprint=plan_fingerprint_digest(
                                       trace.plan),
                                   plan_version=plan_version_of(
                                       trace.plan.method) or 0)
            self.clusters[cluster_id] = cluster
        cluster.members.append(trace_id)
        root = os.path.abspath(self.root)
        if os.path.isabs(source) and os.path.commonpath([root, source]) == root:
            # Already durable under the root (the listener's spool file):
            # record it where it lies instead of storing a second copy.
            stored = os.path.relpath(source, root)
        else:
            stored = os.path.join(_TRACE_DIR, f"{trace_id}.trace")
            write_atomic(os.path.join(self.root, stored), data)
        self.traces[trace_id] = {
            "cluster": cluster_id,
            "program": trace.program_name,
            "scenario": trace.scenario,
            "file": stored,
            "source": source,
        }
        if not defer_save:
            self._save_state()
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
        result = self._ingest_trace(data, trace, path, defer_save=True)
        self.spooled[path] = result.trace_id
        self._save_state()
        return result

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

        State is persisted once per file, *after* the spool ledger entry is
        recorded, so the on-disk snapshot is always atomic: a crash mid-poll
        either shows a file fully ingested (trace + ledger entry) or not at
        all — never a trace that a restarted poll would ingest twice.
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
                result = self.ingest_bytes(data, source=path,
                                           _defer_save=True)
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
            self.spooled[path] = result.trace_id
            self._save_state()
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
        self.rejected.pop(source, None)  # re-insertion moves it to newest
        self.rejected[source] = reason
        self._evict_rejected()
        if self.registry is not None:
            self.registry.counter(
                f"service.rejected.{reason.partition(':')[0]}").inc()
        self._save_state()

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
        cluster = self.clusters[cluster_id]
        cluster.status = "failed" if failed else "done"
        cluster.report = report
        self._save_state()

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

    def _save_state(self) -> None:
        payload = {
            "version": _STATE_VERSION,
            "sequence": self._sequence,
            "traces": self.traces,
            "clusters": {cid: cluster.to_json()
                         for cid, cluster in self.clusters.items()},
            "spooled": self.spooled,
            "rejected": self.rejected,
        }
        # Compact json.dumps runs the C encoder; json.dump (and any indent)
        # runs the pure-Python one, several times slower on a large state.
        # _load_state reads both layouts.
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        write_atomic(self._state_path(), encoded.encode("utf-8"))

    def _load_state(self) -> None:
        try:
            with open(self._state_path()) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return
        except (OSError, ValueError) as exc:
            raise TraceError(f"unreadable inbox state {self._state_path()}: {exc}")
        if payload.get("version") != _STATE_VERSION:
            raise TraceError(
                f"inbox state version {payload.get('version')} unsupported "
                f"(this build reads version {_STATE_VERSION})")
        self._sequence = payload.get("sequence", 0)
        self.traces = dict(payload.get("traces", {}))
        self.clusters = {cid: TraceCluster.from_json(entry)
                         for cid, entry in payload.get("clusters", {}).items()}
        self.spooled = dict(payload.get("spooled", {}))
        self.rejected = dict(payload.get("rejected", {}))
        self._evict_rejected()
