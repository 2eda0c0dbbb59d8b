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
  a copy of every ingested trace under its root directory, so a restarted
  service resumes exactly where it stopped: spool files already ingested are
  not re-ingested, finished clusters keep their reports, pending clusters
  are searched next.

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

For the network deployment the spool is sharded into ``part-NN``
subdirectories (one per inbox partition, a trace's shard being its
cluster-key hash modulo N — see :func:`partition_index`) and writes go
through :class:`SpoolJournal` + :func:`journaled_spool_write`: an
append-only intent journal plus write-to-temp / atomic-rename, so a
``kill -9`` at any point leaves either a fully committed spool file or a
temp file the journal recovery deletes — never a half-written ``*.trace``
that a restarted poll would mistake for a report.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.planner.ledger import plan_fingerprint_digest, plan_version_of
from repro.trace import Trace, TraceError, load_trace_bytes

__all__ = [
    "IngestResult",
    "SpoolJournal",
    "TraceCluster",
    "TraceInbox",
    "TraceTooLargeError",
    "UnknownProgramError",
    "journaled_spool_write",
    "partition_dirs",
    "partition_index",
]

_STATE_FILE = "inbox.json"
_TRACE_DIR = "traces"
_STATE_VERSION = 1
_JOURNAL_FILE = "journal.log"
_PART_PREFIX = "part-"
_TMP_SUFFIX = ".part"


class TraceTooLargeError(TraceError):
    """An upload or spool file exceeded ``service.max_trace_bytes``."""


class UnknownProgramError(TraceError):
    """A decodable trace names a program the service cannot load: no
    registry resolves the name, its source does not compile, or the
    resolver raised."""


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
    cluster's report out to all members.
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
        trace.environment_spec,
    )).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def _cluster_id(bug_key: str, recording_digest: str) -> str:
    return f"{bug_key}-{recording_digest[:8]}"


# ---------------------------------------------------------------------------
# spool partitions and the crash-safe journal
# ---------------------------------------------------------------------------


def partition_index(bug_key: str, partitions: int) -> int:
    """The spool shard for a trace: its cluster-key hash modulo N.

    The bug key is already a uniform hex hash, so taking it modulo the
    partition count spreads distinct bugs evenly while pinning every
    duplicate of one bug to the same shard (duplicates dedup locally).
    """

    if partitions <= 1:
        return 0
    return int(bug_key, 16) % partitions


def partition_dirs(spool_root: str, partitions: int) -> List[str]:
    """The ``part-NN`` shard directories under *spool_root* (created)."""

    dirs = []
    for index in range(max(1, partitions)):
        path = os.path.join(spool_root, f"{_PART_PREFIX}{index:02d}")
        os.makedirs(path, exist_ok=True)
        dirs.append(path)
    return dirs


class SpoolJournal:
    """Append-only intent journal making spool writes crash-safe.

    Protocol per write (see :func:`journaled_spool_write`):

    1. the payload is written to ``<final>.part`` and flushed;
    2. ``BEGIN <key> <final>`` is appended (and fsynced);
    3. the temp file is atomically renamed onto ``<final>``;
    4. ``COMMIT <key>`` is appended (and fsynced).

    A ``kill -9`` between any two steps leaves a state :meth:`recover` can
    classify purely from the journal plus the filesystem: a BEGIN without a
    COMMIT whose final file exists was interrupted *after* the atomic rename
    (the write is durable — re-commit it); one whose final file is missing
    was interrupted before (delete the orphan temp; the client never got an
    acknowledgement and will retry).  Acknowledgements are only sent after
    step 4, so an acknowledged trace always survives restart.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.path = os.path.join(root, _JOURNAL_FILE)
        self._handle = open(self.path, "a", encoding="utf-8")

    def _append(self, record: Dict[str, str]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def begin(self, key: str, final_path: str) -> None:
        self._append({"op": "BEGIN", "key": key,
                      "path": os.path.abspath(final_path)})

    def commit(self, key: str) -> None:
        self._append({"op": "COMMIT", "key": key})

    # -- search-state records (supervised scheduler) -------------------------------------
    #
    # SEARCH_BEGIN/SEARCH_END bracket a cluster's replay search the same way
    # BEGIN/COMMIT bracket a spool write.  :meth:`recover` silently skips
    # unknown ops, so journals written by a build with search records stay
    # readable by builds without them (and vice versa).

    def search_begin(self, cluster_id: str) -> None:
        self._append({"op": "SEARCH_BEGIN", "key": cluster_id})

    def search_end(self, cluster_id: str) -> None:
        self._append({"op": "SEARCH_END", "key": cluster_id})

    def recover_searches(self) -> List[str]:
        """Cluster ids whose search began but never ended — in flight at a
        crash, candidates for checkpoint resume (first-begun order)."""

        begun: List[str] = []
        ended = set()
        try:
            with open(self.path, encoding="utf-8") as handle:
                for line in handle:
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if record.get("op") == "SEARCH_BEGIN":
                        if record["key"] not in begun:
                            begun.append(record["key"])
                    elif record.get("op") == "SEARCH_END":
                        ended.add(record["key"])
        except FileNotFoundError:
            return []
        return [key for key in begun if key not in ended]

    def recover(self) -> Dict[str, str]:
        """Repair interrupted writes; returns ``{key: final_path}`` durable.

        Idempotent: recovering an already-clean journal changes nothing.
        Unreadable (torn) trailing lines are ignored — they can only belong
        to a write that never reached its COMMIT, i.e. was never
        acknowledged.
        """

        begun: Dict[str, str] = {}
        committed: Dict[str, str] = {}
        try:
            with open(self.path, encoding="utf-8") as handle:
                for line in handle:
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # torn trailing write of an unacked entry
                    if record.get("op") == "BEGIN":
                        begun[record["key"]] = record["path"]
                    elif record.get("op") == "COMMIT":
                        if record["key"] in begun:
                            committed[record["key"]] = begun[record["key"]]
        except FileNotFoundError:
            return {}
        for key, final_path in begun.items():
            if key in committed:
                continue
            if os.path.exists(final_path):
                # Crash landed between the atomic rename and the COMMIT
                # record: the data is durable, only the journal is behind.
                committed[key] = final_path
                self.commit(key)
            else:
                # Crash before the rename: remove the orphan temp.  The
                # uploader never saw an acknowledgement for this write.
                try:
                    os.remove(final_path + _TMP_SUFFIX)
                except FileNotFoundError:
                    pass
        return committed

    def close(self) -> None:
        self._handle.close()


def journaled_spool_write(journal: SpoolJournal, final_path: str,
                          data: bytes, key: Optional[str] = None,
                          faults=None) -> str:
    """Durably write one spool file under the journal's crash protocol.

    *faults* (a :class:`~repro.service.faults.FaultInjector`, duck-typed)
    lets the chaos harness SIGKILL the process between any two steps —
    ``spool.after_begin`` and ``spool.after_replace`` are the windows whose
    recovery the crash tests exercise.
    """

    key = key or os.path.basename(final_path)
    tmp = final_path + _TMP_SUFFIX
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    journal.begin(key, final_path)
    if faults is not None:
        faults.crash_point("spool.after_begin")
    os.replace(tmp, final_path)
    if faults is not None:
        faults.crash_point("spool.after_replace")
    journal.commit(key)
    return final_path


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
    #: Ingestion order of the first member (tie-break and "arrival" order).
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

    def __init__(self, root: str, persist: bool = True,
                 store_traces: bool = True,
                 spool_pattern: str = "*.trace",
                 max_trace_bytes: int = 0,
                 max_rejected: int = 256,
                 registry=None,
                 check_trace: Optional[Callable[[Trace], None]] = None
                 ) -> None:
        self.root = root
        self.persist = persist
        self.store_traces = store_traces
        self.spool_pattern = spool_pattern
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
        os.makedirs(self.root, exist_ok=True)
        if self.store_traces:
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
        stored = ""
        if self.store_traces:
            stored = os.path.join(_TRACE_DIR, f"{trace_id}.trace")
            with open(os.path.join(self.root, stored), "wb") as handle:
                handle.write(data)
        self.traces[trace_id] = {
            "cluster": cluster_id,
            "program": trace.program_name,
            "scenario": trace.scenario,
            "file": stored,
            "source": source,
        }
        if not _defer_save:
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

    def ingest_spooled(self, path: str, data: bytes) -> IngestResult:
        """Ingest a spool file whose bytes the caller already holds.

        The network listener's path: it journals *data* into a spool
        partition itself, then records the ingestion against the file so a
        restarted :meth:`poll_spool` over the partitions skips it.  Calling
        it again for an already-ingested path returns the original receipt
        (flagged ``duplicate``) without re-ingesting — the idempotency the
        upload retry protocol relies on.
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
        result = self.ingest_bytes(data, source=path, _defer_save=True)
        self.spooled[path] = result.trace_id
        self._save_state()
        return result

    def poll_spool(self, spool_dir: str) -> List[IngestResult]:
        """Ingest every not-yet-seen spool file matching the pattern.

        Files are keyed by absolute path: each spool file is one shipped bug
        report, so two files with identical contents are two reports (and
        dedup happens at the cluster level, not here).  Re-polling — in the
        same process or after a restart — skips everything already ingested
        or rejected.  A corrupt file lands in :attr:`rejected` with its
        one-line reason and never aborts the batch — but only after a grace
        poll: an unparsable file that changed (or vanished) since the last
        look is treated as still being written and retried, never
        mis-filed as corrupt (see ``_suspects``).

        ``part-NN`` subdirectories (spool partitions, see
        :func:`partition_dirs`) are descended into automatically, so one
        poll covers a sharded spool.

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
            full = os.path.join(spool_dir, name)
            if name.startswith(_PART_PREFIX) and os.path.isdir(full):
                results.extend(self.poll_spool(full))
                continue
            if not fnmatch.fnmatch(name, self.spool_pattern):
                continue
            path = os.path.abspath(full)
            if path in self.spooled or path in self.rejected:
                continue
            try:
                stamp = os.stat(path)
            except OSError:
                continue  # vanished mid-scan; retry next poll if it returns
            if self.max_trace_bytes and stamp.st_size > self.max_trace_bytes:
                # Oversize is rejectable immediately: a file still growing
                # past the cap will only ever stay oversize.
                self._reject(path, TraceTooLargeError(
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
                self._reject(path, exc)
                continue
            self._suspects.pop(path, None)
            self.spooled[path] = result.trace_id
            self._save_state()
            results.append(result)
        return results

    def reject(self, source: str, exc: Exception) -> None:
        """Record a rejection originating outside the poll loop.

        The network listener's entry point: a corrupt, oversized or
        over-quota upload gets a ledger entry under a ``net:`` pseudo-source
        so the damage is visible in ``inbox.json`` and the
        ``service.rejected.*`` counters, exactly like a bad spool file.
        """

        self._reject(source, exc)

    def _reject(self, source: str, exc: Exception) -> None:
        """Ledger one rejection (bounded) and bump its telemetry counter."""

        reason = f"{type(exc).__name__}: " + " ".join(str(exc).split())
        self.rejected.pop(source, None)  # re-insertion moves it to newest
        self.rejected[source] = reason
        self._evict_rejected()
        if self.registry is not None:
            self.registry.counter(
                f"service.rejected.{type(exc).__name__}").inc()
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

    def pending_clusters(self, priority: str = "smallest-first"
                         ) -> List[TraceCluster]:
        """Clusters awaiting a replay search, in dispatch order.

        ``smallest-first`` orders by the bitvector-size estimate (shortest
        recorded log ≈ smallest guided search) so cheap reproductions are
        reported while the expensive ones still run; ``arrival`` is FIFO.
        """

        pending = [c for c in self.clusters.values() if c.status == "pending"]
        if priority == "arrival":
            pending.sort(key=lambda c: c.arrival)
        else:
            pending.sort(key=lambda c: (c.bits, c.arrival))
        return pending

    def mark_done(self, cluster_id: str, report: Dict[str, object],
                  failed: bool = False) -> None:
        cluster = self.clusters[cluster_id]
        cluster.status = "failed" if failed else "done"
        cluster.report = report
        self._save_state()

    def trace_path(self, trace_id: str) -> str:
        """Absolute path of the stored copy of *trace_id*."""

        entry = self.traces[trace_id]
        if not entry["file"]:
            raise KeyError(f"trace {trace_id} was ingested with "
                           "store_traces=False; no copy kept")
        return os.path.join(self.root, entry["file"])

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
        if not self.persist:
            return
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
        tmp = self._state_path() + ".tmp"
        with open(tmp, "w") as handle:
            handle.write(encoded)
        os.replace(tmp, self._state_path())

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
