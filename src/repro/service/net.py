"""``repro.service.net`` — the fault-tolerant trace-upload transport.

The deployment half of the paper's user/developer split: a fleet of
lightly-instrumented user machines ships compact bug reports to the
developer-site service over flaky networks.  This module provides both
ends:

* :class:`UploadServer` — a threaded socket listener in front of a
  :class:`~repro.service.service.ReproService`.  Every robustness decision
  is explicit:

  - **length-prefixed framing** with a hard frame cap derived from
    ``service.max_trace_bytes``: an oversized or runaway upload is refused
    from its *declared* length, before a byte of it is buffered;
  - **per-read socket timeouts**: a slow-loris client stalls only its own
    connection, which is shed at the first silent interval;
  - **bounded admission**: the connection thread that checks an upload
    also spools, ingests and answers it, holding one of
    ``ingest_queue_depth`` admission slots meanwhile; when none is free the
    server answers *retry-after* instead of buffering — backpressure the
    client's seeded exponential backoff consumes;
  - **per-client quotas**: at most ``client_quota`` distinct reports per
    client id (0 = unlimited); the misbehaving client gets quota
    responses, healthy clients keep their bandwidth;
  - **durable spool**: a trace lands in ``spool/<client>-<digest16>.trace``
    via :func:`journaled_spool_write` (fsynced temp file, then atomic
    rename) and is ingested into the inbox *before* the acknowledgement is
    sent — so an acked trace is durable twice over, and a ``kill -9``
    anywhere leaves a state :meth:`UploadServer.recover` (run at startup)
    repairs without losing an acked trace or re-searching a finished
    cluster;
  - **graceful drain**: :meth:`UploadServer.shutdown` stops accepting,
    answers new uploads with retry-after, and returns once every admitted
    upload is committed and its acknowledgement sent.

* :class:`UploadClient` — the user-machine library.  Uploads are
  *idempotent*: keyed by ``(client id, content digest)``, so a retry after
  a lost acknowledgement is recognized server-side and answered with the
  original receipt instead of a second ingestion.  Retries use
  deterministic seeded exponential backoff with jitter; connection drops,
  retry-after and in-flight corruption (detected by the server via the
  content digest) all funnel into the same retry loop.

Wire protocol (one frame per message, both directions)::

    frame    := u32 length | payload            (big-endian length)
    request  := op u8 | u16 header-length | JSON header | raw body
    response := status u8 | JSON body

Ops: ``U`` upload (header ``{client, digest}``, body = trace bytes),
``R`` report (``{trace}``), ``S`` stats, ``P`` process, ``L`` plan
(``{program, version?}`` — fetch a registered instrumentation-plan version
from the ledger; omitted version means latest).  Statuses: ``A`` ack,
``B`` retry-after, ``Q`` quota-exceeded, ``E`` error, ``R`` report,
``S`` stats, ``P`` processed, ``L`` plan.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import re
import socket
import struct
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import PipelineConfig
from repro.service.faults import FaultInjector, NULL_FAULTS
from repro.service.inbox import TraceTooLargeError
from repro.service.service import ReproService
from repro.trace import (PART_SUFFIX, Trace, TraceError, load_trace_bytes,
                         write_atomic)

__all__ = [
    "ProtocolError",
    "QuotaExceeded",
    "UploadClient",
    "UploadFailed",
    "UploadReceipt",
    "UploadRejected",
    "UploadServer",
]

OP_UPLOAD = ord("U")
OP_REPORT = ord("R")
OP_STATS = ord("S")
OP_PROCESS = ord("P")
OP_PLAN = ord("L")

ST_ACK = ord("A")
ST_RETRY = ord("B")
ST_QUOTA = ord("Q")
ST_ERROR = ord("E")
ST_REPORT = ord("R")
ST_STATS = ord("S")
ST_PROCESSED = ord("P")
ST_PLAN = ord("L")

#: Slack on top of ``max_trace_bytes`` for the op byte and JSON header.
_FRAME_SLACK = 64 * 1024
#: The hint a retry-after response carries, seconds.
RETRY_AFTER_SECONDS = 0.05
_SPOOL_DIR = "spool"
_CLIENT_ID_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")
_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")


class ProtocolError(Exception):
    """A malformed frame, header, or oversized declared length."""


def _optional_int(header: Dict[str, object], field: str, minimum: int
                  ) -> Optional[int]:
    """Header *field*: absent or null, or an int of at least *minimum*.

    A bool is not an int here.  Anything else is a :class:`ProtocolError`
    that names the field.
    """

    value = header.get(field)
    if value is None:
        return None
    if type(value) is not int or value < minimum:
        raise ProtocolError(f"header field {field!r} must be null or an "
                            f"integer >= {minimum}")
    return value


class QuotaExceeded(Exception):
    """A client exceeded its per-client distinct-report quota."""


class UploadRejected(Exception):
    """The server permanently refused this upload (bad trace, quota)."""


class UploadFailed(Exception):
    """All retry attempts were exhausted without an acknowledgement."""


@dataclass
class UploadReceipt:
    """The acknowledgement for one durable, ingested upload."""

    trace_id: str
    cluster_id: str
    duplicate: bool
    bug_key: str
    #: True when this very upload (same client id + content digest) had
    #: already been acknowledged — the retried-after-lost-ack case.
    duplicate_upload: bool = False
    #: Client-side: attempts it took to get this receipt (1 = first try).
    attempts: int = 1


# ---------------------------------------------------------------------------
# framing helpers (shared by both ends)
# ---------------------------------------------------------------------------


def _recv_exact(conn: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly *count* bytes; None on clean EOF at a frame boundary.

    Raises ``ConnectionError`` on EOF mid-frame and ``socket.timeout`` when
    any single ``recv`` stalls past the socket's timeout — the per-read
    clock that sheds slow-loris senders.
    """

    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = conn.recv(min(remaining, 1 << 16))
        if not chunk:
            if remaining == count and not chunks:
                return None
            raise ConnectionError(
                f"connection closed {remaining} bytes short of a frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(conn: socket.socket, max_length: int) -> Optional[bytes]:
    header = _recv_exact(conn, 4)
    if header is None:
        return None
    (length,) = struct.unpack("!I", header)
    if length > max_length:
        raise ProtocolError(
            f"declared frame length {length} exceeds the {max_length}-byte "
            "cap (max_trace_bytes + header slack)")
    if length == 0:
        raise ProtocolError("empty frame")
    payload = _recv_exact(conn, length)
    if payload is None:
        raise ConnectionError("connection closed before frame payload")
    return payload


def _send_frame(conn: socket.socket, payload: bytes) -> None:
    conn.sendall(struct.pack("!I", len(payload)) + payload)


def _encode_request(op: int, header: Dict[str, object],
                    body: bytes = b"") -> bytes:
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return bytes([op]) + struct.pack("!H", len(blob)) + blob + body


def _decode_request(payload: bytes) -> Tuple[int, Dict[str, object], bytes]:
    if len(payload) < 3:
        raise ProtocolError("request shorter than op + header length")
    op = payload[0]
    (header_len,) = struct.unpack("!H", payload[1:3])
    if 3 + header_len > len(payload):
        raise ProtocolError("request header overruns the frame")
    try:
        header = json.loads(payload[3:3 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"unparsable request header: {exc}")
    if not isinstance(header, dict):
        raise ProtocolError("request header must be a JSON object")
    return op, header, payload[3 + header_len:]


def _encode_response(status: int, body: Dict[str, object]) -> bytes:
    return bytes([status]) + json.dumps(body, sort_keys=True).encode("utf-8")


def _decode_response(payload: bytes) -> Tuple[int, Dict[str, object]]:
    if not payload:
        raise ProtocolError("empty response payload")
    try:
        body = json.loads(payload[1:].decode("utf-8")) if len(payload) > 1 \
            else {}
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"unparsable response body: {exc}")
    return payload[0], body


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------


def journaled_spool_write(final_path: str, data: bytes,
                          faults: FaultInjector = NULL_FAULTS) -> str:
    """Durably write one spool file with :func:`~repro.trace.write_atomic`.

    The fsynced ``<final>.part`` temp is renamed onto *final_path*; a
    ``kill -9`` before the rename leaves only the temp, which
    :meth:`UploadServer.recover` deletes.  *faults* lets the chaos harness
    SIGKILL the process in the two windows the crash tests exercise:
    ``spool.after_temp`` (temp fsynced, not yet renamed) and
    ``spool.after_replace`` (renamed, not yet ingested).  The benchmark
    times this function as ``service.journal_write``.
    """

    write_atomic(final_path, data,
                 before_replace=lambda: faults.crash_point("spool.after_temp"))
    faults.crash_point("spool.after_replace")
    return final_path


class UploadServer:
    """Concurrent, fault-tolerant front door of a :class:`ReproService`."""

    def __init__(self, root: str, config: Optional[PipelineConfig] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 faults: Optional[FaultInjector] = None,
                 service: Optional[ReproService] = None) -> None:
        config = config or PipelineConfig()
        self.config = config
        self.faults = faults or NULL_FAULTS
        self.service = service or ReproService(root, config=config)
        if self.faults is not NULL_FAULTS:
            # Hand the chaos injector through to the supervised scheduler
            # (crash points here, seeded streams in each search worker).
            self.service.search_faults = self.faults
        svc = config.service
        self.max_frame_bytes = svc.max_trace_bytes + _FRAME_SLACK
        self.spool_root = os.path.join(root, _SPOOL_DIR)
        os.makedirs(self.spool_root, exist_ok=True)
        #: Guards every touch of the service/inbox state and the registry.
        self._lock = threading.Lock()
        #: Serializes spool writes, so two uploads of one (client, digest)
        #: never write the same ``.part`` temp at once.
        self._spool_lock = threading.Lock()
        #: One slot per admitted upload, held until its answer is sent.
        self._depth = max(1, svc.ingest_queue_depth)
        self._slots = threading.BoundedSemaphore(self._depth)
        self._client_digests: Dict[str, set] = {}
        self.recovered = self.recover()
        self._draining = False
        self._closed = False
        self._accept: Optional[threading.Thread] = None
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self.host, self.port = self._listener.getsockname()[:2]

    # -- lifecycle --------------------------------------------------------------

    def recover(self) -> List[str]:
        """Sweep interrupted spool writes and ingest committed-but-unseen ones.

        Run at construction (and callable for tests): every ``*.part`` temp
        in the spool is a write that died before its rename — never
        acknowledged, so the client retries it — and is deleted; then a
        spool poll ingests any renamed trace the inbox had not recorded
        when the previous process died.  Both steps are idempotent;
        clusters already searched keep their ``done`` status and reports —
        nothing is searched twice.
        """

        for name in os.listdir(self.spool_root):
            if name.endswith(PART_SUFFIX):
                os.remove(os.path.join(self.spool_root, name))
        with self._lock:
            # The poll ingests renamed spool files the previous process
            # never recorded; files already in ``inbox.spooled``
            # (the persisted idempotency index — keys are the
            # ``<client>-<digest16>.trace`` paths) are skipped, so a retry
            # of an upload acked by a predecessor dedups instead of
            # re-ingesting.
            results = self.service.poll_spool(self.spool_root)
            # Reconcile the checkpoint store: searches in flight when the
            # previous process died stay pending and resume from their
            # checkpoints — exactly once — on the next process request;
            # snapshots of already-reported clusters are deleted.
            self.resumable = self.service.resume_scan()
        return [result.trace_id for result in results]

    def start(self) -> "UploadServer":
        if self._accept is not None:
            return self  # already running: entering a started server is a no-op
        self._accept = threading.Thread(target=self._accept_loop,
                                        name="repro-net-accept", daemon=True)
        self._accept.start()
        return self

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting; optionally wait for admitted uploads, then close.

        With ``drain=True`` (the default) every upload already admitted is
        spooled, ingested and acknowledged before this returns — clients
        never lose an accepted report to a clean shutdown.  New uploads
        arriving during the drain are answered retry-after with reason
        ``draining``.
        """

        if self._closed:
            return
        self._draining = True
        try:
            self._listener.close()
        except OSError:
            pass
        if drain:
            # Each admitted upload frees its slot once its answer is sent.
            for _ in range(self._depth):
                self._slots.acquire()
        self._closed = True

    def __enter__(self) -> "UploadServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    # -- connection handling ----------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            self._count("service.net.connections")
            handler = threading.Thread(target=self._handle_connection,
                                       args=(conn, addr), daemon=True)
            handler.start()

    def _handle_connection(self, conn: socket.socket, addr) -> None:
        conn.settimeout(self.config.service.read_timeout_seconds)
        peer = f"{addr[0]}:{addr[1]}"
        try:
            while True:
                try:
                    payload = _read_frame(conn, self.max_frame_bytes)
                except socket.timeout:
                    # Slow-loris shed: the sender went silent mid-frame (or
                    # idled out between requests); drop only this connection.
                    self._count("service.net.timeouts")
                    return
                except ConnectionError:
                    self._count("service.net.short_reads")
                    return
                except ProtocolError as exc:
                    # An oversized declared length is a rejected report, not
                    # just a dropped connection: ledger it before closing.
                    self._count("service.net.protocol_errors")
                    with self._lock:
                        self.service.inbox.reject(
                            f"net:{peer}", TraceTooLargeError(str(exc)))
                    self._best_effort_send(conn, ST_ERROR,
                                           {"reason": str(exc)})
                    return
                if payload is None:
                    return  # clean EOF between frames
                try:
                    was_upload_ack = self._dispatch(conn, payload, peer)
                except Exception:
                    # Last resort: a failing handler answers an error frame
                    # instead of a silent close, and the server keeps
                    # serving; only this connection ends.
                    self._count("service.net.internal_errors")
                    traceback.print_exc(file=sys.stderr)
                    self._best_effort_send(conn, ST_ERROR,
                                           {"reason": "internal error"})
                    return
                if was_upload_ack:
                    self.faults.crash_point("net.after_ack")
        except OSError:
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _best_effort_send(self, conn: socket.socket, status: int,
                          body: Dict[str, object]) -> None:
        try:
            _send_frame(conn, _encode_response(status, body))
        except OSError:
            pass

    def _dispatch(self, conn: socket.socket, payload: bytes,
                  peer: str) -> bool:
        """Handle one request frame; returns True for an acked upload."""

        try:
            op, header, body = _decode_request(payload)
        except ProtocolError as exc:
            self._count("service.net.protocol_errors")
            self._best_effort_send(conn, ST_ERROR, {"reason": str(exc)})
            return False
        # An admitted upload's slot is freed on leaving this block, after
        # its answer is sent: that is what a draining shutdown waits for.
        with contextlib.ExitStack() as answered:
            try:
                if op == OP_UPLOAD:
                    status, response = self._handle_upload(header, body, peer,
                                                           answered)
                elif op == OP_REPORT:
                    status, response = self._handle_report(header)
                elif op == OP_STATS:
                    status, response = self._handle_stats()
                elif op == OP_PROCESS:
                    status, response = self._handle_process(header)
                elif op == OP_PLAN:
                    status, response = self._handle_plan(header)
                else:
                    raise ProtocolError(f"unknown op {op}")
            except ProtocolError as exc:
                self._count("service.net.protocol_errors")
                status, response = ST_ERROR, {"reason": str(exc)}
            self._best_effort_send(conn, status, response)
        return op == OP_UPLOAD and status == ST_ACK

    # -- request handlers -------------------------------------------------------

    def _handle_upload(self, header: Dict[str, object], body: bytes,
                       peer: str, answered: contextlib.ExitStack
                       ) -> Tuple[int, Dict[str, object]]:
        """Check, admit, spool and ingest one upload.

        The checks run in order: header, digest, size, decode,
        ``check_trace``, the idempotency index, draining, quota.  An upload
        that passes them all takes an admission slot without blocking (none
        free: retry-after ``queue-full``) and releases it through
        *answered* once its answer is sent.
        """

        client = str(header.get("client", ""))
        digest = str(header.get("digest", ""))
        if not _CLIENT_ID_RE.match(client) or not _DIGEST_RE.match(digest):
            self._count("service.net.protocol_errors")
            return ST_ERROR, {"reason": "bad client id or digest"}
        self._count("service.net.bytes_received", len(body))
        if hashlib.sha256(body).hexdigest() != digest:
            # In-flight damage (truncation survived framing, or bit flips):
            # nothing to ledger — ask the sender to resend.
            self._count("service.net.digest_mismatches")
            return ST_RETRY, {
                "reason": "digest-mismatch", "retry_after": 0.0}
        source = f"net:{client}:{digest[:12]}"
        if len(body) > self.config.service.max_trace_bytes:
            with self._lock:
                self.service.inbox.reject(source, TraceTooLargeError(
                    f"upload is {len(body)} bytes (max_trace_bytes="
                    f"{self.config.service.max_trace_bytes})"))
            return ST_ERROR, {"reason": "trace too large"}
        try:
            trace = load_trace_bytes(body)
            with self._lock:
                self.service.check_trace(trace)
        except TraceError as exc:
            with self._lock:
                self.service.inbox.reject(source, exc)
            return ST_ERROR, {
                "reason": f"{type(exc).__name__}: {exc}"}
        path = os.path.abspath(os.path.join(
            self.spool_root, f"{client}-{digest[:16]}.trace"))
        with self._lock:
            known = self.service.inbox.spooled.get(path)
            if known:
                # Idempotent retry of an already-acknowledged upload (this
                # process or a predecessor): answer the original receipt.
                self._registry().counter(
                    "service.net.duplicate_uploads").inc()
                cluster = self.service.inbox.cluster_of(known)
                return ST_ACK, {
                    "trace_id": known, "cluster_id": cluster.cluster_id,
                    "duplicate": True, "bug_key": cluster.bug_key,
                    "duplicate_upload": True}
            if self._draining:
                return ST_RETRY, {"reason": "draining",
                                  "retry_after": RETRY_AFTER_SECONDS}
            quota = self.config.service.client_quota
            accepted = self._client_digests.setdefault(client, set())
            if quota and digest not in accepted and len(accepted) >= quota:
                self.service.inbox.reject(source, QuotaExceeded(
                    f"client {client} exceeded its quota of {quota} "
                    "distinct reports"))
                return ST_QUOTA, {
                    "reason": f"quota of {quota} reports exhausted"}
            if not self._slots.acquire(blocking=False):
                # Not admitted, so the upload spends no quota.
                self._registry().counter("service.net.retry_after").inc()
                return ST_RETRY, {"reason": "queue-full",
                                  "retry_after": RETRY_AFTER_SECONDS}
            answered.callback(self._slots.release)
            accepted.add(digest)
        with self._spool_lock:
            return self._write_and_ingest(client, digest, body, trace, path)

    def _handle_report(self, header: Dict[str, object]
                       ) -> Tuple[int, Dict[str, object]]:
        trace_id = str(header.get("trace", ""))
        with self._lock:
            if trace_id not in self.service.inbox.traces:
                return ST_REPORT, {"status": "unknown", "report": None}
            report = self.service.report(trace_id)
            if report is None:
                return ST_REPORT, {"status": "pending", "report": None}
            return ST_REPORT, {
                "status": "done", "report": report.to_json(),
                "duplicate_of": report.duplicate_of,
                "cluster_id": report.cluster_id}

    def _handle_stats(self) -> Tuple[int, Dict[str, object]]:
        with self._lock:
            return ST_STATS, {
                "stats": self.service.stats(),
                "inbox": self.service.inbox.describe(),
                "rejected": dict(self.service.inbox.rejected),
                "recovered": list(self.recovered),
                "faults_injected": self.faults.counts(),
            }

    def _handle_process(self, header: Dict[str, object]
                        ) -> Tuple[int, Dict[str, object]]:
        max_clusters = _optional_int(header, "max_clusters", 0)
        with self._lock:
            reports = self.service.process(max_clusters=max_clusters)
            return ST_PROCESSED, {
                "reports": {trace_id: dict(report.to_json(),
                                           duplicate_of=report.duplicate_of)
                            for trace_id, report in reports.items()},
                "stats": self.service.stats(),
            }

    def _handle_plan(self, header: Dict[str, object]
                     ) -> Tuple[int, Dict[str, object]]:
        """Serve a registered plan version to a (re)deploying client.

        This is how revised plans reach the fleet: a client asks for its
        program's latest version (or a pinned one), records under it, and
        the version rides back inside every trace's plan method string.
        Clients that never ask keep recording under their old plan — their
        uploads stay routable by fingerprint, so nothing forces an upgrade.
        """

        program = str(header.get("program", ""))
        version = _optional_int(header, "version", 1)
        with self._lock:
            ledger = self.service.plan_ledger
            entry = (ledger.version(program, version)
                     if version is not None else ledger.latest(program))
            if entry is None:
                return ST_ERROR, {
                    "reason": f"no plan registered for program {program!r}"
                              + (f" version {version}" if version is not None
                                 else "")}
            return ST_PLAN, {"plan": entry.to_json(),
                             "latest": ledger.latest(program).version}

    # -- the admitted upload ----------------------------------------------------

    def _write_and_ingest(self, client: str, digest: str, data: bytes,
                          trace: Trace, path: str
                          ) -> Tuple[int, Dict[str, object]]:
        """Spool *data* durably at *path*, ingest it, and build the answer.

        *trace* is *data* as :meth:`_handle_upload` decoded and checked it;
        *path* (``spool/<client>-<digest16>.trace``) is the idempotency key.
        """

        try:
            self.faults.crash_point("net.before_spool")
            if self.faults.spec.spool_delay_seconds:
                time.sleep(self.faults.spec.spool_delay_seconds)
            if self.faults.roll("spool_fail"):
                raise OSError("injected spool write failure")
            journaled_spool_write(path, data, faults=self.faults)
            with self._lock:
                result = self.service.ingest_spooled(path, data, trace)
            self.faults.crash_point("net.after_ingest")
        except OSError as exc:
            # A failing disk must not fail the client permanently: nothing
            # was acknowledged, so "try again" is both safe and honest.
            self._count("service.net.spool_write_failures")
            with self._lock:
                self._client_digests.get(client, set()).discard(digest)
            return ST_RETRY, {"reason": f"spool-write-failed: {exc}",
                              "retry_after": RETRY_AFTER_SECONDS}
        except TraceError as exc:
            # Unreachable in the normal flow (the handler validated the
            # bytes), kept so a bad trace is ledgered, not a dropped line.
            with self._lock:
                self.service.inbox.reject(f"net:{client}:{digest[:12]}", exc)
            return ST_ERROR, {"reason": f"{type(exc).__name__}: {exc}"}
        self._count("service.net.uploads_acked")
        return ST_ACK, {
            "trace_id": result.trace_id, "cluster_id": result.cluster_id,
            "duplicate": result.duplicate, "bug_key": result.bug_key,
            "duplicate_upload": False}

    # -- small helpers ----------------------------------------------------------

    def _registry(self):
        return self.service.registry

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._registry().counter(name).inc(amount)


# ---------------------------------------------------------------------------
# the client
# ---------------------------------------------------------------------------


class UploadClient:
    """User-machine upload library: idempotent, retrying, seeded backoff.

    One TCP connection per request keeps the client trivially robust to
    server-side connection shedding.  ``faults`` (tests and the chaos load
    generator only) injects client-side network damage per attempt: drops,
    truncations, corruption and slow-loris dribbles — each followed by a
    normal retry under the same seeded schedule.
    """

    def __init__(self, host: str, port: int, client_id: str = "client",
                 seed: int = 0, timeout: float = 10.0,
                 max_attempts: int = 8, base_delay: float = 0.02,
                 max_delay: float = 0.5,
                 faults: Optional[FaultInjector] = None) -> None:
        if not _CLIENT_ID_RE.match(client_id):
            raise ValueError(
                f"client id {client_id!r} must match {_CLIENT_ID_RE.pattern}")
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.faults = faults or NULL_FAULTS
        self._random = random.Random(seed)
        #: Attempt-level counters for the load generator's damage report.
        self.stats: Dict[str, int] = {"attempts": 0, "retries": 0,
                                      "connection_errors": 0}

    # -- public API -------------------------------------------------------------

    def upload(self, data: bytes) -> UploadReceipt:
        """Ship one trace; returns the receipt or raises.

        Retries connection errors, injected damage and server retry-after
        responses under deterministic seeded exponential backoff + jitter.
        Safe to call again after any failure: the content digest makes the
        operation idempotent end to end.
        """

        digest = hashlib.sha256(data).hexdigest()
        last_reason = "no attempts made"
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:
                time.sleep(self._backoff(attempt - 1))
                self.stats["retries"] += 1
            self.stats["attempts"] += 1
            try:
                status, body = self._upload_once(data, digest)
            except (OSError, ProtocolError) as exc:
                self.stats["connection_errors"] += 1
                last_reason = f"{type(exc).__name__}: {exc}"
                continue
            if status == ST_ACK:
                return UploadReceipt(
                    trace_id=body["trace_id"], cluster_id=body["cluster_id"],
                    duplicate=bool(body["duplicate"]),
                    bug_key=body.get("bug_key", ""),
                    duplicate_upload=bool(body.get("duplicate_upload")),
                    attempts=attempt)
            if status == ST_RETRY:
                last_reason = str(body.get("reason", "retry-after"))
                continue
            if status == ST_QUOTA:
                raise UploadRejected(
                    f"quota: {body.get('reason', 'quota exceeded')}")
            raise UploadRejected(str(body.get("reason", "rejected")))
        raise UploadFailed(
            f"upload gave up after {self.max_attempts} attempts "
            f"(last: {last_reason})")

    def report(self, trace_id: str) -> Dict[str, object]:
        """``{"status": "pending"|"done"|"unknown", "report": ...}``."""

        _status, body = self._request(
            _encode_request(OP_REPORT, {"trace": trace_id}))
        return body

    def stats_remote(self) -> Dict[str, object]:
        _status, body = self._request(_encode_request(OP_STATS, {}))
        return body

    def process(self, max_clusters: Optional[int] = None
                ) -> Dict[str, object]:
        """Ask the server to run pending replay searches now (blocking)."""

        header: Dict[str, object] = {}
        if max_clusters is not None:
            header["max_clusters"] = max_clusters
        _status, body = self._request(
            _encode_request(OP_PROCESS, header),
            timeout=max(self.timeout, 600.0))
        return body

    def plan(self, program: str,
             version: Optional[int] = None) -> Dict[str, object]:
        """Fetch a registered plan version (latest when *version* is None).

        Returns the :meth:`~repro.planner.ledger.PlanVersion.to_json`
        payload plus the program's current latest version number; raises
        :class:`UploadRejected` when the program (or version) is unknown.
        """

        header: Dict[str, object] = {"program": program}
        if version is not None:
            header["version"] = version
        status, body = self._request(_encode_request(OP_PLAN, header))
        if status != ST_PLAN:
            raise UploadRejected(str(body.get("reason", "no such plan")))
        return body

    def wait_report(self, trace_id: str, timeout: float = 30.0,
                    poll: float = 0.05) -> Dict[str, object]:
        deadline = time.monotonic() + timeout
        while True:
            body = self.report(trace_id)
            if body.get("status") == "done" or time.monotonic() >= deadline:
                return body
            time.sleep(poll)

    # -- internals --------------------------------------------------------------

    def _backoff(self, failures: int) -> float:
        """min(cap, base * 2^failures) with seeded half-to-full jitter."""

        ceiling = min(self.max_delay, self.base_delay * (2 ** (failures - 1)))
        return ceiling * (0.5 + 0.5 * self._random.random())

    def _connect(self) -> socket.socket:
        return socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)

    def _request(self, payload: bytes,
                 timeout: Optional[float] = None
                 ) -> Tuple[int, Dict[str, object]]:
        with self._connect() as conn:
            if timeout is not None:
                conn.settimeout(timeout)
            _send_frame(conn, payload)
            response = _read_frame(conn, 1 << 30)
            if response is None:
                raise ConnectionError("connection closed before response")
            return _decode_response(response)

    def _upload_once(self, data: bytes,
                     digest: str) -> Tuple[int, Dict[str, object]]:
        body = data
        if self.faults.roll("corrupt"):
            body = bytes(self.faults.corrupt(body))
        payload = _encode_request(
            OP_UPLOAD, {"client": self.client_id, "digest": digest}, body)
        frame = struct.pack("!I", len(payload)) + payload
        with self._connect() as conn:
            if self.faults.roll("truncate"):
                conn.sendall(frame[: max(5, len(frame) // 3)])
                raise ConnectionError("injected truncation")
            if self.faults.roll("slow"):
                # Dribble a prefix, then stall past any sane server read
                # timeout; the server sheds us and we retry normally.
                conn.sendall(frame[:6])
                time.sleep(self.timeout)
                raise ConnectionError("injected slow-loris stall")
            conn.sendall(frame)
            if self.faults.roll("drop"):
                raise ConnectionError("injected pre-ack connection drop")
            response = _read_frame(conn, 1 << 30)
            if response is None:
                raise ConnectionError("connection closed before ack")
            return _decode_response(response)
