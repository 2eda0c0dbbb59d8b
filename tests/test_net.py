"""The network transport: framing, faults, backpressure, quotas, recovery.

The load-bearing contract mirrors the paper's deployment story: a fleet of
user machines ships bug reports over a flaky network, and under every fault
class — connection drops, truncated or corrupted payloads, slow-loris
stalls, queue-full overload, failing spool disks — no acknowledged trace is
ever lost or searched twice, damage lands in the bounded rejection ledger,
and healthy clients' reproduction reports stay byte-identical to the
single-shot ``Pipeline.reproduce_from_trace`` path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import socket
import struct
import sys
import threading
import time

import pytest

from repro import InstrumentationMethod, PipelineConfig, ReplayBudget
from repro.experiments.net_exp import FLEETS, record_payloads, run_fleet
from repro.service import (
    FaultInjector,
    FaultSpec,
    TraceInbox,
    TraceTooLargeError,
    UploadClient,
    UploadFailed,
    UploadRejected,
    UploadServer,
    outcome_fingerprint,
    workload_pipeline,
)
from repro.service.net import (
    OP_UPLOAD,
    ST_ERROR,
    ST_RETRY,
    ProtocolError,
    _decode_request,
    _decode_response,
    _encode_request,
    _read_frame,
    _send_frame,
    journaled_spool_write,
)
from repro.telemetry import MetricsRegistry
from repro.trace import (dump_trace_bytes, load_trace_bytes,
                         trace_from_recording, write_atomic)

from test_service import mismatched_traces


def net_config(**service_overrides) -> PipelineConfig:
    config = PipelineConfig(
        backend="vm", replay_budget=ReplayBudget(max_runs=1500,
                                                 max_seconds=60))
    for name, value in service_overrides.items():
        setattr(config.service, name, value)
    return config


def record_trace_bytes(workload: str) -> bytes:
    pipeline, environment = workload_pipeline(workload, config=net_config())
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    recording = pipeline.record(plan, environment)
    return dump_trace_bytes(trace_from_recording(recording, scaffold=True,
                                                 program_name=workload))


@pytest.fixture(scope="module")
def mkdir_bytes() -> bytes:
    return record_trace_bytes("mkdir-bug")


@pytest.fixture(scope="module")
def mkfifo_bytes() -> bytes:
    return record_trace_bytes("mkfifo-bug")


# ---------------------------------------------------------------------------
# framing and fault-spec units
# ---------------------------------------------------------------------------


class TestFraming:
    def test_request_roundtrip_carries_raw_body(self):
        payload = _encode_request(OP_UPLOAD, {"client": "c", "digest": "d"},
                                  b"\x00\xffbody")
        op, header, body = _decode_request(payload)
        assert (op, header, body) == (OP_UPLOAD,
                                      {"client": "c", "digest": "d"},
                                      b"\x00\xffbody")

    def test_oversized_declared_length_refused_before_buffering(self):
        left, right = socket.socketpair()
        try:
            # Declare 1 GiB; send only the length prefix.  The reader must
            # refuse from the declaration alone, without waiting for bytes.
            left.sendall(struct.pack("!I", 1 << 30))
            with pytest.raises(ProtocolError):
                _read_frame(right, max_length=1024)
        finally:
            left.close()
            right.close()

    def test_eof_between_frames_is_clean_mid_frame_is_error(self):
        left, right = socket.socketpair()
        try:
            _send_frame(left, b"ok")
            assert _read_frame(right, 1024) == b"ok"
            left.sendall(struct.pack("!I", 10) + b"short")
            left.close()
            with pytest.raises(ConnectionError):
                _read_frame(right, 1024)
        finally:
            right.close()

    def test_malformed_header_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            _decode_request(b"\x55\x00\x04not-json-at-all")
        with pytest.raises(ProtocolError):
            _decode_response(b"")


class TestFaultSpec:
    def test_json_roundtrip_and_unknown_key_rejection(self):
        spec = FaultSpec(seed=7, drop_rate=0.5,
                         crash_points=("net.after_ack",))
        assert FaultSpec.from_json(spec.to_json()) == spec
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultSpec.from_json({"drop_rte": 0.5})

    def test_same_seed_same_schedule(self):
        rolls = [FaultInjector(FaultSpec(seed=3, drop_rate=0.4))
                 for _ in range(2)]
        schedules = [[injector.roll("drop") for _ in range(64)]
                     for injector in rolls]
        assert schedules[0] == schedules[1]
        assert any(schedules[0]) and not all(schedules[0])
        assert rolls[0].counts()["drop"] == sum(schedules[0])

    def test_kind_streams_are_independent(self):
        lone = FaultInjector(FaultSpec(seed=3, drop_rate=0.4))
        mixed = FaultInjector(FaultSpec(seed=3, drop_rate=0.4,
                                        corrupt_rate=0.4))
        lone_drops = [lone.roll("drop") for _ in range(32)]
        mixed_drops = []
        for _ in range(32):
            mixed.roll("corrupt")  # must not perturb the drop stream
            mixed_drops.append(mixed.roll("drop"))
        assert lone_drops == mixed_drops

    def test_corrupt_flips_exactly_one_byte(self):
        injector = FaultInjector(FaultSpec(seed=1))
        data = bytes(range(64))
        damaged = bytes(injector.corrupt(data))
        assert len(damaged) == len(data)
        assert sum(1 for a, b in zip(data, damaged) if a != b) == 1


# ---------------------------------------------------------------------------
# the spool's crash protocol: fsynced temp, rename, sweep on restart
# ---------------------------------------------------------------------------


def spool_name(client: str, data: bytes) -> str:
    """The spool file name the server gives *client*'s upload of *data*."""

    return f"{client}-{hashlib.sha256(data).hexdigest()[:16]}.trace"


class TestSpoolWrite:
    def test_spool_write_commits_and_recovery_is_idempotent(
            self, tmp_path, mkdir_bytes):
        spool = tmp_path / "svc" / "spool"
        spool.mkdir(parents=True)
        final = spool / spool_name("a", mkdir_bytes)
        assert journaled_spool_write(str(final), mkdir_bytes) == str(final)
        assert final.read_bytes() == mkdir_bytes
        server = UploadServer(str(tmp_path / "svc"), config=net_config())
        try:
            assert len(server.recovered) == 1
            assert server.recover() == []  # nothing new the second time
            assert server.service.inbox.describe()["traces"] == 1
        finally:
            server.shutdown()
        assert os.listdir(spool) == [final.name]  # and no .part temp

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "state.json"
        write_atomic(str(path), b"old")

        def crash():
            raise OSError("disk gone")

        with pytest.raises(OSError, match="disk gone"):
            write_atomic(str(path), b"new", before_replace=crash)
        assert path.read_bytes() == b"old"
        write_atomic(str(path), b"new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["state.json"]

    def test_recover_ingests_renamed_but_unrecorded_write(self, tmp_path,
                                                          mkdir_bytes):
        # Crash window: after the rename, before the inbox recorded it.
        spool = tmp_path / "svc" / "spool"
        spool.mkdir(parents=True)
        final = spool / spool_name("b", mkdir_bytes)
        write_atomic(str(final), mkdir_bytes)
        server = UploadServer(str(tmp_path / "svc"), config=net_config())
        try:
            assert len(server.recovered) == 1
            assert os.path.abspath(final) in server.service.inbox.spooled
        finally:
            server.shutdown()
        assert final.read_bytes() == mkdir_bytes

    def test_recover_deletes_orphan_temp_of_unacked_write(self, tmp_path,
                                                          mkdir_bytes):
        # Crash window: the temp is fsynced but never renamed, so the
        # upload was never acknowledged.  A restart deletes the temp and
        # ingests nothing; the client's retry then ingests once.
        spool = tmp_path / "svc" / "spool"
        spool.mkdir(parents=True)
        orphan = spool / (spool_name("orphan", mkdir_bytes) + ".part")
        orphan.write_bytes(mkdir_bytes[: len(mkdir_bytes) // 2])
        server = start_server(tmp_path)
        try:
            assert not orphan.exists()
            assert server.recovered == []
            with server._lock:
                assert server.service.inbox.describe()["traces"] == 0
                assert server.service.inbox.rejected == {}
            client = UploadClient(server.host, server.port,
                                  client_id="orphan")
            receipt = client.upload(mkdir_bytes)
            assert not receipt.duplicate and not receipt.duplicate_upload
            processed = client.process()
            assert processed["stats"]["traces_ingested"] == 1
            assert processed["stats"]["searches_run"] == 1
            assert os.listdir(spool) == [spool_name("orphan", mkdir_bytes)]
        finally:
            server.shutdown()


# ---------------------------------------------------------------------------
# inbox robustness satellites: size cap, grace poll, bounded ledger
# ---------------------------------------------------------------------------


class TestInboxRobustness:
    def test_ingest_bytes_enforces_max_trace_bytes(self, tmp_path,
                                                   mkdir_bytes):
        inbox = TraceInbox(str(tmp_path / "inbox"), max_trace_bytes=64)
        with pytest.raises(TraceTooLargeError, match="max_trace_bytes=64"):
            inbox.ingest_bytes(mkdir_bytes)
        assert inbox.describe()["traces"] == 0

    def test_poll_rejects_oversize_without_buffering(self, tmp_path,
                                                     mkdir_bytes):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "big.trace").write_bytes(mkdir_bytes)
        inbox = TraceInbox(str(tmp_path / "inbox"), max_trace_bytes=64)
        assert inbox.poll_spool(str(spool)) == []
        [(source, reason)] = inbox.rejected.items()
        assert source.endswith("big.trace")
        assert "TraceTooLargeError" in reason

    def test_partial_file_gets_grace_poll_not_rejection(self, tmp_path,
                                                        mkdir_bytes):
        spool = tmp_path / "spool"
        spool.mkdir()
        partial = spool / "inflight.trace"
        partial.write_bytes(mkdir_bytes[: len(mkdir_bytes) // 2])
        inbox = TraceInbox(str(tmp_path / "inbox"))
        # First poll: unparsable but fresh -> suspected, not rejected.
        assert inbox.poll_spool(str(spool)) == []
        assert inbox.rejected == {}
        # The writer appends more bytes (still short): changed -> retried.
        partial.write_bytes(mkdir_bytes[:-10])
        assert inbox.poll_spool(str(spool)) == []
        assert inbox.rejected == {}
        # The writer finishes: the completed file ingests normally.
        partial.write_bytes(mkdir_bytes)
        [result] = inbox.poll_spool(str(spool))
        assert result.trace_id and inbox.rejected == {}

    def test_unchanged_unparsable_file_rejected_on_second_poll(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "corrupt.trace").write_bytes(b"not a trace")
        inbox = TraceInbox(str(tmp_path / "inbox"))
        assert inbox.poll_spool(str(spool)) == []
        assert inbox.rejected == {}
        assert inbox.poll_spool(str(spool)) == []  # unchanged: two strikes
        [(source, _reason)] = inbox.rejected.items()
        assert source.endswith("corrupt.trace")

    def test_rejection_ledger_is_bounded_and_counted(self, tmp_path):
        registry = MetricsRegistry()
        inbox = TraceInbox(str(tmp_path / "inbox"), max_rejected=3,
                           registry=registry)
        for index in range(5):
            inbox.reject(f"net:u{index}", TraceTooLargeError("too big"))
        assert list(inbox.rejected) == ["net:u2", "net:u3", "net:u4"]
        counters = registry.snapshot().counters
        assert counters["service.rejected.TraceTooLargeError"] == 5
        # The bound also applies to persisted state reloaded from disk.
        reloaded = TraceInbox(str(tmp_path / "inbox"), max_rejected=2)
        assert list(reloaded.rejected) == ["net:u3", "net:u4"]

    def test_reinsertion_moves_entry_to_newest(self, tmp_path):
        inbox = TraceInbox(str(tmp_path / "inbox"), max_rejected=2)
        inbox.reject("a", ValueError("x"))
        inbox.reject("b", ValueError("x"))
        inbox.reject("a", ValueError("y"))  # refreshed: now newest
        inbox.reject("c", ValueError("x"))  # evicts b, not a
        assert list(inbox.rejected) == ["a", "c"]


# ---------------------------------------------------------------------------
# the upload server end to end
# ---------------------------------------------------------------------------


def start_server(tmp_path, faults=None, **service_overrides):
    config = net_config(**service_overrides)
    return UploadServer(str(tmp_path / "svc"), config=config,
                        faults=faults).start()


class TestUploadServer:
    def test_upload_process_report_roundtrip(self, tmp_path, mkdir_bytes,
                                             mkfifo_bytes):
        with start_server(tmp_path) as server:
            alice = UploadClient(server.host, server.port, client_id="alice")
            bob = UploadClient(server.host, server.port, client_id="bob")
            first = alice.upload(mkdir_bytes)
            second = bob.upload(mkdir_bytes)
            third = alice.upload(mkfifo_bytes)
            # Same bug from two machines: two traces, one cluster.
            assert first.trace_id != second.trace_id
            assert first.cluster_id == second.cluster_id != third.cluster_id
            assert not first.duplicate and second.duplicate
            # Reports are pending until a process call runs the searches.
            assert alice.report(first.trace_id)["status"] == "pending"
            processed = alice.process()
            assert len(processed["reports"]) == 3
            assert processed["stats"]["searches_run"] == 2
            body = bob.wait_report(second.trace_id, timeout=5.0)
            assert body["status"] == "done"
            assert body["report"]["reproduced"]

    def test_upload_is_decoded_and_checked_once(self, tmp_path, mkdir_bytes,
                                                monkeypatch):
        # The handler decodes and checks an upload before it admits it;
        # the ingest behind the spool write reuses that trace.
        from repro.service import inbox as inbox_module
        from repro.service import net as net_module
        from repro.service import ReproService

        calls = {"load_trace_bytes": 0, "check_trace": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (net_module, inbox_module):
            monkeypatch.setattr(module, "load_trace_bytes", counted(
                "load_trace_bytes", module.load_trace_bytes))
        monkeypatch.setattr(ReproService, "check_trace", counted(
            "check_trace", ReproService.check_trace))
        with start_server(tmp_path) as server:
            receipt = UploadClient(server.host, server.port,
                                   client_id="once").upload(mkdir_bytes)
            with server._lock:
                assert receipt.trace_id in server.service.inbox.traces
        assert calls == {"load_trace_bytes": 1, "check_trace": 1}

    def test_reupload_same_content_is_idempotent(self, tmp_path, mkdir_bytes):
        with start_server(tmp_path) as server:
            client = UploadClient(server.host, server.port, client_id="ada")
            first = client.upload(mkdir_bytes)
            again = client.upload(mkdir_bytes)
            assert again.trace_id == first.trace_id
            assert again.duplicate_upload and not first.duplicate_upload
            with server._lock:
                described = server.service.inbox.describe()
            assert described["traces"] == 1  # not ingested twice
            counters = server.service.registry.snapshot().counters
            assert counters["service.net.duplicate_uploads"] == 1

    def test_reports_byte_identical_to_single_shot(self, tmp_path,
                                                   mkdir_bytes):
        with start_server(tmp_path) as server:
            client = UploadClient(server.host, server.port, client_id="u1")
            receipt = client.upload(mkdir_bytes)
            client.process()
            with server._lock:
                report = server.service.report(receipt.trace_id)
        path = tmp_path / "single.trace"
        path.write_bytes(mkdir_bytes)
        pipeline, _environment = workload_pipeline("mkdir-bug",
                                                   config=net_config())
        single = pipeline.reproduce_from_trace(str(path))
        assert report.fingerprint() == outcome_fingerprint(single.outcome)

    def test_oversize_upload_rejected_and_ledgered(self, tmp_path,
                                                   mkdir_bytes):
        cap = len(mkdir_bytes) - 1
        with start_server(tmp_path, max_trace_bytes=cap) as server:
            client = UploadClient(server.host, server.port, client_id="big")
            with pytest.raises(UploadRejected, match="too large"):
                client.upload(mkdir_bytes)
            with server._lock:
                [(source, reason)] = server.service.inbox.rejected.items()
            assert source.startswith("net:big:")
            assert "TraceTooLargeError" in reason

    def test_unknown_program_upload_rejected_and_ledgered(self, tmp_path,
                                                          mkdir_bytes):
        renamed = dump_trace_bytes(dataclasses.replace(
            load_trace_bytes(mkdir_bytes), program_name="no-such-program"))
        with start_server(tmp_path) as server:
            client = UploadClient(server.host, server.port, client_id="u9")
            with pytest.raises(UploadRejected, match="UnknownProgramError"):
                client.upload(renamed)
            with server._lock:
                [(source, reason)] = server.service.inbox.rejected.items()
                traces = server.service.inbox.describe()["traces"]
            assert source.startswith("net:u9:")
            assert "no-such-program" in reason and traces == 0
            counters = server.service.registry.snapshot().counters
            assert counters["service.rejected.UnknownProgramError"] == 1

    def test_mismatched_binaries_upload_rejected_and_ledgered(self, tmp_path,
                                                              mkdir_bytes):
        mutant = dump_trace_bytes(
            mismatched_traces(mkdir_bytes)["missing-location"])
        with start_server(tmp_path) as server:
            client = UploadClient(server.host, server.port, client_id="u8")
            with pytest.raises(UploadRejected,
                               match="TraceFingerprintMismatch"):
                client.upload(mutant)
            with server._lock:
                [(source, reason)] = server.service.inbox.rejected.items()
                traces = server.service.inbox.describe()["traces"]
            assert source.startswith("net:u8:") and traces == 0
            assert reason.startswith("TraceFingerprintMismatch:")
            counters = server.service.registry.snapshot().counters
            assert counters["service.rejected.TraceFingerprintMismatch"] == 1

    def test_oversized_declared_frame_refused_from_length(self, tmp_path):
        # A raw socket declaring a frame far beyond the cap: the server must
        # answer with an error computed from the declaration alone and
        # ledger the attempt -- it never buffers the body.
        with start_server(tmp_path, max_trace_bytes=4096) as server:
            with socket.create_connection((server.host, server.port),
                                          timeout=5.0) as conn:
                conn.sendall(struct.pack("!I", 1 << 29))
                response = _read_frame(conn, 1 << 20)
                status, body = _decode_response(response)
            assert status == ST_ERROR
            assert "exceeds" in body["reason"]
            with server._lock:
                assert any(src.startswith("net:")
                           for src in server.service.inbox.rejected)
            counters = server.service.registry.snapshot().counters
            assert counters["service.net.protocol_errors"] == 1

    def test_garbage_with_valid_digest_is_permanently_rejected(self, tmp_path):
        garbage = b"this is not a trace" * 10
        with start_server(tmp_path) as server:
            client = UploadClient(server.host, server.port, client_id="p0")
            with pytest.raises(UploadRejected):
                client.upload(garbage)
            with server._lock:
                [(source, _reason)] = server.service.inbox.rejected.items()
            assert source.startswith("net:p0:")
            counters = server.service.registry.snapshot().counters
            assert sum(value for name, value in counters.items()
                       if name.startswith("service.rejected.")) == 1

    def test_digest_mismatch_is_retryable_not_ledgered(self, tmp_path,
                                                       mkdir_bytes):
        # Corruption in flight: same payload, wrong digest.  The server asks
        # for a resend; nothing lands in the ledger (the client is healthy).
        with start_server(tmp_path) as server:
            header = {"client": "c0",
                      "digest": hashlib.sha256(b"other").hexdigest()}
            with socket.create_connection((server.host, server.port),
                                          timeout=5.0) as conn:
                _send_frame(conn, _encode_request(OP_UPLOAD, header,
                                                  mkdir_bytes))
                status, body = _decode_response(_read_frame(conn, 1 << 20))
            assert status == ST_RETRY
            assert body["reason"] == "digest-mismatch"
            with server._lock:
                assert server.service.inbox.rejected == {}
            counters = server.service.registry.snapshot().counters
            assert counters["service.net.digest_mismatches"] == 1

    def test_client_quota_rejects_extra_reports_only(self, tmp_path,
                                                     mkdir_bytes,
                                                     mkfifo_bytes):
        with start_server(tmp_path, client_quota=1) as server:
            greedy = UploadClient(server.host, server.port, client_id="g")
            modest = UploadClient(server.host, server.port, client_id="m")
            first = greedy.upload(mkdir_bytes)
            # The same report again stays within quota (idempotent retry)...
            assert greedy.upload(mkdir_bytes).trace_id == first.trace_id
            # ...a second distinct report does not.
            with pytest.raises(UploadRejected, match="quota"):
                greedy.upload(mkfifo_bytes)
            # Healthy clients keep their bandwidth.
            assert modest.upload(mkfifo_bytes).trace_id
            with server._lock:
                assert any("QuotaExceeded" in reason for reason in
                           server.service.inbox.rejected.values())

    def test_queue_full_backpressure_retries_until_acked(self, tmp_path,
                                                         mkdir_bytes,
                                                         mkfifo_bytes):
        # A slow spool disk (injected delay) + one admission slot:
        # concurrent uploads must draw retry-after, and every client's
        # backoff loop must still land its report.
        faults = FaultInjector(FaultSpec(spool_delay_seconds=0.2))
        with start_server(tmp_path, faults=faults,
                          ingest_queue_depth=1) as server:
            payloads = [mkdir_bytes, mkfifo_bytes,
                        mkdir_bytes + b"", mkfifo_bytes + b""]
            receipts = {}
            errors = []

            def ship(index, data):
                client = UploadClient(server.host, server.port,
                                      client_id=f"q{index}", seed=index,
                                      max_attempts=40, base_delay=0.05)
                try:
                    receipts[index] = client.upload(data)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=ship, args=(i, data))
                       for i, data in enumerate(payloads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert len(receipts) == len(payloads)
            counters = server.service.registry.snapshot().counters
            assert counters.get("service.net.retry_after", 0) > 0
            assert counters["service.net.uploads_acked"] == len(payloads)

    def test_racing_uploads_of_one_report_store_it_once(self, tmp_path,
                                                        mkdir_bytes,
                                                        mkfifo_bytes):
        # More uploading threads than cores, two slots and a short switch
        # interval: one client's report racing itself is spooled and
        # ingested once, and every upload is acked with that trace id.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with start_server(tmp_path, ingest_queue_depth=2) as server:
                receipts, errors = [], []

                def ship(index):
                    data = (mkdir_bytes, mkfifo_bytes)[index % 2]
                    client = UploadClient(server.host, server.port,
                                          client_id="racer", seed=index,
                                          max_attempts=40, base_delay=0.01)
                    try:
                        receipts.append((data, client.upload(data)))
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [threading.Thread(target=ship, args=(index,))
                           for index in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors and len(receipts) == 8
                trace_ids = {}
                for data, receipt in receipts:
                    trace_ids.setdefault(data, set()).add(receipt.trace_id)
                assert sorted(map(len, trace_ids.values())) == [1, 1]
                with server._lock:
                    assert server.service.inbox.describe()["traces"] == 2
        finally:
            sys.setswitchinterval(switch)
        assert sorted(os.listdir(server.spool_root)) == sorted(
            spool_name("racer", data) for data in (mkdir_bytes, mkfifo_bytes))

    def test_spool_write_failure_never_acks_or_ingests(self, tmp_path,
                                                       mkdir_bytes):
        faults = FaultInjector(FaultSpec(seed=0, spool_fail_rate=1.0))
        with start_server(tmp_path, faults=faults) as server:
            client = UploadClient(server.host, server.port, client_id="d0",
                                  max_attempts=3, base_delay=0.01)
            with pytest.raises(UploadFailed, match="spool-write-failed"):
                client.upload(mkdir_bytes)
            with server._lock:
                assert server.service.inbox.describe()["traces"] == 0
            counters = server.service.registry.snapshot().counters
            assert counters["service.net.spool_write_failures"] == 3

    def test_slow_loris_is_shed_without_harming_others(self, tmp_path,
                                                       mkdir_bytes):
        with start_server(tmp_path, read_timeout_seconds=0.3) as server:
            stalled = socket.create_connection((server.host, server.port),
                                               timeout=5.0)
            stalled.sendall(struct.pack("!I", 1024) + b"dribble")
            healthy = UploadClient(server.host, server.port, client_id="h0")
            receipt = healthy.upload(mkdir_bytes)
            assert receipt.trace_id

            for _ in range(50):
                counters = server.service.registry.snapshot().counters
                if counters.get("service.net.timeouts"):
                    break
                time.sleep(0.1)
            assert counters.get("service.net.timeouts", 0) >= 1
            stalled.close()

    def test_client_fault_injection_recovers_deterministically(
            self, tmp_path, mkdir_bytes):
        # Rates of 1.0 for the first attempts then clean retries would need
        # schedule knowledge; instead give each damage kind a high rate and
        # a generous retry budget -- the seeded schedule is deterministic,
        # so this test never flakes: same seed, same injected sequence.
        faults = FaultInjector(FaultSpec(seed=11, drop_rate=0.5,
                                         truncate_rate=0.5,
                                         corrupt_rate=0.5))
        with start_server(tmp_path) as server:
            client = UploadClient(server.host, server.port, client_id="f0",
                                  seed=11, max_attempts=30,
                                  base_delay=0.005, faults=faults)
            receipt = client.upload(mkdir_bytes)
            assert receipt.trace_id
            assert receipt.attempts > 1
            assert sum(faults.counts().values()) > 0
            with server._lock:
                assert server.service.inbox.describe()["traces"] == 1
                assert server.service.inbox.rejected == {}

    def test_drain_shutdown_answers_new_uploads_retry_after(self, tmp_path,
                                                            mkdir_bytes):
        server = start_server(tmp_path)
        client = UploadClient(server.host, server.port, client_id="s0")
        receipt = client.upload(mkdir_bytes)
        server.shutdown()
        assert receipt.trace_id
        # The acked upload survived the drain: a fresh server on the same
        # root sees it without re-ingesting.
        revived = UploadServer(str(tmp_path / "svc"), config=net_config())
        try:
            assert revived.recovered == []
            assert revived.service.inbox.describe()["traces"] == 1
        finally:
            revived.shutdown()

    def test_drain_returns_only_after_the_ack_is_sent(self, tmp_path,
                                                      mkdir_bytes,
                                                      monkeypatch):
        # Every answer goes out 0.5 s late.  A draining shutdown that began
        # once the upload was ingested must still wait for its ack: the
        # caller may exit the process as soon as shutdown() returns.
        answered = []
        send = UploadServer._best_effort_send

        def late_send(self, conn, status, body):
            time.sleep(0.5)
            send(self, conn, status, body)
            answered.append(time.monotonic())

        monkeypatch.setattr(UploadServer, "_best_effort_send", late_send)
        server = start_server(tmp_path)
        receipts = []
        uploader = threading.Thread(target=lambda: receipts.append(
            UploadClient(server.host, server.port,
                         client_id="late").upload(mkdir_bytes)))
        uploader.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with server._lock:
                if server.service.inbox.describe()["traces"]:
                    break
            time.sleep(0.01)
        server.shutdown()
        drained = time.monotonic()
        uploader.join()
        assert receipts and len(answered) == 1
        assert drained >= answered[0]

    def test_stats_endpoint_reports_rejections_and_faults(self, tmp_path,
                                                          mkdir_bytes):
        with start_server(tmp_path) as server:
            client = UploadClient(server.host, server.port, client_id="st")
            client.upload(mkdir_bytes)
            with pytest.raises(UploadRejected):
                client.upload(b"garbage garbage garbage")
            body = client.stats_remote()
            assert body["stats"]["traces_ingested"] == 1
            assert body["inbox"]["rejected"] == 1
            assert len(body["rejected"]) == 1
            assert body["recovered"] == []


class TestLoadgenFleet:
    """``net_exp.run_fleet``, the engine behind ``python -m repro loadgen``:
    a client fleet over a clean and a damaged network loses no report,
    the rejection ledger absorbs the poison, and every served report
    matches the single-shot search of its trace."""

    @pytest.fixture(scope="class")
    def fleet(self):
        payloads = record_payloads(FLEETS["smoke"], net_config())
        singles = {}
        for workload, data in payloads:
            if workload not in singles:
                pipeline, _environment = workload_pipeline(
                    workload, config=net_config())
                single = pipeline.reproduce_from_trace(load_trace_bytes(data))
                singles[workload] = outcome_fingerprint(single.outcome)
        return payloads, singles

    @pytest.mark.parametrize("fault_spec, poison", [
        (None, 0),
        (FaultSpec(seed=1234, drop_rate=0.2, truncate_rate=0.2,
                   corrupt_rate=0.15, slow_rate=0.1), 2),
    ], ids=["clean", "faulty"])
    def test_fleet_loses_nothing(self, tmp_path, fleet, fault_spec, poison):
        payloads, singles = fleet
        with start_server(tmp_path, read_timeout_seconds=0.3) as server:
            summary = run_fleet(server.host, server.port, payloads,
                                clients=2, fault_spec=fault_spec, seed=7,
                                timeout=0.8, poison=poison)
            assert summary["failed"] == {}
            assert summary["acked"] == summary["uploads"] == len(payloads)
            assert summary["poison_rejected"] == poison
            if fault_spec is not None:
                assert sum(summary["faults_injected"].values()) >= 1
            with server._lock:
                ledgered = [source for source in server.service.inbox.rejected
                            if source.startswith("net:poison:")]
            assert len(ledgered) == poison

            control = UploadClient(server.host, server.port,
                                   client_id="control")
            control.process()
            for index, receipt in summary["receipts"].items():
                assert control.report(receipt.trace_id)["status"] == "done"
                with server._lock:
                    report = server.service.report(receipt.trace_id)
                workload = payloads[index][0]
                assert report.fingerprint() == singles[workload], (
                    f"{workload}: fleet report != single-shot")


class TestServerRestart:
    def test_restart_recovers_committed_but_uningested_spool(self, tmp_path,
                                                             mkdir_bytes):
        # Simulate a crash after the spool write but before the inbox
        # recorded it: the file is durable, inbox.json never saw it.
        server = start_server(tmp_path)
        path = os.path.join(server.spool_root,
                            spool_name("crashed", mkdir_bytes))
        journaled_spool_write(path, mkdir_bytes)
        server.shutdown()

        revived = start_server(tmp_path)
        try:
            assert len(revived.recovered) == 1
            with revived._lock:
                described = revived.service.inbox.describe()
            assert described["traces"] == 1
            # The client's retry of the never-acked upload dedups against
            # the recovered file's cluster instead of double-searching it.
            client = UploadClient(revived.host, revived.port,
                                  client_id="crashed")
            receipt = client.upload(mkdir_bytes)
            assert receipt.duplicate
            processed = client.process()
            assert processed["stats"]["searches_run"] == 1
        finally:
            revived.shutdown()

    def test_upload_is_stored_once_as_its_spool_file(self, tmp_path,
                                                     mkdir_bytes):
        # The spool file is the upload's one durable copy: the inbox
        # records it by path and keeps nothing under traces/.
        server = start_server(tmp_path)
        client = UploadClient(server.host, server.port, client_id="once")
        receipt = client.upload(mkdir_bytes)
        spool_file = os.path.join(server.spool_root,
                                  spool_name("once", mkdir_bytes))
        server.shutdown()
        traces_dir = tmp_path / "svc" / "traces"
        assert list(traces_dir.glob("*.trace")) == []

        revived = start_server(tmp_path)
        try:
            with revived._lock:
                stored = revived.service.inbox.trace_path(receipt.trace_id)
            assert os.path.samefile(stored, spool_file)
            client = UploadClient(revived.host, revived.port,
                                  client_id="once")
            processed = client.process()
            assert processed["stats"]["searches_run"] == 1
            body = client.report(receipt.trace_id)
            assert body["status"] == "done" and body["report"]["reproduced"]
        finally:
            revived.shutdown()
        assert list(traces_dir.glob("*.trace")) == []

    def test_done_clusters_stay_done_across_restart(self, tmp_path,
                                                    mkdir_bytes):
        server = start_server(tmp_path)
        client = UploadClient(server.host, server.port, client_id="r0")
        receipt = client.upload(mkdir_bytes)
        client.process()
        server.shutdown()

        revived = start_server(tmp_path)
        try:
            client = UploadClient(revived.host, revived.port,
                                  client_id="r0")
            body = client.report(receipt.trace_id)
            assert body["status"] == "done"
            # Processing again runs zero new searches: the done cluster
            # keeps its persisted report (searches_run counts only this
            # process's searches, and there were none).
            processed = client.process()
            assert processed["stats"]["searches_run"] == 0
            assert processed["reports"] == {}
            assert processed["stats"]["clusters_done"] == 1
        finally:
            revived.shutdown()
