"""The supervised search fleet: crash recovery, deadlines, quarantine.

The supervisor's contract extends the service's byte-identity guarantee to
a hostile world: replay workers are killed mid-search (deterministic
seeded fault streams) and resume from their last snapshot, searches
overrun deadlines — and every cluster still ends in exactly one of
two loud states: the **identical** report the inline path produces,
or a typed quarantine entry in the rejection ledger.  Silently wrong or
silently missing reports are the two outcomes these tests exist to forbid.
"""

from __future__ import annotations

import os

import pytest

from repro.replay import WorkerCrashError
from repro.service import (
    FaultInjector,
    FaultSpec,
    ReproService,
    SearchDeadlineExceeded,
)
from repro.service import supervisor

from test_service import record_trace_bytes, service_config


@pytest.fixture(scope="module")
def mkdir_bytes() -> bytes:
    return record_trace_bytes("mkdir-bug")


@pytest.fixture(scope="module")
def diff_bytes() -> bytes:
    return record_trace_bytes("diff-exp1")


def _report_identity(report):
    """The explored-set surface of one report (the byte-identity witness)."""

    return (report.found_input, report.runs, report.run_records,
            report.pending_stats, report.crash_site)


def _inline_reports(tmp_path, payloads):
    config = service_config()
    with ReproService(str(tmp_path / "inline"), config=config) as service:
        assert not service._use_supervisor()
        for payload in payloads:
            service.ingest_bytes(payload)
        return service.process()


def _ingest(service, payloads):
    for payload in payloads:
        service.ingest_bytes(payload)


class TestSupervisedByteIdentity:
    def test_supervised_pool_matches_inline(self, tmp_path, mkdir_bytes,
                                            diff_bytes):
        base = _inline_reports(tmp_path, [mkdir_bytes, diff_bytes])
        config = service_config()
        config.service.workers = 2
        config.service.checkpoint_every_runs = 2
        with ReproService(str(tmp_path / "sup"), config=config) as service:
            _ingest(service, [mkdir_bytes, diff_bytes])
            reports = service.process()
            stats = service.stats()
        assert sorted(reports) == sorted(base)
        assert stats["searches_run"] == 2
        for trace_id in base:
            assert reports[trace_id].reproduced
            assert _report_identity(reports[trace_id]) == \
                _report_identity(base[trace_id])

    def test_worker_kills_lose_nothing(self, tmp_path, mkdir_bytes,
                                       diff_bytes, monkeypatch):
        # The acceptance criterion of the fleet design: a seeded storm of
        # worker SIGKILLs, checkpoint-every-commit, bounded restarts —
        # every cluster converges to the identical report, zero lost.
        base = _inline_reports(tmp_path, [mkdir_bytes, diff_bytes])
        config = service_config()
        config.telemetry_enabled = True
        config.service.checkpoint_every_runs = 1
        config.service.max_search_retries = 50
        monkeypatch.setattr(supervisor, "RETRY_BACKOFF_SECONDS", 0.001)
        with ReproService(str(tmp_path / "chaos"), config=config) as service:
            service.search_faults = FaultInjector(
                FaultSpec(seed=7, worker_kill_rate=0.4))
            _ingest(service, [mkdir_bytes, diff_bytes])
            reports = service.process()
            counters = service.telemetry().to_json()["counters"]
        assert counters["service.supervisor.restarts"] >= 1
        assert counters["service.supervisor.resumes"] >= 1
        for trace_id in base:
            assert reports[trace_id].reproduced, reports[trace_id].error
            assert _report_identity(reports[trace_id]) == \
                _report_identity(base[trace_id])
        # Nothing left behind: terminal clusters clear their checkpoints.
        ckdir = os.path.join(str(tmp_path / "chaos"), "checkpoints")
        assert [n for n in os.listdir(ckdir) if n.endswith(".ckpt")] == []

    def test_resumed_search_never_doublecounts(self, tmp_path, mkdir_bytes,
                                               monkeypatch):
        # Telemetry across kill/resume equals the undisturbed run's
        # deterministic view: a killed attempt leaves a snapshot, not a
        # result, so final counters are recorded exactly once.
        config = service_config()
        config.telemetry_enabled = True
        with ReproService(str(tmp_path / "quiet"), config=config) as service:
            _ingest(service, [mkdir_bytes])
            service.process()
            want = {k: v for k, v in
                    service.telemetry().deterministic().to_json()
                    ["counters"].items() if k.startswith("replay.")}
        config2 = service_config()
        config2.telemetry_enabled = True
        config2.service.checkpoint_every_runs = 1
        config2.service.max_search_retries = 50
        monkeypatch.setattr(supervisor, "RETRY_BACKOFF_SECONDS", 0.001)
        with ReproService(str(tmp_path / "storm"), config=config2) as service:
            service.search_faults = FaultInjector(
                FaultSpec(seed=11, worker_kill_rate=0.5))
            _ingest(service, [mkdir_bytes])
            reports = service.process()
            got = {k: v for k, v in
                   service.telemetry().deterministic().to_json()
                   ["counters"].items() if k.startswith("replay.")}
        assert all(r.reproduced for r in reports.values())
        assert got == want


class TestQuarantine:
    def test_unrecoverable_cluster_is_quarantined(self, tmp_path,
                                                  mkdir_bytes, monkeypatch):
        # Kill rate 1.0 with checkpointing disabled: no attempt can make
        # progress, retries exhaust, and the cluster lands in the
        # rejection ledger with a typed reason — never a wrong report.
        config = service_config()
        config.telemetry_enabled = True
        config.service.checkpoint_every_runs = 0
        config.service.max_search_retries = 2
        monkeypatch.setattr(supervisor, "RETRY_BACKOFF_SECONDS", 0.001)
        with ReproService(str(tmp_path / "poison"), config=config) as service:
            service.search_faults = FaultInjector(
                FaultSpec(seed=7, worker_kill_rate=1.0))
            _ingest(service, [mkdir_bytes])
            reports = service.process()
            rejected = dict(service.inbox.rejected)
            counters = service.telemetry().to_json()["counters"]
        (report,) = reports.values()
        assert not report.reproduced
        assert "WorkerCrashError" in report.error
        assert "gave up after 3 attempt(s)" in report.error
        assert any(key.startswith("cluster:") and "WorkerCrashError" in reason
                   for key, reason in rejected.items()), rejected
        assert counters["service.supervisor.quarantined"] == 1
        assert counters["service.supervisor.restarts"] == 2

    def test_corrupt_checkpoint_quarantines_loudly(self, tmp_path,
                                                   mkdir_bytes):
        # A damaged snapshot for a pending cluster must surface as a typed
        # quarantine, not a silent fresh restart (which could mask a
        # torn/tampered store) and never a wrong report.
        config = service_config()
        config.service.checkpoint_every_runs = 1
        with ReproService(str(tmp_path / "torn"), config=config) as service:
            _ingest(service, [mkdir_bytes])
            (cluster_id,) = list(service.inbox.clusters)
            ckdir = os.path.join(service.inbox.root, "checkpoints")
            os.makedirs(ckdir, exist_ok=True)
            with open(os.path.join(ckdir, cluster_id + ".ckpt"), "wb") as fh:
                fh.write(b"REPROCKP" + b"\x00" * 64)
            reports = service.process()
            rejected = dict(service.inbox.rejected)
        (report,) = reports.values()
        assert not report.reproduced
        assert "CheckpointFormatError" in report.error
        assert f"cluster:{cluster_id}" in rejected


class TestDeadlines:
    def test_deadline_is_a_typed_outcome(self, tmp_path, mkdir_bytes):
        config = service_config()
        config.telemetry_enabled = True
        config.service.search_deadline_seconds = 1e-6
        with ReproService(str(tmp_path / "late"), config=config) as service:
            _ingest(service, [mkdir_bytes])
            reports = service.process()
            counters = service.telemetry().to_json()["counters"]
        (report,) = reports.values()
        assert not report.reproduced
        assert SearchDeadlineExceeded.__name__ in report.error
        assert counters["service.supervisor.deadline_exceeded"] == 1
        # Terminal: the failed cluster keeps no checkpoint to resume.
        ckdir = os.path.join(str(tmp_path / "late"), "checkpoints")
        assert [n for n in os.listdir(ckdir) if n.endswith(".ckpt")] == []

    def test_generous_deadline_changes_nothing(self, tmp_path, mkdir_bytes):
        base = _inline_reports(tmp_path, [mkdir_bytes])
        config = service_config()
        config.service.search_deadline_seconds = 300.0
        with ReproService(str(tmp_path / "ontime"), config=config) as service:
            _ingest(service, [mkdir_bytes])
            reports = service.process()
        for trace_id in base:
            assert _report_identity(reports[trace_id]) == \
                _report_identity(base[trace_id])


class TestStartupReconciliation:
    def test_resume_scan_keeps_pending_and_sweeps_stale(self, tmp_path,
                                                        mkdir_bytes):
        config = service_config()
        config.service.checkpoint_every_runs = 1
        with ReproService(str(tmp_path / "svc"), config=config) as service:
            _ingest(service, [mkdir_bytes])
            (cluster_id,) = list(service.inbox.clusters)
            ckdir = os.path.join(service.inbox.root, "checkpoints")
            os.makedirs(ckdir, exist_ok=True)
            live = os.path.join(ckdir, cluster_id + ".ckpt")
            open(live, "wb").close()
            for stale in ("gone.ckpt", "gone.heartbeat", "gone.7.1.result",
                          cluster_id + ".preempt"):
                open(os.path.join(ckdir, stale), "wb").close()
            resumable = service.resume_scan()
            assert resumable == [cluster_id]
            assert os.listdir(ckdir) == [cluster_id + ".ckpt"]


class TestWorkerCrashTyping:
    def test_worker_crash_error_is_exported(self):
        # Satellite contract: the engine-level typed error is reachable
        # from the replay package and is what quarantine reasons carry.
        assert issubclass(WorkerCrashError, RuntimeError)
