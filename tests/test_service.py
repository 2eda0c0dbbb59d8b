"""The service layer: inbox dedup, scheduling, fan-out, restart.

The load-bearing contract is the acceptance criterion of the trace-inbox
design: for a batch of K traces with D distinct ``(fingerprint, crash
site)`` clusters, exactly D replay searches execute, every trace receives a
report, and each report's explored search tree is **byte-identical** to
running that trace alone through ``Pipeline.reproduce_from_trace``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro import InstrumentationMethod, PipelineConfig, ReplayBudget
from repro.service import (
    ReproService,
    TraceInbox,
    UnknownProgramError,
    outcome_fingerprint,
    workload_pipeline,
)
from repro.replay.engine import ReplayEngine
from repro.service import inbox as inbox_module
from repro.service.inbox import TraceTooLargeError
from repro.trace import (
    TraceError,
    TraceFingerprintMismatch,
    dump_trace_bytes,
    load_trace_bytes,
    trace_from_recording,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def service_config() -> PipelineConfig:
    return PipelineConfig(
        backend="vm", replay_budget=ReplayBudget(max_runs=1500,
                                                 max_seconds=60))


def record_trace_bytes(workload: str) -> bytes:
    """One shipped bug report (privacy scaffold) for *workload*, as bytes."""

    pipeline, environment = workload_pipeline(workload,
                                              config=service_config())
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    recording = pipeline.record(plan, environment)
    trace = trace_from_recording(recording, scaffold=True,
                                 program_name=workload)
    return dump_trace_bytes(trace)


@pytest.fixture(scope="module")
def mkdir_bytes() -> bytes:
    return record_trace_bytes("mkdir-bug")


def mismatched_traces(data: bytes) -> dict:
    """Decodable *data* mutants no developer binary matches."""

    trace = load_trace_bytes(data)
    plan = trace.plan
    dropped = sorted(plan.instrumented)[0]
    stranger = dataclasses.replace(dropped, node_id=99999)
    return {
        # The re-derived all-branches plan instruments one more location.
        "missing-location": dataclasses.replace(trace, plan=dataclasses.replace(
            plan, instrumented=plan.instrumented - {dropped})),
        # No plan to re-derive, but the program has no node 99999.
        "unknown-location": dataclasses.replace(trace, plan=dataclasses.replace(
            plan, method=InstrumentationMethod.DYNAMIC.value,
            instrumented=plan.instrumented | {stranger})),
    }


@pytest.fixture(scope="module")
def mkfifo_bytes() -> bytes:
    return record_trace_bytes("mkfifo-bug")


@pytest.fixture(scope="module")
def paste_bytes() -> bytes:
    return record_trace_bytes("paste-bug")


class TestInboxIngestion:
    def test_bytes_cluster_by_fingerprint_and_crash(self, tmp_path,
                                                    mkdir_bytes,
                                                    mkfifo_bytes):
        inbox = TraceInbox(str(tmp_path / "inbox"))
        first = inbox.ingest_bytes(mkdir_bytes)
        dup = inbox.ingest_bytes(mkdir_bytes)
        other = inbox.ingest_bytes(mkfifo_bytes)
        assert not first.duplicate and dup.duplicate and not other.duplicate
        assert first.cluster_id == dup.cluster_id != other.cluster_id
        assert first.trace_id != dup.trace_id
        assert inbox.describe() == {"traces": 3, "clusters": 2, "pending": 2,
                                    "done": 0, "rejected": 0}
        cluster = inbox.cluster_of(first.trace_id)
        assert cluster.members == [first.trace_id, dup.trace_id]
        assert cluster.crash_site == first.crash_site

    def test_spool_polling_skips_seen_and_survives_corruption(
            self, tmp_path, mkdir_bytes, mkfifo_bytes):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "u1.trace").write_bytes(mkdir_bytes)
        (spool / "u2.trace").write_bytes(mkdir_bytes)
        (spool / "u3.trace").write_bytes(mkfifo_bytes)
        (spool / "broken.trace").write_bytes(mkdir_bytes[: len(mkdir_bytes) // 2])
        (spool / "notes.txt").write_text("not a trace")

        inbox = TraceInbox(str(tmp_path / "inbox"))
        results = inbox.poll_spool(str(spool))
        assert len(results) == 3  # .txt ignored, corrupt skipped for now
        # The unparsable file gets one grace poll (it could be mid-write);
        # unchanged on the second poll, it is rejected for good.
        assert len(inbox.rejected) == 0
        assert inbox.poll_spool(str(spool)) == []
        assert len(inbox.rejected) == 1
        reason = next(iter(inbox.rejected.values()))
        assert "TraceFormatError" in reason and "\n" not in reason
        # Re-polling ingests nothing new (including the rejected file).
        assert inbox.poll_spool(str(spool)) == []
        assert inbox.describe()["traces"] == 3

    def test_state_persists_across_restart(self, tmp_path, mkdir_bytes,
                                           mkfifo_bytes):
        root = str(tmp_path / "inbox")
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "a.trace").write_bytes(mkdir_bytes)
        (spool / "b.trace").write_bytes(mkfifo_bytes)
        first = TraceInbox(root)
        assert len(first.poll_spool(str(spool))) == 2
        # A fresh instance on the same root resumes, not restarts.
        reborn = TraceInbox(root)
        assert reborn.poll_spool(str(spool)) == []
        assert reborn.describe()["traces"] == 2
        assert {c.cluster_id for c in reborn.clusters.values()} \
            == {c.cluster_id for c in first.clusters.values()}
        # The stored copies survive too.
        for trace_id in reborn.traces:
            assert os.path.exists(reborn.trace_path(trace_id))

    def test_priority_orders(self, tmp_path, mkdir_bytes, paste_bytes):
        inbox = TraceInbox(str(tmp_path / "inbox"))
        big = inbox.ingest_bytes(mkdir_bytes)   # more bits
        small = inbox.ingest_bytes(paste_bytes)  # fewer bits, later arrival
        assert big.bits > small.bits
        smallest = [c.cluster_id for c in inbox.pending_clusters()]
        assert smallest == [small.cluster_id, big.cluster_id]


class TestServiceProcessing:
    def _loaded_service(self, tmp_path, batches) -> tuple:
        service = ReproService(str(tmp_path / "inbox"),
                               config=service_config())
        ingested = []
        for data, copies in batches:
            for _ in range(copies):
                ingested.append(service.ingest_bytes(data))
        return service, ingested

    def test_dedup_is_semantics_preserving(self, tmp_path, mkdir_bytes,
                                           mkfifo_bytes):
        """K traces, D clusters -> exactly D searches; every report is
        byte-identical to the single-shot path for its trace."""

        service, ingested = self._loaded_service(
            tmp_path, [(mkdir_bytes, 3), (mkfifo_bytes, 2)])
        reports = service.process()
        stats = service.stats()
        assert stats["searches_run"] == 2  # D = 2 for K = 5
        assert stats["reports_fanned_out"] == 5
        assert set(reports) == {r.trace_id for r in ingested}

        singles = {}
        for data, workload in ((mkdir_bytes, "mkdir-bug"),
                               (mkfifo_bytes, "mkfifo-bug")):
            pipeline, _env = workload_pipeline(workload,
                                               config=service_config())
            from repro.trace import load_trace_bytes

            outcome = pipeline.reproduce_from_trace(
                load_trace_bytes(data)).outcome
            singles[workload] = outcome_fingerprint(outcome)
        for report in reports.values():
            assert report.reproduced
            assert report.fingerprint() == singles[report.program], \
                f"{report.trace_id} diverged from the single-shot search"
        assert stats["dedup_ratio"] == 2.5

    def test_multi_worker_batch_matches_inline(self, tmp_path, mkdir_bytes,
                                               mkfifo_bytes):
        """service.workers > 1 (supervised child processes, no other knob
        set) explores the same trees the inline scheduler does."""

        inline_service, _ = self._loaded_service(
            tmp_path / "inline", [(mkdir_bytes, 1), (mkfifo_bytes, 1)])
        inline = inline_service.process()

        config = service_config()
        config.service.workers = 2
        multi_service = ReproService(str(tmp_path / "multi"), config=config)
        assert multi_service._use_supervisor()
        multi_ids = [multi_service.ingest_bytes(data).trace_id
                     for data in (mkdir_bytes, mkfifo_bytes)]
        with multi_service:
            multi = multi_service.process()
        assert multi_service.stats()["searches_run"] == 2
        inline_prints = sorted(r.fingerprint() for r in inline.values())
        multi_prints = sorted(multi[tid].fingerprint() for tid in multi_ids)
        assert multi_prints == inline_prints

    def test_reports_are_read_back_per_trace(self, tmp_path, mkdir_bytes,
                                             mkfifo_bytes):
        service = ReproService(str(tmp_path / "inbox"),
                               config=service_config())
        a1 = service.ingest_bytes(mkdir_bytes)
        a2 = service.ingest_bytes(mkdir_bytes)
        b1 = service.ingest_bytes(mkfifo_bytes)
        assert service.report(a1.trace_id) is None  # nothing processed yet
        service.process()
        mine = {trace_id: service.report(trace_id)
                for trace_id in (a1.trace_id, a2.trace_id)}
        assert all(r.reproduced for r in mine.values())
        assert mine[a2.trace_id].duplicate_of == a1.trace_id
        assert service.report(b1.trace_id).program == "mkfifo-bug"

    def test_reports_survive_restart(self, tmp_path, mkdir_bytes):
        root = str(tmp_path / "inbox")
        service = ReproService(root, config=service_config())
        trace_id = service.ingest_bytes(mkdir_bytes).trace_id
        report = service.process()[trace_id]
        reborn = ReproService(root, config=service_config())
        restored = reborn.report(trace_id)
        assert restored is not None
        assert restored.fingerprint() == report.fingerprint()
        # Nothing pending: a restarted service re-runs no searches.
        assert reborn.process() == {}
        assert reborn.stats()["searches_run"] == 0
        # The search counters travel with the report, outside its identity.
        assert (restored.vm_steps, restored.repairs, restored.stop_reason) \
            == (report.vm_steps, report.repairs, "reproduced")
        assert report.vm_steps > 0

    def test_pretty_printed_state_still_loads(self, tmp_path, mkdir_bytes):
        """State files from before the compact encoding (indented, and
        without the search counters on their reports) load unchanged, and
        so do both layouts of a root written before the operation log: a
        version-1 ``inbox.json`` and no ``inbox.log``."""

        root = str(tmp_path / "inbox")
        service = ReproService(root, config=service_config())
        trace_id = service.ingest_bytes(mkdir_bytes).trace_id
        report = service.process()[trace_id]
        # One ingest and one commit are two log records; a compaction
        # writes the snapshot.
        service.inbox._compact()
        path = os.path.join(root, "inbox.json")
        with open(path) as handle:
            text = handle.read()
        assert "\n" not in text  # written compact
        payload = json.loads(text)
        assert payload["last_record"] == 2
        for cluster in payload["clusters"].values():
            for key in ("vm_steps", "repairs", "repair_blocked",
                        "stop_reason"):
                cluster["report"].pop(key)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        restored = ReproService(root, config=service_config()).report(trace_id)
        assert restored.fingerprint() == report.fingerprint()
        assert (restored.vm_steps, restored.repairs, restored.repair_blocked,
                restored.stop_reason) == (0, 0, {}, "")

        del payload["last_record"]
        payload["version"] = 1
        os.remove(os.path.join(root, "inbox.log"))
        for indent in (None, 2):
            with open(path, "w") as handle:
                json.dump(payload, handle, indent=indent, sort_keys=True)
            reborn = ReproService(root, config=service_config())
            assert reborn.report(trace_id).fingerprint() == report.fingerprint()
            assert reborn.process() == {}

    def test_unknown_program_fails_cluster_not_service(self, tmp_path,
                                                       mkdir_bytes):
        # Ingest resolves every program name, so a program can only be
        # unknown at process time when the service restarts without it.
        from repro import Pipeline
        from repro.workloads import fibonacci

        pipeline = Pipeline.from_source(fibonacci.SOURCE, name="mystery",
                                        config=service_config())
        plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES)
        recording = pipeline.record(plan, fibonacci.scenario_b())
        stray = dump_trace_bytes(trace_from_recording(
            recording, program_name="mystery"))

        root = str(tmp_path / "inbox")
        stray_id = ReproService(
            root, config=service_config(),
            programs={"mystery": fibonacci.SOURCE}).ingest_bytes(
                stray).trace_id
        service = ReproService(root, config=service_config())
        good_id = service.ingest_bytes(mkdir_bytes).trace_id
        reports = service.process()
        assert reports[good_id].reproduced
        assert not reports[stray_id].reproduced
        assert "mystery" in reports[stray_id].error
        assert service.inbox.cluster_of(stray_id).status == "failed"

    def test_unknown_program_rejected_at_ingest(self, tmp_path, mkdir_bytes):
        """A decodable trace naming no registered program is rejected at
        ingest like a corrupt one, and no search ever runs for it."""

        renamed = dump_trace_bytes(dataclasses.replace(
            load_trace_bytes(mkdir_bytes), program_name="no-such-program"))
        service = ReproService(str(tmp_path / "inbox"),
                               config=service_config())
        with pytest.raises(UnknownProgramError, match="no-such-program"):
            service.ingest_bytes(renamed)
        path = tmp_path / "renamed.trace"
        path.write_bytes(renamed)
        with pytest.raises(UnknownProgramError):
            service.ingest_file(str(path))

        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "renamed.trace").write_bytes(renamed)
        assert service.poll_spool(str(spool)) == []  # the grace poll
        assert service.poll_spool(str(spool)) == []
        [(source, reason)] = service.inbox.rejected.items()
        assert source.endswith("renamed.trace")
        assert reason.startswith("UnknownProgramError:")
        counters = service.registry.snapshot().counters
        assert counters["service.rejected.UnknownProgramError"] == 1

        assert service.process() == {}
        assert service.stats()["searches_run"] == 0
        assert service.inbox.describe()["traces"] == 0

    def test_uncompilable_program_rejected_at_ingest(self, tmp_path,
                                                     mkdir_bytes):
        """A program whose resolved source does not parse, or whose resolver
        raises, is rejected like an unknown one: the spool files after it
        still ingest, and the next poll does not raise again."""

        def resolver(name):
            if name == "broken":
                return "int main( {", ()
            if name == "exploding":
                raise RuntimeError("resolver backend down")
            return None

        def renamed(name):
            return dump_trace_bytes(dataclasses.replace(
                load_trace_bytes(mkdir_bytes), program_name=name))

        service = ReproService(str(tmp_path / "inbox"),
                               config=service_config(), resolver=resolver)
        with pytest.raises(UnknownProgramError, match="ParseError"):
            service.ingest_bytes(renamed("broken"))
        with pytest.raises(UnknownProgramError, match="resolver backend down"):
            service.ingest_bytes(renamed("exploding"))

        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "a-broken.trace").write_bytes(renamed("broken"))
        (spool / "b-exploding.trace").write_bytes(renamed("exploding"))
        (spool / "c-good.trace").write_bytes(mkdir_bytes)
        [good] = service.poll_spool(str(spool))  # the grace poll
        assert service.poll_spool(str(spool)) == []
        assert service.poll_spool(str(spool)) == []
        reasons = {os.path.basename(source): reason
                   for source, reason in service.inbox.rejected.items()}
        assert sorted(reasons) == ["a-broken.trace", "b-exploding.trace"]
        assert all(reason.startswith("UnknownProgramError:")
                   for reason in reasons.values())
        counters = service.registry.snapshot().counters
        assert counters["service.rejected.UnknownProgramError"] == 2

        reports = service.process()
        assert list(reports) == [good.trace_id]
        assert reports[good.trace_id].reproduced
        assert service.stats()["searches_run"] == 1

    def test_mismatched_binaries_rejected_at_ingest(self, tmp_path,
                                                    mkdir_bytes):
        """A decodable trace recorded from a different binary is rejected on
        arrival with the error its search would have failed with, and is
        never searched."""

        mutants = {name: dump_trace_bytes(trace) for name, trace
                   in mismatched_traces(mkdir_bytes).items()}
        service = ReproService(str(tmp_path / "inbox"),
                               config=service_config())
        with pytest.raises(TraceFingerprintMismatch,
                           match="differently instrumented"):
            service.ingest_bytes(mutants["missing-location"])
        path = tmp_path / "unknown.trace"
        path.write_bytes(mutants["unknown-location"])
        with pytest.raises(TraceFingerprintMismatch,
                           match="does not have"):
            service.ingest_file(str(path))

        spool = tmp_path / "spool"
        spool.mkdir()
        for name, data in mutants.items():
            (spool / f"{name}.trace").write_bytes(data)
        (spool / "z-good.trace").write_bytes(mkdir_bytes)
        [good] = service.poll_spool(str(spool))  # the grace poll
        assert service.poll_spool(str(spool)) == []
        reasons = sorted(service.inbox.rejected.values())
        assert len(reasons) == 2 and all(
            reason.startswith("TraceFingerprintMismatch:") for reason in reasons)
        counters = service.registry.snapshot().counters
        assert counters["service.rejected.TraceFingerprintMismatch"] == 2
        assert list(service.process()) == [good.trace_id]
        assert service.stats()["searches_run"] == 1

    def test_loop_exit_outside_a_loop_rejected_at_ingest(self, tmp_path,
                                                         mkdir_bytes):
        renamed = dump_trace_bytes(dataclasses.replace(
            load_trace_bytes(mkdir_bytes), program_name="stray-break"))
        service = ReproService(
            str(tmp_path / "inbox"), config=service_config(),
            programs={"stray-break": "int main() {\n  break;\n}"})
        with pytest.raises(UnknownProgramError,
                           match=r"SemanticError: 'break' outside a loop "
                                 r"\(line 2\)"):
            service.ingest_bytes(renamed)
        assert service.inbox.describe()["traces"] == 0

    def test_poison_search_fails_only_its_cluster(self, tmp_path, mkdir_bytes,
                                                  mkfifo_bytes, monkeypatch):
        """A search that raises fails its own cluster — typed error report,
        rejection-ledger entry — while the cluster searched before it stays
        committed, and the next process() call returns normally."""

        service, ingested = self._loaded_service(
            tmp_path, [(mkdir_bytes, 1), (mkfifo_bytes, 1)])
        poison = service.inbox.cluster_of(ingested[0].trace_id)
        healthy = service.inbox.cluster_of(ingested[1].trace_id)
        order = [c.cluster_id for c in service.inbox.pending_clusters()]
        assert order == [healthy.cluster_id, poison.cluster_id]
        engine_for = service._engine_for

        def poisoned_engine_for(cluster):
            engine = engine_for(cluster)
            if cluster.cluster_id == poison.cluster_id:
                def explode():
                    raise RecursionError("maximum recursion depth exceeded")
                engine.reproduce = explode
            return engine

        monkeypatch.setattr(service, "_engine_for", poisoned_engine_for)
        reports = service.process()
        assert reports[ingested[1].trace_id].reproduced
        failed = reports[ingested[0].trace_id]
        assert not failed.reproduced
        assert failed.error.startswith("RecursionError: ")
        assert service.inbox.cluster_of(ingested[0].trace_id).status == "failed"
        assert service.inbox.rejected[f"cluster:{poison.cluster_id}"] \
            .startswith("RecursionError: ")
        assert service.process() == {}
        stats = service.stats()
        assert stats["clusters_done"] == 1
        assert stats["searches_run"] == 1

    @pytest.mark.parametrize("supervised", [False, True],
                             ids=["inline", "supervised"])
    def test_failed_search_leaves_the_same_record_either_way(
            self, tmp_path, mkdir_bytes, mkfifo_bytes, monkeypatch,
            supervised):
        """A search that raises ends its cluster with the search's own
        error, one ledger entry and one ``service.rejected.<Type>`` count,
        whether it ran inline or in a supervised worker.  The worker is
        forked, so the class-level patch reaches it."""

        reproduce = ReplayEngine.reproduce

        def poisoned(engine):
            if engine.program.name == "mkdir-bug":
                raise RecursionError("maximum recursion depth exceeded")
            return reproduce(engine)

        monkeypatch.setattr(ReplayEngine, "reproduce", poisoned)
        config = service_config()
        if supervised:
            config.service.checkpoint_every_runs = 1
        service = ReproService(str(tmp_path / "inbox"), config=config)
        assert service._use_supervisor() == supervised
        poison = service.ingest_bytes(mkdir_bytes)
        healthy = service.ingest_bytes(mkfifo_bytes)
        reports = service.process()
        assert reports[healthy.trace_id].reproduced
        error = "RecursionError: maximum recursion depth exceeded"
        assert reports[poison.trace_id].error == error
        assert service.inbox.rejected == {f"cluster:{poison.cluster_id}": error}
        counters = service.registry.snapshot().counters
        assert counters["service.rejected.RecursionError"] == 1
        assert counters["service.failed_clusters"] == 1

    def test_same_bug_different_recordings_search_separately(self, tmp_path):
        """Two users hit the *same* bug with *different* inputs: the traces
        share a bug key but are not equivalent recordings, so each gets its
        own search — and each report stays byte-identical to that trace's
        own single-shot path (the dedup contract, unconditionally)."""

        from repro.trace import load_trace_bytes

        exp1 = record_trace_bytes("diff-exp1")
        exp2 = record_trace_bytes("diff-exp2")
        service = ReproService(str(tmp_path / "inbox"),
                               config=service_config())
        r1 = service.ingest_bytes(exp1)
        r2 = service.ingest_bytes(exp2)
        assert r1.bug_key == r2.bug_key          # same (fingerprint, crash)
        assert r1.cluster_id != r2.cluster_id    # different recordings
        assert not r2.duplicate
        reports = service.process()
        assert service.stats()["searches_run"] == 2
        for data, workload, result in ((exp1, "diff-exp1", r1),
                                       (exp2, "diff-exp2", r2)):
            pipeline, _env = workload_pipeline(workload,
                                               config=service_config())
            single = pipeline.reproduce_from_trace(load_trace_bytes(data))
            assert reports[result.trace_id].fingerprint() \
                == outcome_fingerprint(single.outcome)

    def test_smallest_search_dispatches_first(self, tmp_path, mkdir_bytes,
                                              paste_bytes):
        service = ReproService(str(tmp_path / "inbox"),
                               config=service_config())
        big = service.ingest_bytes(mkdir_bytes)
        small = service.ingest_bytes(paste_bytes)
        order = [c.cluster_id for c in service.inbox.pending_clusters()]
        assert order == [small.cluster_id, big.cluster_id]
        reports = service.process(max_clusters=1)
        # Only the smallest cluster ran.
        assert set(reports) == {small.trace_id}
        assert service.inbox.cluster_of(big.trace_id).status == "pending"
        # A negative cap would slice off the last clusters instead.
        with pytest.raises(ValueError, match="max_clusters"):
            service.process(max_clusters=-1)
        assert service.inbox.cluster_of(big.trace_id).status == "pending"


class TestInboxLog:
    """The inbox's state is a snapshot plus an operation log: whatever the
    live service did, a service reopened on its root holds the same state."""

    @staticmethod
    def _state(service):
        inbox = service.inbox
        return (inbox.traces,
                {cid: cluster.to_json()
                 for cid, cluster in inbox.clusters.items()},
                inbox.spooled, list(inbox.rejected.items()))

    def test_reopened_service_matches_the_live_one(
            self, tmp_path, monkeypatch, mkdir_bytes, mkfifo_bytes,
            paste_bytes):
        # Compact whenever the log outgrows the snapshot, however small.
        monkeypatch.setattr(inbox_module, "_COMPACT_FLOOR", 0)
        root = str(tmp_path / "inbox")
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "u1.trace").write_bytes(paste_bytes)
        (spool / "broken.trace").write_bytes(b"not a trace")
        live = ReproService(root, config=service_config())
        for data in (mkdir_bytes, mkdir_bytes, mkfifo_bytes):
            live.ingest_bytes(data)
        assert len(live.poll_spool(str(spool))) == 1
        assert live.poll_spool(str(spool)) == []  # rejects broken.trace
        reports = live.process()
        assert len(reports) == 4
        # More rejections than the ledger holds, not in name order: the
        # reopened ledger keeps the same newest 256, oldest first.
        for index in range(300):
            live.inbox.reject(f"net:c{index * 7919 % 1000:03d}",
                              TraceTooLargeError("too big"))
        assert len(live.inbox.rejected) == live.inbox.max_rejected == 256
        live.ingest_bytes(mkfifo_bytes)

        log_path = os.path.join(root, "inbox.log")
        with open(os.path.join(root, "inbox.json")) as handle:
            covered = json.load(handle)["last_record"]
        with open(log_path, "rb") as handle:
            records = [json.loads(line) for line in handle]
        assert covered > 0 and records  # compacted, with records after it
        assert [r["n"] for r in records] == list(
            range(covered + 1, covered + 1 + len(records)))
        # An append cut short by a crash: bytes after the last newline.
        with open(log_path, "ab") as handle:
            handle.write(b'{"n":%d,"op":"rej' % (records[-1]["n"] + 1))

        reborn = ReproService(root, config=service_config())
        assert self._state(reborn) == self._state(live)
        assert len(reborn.inbox.rejected) == 256
        for trace_id, report in reports.items():
            assert reborn.report(trace_id).fingerprint() == \
                report.fingerprint()
        assert reborn.process() == {}
        assert reborn.poll_spool(str(spool)) == []

        # The next append overwrites the torn record: every line parses.
        reborn.inbox.reject("net:last", TraceTooLargeError("too big"))
        with open(log_path, "rb") as handle:
            text = handle.read()
        assert text.endswith(b"\n")
        assert [json.loads(line)["n"] for line in text.splitlines()] == \
            [r["n"] for r in records] + [records[-1]["n"] + 1]
        assert self._state(ReproService(root, config=service_config())) \
            == self._state(reborn)

    def test_compaction_cut_short_applies_nothing_twice(self, tmp_path,
                                                        mkdir_bytes,
                                                        mkfifo_bytes):
        root = str(tmp_path / "inbox")
        live = ReproService(root, config=service_config())
        live.ingest_bytes(mkdir_bytes)
        live.process()
        log_path = os.path.join(root, "inbox.log")
        with open(log_path, "rb") as handle:
            stale = handle.read()
        live.inbox._compact()
        # A crash between the snapshot's rename and the log's truncation
        # leaves the records the snapshot already covers.
        with open(log_path, "wb") as handle:
            handle.write(stale)
        reborn = ReproService(root, config=service_config())
        assert self._state(reborn) == self._state(live)
        reborn.ingest_bytes(mkfifo_bytes)
        assert self._state(ReproService(root, config=service_config())) \
            == self._state(reborn)

    @pytest.mark.parametrize("compact_floor", [None, 0])
    def test_a_second_writer_is_a_typed_error(self, tmp_path, monkeypatch,
                                              compact_floor):
        # Two inboxes on one root each append after their own idea of the
        # log's end, so one's record would overwrite the other's; at a
        # floor of 0 every append compacts, rewriting the snapshot and
        # emptying the log under the other inbox instead.
        if compact_floor is not None:
            monkeypatch.setattr(inbox_module, "_COMPACT_FLOOR", compact_floor)
        root = str(tmp_path / "inbox")
        first = ReproService(root, config=service_config())
        second = ReproService(root, config=service_config())
        first.inbox.reject("net:a", TraceTooLargeError("too big"))
        with pytest.raises(TraceError, match="another writer"):
            second.inbox.reject("net:b", TraceTooLargeError("too big"))
        assert second.inbox.rejected == {}
        first.inbox.reject("net:c", TraceTooLargeError("too big"))
        reloaded = ReproService(root, config=service_config())
        assert list(reloaded.inbox.rejected) == ["net:a", "net:c"]

    @pytest.mark.parametrize("damage", ["unreadable", "renumbered",
                                        "wrong-type", "unknown-cluster"])
    def test_damaged_record_is_a_typed_error(self, tmp_path, mkdir_bytes,
                                             mkfifo_bytes, damage):
        root = str(tmp_path / "inbox")
        service = ReproService(root, config=service_config())
        service.ingest_bytes(mkdir_bytes)
        service.ingest_bytes(mkfifo_bytes)
        service.inbox.reject("net:x", TraceTooLargeError("too big"))
        log_path = os.path.join(root, "inbox.log")
        with open(log_path, "rb") as handle:
            lines = handle.read().split(b"\n")
        record = json.loads(lines[1])
        if damage == "unreadable":
            lines[1] = lines[1][:-5]
        elif damage == "renumbered":
            record["n"] = 7
        elif damage == "wrong-type":
            record["entry"]["file"] = 3
        else:
            record["entry"]["cluster"] = "nowhere"
        if damage != "unreadable":
            lines[1] = json.dumps(record).encode("utf-8")
        with open(log_path, "wb") as handle:
            handle.write(b"\n".join(lines))
        with pytest.raises(TraceError, match=r"inbox\.log: record 2"):
            ReproService(root, config=service_config())


class TestServeBatchCli:
    def test_spooled_duplicates_cost_one_search(self, tmp_path):
        """The CI smoke shape: 3 spooled traces (2 duplicates) -> exactly 2
        replay searches, asserted on the CLI's stats line."""

        tool = os.path.join(REPO_ROOT, "scripts", "trace_tool.py")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        spool = tmp_path / "spool"
        spool.mkdir()
        record = subprocess.run(
            [sys.executable, tool, "record", "--workload", "mkdir-bug",
             "--out", str(spool / "u1.trace")],
            capture_output=True, text=True, env=env, timeout=120)
        assert record.returncode == 0, record.stderr
        (spool / "u2.trace").write_bytes((spool / "u1.trace").read_bytes())
        record = subprocess.run(
            [sys.executable, tool, "record", "--workload", "mkfifo-bug",
             "--out", str(spool / "u3.trace")],
            capture_output=True, text=True, env=env, timeout=120)
        assert record.returncode == 0, record.stderr

        serve = subprocess.run(
            [sys.executable, tool, "serve-batch",
             "--root", str(tmp_path / "inbox"), "--spool", str(spool)],
            capture_output=True, text=True, env=env, timeout=300)
        assert serve.returncode == 0, serve.stdout + serve.stderr
        stats_line = [line for line in serve.stdout.splitlines()
                      if line.startswith("stats=")]
        assert stats_line, serve.stdout
        stats = json.loads(stats_line[0][len("stats="):])
        assert stats["traces_ingested"] == 3
        assert stats["searches_run"] == 2
        assert stats["reports_fanned_out"] == 3
        assert stats["reproduced_clusters"] == 2
        assert serve.stdout.count("report t") == 3
        assert "via=" in serve.stdout  # the duplicate rode along

    def test_serve_searches_under_the_budget_of_serve_batch_and_replay(
            self, monkeypatch):
        from repro.service import cli

        budgets = {}

        def capture(command):
            def handler(args):
                budgets[command] = cli.build_config(args).replay_budget
                return 0
            return handler

        for command in ("serve", "serve_batch", "replay"):
            monkeypatch.setattr(cli, f"cmd_{command}", capture(command))
        assert cli.main(["serve", "--root", "svc"]) == 0
        assert cli.main(["serve-batch", "--root", "inbox"]) == 0
        assert cli.main(["replay", "--trace", "t.trace",
                         "--workload", "mkdir-bug"]) == 0
        assert budgets["serve"] == budgets["serve_batch"] \
            == budgets["replay"] == ReplayBudget(max_runs=3000,
                                                 max_seconds=120.0)

    def test_stats_on_missing_root_is_an_error(self, tmp_path, capsys,
                                               mkdir_bytes):
        from repro.service.cli import main as cli_main

        missing = tmp_path / "typo"
        assert cli_main(["stats", "--root", str(missing)]) == 2
        assert capsys.readouterr().err.strip() == \
            f"error: no service state at {missing}"
        assert not missing.exists()  # a typo creates nothing

        root = tmp_path / "inbox"
        ReproService(str(root), config=service_config()).ingest_bytes(
            mkdir_bytes)
        assert cli_main(["stats", "--root", str(root), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out.splitlines()[0])
        assert stats["traces_ingested"] == 1
        assert "dedup_ratio" not in stats

    def test_negative_max_clusters_is_a_usage_error(self, tmp_path, capsys,
                                                    mkdir_bytes):
        from repro.service.cli import main as cli_main

        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "u1.trace").write_bytes(mkdir_bytes)
        root = tmp_path / "inbox"
        with pytest.raises(SystemExit) as exited:
            cli_main(["serve-batch", "--root", str(root), "--spool",
                      str(spool), "--max-clusters", "-1"])
        assert exited.value.code == 2
        assert "--max-clusters" in capsys.readouterr().err
        assert not root.exists()  # refused before anything is ingested

    def test_module_entry_point_lists_workloads(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        listed = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, env=env, timeout=120)
        assert listed.returncode == 0, listed.stderr
        assert "mkdir-bug" in listed.stdout.split()
