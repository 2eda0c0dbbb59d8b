"""Checkpoint/resume at the engine level: byte-identity from any boundary.

The load-bearing contract of the checkpoint subsystem: a search preempted
at an **arbitrary** commit boundary and resumed from its snapshot explores
exactly the search tree the uninterrupted run explores — same explored
set, same found input, same run records, same deterministic telemetry.
This holds by construction (serial pop-order commit discipline: the
(pending, outcome) pair at a commit boundary fully determines the rest of
the search), and these tests pin the construction down for every boundary
of several differential-testing workloads.

Corruption is the other half: a damaged snapshot must surface as a loud
typed :class:`CheckpointFormatError`, never as a silently wrong resume.
"""

from __future__ import annotations

import dataclasses
import os
import struct

import pytest

from repro import InstrumentationMethod, PipelineConfig, ReplayBudget
from repro.replay import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointPolicy,
    ReplayEngine,
    load_checkpoint,
    save_checkpoint,
)
from repro.replay.checkpoint import (
    SearchCheckpoint,
    dump_checkpoint_bytes,
    load_checkpoint_bytes,
)
from repro.service import FaultSpec, outcome_fingerprint, workload_pipeline
from repro.trace import trace_from_recording


def _record(workload: str):
    """``(pipeline, trace)`` for one recorded crash of *workload*."""

    pipeline, environment = workload_pipeline(
        workload, config=PipelineConfig(backend="vm"))
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    recording = pipeline.record(plan, environment)
    return pipeline, trace_from_recording(recording, scaffold=True,
                                          program_name=workload)


def _engine(pipeline, trace, **kwargs):
    kwargs.setdefault("budget", ReplayBudget(max_runs=1500, max_seconds=60))
    return ReplayEngine.from_trace(pipeline.program, trace, **kwargs)


@pytest.fixture(scope="module")
def mkdir_case():
    return _record("mkdir-bug")


@pytest.fixture(scope="module")
def diff_case():
    return _record("diff-exp1")


class TestSnapshotCodec:
    def test_roundtrip_preserves_every_field(self, tmp_path, mkdir_case):
        pipeline, trace = mkdir_case
        engine = _engine(pipeline, trace)
        path = str(tmp_path / "probe.ckpt")
        engine.attach_checkpointing(
            CheckpointPolicy(path=path, preempt_after_commits=1))
        paused = engine.reproduce()
        assert paused.preempted and paused.committed_items == 1

        ckpt = load_checkpoint(path)
        again = str(tmp_path / "again.ckpt")
        save_checkpoint(again, ckpt)
        reread = load_checkpoint(again)
        assert reread.commits == ckpt.commits == 1
        assert reread.elapsed_seconds == ckpt.elapsed_seconds
        # 0.001014 s is 1013.99... us in binary floating point: the
        # microsecond encoding must round, or a re-save loses a microsecond.
        odd = str(tmp_path / "odd.ckpt")
        save_checkpoint(odd, dataclasses.replace(ckpt, elapsed_seconds=0.001014))
        assert load_checkpoint(odd).elapsed_seconds == 0.001014
        # PendingItem carries ConstraintSet (identity equality); compare
        # the structural surface here and bytes below.
        assert len(reread.pending_items) == len(ckpt.pending_items)
        assert [(i.hint, i.depth, i.origin_run, i.reason)
                for i in reread.pending_items] == \
               [(i.hint, i.depth, i.origin_run, i.reason)
                for i in ckpt.pending_items]
        assert reread.seen_signatures == ckpt.seen_signatures
        assert (reread.dropped, reread.duplicates) == (ckpt.dropped,
                                                       ckpt.duplicates)
        # The contract that matters: resuming from the re-saved copy is
        # indistinguishable from resuming from the original.
        a = ReplayEngine.from_checkpoint(path).reproduce()
        b = ReplayEngine.from_checkpoint(again).reproduce()
        assert outcome_fingerprint(a) == outcome_fingerprint(b)

    def test_bytes_roundtrip_without_filesystem(self, mkdir_case, tmp_path):
        pipeline, trace = mkdir_case
        engine = _engine(pipeline, trace)
        path = str(tmp_path / "probe.ckpt")
        engine.attach_checkpointing(
            CheckpointPolicy(path=path, preempt_after_commits=1))
        engine.reproduce()
        ckpt = load_checkpoint(path)
        assert isinstance(ckpt, SearchCheckpoint)
        reread = load_checkpoint_bytes(dump_checkpoint_bytes(ckpt))
        assert reread.commits == ckpt.commits
        assert len(reread.pending_items) == len(ckpt.pending_items)
        assert reread.seen_signatures == ckpt.seen_signatures


class TestResumeByteIdentity:
    @pytest.mark.parametrize("workload", ["mkdir-bug", "mkfifo-bug",
                                          "paste-bug", "diff-exp1"])
    def test_resume_from_every_commit_boundary(self, tmp_path, workload):
        pipeline, trace = _record(workload)
        baseline = _engine(pipeline, trace).reproduce()
        assert baseline.reproduced
        want = outcome_fingerprint(baseline)
        boundaries = baseline.committed_items
        assert boundaries >= 2, "workload too small to exercise resume"

        for cut in range(1, boundaries):
            path = str(tmp_path / f"{workload}.{cut}.ckpt")
            engine = _engine(pipeline, trace)
            engine.attach_checkpointing(
                CheckpointPolicy(path=path, preempt_after_commits=cut))
            paused = engine.reproduce()
            assert paused.preempted and not paused.reproduced
            assert paused.committed_items == cut
            assert os.path.exists(path)

            resumed = ReplayEngine.from_checkpoint(path).reproduce()
            assert resumed.reproduced and resumed.resumed
            assert outcome_fingerprint(resumed) == want, (
                f"{workload}: resume at commit {cut} diverged")
            assert resumed.committed_items == boundaries

    def test_resume_merges_telemetry_deterministically(self, tmp_path,
                                                       diff_case):
        pipeline, trace = diff_case
        baseline = _engine(pipeline, trace, telemetry=True).reproduce()
        assert baseline.reproduced and baseline.telemetry is not None
        want = baseline.telemetry.deterministic().canonical_bytes()

        cut = baseline.committed_items // 2
        path = str(tmp_path / "mid.ckpt")
        engine = _engine(pipeline, trace, telemetry=True)
        engine.attach_checkpointing(
            CheckpointPolicy(path=path, preempt_after_commits=cut))
        paused = engine.reproduce()
        # A pause is not a result: the preempted run records none of the
        # final outcome counters, so the resumed run counts them exactly
        # once and the merged registry equals the uninterrupted one.
        assert paused.preempted

        resumed = ReplayEngine.from_checkpoint(path).reproduce()
        assert outcome_fingerprint(resumed) == outcome_fingerprint(baseline)
        assert resumed.telemetry.deterministic().canonical_bytes() == want


class TestCorruption:
    def _checkpoint(self, tmp_path, case) -> str:
        pipeline, trace = case
        path = str(tmp_path / "victim.ckpt")
        engine = _engine(pipeline, trace)
        engine.attach_checkpointing(
            CheckpointPolicy(path=path, preempt_after_commits=1))
        engine.reproduce()
        return path

    def test_bad_magic_is_typed(self, tmp_path, mkdir_case):
        path = self._checkpoint(tmp_path, mkdir_case)
        data = bytearray(open(path, "rb").read())
        data[:8] = b"NOTACKPT"
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_truncation_is_typed(self, tmp_path, mkdir_case):
        path = self._checkpoint(tmp_path, mkdir_case)
        data = open(path, "rb").read()
        for cut in (0, 4, len(data) // 2, len(data) - 1):
            open(path, "wb").write(data[:cut])
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(path)

    def test_payload_flip_fails_crc(self, tmp_path, mkdir_case):
        path = self._checkpoint(tmp_path, mkdir_case)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_version_1_checkpoint_is_refused(self, tmp_path, mkdir_case):
        # Version 1 pickled a separate engine recipe; this build reads only
        # checkpoints that pickle the engine itself.
        path = self._checkpoint(tmp_path, mkdir_case)
        data = bytearray(open(path, "rb").read())
        data[8:12] = struct.pack("<I", 1)
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointFormatError, match="version 1"):
            load_checkpoint(path)

    def test_missing_file_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "never-written.ckpt"))


class TestInjectedFaults:
    def test_checkpoint_write_failure_is_nonfatal(self, tmp_path, mkdir_case):
        # A failing checkpoint store must never take the search down with
        # it: every write fails, the search still completes identically,
        # and the failures are counted.
        pipeline, trace = mkdir_case
        baseline = _engine(pipeline, trace).reproduce()

        path = str(tmp_path / "doomed.ckpt")
        engine = _engine(pipeline, trace, telemetry=True)
        engine.attach_checkpointing(CheckpointPolicy(
            path=path, every_commits=1,
            fault_spec=FaultSpec(seed=3, checkpoint_fail_rate=1.0)))
        outcome = engine.reproduce()
        assert outcome.reproduced
        assert outcome_fingerprint(outcome) == outcome_fingerprint(baseline)
        assert not os.path.exists(path)
        counters = outcome.telemetry.to_json()["counters"]
        assert counters["replay.checkpoint.write_failures"] >= 1
        assert counters.get("replay.checkpoint.writes", 0) == 0

    def test_periodic_writes_are_counted(self, tmp_path, mkdir_case):
        pipeline, trace = mkdir_case
        baseline = _engine(pipeline, trace).reproduce()

        path = str(tmp_path / "every.ckpt")
        engine = _engine(pipeline, trace, telemetry=True)
        engine.attach_checkpointing(CheckpointPolicy(path=path,
                                                     every_commits=1))
        outcome = engine.reproduce()
        assert outcome.reproduced and os.path.exists(path)
        # Snapshotting at every commit leaves the explored tree alone.
        assert outcome_fingerprint(outcome) == outcome_fingerprint(baseline)
        counters = outcome.telemetry.to_json()["counters"]
        assert counters["replay.checkpoint.writes"] == outcome.committed_items
        # Timing-marked: checkpoint plumbing stays out of the deterministic
        # view so interrupted and uninterrupted runs stay byte-identical.
        det = outcome.telemetry.deterministic().to_json()["counters"]
        assert "replay.checkpoint.writes" not in det
