"""Checkpoint/resume at the engine level: byte-identity from any boundary.

The load-bearing contract of the checkpoint subsystem: a search killed
after an **arbitrary** commit boundary and resumed from the snapshot it
wrote there explores exactly the search tree the uninterrupted run
explores — same explored set, same found input, same run records, same
deterministic telemetry.  This holds by construction (serial pop-order
commit discipline: the (pending, outcome) pair at a commit boundary fully
determines the rest of the search), and these tests pin the construction
down for every boundary of several differential-testing workloads.  The
snapshots come from one uninterrupted run that checkpoints at every
commit, as a supervised worker does; :func:`_snapshot_run` keeps a copy of
each, which is the file a worker killed after that commit resumes from.

Corruption is the other half: a damaged snapshot must surface as a loud
typed :class:`CheckpointFormatError`, never as a silently wrong resume.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import shutil
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
from repro.replay import checkpoint as checkpoint_module
from repro.replay.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    SearchCheckpoint,
    dump_checkpoint_bytes,
    load_checkpoint_bytes,
)
from repro.service import FaultSpec, outcome_fingerprint, workload_pipeline
from repro.trace import decode_envelope, encode_envelope, trace_from_recording


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


def _snapshot_run(pipeline, trace, directory: str, **kwargs):
    """One uninterrupted search that checkpoints at every commit.

    Returns ``(outcome, snapshots)``: ``snapshots[i]`` is a copy of the
    snapshot written after commit ``i + 1``.  The copies are taken by
    wrapping ``save_checkpoint``, which the engine looks up at each write.
    """

    os.makedirs(directory, exist_ok=True)
    snapshots = []

    def save_and_copy(path, checkpoint):
        written = save_checkpoint(path, checkpoint)
        copy = os.path.join(directory, f"commit-{len(snapshots) + 1}.ckpt")
        shutil.copyfile(path, copy)
        snapshots.append(copy)
        return written

    engine = _engine(pipeline, trace, **kwargs)
    engine.attach_checkpointing(CheckpointPolicy(
        path=os.path.join(directory, "live.ckpt"), every_commits=1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checkpoint_module, "save_checkpoint", save_and_copy)
        outcome = engine.reproduce()
    return outcome, snapshots


@pytest.fixture(scope="module")
def mkdir_case():
    return _record("mkdir-bug")


@pytest.fixture(scope="module")
def diff_case():
    return _record("diff-exp1")


@pytest.fixture(scope="module")
def mkdir_snapshots(tmp_path_factory, mkdir_case):
    """The snapshots of one uninterrupted mkdir-bug search, by commit."""

    pipeline, trace = mkdir_case
    directory = str(tmp_path_factory.mktemp("mkdir-snapshots"))
    return _snapshot_run(pipeline, trace, directory)[1]


def _first_snapshot(mkdir_snapshots, tmp_path) -> str:
    """A private copy of the commit-1 snapshot, free to damage."""

    path = str(tmp_path / "commit-1.ckpt")
    shutil.copyfile(mkdir_snapshots[0], path)
    return path


class TestSnapshotCodec:
    def test_roundtrip_preserves_every_field(self, tmp_path, mkdir_snapshots):
        path = _first_snapshot(mkdir_snapshots, tmp_path)

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

    def test_bytes_roundtrip_without_filesystem(self, mkdir_snapshots):
        ckpt = load_checkpoint(mkdir_snapshots[0])
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
        for telemetry in (False, True):
            baseline = _engine(pipeline, trace,
                               telemetry=telemetry).reproduce()
            assert baseline.reproduced
            want = outcome_fingerprint(baseline)
            boundaries = baseline.committed_items
            assert boundaries >= 2, "workload too small to exercise resume"

            outcome, snapshots = _snapshot_run(
                pipeline, trace, str(tmp_path / f"telemetry-{telemetry}"),
                telemetry=telemetry)
            assert outcome_fingerprint(outcome) == want
            # Every boundary, the last one included.
            assert len(snapshots) == boundaries
            for cut, path in enumerate(snapshots, start=1):
                assert load_checkpoint(path).commits == cut
                resumed = ReplayEngine.from_checkpoint(path).reproduce()
                assert resumed.reproduced and resumed.resumed
                assert outcome_fingerprint(resumed) == want, (
                    f"{workload}: resume at commit {cut} diverged")
                assert resumed.committed_items == boundaries
                if telemetry:
                    assert (resumed.telemetry.deterministic().canonical_bytes()
                            == baseline.telemetry.deterministic()
                            .canonical_bytes()), (
                        f"{workload}: telemetry after resume at commit {cut} "
                        "diverged")
                    counters = resumed.telemetry.to_json()["counters"]
                    assert counters["replay.checkpoint.resumes"] == 1

    def test_resume_merges_telemetry_deterministically(self, tmp_path,
                                                       diff_case):
        pipeline, trace = diff_case
        baseline = _engine(pipeline, trace, telemetry=True).reproduce()
        assert baseline.reproduced and baseline.telemetry is not None
        want = baseline.telemetry.deterministic().canonical_bytes()

        _outcome, snapshots = _snapshot_run(pipeline, trace, str(tmp_path),
                                            telemetry=True)
        middle = snapshots[baseline.committed_items // 2 - 1]
        # A snapshot is not a result: it holds none of the final outcome
        # counters, so the resumed run counts them exactly once and the
        # merged registry equals the uninterrupted one.
        saved = load_checkpoint(middle).telemetry.to_json()["counters"]
        assert "replay.reproduced" not in saved

        resumed = ReplayEngine.from_checkpoint(middle).reproduce()
        assert outcome_fingerprint(resumed) == outcome_fingerprint(baseline)
        assert resumed.telemetry.deterministic().canonical_bytes() == want

    def test_resume_restores_the_pending_lists_bookkeeping(self, tmp_path,
                                                           mkdir_snapshots):
        # The PEND section carries the pending list's dedup set and its
        # dropped and duplicates counts.  Every snapshot of the workloads
        # above ends its search with both counts 0, so seed them: give the
        # commit-1 snapshot the signatures the uninterrupted run first
        # pushes at commit 2, and nonzero counts.  The resumed search must
        # count those pushes as duplicates on top of the restored counts.
        before = load_checkpoint(mkdir_snapshots[0])
        after = load_checkpoint(mkdir_snapshots[1])
        pushed = after.seen_signatures - before.seen_signatures
        assert pushed and before.commits == 1
        path = str(tmp_path / "seeded.ckpt")
        save_checkpoint(path, dataclasses.replace(
            before, seen_signatures=before.seen_signatures | pushed,
            dropped=5, duplicates=7))

        resumed = ReplayEngine.from_checkpoint(path).reproduce()
        assert resumed.committed_items == 2
        assert resumed.pending_stats == {
            "pending": 0, "dropped": 5, "duplicates": 7 + len(pushed)}
        # Its one alternative deduplicated away, the search runs dry.
        assert not resumed.reproduced

    def test_checkpoint_of_the_previous_build_resumes(self, tmp_path,
                                                      mkdir_case,
                                                      mkdir_snapshots):
        # The previous build's ReplayOutcome had a ``preempted`` field and
        # a ``"preempted"`` stop reason, so a snapshot it left in a service
        # root pickles both.  Resuming one rebuilds the outcome from the
        # declared fields and ends with the search's real stop reason.
        pipeline, trace = mkdir_case
        baseline = _engine(pipeline, trace).reproduce()
        older = load_checkpoint(mkdir_snapshots[0])
        older.outcome_state.preempted = True
        older.outcome_state.stop_reason = "preempted"
        path = str(tmp_path / "older.ckpt")
        save_checkpoint(path, older)
        assert load_checkpoint(path).outcome_state.preempted

        resumed = ReplayEngine.from_checkpoint(path).reproduce()
        assert outcome_fingerprint(resumed) == outcome_fingerprint(baseline)
        assert resumed.stop_reason == baseline.stop_reason == "reproduced"
        assert not hasattr(resumed, "preempted")


class TestCorruption:
    def test_bad_magic_is_typed(self, tmp_path, mkdir_snapshots):
        path = _first_snapshot(mkdir_snapshots, tmp_path)
        data = bytearray(open(path, "rb").read())
        data[:8] = b"NOTACKPT"
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_truncation_is_typed(self, tmp_path, mkdir_snapshots):
        path = _first_snapshot(mkdir_snapshots, tmp_path)
        data = open(path, "rb").read()
        for cut in (0, 4, len(data) // 2, len(data) - 1):
            open(path, "wb").write(data[:cut])
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(path)

    def test_payload_flip_fails_crc(self, tmp_path, mkdir_snapshots):
        path = _first_snapshot(mkdir_snapshots, tmp_path)
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_version_1_checkpoint_is_refused(self, tmp_path, mkdir_snapshots):
        # Version 1 pickled a separate engine recipe; this build reads only
        # checkpoints that pickle the engine itself.
        path = _first_snapshot(mkdir_snapshots, tmp_path)
        data = bytearray(open(path, "rb").read())
        data[8:12] = struct.pack("<I", 1)
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointFormatError, match="version 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("pend", [
        ["not", "a", "dict"],
        {"seen": set(), "dropped": 0, "duplicates": 0},
    ], ids=["list", "dict-without-items"])
    def test_malformed_pend_section_is_typed(self, mkdir_snapshots, pend):
        # A well-formed envelope (valid CRC) around a PEND section of the
        # wrong shape: the loader checks the shape before it reads it.
        sections = decode_envelope(open(mkdir_snapshots[0], "rb").read(),
                                   CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                   what="checkpoint")
        sections[b"PEND"] = pickle.dumps(pend)
        data = encode_envelope(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, sections,
                               list(sections))
        with pytest.raises(CheckpointFormatError, match="PEND"):
            load_checkpoint_bytes(data)

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
