"""Checkpoint/resume overhead for the supervised replay-search fleet.

Measures what fault tolerance costs on the search path, in three runs of
the same recorded crash:

* **plain** — the uninterrupted search, no checkpointing (the PR 4 path);
* **checkpointed** — the same search snapshotting at *every* commit
  boundary (the most aggressive cadence the supervisor ever uses, so the
  measured overhead is a ceiling for production cadences);
* **interrupted** — the search preempted at its middle commit, then
  resumed from the snapshot to completion (the crash-recovery round trip:
  snapshot write + engine rebuild + state restore).

All three must explore **byte-identical** search trees — the rows assert
the fingerprints on the way out, so the artifact can never record the
overhead of a search that silently diverged.  Results land under the
``checkpoint`` key of ``BENCH_replay.json``.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Dict

from repro.core.config import PipelineConfig
from repro.instrument.methods import InstrumentationMethod
from repro.replay import CheckpointPolicy, ReplayEngine
from repro.replay.budget import ReplayBudget
from repro.service import outcome_fingerprint, workload_pipeline
from repro.trace import trace_from_recording

__all__ = ["checkpoint_rows"]


def _config() -> PipelineConfig:
    return PipelineConfig(
        backend="vm", replay_budget=ReplayBudget(max_runs=3000,
                                                 max_seconds=120))


def _engine(pipeline, trace) -> ReplayEngine:
    return ReplayEngine.from_trace(pipeline.program, trace,
                                   budget=ReplayBudget(max_runs=3000,
                                                       max_seconds=120))


def checkpoint_rows(smoke: bool = True, repeats: int = 2
                    ) -> Dict[str, object]:
    """The ``checkpoint`` artifact entry (one scenario, three timed runs)."""

    workload = "mkdir-bug" if smoke else "diff-exp1"
    config = _config()
    pipeline, environment = workload_pipeline(workload, config=config)
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    recording = pipeline.record(plan, environment)
    trace = trace_from_recording(recording, scaffold=True,
                                 program_name=workload)

    plain_seconds = []
    ckpt_seconds = []
    resume_seconds = []
    baseline = None
    writes = commits = 0
    with tempfile.TemporaryDirectory() as scratch:
        for attempt in range(max(1, repeats)):
            began = time.perf_counter()
            outcome = _engine(pipeline, trace).reproduce()
            plain_seconds.append(time.perf_counter() - began)
            assert outcome.reproduced, f"{workload}: baseline did not reproduce"
            want = outcome_fingerprint(outcome)
            assert baseline is None or want == baseline
            baseline = want
            commits = outcome.committed_items

            path = os.path.join(scratch, f"every.{attempt}.ckpt")
            engine = _engine(pipeline, trace)
            engine.attach_checkpointing(CheckpointPolicy(path=path,
                                                         every_commits=1))
            began = time.perf_counter()
            checkpointed = engine.reproduce()
            ckpt_seconds.append(time.perf_counter() - began)
            assert outcome_fingerprint(checkpointed) == baseline, (
                f"{workload}: checkpointing diverged the search")
            writes = checkpointed.committed_items

            # The crash-recovery round trip: preempt at the middle commit,
            # rebuild from the snapshot, run to completion.  Timed end to
            # end — both halves plus the snapshot write and reload.
            path = os.path.join(scratch, f"mid.{attempt}.ckpt")
            engine = _engine(pipeline, trace)
            engine.attach_checkpointing(CheckpointPolicy(
                path=path, preempt_after_commits=max(1, commits // 2)))
            began = time.perf_counter()
            paused = engine.reproduce()
            resumed = ReplayEngine.from_checkpoint(path).reproduce()
            resume_seconds.append(time.perf_counter() - began)
            assert paused.preempted and resumed.resumed
            assert outcome_fingerprint(resumed) == baseline, (
                f"{workload}: resume diverged the search")

    plain = min(plain_seconds)
    return {
        "scenario": workload,
        "commits": commits,
        "checkpoint_writes": writes,
        "wall_seconds_plain": round(plain, 6),
        "wall_seconds_checkpointed": round(min(ckpt_seconds), 6),
        "wall_seconds_interrupted": round(min(resume_seconds), 6),
        "checkpoint_overhead_ratio": round(min(ckpt_seconds) / plain, 4),
        "resume_overhead_ratio": round(min(resume_seconds) / plain, 4),
        "identical_tree": True,  # asserted above, recorded for the artifact
    }
