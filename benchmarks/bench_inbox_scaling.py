"""Inbox state cost per operation as the history grows.

A long-running service must not slow down as its history grows.  This bench
ingests one recorded userver-exp1 trace 10,000 times through
``ReproService.ingest_bytes`` and commits the cluster's real report after
every upload (one upload and one commit per bug, as in triage), then
compares an early stretch of uploads with a late one.

Gates:

* bytes written to ``inbox.json`` plus ``inbox.log`` per operation, over
  uploads 100-10,000, within 20% of those over uploads 100-1,100 (exact, so
  deterministic).  Rewriting the whole state on every operation fails this
  by about 8x.  The bytes are counted from the start of each stretch, not
  over a late 1,000-upload window: the snapshot is rewritten every time the
  log outgrows it, and by upload 9,000 that is a 1.9 MB rewrite about once
  every 900 uploads, so one such window holds zero, one or two of them by
  phase alone.
* wall-clock milliseconds per upload over uploads 9,000-10,000 at most 1.5x
  those over uploads 100-1,100 (printed).

Run: ``PYTHONPATH=src python -m pytest -q benchmarks/bench_inbox_scaling.py -s``
"""

from __future__ import annotations

import os
import time

import pytest

from repro import InstrumentationMethod, PipelineConfig, ReplayBudget
from repro.service import ReproService, workload_pipeline
from repro.service import inbox as inbox_module
from repro.trace import dump_trace_bytes, trace_from_recording
from benchmarks.conftest import run_once

UPLOADS = 10_000
EARLY = (100, 1_100)
LATE = (9_000, 10_000)


def _userver_trace() -> bytes:
    config = PipelineConfig(backend="vm")
    pipeline, environment = workload_pipeline("userver-exp1", config=config)
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    trace = trace_from_recording(pipeline.record(plan, environment),
                                 scaffold=True, program_name="userver-exp1")
    return dump_trace_bytes(trace)


def _scaling_run(root: str, patch: pytest.MonkeyPatch):
    """Per upload, the cumulative state bytes written and wall seconds."""

    data = _userver_trace()
    service = ReproService(root, config=PipelineConfig(
        backend="vm", replay_budget=ReplayBudget(max_runs=1500,
                                                 max_seconds=60)))
    log_path = os.path.join(root, "inbox.log")
    # The log only grows, except that a compaction writes the snapshot and
    # then empties it: bytes written = snapshots + log bytes dropped by
    # compactions + the log as it stands.
    compacted = [0]
    write_atomic = inbox_module.write_atomic

    def counting_write(path, payload, before_replace=None):
        if os.path.basename(path) == "inbox.json":
            compacted[0] += len(payload) + os.path.getsize(log_path)
        return write_atomic(path, payload, before_replace)

    patch.setattr(inbox_module, "write_atomic", counting_write)
    receipt = service.ingest_bytes(data)
    [report] = service.process().values()
    assert report.reproduced
    committed = report.to_json()
    written, seconds = [0], [0.0]
    for _ in range(UPLOADS):
        began = time.perf_counter()
        service.ingest_bytes(data)
        service.inbox.mark_done(receipt.cluster_id, committed)
        seconds.append(seconds[-1] + time.perf_counter() - began)
        written.append(compacted[0] + os.path.getsize(log_path))
    return written, seconds


def _per_upload(series, first: int, last: int) -> float:
    return (series[last] - series[first]) / (last - first)


def test_state_cost_per_operation_stays_flat(benchmark, tmp_path):
    with pytest.MonkeyPatch.context() as patch:
        written, seconds = run_once(benchmark, _scaling_run,
                                    str(tmp_path / "inbox"), patch)
    # Two operations per upload: the ingest and the commit.
    early_bytes = _per_upload(written, *EARLY) / 2
    grown_bytes = _per_upload(written, EARLY[0], UPLOADS) / 2
    early_ms = 1000 * _per_upload(seconds, *EARLY)
    late_ms = 1000 * _per_upload(seconds, *LATE)
    print(f"\nstate bytes per operation: uploads {EARLY[0]}-{EARLY[1]} "
          f"{early_bytes:.0f}, uploads {EARLY[0]}-{UPLOADS} {grown_bytes:.0f}"
          f" ({grown_bytes / early_bytes:.3f}x)")
    print(f"ms per upload (ingest + commit): uploads {EARLY[0]}-{EARLY[1]} "
          f"{early_ms:.3f}, uploads {LATE[0]}-{LATE[1]} {late_ms:.3f} "
          f"({late_ms / early_ms:.2f}x)")
    assert abs(grown_bytes / early_bytes - 1) <= 0.2
    assert late_ms <= 1.5 * early_ms
