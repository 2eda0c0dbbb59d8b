"""Replay-search timings: the guided search and the service around it.

Times the complete guided search (the paper's "replay time") on uServer, diff
and coreutils crash scenarios, then the service layers around it: the batch
inbox, telemetry, the upload server and checkpointing.

Set ``BENCH_SMOKE=1`` to run the two-scenario smoke subset (CI).  The row set
is dumped to ``BENCH_replay.json`` so the perf trajectory is tracked.
"""

import os

from repro.experiments import (checkpoint_exp, net_exp, print_table,
                               replay_search_exp, service_exp)
from benchmarks.conftest import run_once

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def test_replay_search(benchmark):
    rows = run_once(benchmark, replay_search_exp.search_rows,
                    smoke=SMOKE, repeats=1 if SMOKE else 2)
    print_table(rows, "Replay search")
    # The batch-inbox scenario: spool duplicated bug reports through the
    # service layer; its rows assert the dedup contract (D searches for D
    # clusters, fan-out, byte-identity vs single-shot) internally and record
    # traces/sec + dedup ratio into the artifact.
    inbox_rows = service_exp.inbox_rows(smoke=SMOKE)
    print_table(inbox_rows, "Batch inbox - dedup ratio and traces/sec")
    # Telemetry cost: same search with metrics/spans on, asserting an
    # identical explored tree and recording overhead + deterministic
    # snapshot into the artifact's `telemetry` key.
    telemetry = replay_search_exp.telemetry_rows(
        smoke=SMOKE, repeats=1 if SMOKE else 2)
    print(f"telemetry overhead on {telemetry['scenario']}: "
          f"{telemetry['overhead_ratio']}x "
          f"({telemetry['wall_seconds_off']}s off, "
          f"{telemetry['wall_seconds_on']}s on)")
    # The network ingestion layer: a concurrent client fleet shipping the
    # duplicate-heavy batch over TCP, clean and fault-injected; each row
    # asserts zero lost reports and byte-identity vs single-shot internally
    # and records sustained traces/sec + p99 ingest latency.
    net_rows = net_exp.net_rows(smoke=SMOKE)
    print_table(net_rows, "Upload server - fleet over TCP, clean vs faulty")
    # Fault-tolerance cost: the same search checkpointed at every commit
    # and preempted-then-resumed mid-search, each asserting byte-identity
    # internally before its overhead ratio enters the artifact.
    checkpoint = checkpoint_exp.checkpoint_rows(smoke=SMOKE,
                                                repeats=1 if SMOKE else 2)
    print(f"checkpoint overhead on {checkpoint['scenario']}: "
          f"{checkpoint['checkpoint_overhead_ratio']}x every-commit, "
          f"{checkpoint['resume_overhead_ratio']}x preempt+resume "
          f"({checkpoint['checkpoint_writes']} snapshots)")
    artifact = replay_search_exp.write_artifact(rows, inbox_rows=inbox_rows,
                                                telemetry=telemetry,
                                                net=net_rows,
                                                checkpoint=checkpoint)
    print(f"wrote {artifact}")
    assert telemetry["identical_tree"]
    assert telemetry["snapshot"]["counters"]["replay.runs"] == telemetry["runs"]
    assert checkpoint["identical_tree"]
    assert checkpoint["checkpoint_writes"] == checkpoint["commits"] > 0
    for row in net_rows:
        assert row["lost_reports"] == 0, f"{row['scenario']} lost reports"
        assert row["acked"] == row["uploads"], f"{row['scenario']} lost acks"
        assert row["traces_per_sec"] is not None
    faulty = [r for r in net_rows if r["faults"] is not None]
    assert faulty, "no fault-injected scenario ran"
    assert all(r["poison_rejected"] > 0 for r in faulty), (
        "the rejection ledger absorbed no poison uploads")
    for row in inbox_rows:
        assert row["reproduced"], f"{row['scenario']}: a cluster failed"
        assert row["searches_run"] == row["clusters"]
        ratio = row["dedup_ratio"]
        assert ratio is not None and ratio > 1.0, "batch carried no duplicates"

    for row in rows:
        assert row["reproduced"], f"{row['scenario']} did not reproduce"
        # One compiled-code cache lookup per committed run.
        assert row["cache_lookups"] == row["runs"], row["scenario"]
