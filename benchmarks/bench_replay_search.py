"""Replay-search shoot-out: the serial search vs the process pool.

Times the complete guided search (the paper's "replay time") on uServer, diff
and coreutils crash scenarios, serially and on the speculative process pool,
asserting that both explore byte-identical search trees before comparing
wall-clock.

Set ``BENCH_SMOKE=1`` to run the two-scenario smoke subset (CI).  The row set
is dumped to ``BENCH_replay.json`` so the perf trajectory is tracked.

The process-pool speedup gate only arms on a multi-core machine (the paper's
user/developer split assumes a beefy developer box; on one or two cores the
pool's pickling overhead cannot be amortized) and can be disabled with
``BENCH_SKIP_PROCESS_GATE=1`` for noisy shared runners.
"""

import os

from repro.experiments import (checkpoint_exp, net_exp, print_table,
                               replay_search_exp, service_exp)
from benchmarks.conftest import run_once

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
SKIP_PROCESS_GATE = os.environ.get("BENCH_SKIP_PROCESS_GATE", "") not in ("", "0")
#: Wall-clock below which a search is too short to measure pool scaling.
MULTI_SECOND = 1.0


def test_replay_search_speedup(benchmark):
    rows = run_once(benchmark, replay_search_exp.search_rows,
                    smoke=SMOKE, repeats=1 if SMOKE else 2)
    print_table(rows, "Replay search - serial vs process pool")
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

    by_key = {(row["scenario"], row["configuration"]): row for row in rows}
    scenarios = {row["scenario"] for row in rows}
    for scenario in scenarios:
        for config, _workers in replay_search_exp.CONFIGURATIONS:
            row = by_key[(scenario, config)]
            # Both configurations reproduce the crash from an identical
            # explored search tree; only the wall-clock may differ.
            assert row["reproduced"], f"{scenario}/{config} did not reproduce"
            assert row["identical_to_serial"], (
                f"{scenario}/{config} explored a different search tree")

    # The multi-core claim: on a machine with enough cores, the process pool
    # beats the *same* serial search >= 1.5x on at least one multi-second
    # search.  (Identity was already asserted above, so this is pure
    # scheduling gain.)
    cores = os.cpu_count() or 1
    if not SMOKE and not SKIP_PROCESS_GATE and cores >= 4:
        candidates = [s for s in scenarios
                      if by_key[(s, "serial")]["wall_seconds"] >= MULTI_SECOND]
        assert candidates, "no multi-second serial search to measure scaling on"
        best = max(by_key[(s, "process")]["speedup_vs_serial"]
                   for s in candidates)
        assert best >= 1.5, (
            f"process pool only {best}x over the serial search on {cores} "
            f"cores (candidates: {candidates})")
