"""Closed-loop adaptive planning bench (``repro.planner``).

Runs the fleet-history experiment: for each workload, four generations of
record -> ship -> reproduce -> replan, recording the measured instrumentation
overhead of every generation.  Gates: reproduction holds in every generation
(100% rate), overhead falls strictly across >= 3 replans, and the whole
history replayed twice from scratch yields byte-identical plan ledgers
(replanning is deterministic in history + seed).
"""

from repro.experiments import planner_exp, print_table
from benchmarks.conftest import run_once


def test_replanning_cuts_overhead_keeps_reproduction(benchmark):
    rows = run_once(benchmark, planner_exp.planner_rows)
    print_table(rows, "Adaptive planning - overhead per replan generation")
    # planner_rows already asserted the loop properties (strict overhead
    # decrease, 100% reproduction, deterministic ledger); re-derive the
    # headline numbers here so a regression fails with readable context.
    histories = {}
    for row in rows:
        histories.setdefault(row["workload"], []).append(row)
    assert histories, "no planner generations recorded"
    for workload, history in histories.items():
        replans = len(history) - 1
        overheads = [row["overhead_percent"] for row in history]
        first, last = overheads[0], overheads[-1]
        assert replans >= 3, (workload, replans)
        assert all(b < a for a, b in zip(overheads, overheads[1:])), (
            f"{workload}: overhead did not strictly fall ({overheads})")
        # The measured win on the reproduced workloads is ~24-41%; the gate
        # only guards against the loop silently stalling out.
        reduction = 100.0 * (first - last) / first
        assert reduction >= 10.0, (
            f"{workload}: only {reduction:.2f}% overhead reduction across "
            f"{replans} replans")
