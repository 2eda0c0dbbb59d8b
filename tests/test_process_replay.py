"""Process-pool replay workers: determinism, warm start, two-process e2e."""

import os
import pickle
import random
import subprocess
import sys

import pytest

from repro import (
    InstrumentationMethod,
    Pipeline,
    PipelineConfig,
    ReplayBudget,
)
from repro.replay.engine import ReplayEngine
from repro.replay.pending import PendingItem
from repro.symbolic.constraints import ConstraintSet, intern_stats
from repro.symbolic.expr import sym_bin, sym_const, sym_var
from repro.symbolic.solver import solve, warm_start_assignment
from repro.workloads import diffutil, userver
from repro.workloads.coreutils import mkdir, paste

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: One crashing scenario per workload family (uServer, diff, coreutils).
FAMILIES = [
    ("userver-exp2", userver.SOURCE, userver.experiment(2),
     frozenset(userver.LIBRARY_FUNCTIONS)),
    ("diff-exp1", diffutil.SOURCE, diffutil.experiment_1(), frozenset()),
    ("mkdir-bug", mkdir.SOURCE, mkdir.bug_scenario(), frozenset()),
]


def outcome_fingerprint(outcome):
    """The explored search tree plus every mode-independent counter."""

    crash = None
    if outcome.crash_site is not None:
        crash = (outcome.crash_site.function, outcome.crash_site.line)
    return (
        outcome.reproduced, outcome.runs, outcome.solver_calls,
        outcome.warm_start_hits, outcome.solver_nodes,
        outcome.compile_cache_lookups,
        tuple((r.outcome, r.consumed_bits, r.constraints, r.deviation)
              for r in outcome.run_records),
        tuple(sorted(outcome.pending_stats.items())),
        tuple(sorted(outcome.found_input.items())),
        crash,
    )


def record_for(source, environment, library):
    pipeline = Pipeline.from_source(
        source, name=environment.name,
        config=PipelineConfig(library_functions=set(library)))
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    return pipeline, pipeline.record(plan, environment)


def search(pipeline, recording, workers, warm_start=True, budget=None):
    engine = ReplayEngine(
        program=pipeline.program, plan=recording.plan,
        bitvector=recording.bitvector, syscall_log=recording.syscall_log,
        crash_site=recording.crash_site,
        environment=recording.environment.scaffold(),
        budget=budget or ReplayBudget(max_runs=1500, max_seconds=60),
        backend="vm", workers=workers, warm_start=warm_start)
    return engine.reproduce()


class TestProcessPoolDeterminism:
    @pytest.mark.parametrize("name,source,environment,library", FAMILIES,
                             ids=[f[0] for f in FAMILIES])
    def test_pool_tree_matches_serial(self, name, source, environment,
                                      library):
        pipeline, recording = record_for(source, environment, library)
        serial = search(pipeline, recording, workers=1)
        processes = search(pipeline, recording, workers=2)
        assert serial.reproduced
        assert outcome_fingerprint(processes) == outcome_fingerprint(serial)
        # Cross-process observability: the aggregated totals match serial
        # (the hit/miss split legitimately differs — each worker process
        # warms its own compile cache — but the lookup total cannot).
        for key in ("runs", "solver_calls", "solver_nodes", "warm_start_hits",
                    "compile_cache_lookups"):
            assert processes.stats()[key] == serial.stats()[key], key
        assert processes.workers == 2
        assert serial.compile_cache_lookups == serial.runs

    def test_grown_coreutils_scenario_process_identical(self):
        pipeline, recording = record_for(paste.SOURCE, paste.big_bug_scenario(24),
                                         frozenset())
        serial = search(pipeline, recording, workers=1)
        processes = search(pipeline, recording, workers=2)
        assert serial.reproduced
        assert outcome_fingerprint(processes) == outcome_fingerprint(serial)

    def test_pending_items_pickle_with_stable_signatures(self):
        constraints = ConstraintSet()
        constraints.add_expr(sym_bin("==", sym_var("a0"), sym_const(47)))
        constraints.add_expr(sym_bin(">", sym_var("a1"), sym_const(5)))
        item = PendingItem(constraints=constraints, hint={"a0": 47, "a1": 9},
                           depth=2, origin_run=3, reason="test")
        clone = pickle.loads(pickle.dumps(item))
        assert clone.signature() == item.signature()
        assert clone.hint == item.hint
        assert [str(c.expr) for c in clone.constraints] == \
               [str(c.expr) for c in item.constraints]


class TestConstraintInterning:
    @staticmethod
    def _chain(length):
        constraints = ConstraintSet()
        for index in range(length):
            constraints.add_expr(
                sym_bin("<", sym_var(f"byte_{index}", 0, 255),
                        sym_const(100 + index)),
                origin=index + 1)
        return constraints

    def test_prefix_sharing_restored_after_pickle(self):
        """Interned sets with equal prefixes share Constraint objects."""

        base = self._chain(12)
        alternatives = [base.prefix(k).with_negated_last()
                        for k in range(1, 13)]
        # Each item crosses the process boundary on its own (that is how the
        # pool submits them), so identity sharing is destroyed ...
        clones = [pickle.loads(pickle.dumps(PendingItem(constraints=a)))
                  for a in alternatives]
        assert clones[10].constraints[0] is not clones[11].constraints[0]
        # ... and interning restores it.
        interned = [item.constraints.interned() for item in clones]
        assert interned[10][0] is interned[11][0]
        assert interned[3][2] is interned[11][2]
        # Canonicalization never changes the structural identity.
        for item, canonical in zip(clones, interned):
            assert canonical.signature() == item.constraints.signature()

    def test_interning_shrinks_pickled_pending_payload(self):
        """The pickled batch of prefix-sharing items gets smaller."""

        base = self._chain(16)
        alternatives = [base.prefix(k).with_negated_last()
                        for k in range(1, 17)]
        unshared = [pickle.loads(pickle.dumps(a)) for a in alternatives]
        interned = [a.interned() for a in unshared]
        payload_unshared = len(pickle.dumps(unshared))
        payload_interned = len(pickle.dumps(interned))
        # Shared prefixes are stored once instead of per item: the payload
        # the engine ships to (and keeps queued for) its workers shrinks
        # substantially for prefix-heavy pending lists.
        assert payload_interned < payload_unshared * 0.6, (
            payload_interned, payload_unshared)

    def test_engine_interns_committed_alternatives(self):
        pipeline, recording = record_for(mkdir.SOURCE, mkdir.bug_scenario(),
                                         frozenset())
        before = intern_stats()
        outcome = search(pipeline, recording, workers=1)
        assert outcome.reproduced
        after = intern_stats()
        # The search pushed prefix-sharing alternatives through the intern
        # table (misses populate chains, hits mean sharing happened; a
        # table warmed by earlier searches answers everything with hits).
        assert (after["hits"] + after["misses"]
                > before["hits"] + before["misses"])


class TestWarmStart:
    def test_differential_against_solver(self):
        """warm_start_assignment must return exactly solve()'s answer or None."""

        rng = random.Random(20260730)
        ops = ["==", "!=", "<", "<=", ">", ">="]
        hits = 0
        for _ in range(600):
            variables = [sym_var(f"v{i}", 0, rng.choice([10, 255, 100000]))
                         for i in range(rng.randint(1, 4))]
            constraints = ConstraintSet()
            for _ in range(rng.randint(1, 6)):
                if rng.random() < 0.75:
                    constraints.add_expr(sym_bin(
                        rng.choice(ops), rng.choice(variables),
                        sym_const(rng.randint(-2, 260))))
                else:
                    constraints.add_expr(sym_bin(
                        rng.choice(ops), rng.choice(variables),
                        rng.choice(variables)))
            hint = {var.name: rng.randint(var.lo, min(var.hi, 300))
                    for var in variables if rng.random() < 0.9}
            warm = warm_start_assignment(constraints, hint)
            if warm is None:
                continue
            hits += 1
            solution = solve(constraints, hint=hint)
            assert solution.satisfiable
            overrides = dict(hint)
            overrides.update(solution.assignment)
            assert warm == overrides, (str(constraints), hint)
        assert hits > 50  # the shortcut must actually fire on typical shapes

    def test_engine_tree_identical_with_and_without_warm_start(self):
        pipeline, recording = record_for(userver.SOURCE, userver.experiment(2),
                                         frozenset(userver.LIBRARY_FUNCTIONS))
        warm = search(pipeline, recording, workers=1, warm_start=True)
        cold = search(pipeline, recording, workers=1, warm_start=False)
        assert warm.reproduced and cold.reproduced
        # Identical tree (runs, records, pending, input) ...
        def tree(outcome):
            return (outcome.runs,
                    tuple((r.outcome, r.consumed_bits, r.constraints,
                           r.deviation) for r in outcome.run_records),
                    tuple(sorted(outcome.pending_stats.items())),
                    tuple(sorted(outcome.found_input.items())))
        assert tree(warm) == tree(cold)
        # ... for strictly fewer solver calls.
        assert warm.warm_start_hits > 0
        assert warm.solver_calls < cold.solver_calls
        assert cold.warm_start_hits == 0


class TestTwoProcessEndToEnd:
    def test_record_then_replay_in_separate_processes(self, tmp_path):
        """The paper's split, literally: record and replay never share a process."""

        tool = os.path.join(REPO_ROOT, "scripts", "trace_tool.py")
        trace_path = str(tmp_path / "mkdir.trace")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))

        record = subprocess.run(
            [sys.executable, tool, "record", "--workload", "mkdir-bug",
             "--out", trace_path],
            capture_output=True, text=True, env=env, timeout=120)
        assert record.returncode == 0, record.stderr
        assert os.path.exists(trace_path)

        replay = subprocess.run(
            [sys.executable, tool, "replay", "--trace", trace_path,
             "--workload", "mkdir-bug", "--workers", "2"],
            capture_output=True, text=True, env=env, timeout=120)
        assert replay.returncode == 0, replay.stdout + replay.stderr
        assert "reproduced" in replay.stdout

        mismatch = subprocess.run(
            [sys.executable, tool, "replay", "--trace", trace_path,
             "--workload", "diff-exp1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert mismatch.returncode == 2
        assert "matched binaries" in mismatch.stderr
        assert "Traceback" not in mismatch.stderr
        assert mismatch.stderr.strip().count("\n") == 0

    def test_corrupted_trace_fails_with_one_line_reason(self, tmp_path):
        """A damaged trace file exits 2 with a single-line reason, never a
        traceback."""

        tool = os.path.join(REPO_ROOT, "scripts", "trace_tool.py")
        trace_path = str(tmp_path / "mkdir.trace")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        record = subprocess.run(
            [sys.executable, tool, "record", "--workload", "mkdir-bug",
             "--out", trace_path],
            capture_output=True, text=True, env=env, timeout=120)
        assert record.returncode == 0, record.stderr

        data = open(trace_path, "rb").read()
        truncated = str(tmp_path / "truncated.trace")
        with open(truncated, "wb") as handle:
            handle.write(data[:len(data) // 2])
        flipped = str(tmp_path / "flipped.trace")
        with open(flipped, "wb") as handle:
            handle.write(data[:40] + bytes([data[40] ^ 0xFF]) + data[41:])

        for damaged in (truncated, flipped):
            replay = subprocess.run(
                [sys.executable, tool, "replay", "--trace", damaged,
                 "--workload", "mkdir-bug"],
                capture_output=True, text=True, env=env, timeout=120)
            assert replay.returncode == 2, damaged
            assert "error: TraceFormatError:" in replay.stderr
            assert "Traceback" not in replay.stderr
            assert replay.stderr.strip().count("\n") == 0, replay.stderr
