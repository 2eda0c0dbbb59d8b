"""Tests for the replay engine: pending list, run hooks and reproduction."""

import pytest

from repro import InstrumentationMethod, Pipeline, PipelineConfig, ReplayBudget
from repro.environment import simple_environment
from repro.instrument.logger import BitvectorLog
from repro.instrument.plan import InstrumentationPlan
from repro.interp.interpreter import AbortRun
from repro.interp.tracer import BranchEvent
from repro.lang.cfg import BranchLocation
from repro.replay.hooks import ReplayRunHooks
from repro.replay.pending import PendingItem, PendingList
from repro.symbolic.constraints import ConstraintSet
from repro.symbolic.expr import sym_bin, sym_const, sym_var
from tests.conftest import GUARD_SOURCE


def loc(number, fn="main"):
    return BranchLocation(function=fn, node_id=number, line=number, kind="if")


def constraint_set(*values):
    cs = ConstraintSet()
    for index, value in enumerate(values):
        cs.add_expr(sym_bin("==", sym_var(f"v{index}"), sym_const(value)))
    return cs


class TestPendingList:
    def test_dfs_order(self):
        pending = PendingList()
        pending.push(PendingItem(constraint_set(1)))
        pending.push(PendingItem(constraint_set(2)))
        assert pending.pop().constraints[0].expr == sym_bin("==", sym_var("v0"), sym_const(2))

    def test_duplicates_rejected(self):
        pending = PendingList()
        assert pending.push(PendingItem(constraint_set(1)))
        assert not pending.push(PendingItem(constraint_set(1)))
        assert pending.duplicates == 1

    def test_max_size_enforced(self):
        pending = PendingList(max_size=2)
        for value in range(5):
            pending.push(PendingItem(constraint_set(value)))
        assert len(pending) == 2
        assert pending.dropped == 3

    def test_pop_empty_returns_none(self):
        assert PendingList().pop() is None


class TestReplayRunHooks:
    def setup_method(self):
        self.instrumented = loc(1)
        self.uninstrumented = loc(2)
        self.concrete = loc(3)
        self.plan = InstrumentationPlan.from_sets(
            "test", {self.instrumented, self.concrete},
            {self.instrumented, self.uninstrumented, self.concrete})

    def make_hooks(self, bits):
        return ReplayRunHooks(self.plan, BitvectorLog.from_bits(bits))

    def symbolic_event(self, location, taken):
        condition = sym_bin("==", sym_var("x"), sym_const(1))
        if not taken:
            condition = condition.negated()
        return BranchEvent(location=location, taken=taken, symbolic=True,
                           condition=condition)

    def concrete_event(self, location, taken):
        return BranchEvent(location=location, taken=taken, symbolic=False, condition=None)

    def test_case1_unlogged_symbolic_pushes_alternative(self):
        hooks = self.make_hooks([True])
        hooks.on_branch(self.symbolic_event(self.uninstrumented, taken=True))
        assert len(hooks.run_constraints) == 1
        assert len(hooks.alternatives) == 1
        assert hooks.consumed_bits() == 0

    def test_case2a_logged_symbolic_match(self):
        hooks = self.make_hooks([True])
        hooks.on_branch(self.symbolic_event(self.instrumented, taken=True))
        assert hooks.consumed_bits() == 1
        assert len(hooks.run_constraints) == 1
        assert hooks.deviation is None

    def test_case2b_logged_symbolic_mismatch_aborts(self):
        hooks = self.make_hooks([False])
        with pytest.raises(AbortRun):
            hooks.on_branch(self.symbolic_event(self.instrumented, taken=True))
        assert hooks.deviation.kind == "symbolic-mismatch"
        assert len(hooks.alternatives) == 1

    def test_case3a_logged_concrete_match(self):
        hooks = self.make_hooks([False])
        hooks.on_branch(self.concrete_event(self.concrete, taken=False))
        assert hooks.deviation is None

    def test_case3b_logged_concrete_mismatch_aborts(self):
        hooks = self.make_hooks([True])
        with pytest.raises(AbortRun):
            hooks.on_branch(self.concrete_event(self.concrete, taken=False))
        assert hooks.deviation.kind == "concrete-mismatch"

    def test_case4_unlogged_concrete_is_ignored(self):
        hooks = self.make_hooks([])
        hooks.on_branch(self.concrete_event(self.uninstrumented, taken=True))
        assert hooks.consumed_bits() == 0
        assert hooks.alternatives == []

    def test_log_exhausted_aborts(self):
        hooks = self.make_hooks([])
        with pytest.raises(AbortRun):
            hooks.on_branch(self.concrete_event(self.concrete, taken=True))
        assert hooks.deviation.kind == "log-exhausted"

    def test_not_logged_statistics(self):
        hooks = self.make_hooks([True])
        hooks.on_branch(self.symbolic_event(self.uninstrumented, taken=True))
        hooks.on_branch(self.symbolic_event(self.uninstrumented, taken=True))
        summary = hooks.not_logged_summary()
        assert summary == {"locations": 1, "executions": 2}


class TestReproduction:
    def make_pipeline(self):
        return Pipeline.from_source(GUARD_SOURCE, name="guard")

    def record(self, pipeline, method, env):
        analysis = pipeline.analyze(env)
        plan = pipeline.make_plan(method, analysis)
        return pipeline.record(plan, env)

    def test_reproduces_crash_with_all_branches(self):
        pipeline = self.make_pipeline()
        env = simple_environment(["guard", "crab"], name="crash")
        recording = self.record(pipeline, InstrumentationMethod.ALL_BRANCHES, env)
        assert recording.crashed
        report = pipeline.reproduce(recording, budget=ReplayBudget(max_runs=100, max_seconds=10))
        assert report.reproduced
        assert report.outcome.crash_site.function == "check"

    def test_reproduced_input_satisfies_the_bug_condition(self):
        pipeline = self.make_pipeline()
        env = simple_environment(["guard", "crash"], name="crash")
        recording = self.record(pipeline, InstrumentationMethod.STATIC, env)
        report = pipeline.reproduce(recording, budget=ReplayBudget(max_runs=100, max_seconds=10))
        assert report.reproduced
        found = report.outcome.found_input
        assert found["arg1_0"] == ord("c")
        assert found["arg1_1"] == ord("r")
        assert found["arg1_2"] == ord("a")

    def test_non_crashing_recording_is_not_reproduced(self):
        pipeline = self.make_pipeline()
        env = simple_environment(["guard", "calm"], name="benign")
        recording = self.record(pipeline, InstrumentationMethod.ALL_BRANCHES, env)
        assert not recording.crashed
        report = pipeline.reproduce(recording, budget=ReplayBudget(max_runs=20, max_seconds=5))
        assert not report.reproduced

    def test_budget_exhaustion_reports_timeout(self):
        pipeline = self.make_pipeline()
        env = simple_environment(["guard", "crash"], name="crash")
        plan = pipeline.make_plan(InstrumentationMethod.NONE)
        recording = pipeline.record(plan, env)
        report = pipeline.reproduce(recording, budget=ReplayBudget(max_runs=3, max_seconds=5))
        assert not report.reproduced
