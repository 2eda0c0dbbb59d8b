"""Integration tests for the Pipeline API (analyse → instrument → record → replay)."""

import json
import os
import subprocess
import sys

import pytest

from repro import (
    ConcolicBudget,
    InstrumentationMethod,
    Pipeline,
    PipelineConfig,
    ReplayBudget,
)
from repro.environment import simple_environment
from repro.workloads import fibonacci, microbench, userver
from repro.workloads.coreutils import mkdir
from tests.conftest import GUARD_SOURCE


@pytest.fixture(scope="module")
def pipeline():
    config = PipelineConfig(concolic_budget=ConcolicBudget(max_iterations=24, max_seconds=6),
                            replay_budget=ReplayBudget(max_runs=150, max_seconds=10))
    return Pipeline.from_source(GUARD_SOURCE, name="guard", config=config)


@pytest.fixture(scope="module")
def crash_env():
    return simple_environment(["guard", "crash"], name="crash-env")


@pytest.fixture(scope="module")
def analysis(pipeline, crash_env):
    return pipeline.analyze(crash_env)


class TestAnalysis:
    def test_both_analyses_present(self, analysis):
        assert analysis.dynamic is not None
        assert analysis.static is not None
        assert "dynamic" in analysis.summary()

    def test_dynamic_symbolic_subset_of_static(self, analysis):
        # Dynamic only labels truly symbolic branches; static is conservative,
        # so every dynamically-symbolic branch must be statically symbolic too.
        assert analysis.dynamic.labels.symbolic <= analysis.static.symbolic_branches

    def test_profile_branch_behavior(self, pipeline, crash_env):
        profile = pipeline.profile_branch_behavior(crash_env)
        rows = profile.location_stats()
        assert rows
        assert all(row["executions"] >= row["symbolic_executions"] for row in rows)


class TestPlans:
    def test_all_plans_built(self, pipeline, analysis):
        plans = pipeline.make_all_plans(analysis)
        assert set(plans) == set(InstrumentationMethod.paper_methods())

    def test_plan_size_ordering(self, pipeline, analysis):
        plans = pipeline.make_all_plans(analysis)
        assert (plans[InstrumentationMethod.DYNAMIC].instrumented_count()
                <= plans[InstrumentationMethod.DYNAMIC_PLUS_STATIC].instrumented_count()
                <= plans[InstrumentationMethod.ALL_BRANCHES].instrumented_count())
        assert (plans[InstrumentationMethod.STATIC].instrumented_count()
                <= plans[InstrumentationMethod.ALL_BRANCHES].instrumented_count())

    def test_log_syscalls_override(self, pipeline, analysis):
        plan = pipeline.make_plan(InstrumentationMethod.STATIC, analysis, log_syscalls=False)
        assert not plan.log_syscalls


class TestRecording:
    def test_recording_captures_crash_and_bits(self, pipeline, analysis, crash_env):
        plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES, analysis)
        recording = pipeline.record(plan, crash_env)
        assert recording.crashed
        assert recording.crash_site.function == "check"
        assert len(recording.bitvector) == recording.execution.branch_executions
        assert recording.storage_bytes() >= recording.bitvector.storage_bytes()

    def test_overhead_ordering_matches_plan_sizes(self, pipeline, analysis, crash_env):
        cpu = {}
        for method in InstrumentationMethod.paper_methods():
            plan = pipeline.make_plan(method, analysis)
            cpu[method] = pipeline.record(plan, crash_env).overhead.cpu_time_percent
        assert cpu[InstrumentationMethod.DYNAMIC] <= cpu[InstrumentationMethod.ALL_BRANCHES]
        assert cpu[InstrumentationMethod.STATIC] <= cpu[InstrumentationMethod.ALL_BRANCHES]

    def test_baseline_cached_per_environment(self, pipeline, crash_env):
        first = pipeline.baseline_steps(crash_env)
        second = pipeline.baseline_steps(crash_env)
        assert first == second

    def test_baseline_cache_is_keyed_by_the_environment_not_its_name(self):
        # Two environments may share a name (simple_environment's default
        # is "scenario"); each keeps its own baseline.
        bench = Pipeline.from_source(microbench.SOURCE, name="microbench")
        short = simple_environment(["countloop", "10"], name="same")
        long = simple_environment(["countloop", "1000"], name="same")
        assert bench.baseline_steps(short) == 148
        assert bench.baseline_steps(long) == 12_028
        fresh = Pipeline.from_source(microbench.SOURCE, name="microbench")
        assert fresh.baseline_steps(long) == 12_028


class TestEndToEnd:
    @pytest.mark.parametrize("method", list(InstrumentationMethod.paper_methods()))
    def test_every_method_reproduces_the_guard_crash(self, pipeline, analysis,
                                                     crash_env, method):
        plan = pipeline.make_plan(method, analysis)
        recording = pipeline.record(plan, crash_env)
        report = pipeline.reproduce(recording)
        assert report.reproduced, f"{method} failed: {report.outcome.summary()}"

    def test_end_to_end_convenience(self, pipeline, crash_env, analysis):
        recording, report = pipeline.end_to_end(InstrumentationMethod.DYNAMIC_PLUS_STATIC,
                                                crash_env, analysis=analysis)
        assert recording.crashed
        assert report.reproduced

    def test_branch_logging_stats_partition(self, pipeline, analysis, crash_env):
        plan = pipeline.make_plan(InstrumentationMethod.DYNAMIC, analysis)
        stats = pipeline.branch_logging_stats(plan, crash_env)
        all_plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES, analysis)
        all_stats = pipeline.branch_logging_stats(all_plan, crash_env)
        # With every branch instrumented nothing symbolic is left unlogged.
        assert all_stats.not_logged_locations == 0
        total = stats.logged_executions + stats.not_logged_executions
        all_total = all_stats.logged_executions + all_stats.not_logged_executions
        assert total == all_total


class TestListing1:
    def test_fibonacci_two_bits_suffice(self):
        config = PipelineConfig(concolic_budget=ConcolicBudget(max_iterations=6, max_seconds=10))
        pipeline = Pipeline.from_source(fibonacci.SOURCE, name="fib", config=config)
        env = fibonacci.scenario_b()
        analysis = pipeline.analyze(env)
        for method in (InstrumentationMethod.DYNAMIC,
                       InstrumentationMethod.DYNAMIC_PLUS_STATIC,
                       InstrumentationMethod.STATIC):
            plan = pipeline.make_plan(method, analysis)
            recording = pipeline.record(plan, env)
            # Only the two option branches are instrumented, so the whole run
            # produces exactly two logged bits (the paper's Listing 1 point).
            assert plan.instrumented_count() == 2
            assert len(recording.bitvector) == 2


class TestConfig:
    def test_from_source_leaves_the_callers_config_alone(self):
        # One config builds every workload's pipeline (the service and the
        # workload-by-name helpers share theirs), so a library set given to
        # one program must not reach the next program's static analysis.
        config = PipelineConfig()
        library = set(userver.LIBRARY_FUNCTIONS)
        server = Pipeline.from_source(userver.SOURCE, name="userver",
                                      config=config, library_functions=library)
        assert server.config.library_functions == library
        assert server.program.library_functions == library
        assert config.library_functions == set()
        tool = Pipeline.from_source(mkdir.SOURCE, name="mkdir", config=config)
        assert tool.config.library_functions == set()
        assert tool.program.library_functions == set()


def test_cold_import_loads_no_service_code():
    # The pre-deployment side starts with ``import repro, repro.workloads``
    # and runs neither the service nor the planner, so it must not pay for
    # compiling them.
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    probe = ("import json, sys, repro, repro.workloads; "
             "print(json.dumps(sorted(m for m in sys.modules "
             "if m.startswith('repro'))))")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    loaded = json.loads(result.stdout)
    assert "repro.core.pipeline" in loaded
    assert [m for m in loaded if m.split(".")[:2] in (
        ["repro", "service"], ["repro", "planner"])] == []
