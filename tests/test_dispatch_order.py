"""The VM's dispatch chain tests the hottest opcodes first.

Each instruction pays one ``opcode == op.X`` test per arm above its own, so
the arm order is a cost every run pays.  The registry workloads are
profiled in each of the VM's four kinds of run: analyze (concolic
iterations), record and replay (under the dynamic+static plan) and plain
(``NullHooks``).  The order's own figures are 6.32, 6.63, 5.09 and 6.63
mean arms per dispatch (41 arms, one tier; 7.41, 7.44, 6.40 and 7.74 with
the int tier and the fused pairs; 22.2, 20.8, 19.7 and 22.6 before the
chain was ordered at all).  The bound below leaves a margin for a new
opcode or a shifted profile, not for noise: the analyze counts move a
little with the hash seed (the concolic solver's tie-breaks), but the
means read the same to two decimals under ``PYTHONHASHSEED`` 0-3.

The five branch shapes are the only arms that fall through: they compute
the branch's direction and share the one branch tail after the chain.
"""

from __future__ import annotations

import ast
import dataclasses

import pytest

from repro import InstrumentationMethod, Pipeline
from repro.concolic import engine as concolic_engine
from repro.concolic.budget import ConcolicBudget
from repro.core import pipeline as pipeline_module
from repro.core.results import AnalysisResult
from repro.replay import engine as replay_engine
from repro.replay.budget import ReplayBudget
from repro.telemetry import MetricsRegistry, scoped
from repro.vm import opcodes as op
from repro.vm.machine import (_dispatch_loop, dispatch_arm_order,
                               mean_arm_position)
from repro.workloads import all_cases, library_functions_for

MODES = ("analyze", "record", "replay", "plain")


def _profiling(create_backend):
    def create_profiled(program, **kwargs):
        kwargs["config"] = dataclasses.replace(kwargs["config"],
                                               profile_opcodes=True)
        return create_backend(program, **kwargs)
    return create_profiled


@pytest.fixture(scope="module")
def registry_profile():
    """``mode -> {opcode name: dispatches}`` over every registry case."""

    patch = pytest.MonkeyPatch()
    for module in (concolic_engine, pipeline_module, replay_engine):
        patch.setattr(module, "create_backend",
                      _profiling(module.create_backend))
    registries = {mode: MetricsRegistry() for mode in MODES}
    try:
        for name, source, environment in all_cases():
            pipeline = Pipeline.from_source(
                source, name=name,
                library_functions=library_functions_for(source))
            with scoped(registries["analyze"]):
                dynamic = concolic_engine.ConcolicEngine(
                    pipeline.program, environment,
                    ConcolicBudget(max_iterations=2)).explore()
            plan = pipeline.make_plan(
                InstrumentationMethod.DYNAMIC_PLUS_STATIC,
                AnalysisResult(dynamic=dynamic,
                               static=pipeline.run_static_analysis()))
            with scoped(registries["plain"]):
                pipeline.baseline_steps(environment)
            with scoped(registries["record"]):
                recording = pipeline.record(plan, environment)
            if recording.crash_site is not None:
                with scoped(registries["replay"]):
                    pipeline.reproduce(recording,
                                       budget=ReplayBudget(max_runs=3))
    finally:
        patch.undo()
    prefix = "vm.opcode."
    return {mode: {name[len(prefix):]: count for name, count
                   in registry.snapshot().counters.items()
                   if name.startswith(prefix)}
            for mode, registry in registries.items()}


def test_the_chain_tests_every_opcode_once():
    order = dispatch_arm_order()
    assert sorted(order) == sorted(op.OPCODE_NAMES.values())


@pytest.mark.parametrize("mode", MODES)
def test_hot_opcodes_sit_at_the_top_of_the_chain(registry_profile, mode):
    profile = registry_profile[mode]
    assert sum(profile.values()) > 0
    assert mean_arm_position(profile) <= 8


def _arm_bodies():
    """``(opcode name, body statements)`` of each arm, in chain order."""

    _tree, _fn, loop, _line = _dispatch_loop()
    arm = next(stmt for stmt in loop.body
               if isinstance(stmt, ast.If)
               and isinstance(stmt.test, ast.Compare)
               and isinstance(stmt.test.left, ast.Name)
               and stmt.test.left.id == "opcode")
    arms = []
    while arm is not None:
        arms.append((arm.test.comparators[0].attr, arm.body))
        orelse = arm.orelse
        arm = orelse[0] if len(orelse) == 1 and isinstance(orelse[0], ast.If) \
            else None
    return arms


def test_only_the_branch_shapes_fall_through_to_the_branch_tail():
    branch_shapes = {op.OPCODE_NAMES[opcode] for opcode in op.BRANCH_OPCODES}
    assert len(branch_shapes) == 5
    falling_through = {
        name for name, body in _arm_bodies()
        if not isinstance(body[-1], (ast.Continue, ast.Return, ast.Raise))}
    assert falling_through == branch_shapes


def test_mean_arm_position_weighs_arms_by_dispatches():
    first, second = dispatch_arm_order()[:2]
    assert mean_arm_position({first: 3, second: 1}) == 1.25
    assert mean_arm_position({"RETIRED_OPCODE": 5, first: 1}) == 1.0
    assert mean_arm_position({}) == 0.0
