"""Solving each constraint once: node caches, compiled evaluation, the
prefix warm start and the solver's three-valued answers.

The caches and the warm start's prefix fast path change only what an answer
costs.  These tests hold them to that: the compiled closure against the tree
walk, cached against cold simplification, pickles against caches, and the
fast path against the general one on every pending item and every concolic
flip of the workloads the benchmark triages.
"""

from __future__ import annotations

import pickle
import random

import pytest

import repro.concolic.engine as concolic_engine
import repro.replay.engine as replay_engine
from repro import InstrumentationMethod, Pipeline, PipelineConfig, ReplayBudget
from repro.concolic.budget import ConcolicBudget
from repro.replay.engine import ReplayEngine
from repro.symbolic.constraints import Constraint, ConstraintSet
from repro.symbolic.expr import (
    ARITH_OPS,
    BOOL_OPS,
    COMPARE_OPS,
    UNARY_OPS,
    SymBinOp,
    SymConst,
    SymUnOp,
    SymVar,
    sym_var,
)
from repro.symbolic.simplify import (
    compiled,
    evaluate,
    simplify,
    try_evaluate,
    variable_names,
    variables,
)
from repro.symbolic.solver import UNKNOWN, SolverResult, warm_start_assignment
from repro.workloads import diffutil, userver
from repro.workloads.coreutils import mkdir, mkfifo, mknod, paste

DS = InstrumentationMethod.DYNAMIC_PLUS_STATIC
ALL = InstrumentationMethod.ALL_BRANCHES
BUDGET = ConcolicBudget(max_iterations=16, max_seconds=120.0)
CACHE_KEYS = ("_simple", "_simplified", "_vars", "_names", "_fn", "_entry")

# ---------------------------------------------------------------------------
# Random trees over every operator
# ---------------------------------------------------------------------------

BINARY = sorted(ARITH_OPS | COMPARE_OPS | BOOL_OPS)
CONSTANTS = (0, 0, 1, -1, 2, -2, 7, -7, 63, 64, 65, 127, -128, 255)


def random_leaf(rng):
    if rng.random() < 0.5:
        # "m" is never assigned: evaluating it raises KeyError.
        return SymVar(rng.choice("abcm"), -300, 300)
    return SymConst(rng.choice(CONSTANTS + (rng.randint(-1000, 1000),)))


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return random_leaf(rng)
    roll = rng.random()
    if roll < 0.2:
        return SymUnOp(rng.choice(sorted(UNARY_OPS)),
                       random_tree(rng, depth - 1))
    if roll < 0.4:  # the specialized ``var <op> const`` leaf shape
        return SymBinOp(rng.choice(BINARY), SymVar(rng.choice("abcm"), -300, 300),
                        SymConst(rng.choice(CONSTANTS)))
    return SymBinOp(rng.choice(BINARY), random_tree(rng, depth - 1),
                    random_tree(rng, depth - 1))


def random_assignment(rng):
    return {name: rng.randint(-300, 300) for name in "abc"
            if rng.random() < 0.85}


def subtrees(expr):
    stack, out = [expr], []
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, SymUnOp):
            stack.append(node.operand)
        elif isinstance(node, SymBinOp):
            stack.extend((node.left, node.right))
    return out


def cold(obj):
    """A structurally equal copy that carries no cache."""

    return pickle.loads(pickle.dumps(obj))


def outcome(fn, *args):
    try:
        value = fn(*args)
    except (KeyError, ZeroDivisionError) as exc:
        return ("raises", type(exc))
    return ("value", type(value), value)


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------


class TestCompiledEvaluation:
    def test_closure_matches_the_tree_walk_on_random_trees(self):
        rng = random.Random(20261017)
        raised = 0
        for _ in range(3000):
            expr = random_tree(rng, 4)
            for _ in range(3):
                assignment = random_assignment(rng)
                expected = outcome(evaluate, expr, assignment)
                assert outcome(compiled(expr), assignment) == expected, (
                    str(expr), assignment)
                walked = None if expected[0] == "raises" else expected[2]
                assert try_evaluate(expr, assignment) == walked
                raised += expected[0] == "raises"
        assert raised > 100  # missing variables and zero divisors did occur

    @pytest.mark.parametrize("expr,assignment,expected", [
        (SymBinOp("/", SymConst(-7), SymConst(2)), {}, -3),
        (SymBinOp("%", SymConst(-7), SymConst(2)), {}, -1),
        (SymBinOp("/", SymVar("a"), SymConst(-2)), {"a": 7}, -3),
        (SymBinOp("%", SymVar("a"), SymConst(-2)), {"a": 7}, 1),
        (SymBinOp("/", SymVar("a"), SymConst(0)), {"a": 7}, None),
        (SymBinOp("%", SymVar("a"), SymVar("b")), {"a": 7, "b": 0}, None),
        (SymBinOp("<<", SymConst(1), SymConst(64)), {}, 1),
        (SymBinOp("<<", SymVar("a"), SymConst(65)), {"a": 3}, 6),
        (SymBinOp(">>", SymConst(-256), SymConst(68)), {}, -16),
        (SymBinOp("&&", SymVar("a"), SymVar("m")), {"a": 0}, 0),
        (SymBinOp("&&", SymVar("a"), SymVar("m")), {"a": 5}, None),
        (SymBinOp("||", SymVar("a"), SymVar("m")), {"a": -4}, 1),
        (SymBinOp("||", SymVar("a"), SymConst(9)), {"a": 0}, 1),
        (SymBinOp("&&", SymVar("a"), SymConst(9)), {"a": 3}, 1),
        (SymBinOp("<", SymVar("a"), SymConst(5)), {"a": 2}, 1),
        (SymBinOp(">=", SymVar("a"), SymConst(5)), {"a": 2}, 0),
        (SymBinOp("==", SymVar("m"), SymConst(5)), {}, None),
        (SymUnOp("!", SymVar("a")), {"a": 0}, 1),
        (SymUnOp("~", SymVar("a")), {"a": 5}, -6),
    ])
    def test_edge_cases(self, expr, assignment, expected):
        assert try_evaluate(expr, assignment) == expected
        assert type(try_evaluate(expr, assignment)) is type(expected)

    def test_compiled_once_and_only_on_the_asked_node(self):
        expr = SymBinOp("&&", SymBinOp("<", SymVar("a"), SymConst(5)),
                        SymBinOp("+", SymVar("a"), SymVar("b")))
        fn = compiled(expr)
        assert compiled(expr) is fn
        assert all("_fn" not in node.__dict__ for node in subtrees(expr)[1:])

    def test_deep_trees_compile(self):
        expr = SymVar("a")
        for index in range(5000):
            expr = SymBinOp("+", expr, SymConst(index % 3))
        fn = compiled(expr)  # an explicit stack: no recursion limit
        assert fn is compiled(expr)


# ---------------------------------------------------------------------------
# Simplification and variable caches
# ---------------------------------------------------------------------------


class TestNodeCaches:
    def test_simplify_cached_equals_cold_and_is_idempotent(self):
        rng = random.Random(7)
        for _ in range(3000):
            expr = random_tree(rng, 5)
            fresh = cold(expr)
            # Warm some subtrees first, in random order.
            nodes = subtrees(expr)
            for node in rng.sample(nodes, rng.randint(0, min(3, len(nodes)))):
                simplify(node)
            result = simplify(expr)
            assert result == simplify(fresh), str(expr)
            assert simplify(result) is result
            assert simplify(cold(result)) == result, str(expr)
            assert simplify(expr) is result

    def test_simplified_result_is_flagged_not_self_referenced(self):
        expr = SymBinOp("+", SymVar("a"), SymConst(0))
        result = simplify(expr)
        assert result is expr.left
        fresh = SymBinOp("<", SymVar("a"), SymConst(3))
        assert simplify(fresh) is fresh
        assert fresh.__dict__["_simple"] is True
        assert "_simplified" not in fresh.__dict__

    def test_variable_sets_cached_and_shared(self):
        a, b = sym_var("a"), sym_var("b")
        first = SymBinOp("<", SymBinOp("+", a, b), SymConst(9))
        second = SymBinOp("==", SymBinOp("+", a, b), SymConst(4))
        assert variables(first) is variables(first)
        assert variables(first) is variables(second)
        assert variable_names(first) is variable_names(second)
        assert variable_names(first) == {"a", "b"}
        # Asking a node caches on that node only.
        assert all("_vars" not in node.__dict__
                   for node in subtrees(first)[1:])

    def test_pickles_carry_no_caches_and_round_trip(self):
        x = sym_var("x")
        expr = SymBinOp("&&", SymBinOp("<", x, SymConst(5)),
                        SymUnOp("!", SymBinOp("==", x, SymConst(2))))
        constraint = Constraint(expr, origin=7, description="here")
        constraints = ConstraintSet([constraint, constraint.negated()])
        simplify(expr), variables(expr), variable_names(expr)
        assert try_evaluate(expr, {"x": 1}) == 1
        signature = constraints.signature()
        assert constraint.__dict__["_entry"] == (7, str(expr))

        data = pickle.dumps((expr, constraint, constraints))
        for key in CACHE_KEYS:
            assert key.encode() not in data, key
        expr2, constraint2, constraints2 = pickle.loads(data)
        assert expr2 == expr and constraint2 == constraint
        assert set(expr2.__dict__) == {"op", "left", "right"}
        assert set(constraint2.__dict__) == {"expr", "origin", "description"}
        assert constraints2.signature() == signature
        assert try_evaluate(expr2, {"x": 2}) == 0
        assert constraints2.interned().signature() == signature


# ---------------------------------------------------------------------------
# The prefix warm start on the benchmark's bug classes
# ---------------------------------------------------------------------------


def prefix_checked(real, counts):
    """*real* behind a check of the caller's prefix guarantee.

    Every call must pass ``len - 1``, its hint must satisfy the prefix and
    bind the prefix's variables inside their domains, and the fast path
    must return exactly what the general function returns.
    """

    def warm_start(constraint_set, hint, satisfied_prefix=0):
        assert satisfied_prefix == len(constraint_set) - 1
        for constraint in constraint_set.constraints[:satisfied_prefix]:
            assert evaluate(constraint.expr, hint), str(constraint)
            for var in variables(constraint.expr):
                assert var.lo <= hint[var.name] <= var.hi, var
        fast = real(constraint_set, hint, satisfied_prefix=satisfied_prefix)
        assert fast == real(constraint_set, hint), str(constraint_set)
        counts["items"] += 1
        counts["hits"] += fast is not None
        return fast

    return warm_start


_PIPELINES = {}


def analysed(name, source, library, environment):
    """One analysed pipeline per program, as a deployed build."""

    if name not in _PIPELINES:
        pipeline = Pipeline.from_source(
            source, name=name, config=PipelineConfig(backend="vm"),
            library_functions=set(library))
        _PIPELINES[name] = (pipeline, pipeline.analyze(environment, BUDGET))
    return _PIPELINES[name]


USERVER = ("userver", userver.SOURCE, userver.LIBRARY_FUNCTIONS)
DIFF = ("diff", diffutil.SOURCE, ())
PASTE = ("paste", paste.SOURCE, ())

#: The bug classes the benchmark triages: ``(program, environment, plan,
#: syscall logging)``.
BUG_CLASSES = (
    [(USERVER, lambda n=n: userver.experiment(n), DS, log)
     for n in range(1, 6) for log in (True, False)]
    + [(DIFF, diffutil.experiment_1, DS, True),
       (DIFF, lambda: diffutil.experiment_big(6, changed=(1, 3, 4)), ALL,
        True),
       (PASTE, lambda: paste.big_bug_scenario(10), DS, True),
       (("mkdir", mkdir.SOURCE, ()), mkdir.bug_scenario, ALL, True),
       (("mknod", mknod.SOURCE, ()), mknod.bug_scenario, DS, True),
       (("mkfifo", mkfifo.SOURCE, ()), mkfifo.bug_scenario, ALL, True),
       (PASTE, paste.bug_scenario, ALL, True)])
BUG_IDS = ([f"userver-exp{n}-{'log' if log else 'nolog'}"
            for n in range(1, 6) for log in (True, False)]
           + ["diff-exp1", "diff-big6", "paste-big10", "mkdir", "mknod",
              "mkfifo", "paste"])


@pytest.mark.parametrize("program,environment,method,log", BUG_CLASSES,
                         ids=BUG_IDS)
def test_every_pending_item_keeps_the_prefix_invariant(
        program, environment, method, log, monkeypatch):
    environment = environment()
    pipeline, analysis = analysed(*program, environment)
    plan = pipeline.make_plan(method, analysis, log_syscalls=log)
    recording = pipeline.record(plan, environment)
    counts = {"items": 0, "hits": 0}
    monkeypatch.setattr(replay_engine, "warm_start_assignment",
                        prefix_checked(warm_start_assignment, counts))
    engine = ReplayEngine(
        program=pipeline.program, plan=recording.plan,
        bitvector=recording.bitvector, syscall_log=recording.syscall_log,
        crash_site=recording.crash_site,
        environment=recording.environment.scaffold(),
        budget=ReplayBudget(max_runs=1500, max_seconds=120), backend="vm")
    outcome = engine.reproduce()
    assert outcome.reproduced and counts["items"] > 0
    assert counts["items"] == outcome.warm_start_hits + outcome.solver_calls
    assert counts["hits"] == outcome.warm_start_hits


# ---------------------------------------------------------------------------
# The concolic warm start
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("program,environment", [
    (USERVER, lambda: userver.experiment(2)),
    (DIFF, diffutil.experiment_1),
    (PASTE, paste.bug_scenario),
    (("mkdir", mkdir.SOURCE, ()), mkdir.bug_scenario),
], ids=["userver", "diff", "paste", "mkdir"])
def test_explore_identical_when_the_warm_start_always_misses(
        program, environment, monkeypatch):
    name, source, library = program
    environment = environment()
    pipeline = Pipeline.from_source(source, name=name,
                                    config=PipelineConfig(backend="vm"),
                                    library_functions=set(library))

    counts = {"items": 0, "hits": 0}
    monkeypatch.setattr(concolic_engine, "warm_start_assignment",
                        prefix_checked(warm_start_assignment, counts))
    warm = pipeline.analyze(environment, BUDGET)
    monkeypatch.setattr(concolic_engine, "warm_start_assignment",
                        lambda *args, **kwargs: None)
    missed = pipeline.analyze(environment, BUDGET)

    assert counts["hits"] > 0 and missed.dynamic.warm_start_hits == 0
    assert warm.dynamic.warm_start_hits == counts["hits"]
    assert (warm.dynamic.solver_calls + warm.dynamic.warm_start_hits
            == missed.dynamic.solver_calls)
    assert warm.dynamic.labels == missed.dynamic.labels
    assert warm.dynamic.explored_paths == missed.dynamic.explored_paths
    assert ([run.overrides for run in warm.dynamic.runs]
            == [run.overrides for run in missed.dynamic.runs])
    plans = [{method: plan.fingerprint() for method, plan
              in pipeline.make_all_plans(analysis).items()}
             for analysis in (warm, missed)]
    assert plans[0] == plans[1]


# ---------------------------------------------------------------------------
# Unknown answers are counted, and dropped as before
# ---------------------------------------------------------------------------


def _gives_up(constraint_set, hint=None, **_kwargs):
    return SolverResult(UNKNOWN, None)


def test_replay_counts_unknown_solver_answers(monkeypatch):
    pipeline = Pipeline.from_source(mkdir.SOURCE, name="mkdir",
                                    config=PipelineConfig(backend="vm"))
    environment = mkdir.bug_scenario()
    recording = pipeline.record(pipeline.make_plan(DS, pipeline.analyze(
        environment, BUDGET)), environment)
    monkeypatch.setattr(replay_engine, "solve", _gives_up)
    engine = ReplayEngine(
        program=pipeline.program, plan=recording.plan,
        bitvector=recording.bitvector, syscall_log=recording.syscall_log,
        crash_site=recording.crash_site,
        environment=recording.environment.scaffold(),
        budget=ReplayBudget(max_runs=50, max_seconds=60), backend="vm",
        warm_start=False, telemetry=True)
    outcome = engine.reproduce()
    assert not outcome.reproduced and outcome.runs == 1
    assert outcome.solver_unknowns == outcome.solver_calls > 0
    counters = outcome.telemetry.counters
    assert counters["replay.solver_unknowns"] == outcome.solver_unknowns


def test_concolic_counts_unknown_solver_answers(monkeypatch):
    pipeline = Pipeline.from_source(mkdir.SOURCE, name="mkdir",
                                    config=PipelineConfig(backend="vm"))
    monkeypatch.setattr(concolic_engine, "solve", _gives_up)
    monkeypatch.setattr(concolic_engine, "warm_start_assignment",
                        lambda *args, **kwargs: None)
    dynamic = pipeline.analyze(mkdir.bug_scenario(), BUDGET).dynamic
    assert dynamic.iterations == 1  # every flip was skipped
    assert dynamic.solver_unknowns == dynamic.solver_calls > 0
