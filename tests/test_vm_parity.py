"""Differential parity: the bytecode VM vs the tree-walking interpreter.

Every workload in :mod:`repro.workloads` runs on both execution backends and
must produce *identical* observable behaviour: the :class:`ExecutionResult`
(including the step count, which the compiler charges in tree-walker units),
the branch-event stream, the syscall stream, recorded branch bitvectors and
syscall-result logs, crash sites, and full record→replay pipeline outcomes.
"""

from __future__ import annotations

import pytest

from repro import InstrumentationMethod, Pipeline, PipelineConfig
from repro.concolic.budget import ConcolicBudget
from repro.instrument.logger import BranchLogger
from repro.instrument.methods import build_plan
from repro.interp.backend import BACKENDS, create_backend
from repro.interp.inputs import ExecutionMode, InputBinder
from repro.interp.interpreter import ExecutionConfig, Interpreter
from repro.interp.tracer import TraceRecorder
from repro.lang.program import Program
from repro.replay.budget import ReplayBudget
from repro.vm.machine import VirtualMachine
from repro.workloads import all_cases
from repro.workloads.coreutils import ALL_PROGRAMS

CASES = all_cases()
CASE_IDS = [name for name, _, _ in CASES]

_PROGRAMS = {}


def program_for(name: str, source: str) -> Program:
    """One Program per workload: both backends must share branch node ids."""

    key = name.rsplit("-", 1)[0]
    if key not in _PROGRAMS:
        _PROGRAMS[key] = Program.from_source(source, name=key)
    return _PROGRAMS[key]


def run_backend(program: Program, environment, backend: str,
                mode: ExecutionMode, hooks):
    executor = create_backend(
        program,
        kernel=environment.make_kernel(),
        hooks=hooks,
        binder=InputBinder(mode=mode),
        config=ExecutionConfig(mode=mode, backend=backend),
    )
    return executor.run(environment.argv)


def result_fingerprint(result) -> dict:
    crash = None
    if result.crash is not None:
        crash = (result.crash.function, result.crash.line, result.crash.message)
    return {
        "exit_code": result.exit_code,
        "steps": result.steps,
        "branch_executions": result.branch_executions,
        "symbolic_branch_executions": result.symbolic_branch_executions,
        "syscall_count": result.syscall_count,
        "crashed": result.crashed,
        "crash": crash,
        "step_limit_hit": result.step_limit_hit,
        "aborted": result.aborted,
        "stdout": result.stdout,
    }


def trace_fingerprint(recorder: TraceRecorder) -> list:
    events = [(event.location, event.taken, event.symbolic,
               str(event.condition), event.index)
              for event in recorder.events]
    syscalls = [(event.kind, event.result) for event in recorder.syscalls]
    return [events, syscalls]


# ---------------------------------------------------------------------------
# Raw execution parity (record and analyze modes)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [ExecutionMode.RECORD, ExecutionMode.ANALYZE],
                         ids=["record", "analyze"])
@pytest.mark.parametrize("name, source, environment", CASES, ids=CASE_IDS)
def test_execution_parity(name, source, environment, mode):
    program = program_for(name, source)
    fingerprints = {}
    for backend in BACKENDS:
        recorder = TraceRecorder()
        result = run_backend(program, environment, backend, mode, recorder)
        fingerprints[backend] = (result_fingerprint(result),
                                 trace_fingerprint(recorder))
    assert fingerprints["vm"] == fingerprints["interp"]


# ---------------------------------------------------------------------------
# Recording parity: identical bitvectors and syscall logs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, source, environment", CASES, ids=CASE_IDS)
def test_recording_parity(name, source, environment):
    program = program_for(name, source)
    plan = build_plan(InstrumentationMethod.ALL_BRANCHES,
                      program.branch_locations, log_syscalls=True)
    logs = {}
    for backend in BACKENDS:
        logger = BranchLogger(plan)
        result = run_backend(program, environment, backend,
                             ExecutionMode.RECORD, logger)
        logs[backend] = (result_fingerprint(result),
                         list(logger.bitvector),
                         {kind: values for kind, values
                          in logger.syscall_log.results.items()})
    assert logs["vm"] == logs["interp"]


# ---------------------------------------------------------------------------
# Crash-site parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(ALL_PROGRAMS))
def test_crash_site_parity(workload):
    """Both backends crash at the same site with the same message."""

    module = ALL_PROGRAMS[workload]
    program = program_for(workload, module.SOURCE)
    environment = module.bug_scenario()
    results = {}
    for backend in BACKENDS:
        results[backend] = run_backend(program, environment, backend,
                                       ExecutionMode.RECORD, TraceRecorder())
    interp_result, vm_result = results["interp"], results["vm"]
    assert interp_result.crashed and vm_result.crashed
    assert vm_result.exit_code == interp_result.exit_code == 139
    assert vm_result.crash.same_location(interp_result.crash)
    assert vm_result.crash.function == interp_result.crash.function
    assert vm_result.crash.line == interp_result.crash.line
    assert vm_result.crash.message == interp_result.crash.message


# ---------------------------------------------------------------------------
# Full pipeline parity: record -> replay search -> reproduction
# ---------------------------------------------------------------------------


def pipeline_fingerprint(source, environment, backend) -> dict:
    config = PipelineConfig(backend=backend,
                            concolic_budget=ConcolicBudget(max_iterations=8,
                                                           max_seconds=10))
    pipeline = Pipeline.from_source(source, name="parity", config=config)
    recording, report = pipeline.end_to_end(
        InstrumentationMethod.DYNAMIC_PLUS_STATIC, environment,
        replay_budget=ReplayBudget(max_runs=300, max_seconds=30))
    outcome = report.outcome
    crash = None
    if recording.crash_site is not None:
        crash = (recording.crash_site.function, recording.crash_site.line)
    return {
        "bits": list(recording.bitvector),
        "syscall_log": dict(recording.syscall_log.results),
        "crash": crash,
        "recording_steps": recording.execution.steps,
        "overhead_percent": round(recording.overhead.cpu_time_percent, 6),
        "reproduced": outcome.reproduced,
        "runs": outcome.runs,
        "solver_calls": outcome.solver_calls,
        "found_input": outcome.found_input,
    }


@pytest.mark.parametrize("workload", ["mkdir", "mkfifo"])
def test_pipeline_parity(workload):
    module = ALL_PROGRAMS[workload]
    fingerprints = {backend: pipeline_fingerprint(module.SOURCE,
                                                  module.bug_scenario(),
                                                  backend)
                    for backend in BACKENDS}
    assert fingerprints["vm"] == fingerprints["interp"]
    assert fingerprints["vm"]["reproduced"]


# ---------------------------------------------------------------------------
# Language-feature parity (constructs the workloads do not exercise)
# ---------------------------------------------------------------------------

FEATURE_SNIPPETS = {
    "address-of-scalar": """
        int bump(int *p) { *p = *p + 7; return *p; }
        int main() { int x = 3; int r = bump(&x); printf("%d\\n", r); return r; }
    """,
    "address-of-element": """
        int main() {
            int a[4]; int *p;
            a[2] = 5; p = &a[2]; *p = *p * 3;
            printf("%d\\n", a[2]); return a[2];
        }
    """,
    "pointer-arithmetic": """
        int main() {
            char buf[8]; char *p; char *q;
            strcpy(buf, "hive");
            p = buf + 1; q = p + 2;
            printf("%c %c %d\\n", *p, *q, q - p);
            return q > p;
        }
    """,
    "ternary-and-logic": """
        int main(int argc, char **argv) {
            int n = argc > 1 ? atoi(argv[1]) : -1;
            int ok = (n > 0 && n < 100) || n == -1;
            return ok ? n : 0;
        }
    """,
    "increments-and-compound": """
        int main() {
            int i = 0; int total = 0;
            while (i++ < 5) { total += i; }
            total -= 1; ++total;
            printf("%d\\n", total); return total;
        }
    """,
    "globals-and-shadowing": """
        int counter = 10;
        int main() {
            int x = 1;
            { int x = 2; counter = counter + x; }
            counter = counter + x;
            return counter;
        }
    """,
    "division-by-zero-crash": """
        int main(int argc, char **argv) {
            int d = argc - 1;
            return 100 / d;
        }
    """,
    "out-of-bounds-crash": """
        int main() { int a[3]; a[5] = 1; return 0; }
    """,
    "null-deref-crash": """
        int main() { int *p; p = 0; return *p; }
    """,
    "exit-builtin": """
        int main() { printf("bye\\n"); exit(42); return 0; }
    """,
    "string-builtins": """
        int main() {
            char buf[32];
            strcpy(buf, "abc"); strcat(buf, "DEF");
            printf("%s %d %d\\n", buf, strlen(buf), strcmp(buf, "abcDEF"));
            return isdigit('7') + isalpha('z') + tolower('Q');
        }
    """,
}


@pytest.mark.parametrize("feature", sorted(FEATURE_SNIPPETS))
def test_language_feature_parity(feature):
    from repro.environment import simple_environment

    program = Program.from_source(FEATURE_SNIPPETS[feature], name=feature)
    environment = simple_environment([feature, "41"], name=feature)
    fingerprints = {}
    for backend in BACKENDS:
        recorder = TraceRecorder()
        result = run_backend(program, environment, backend,
                             ExecutionMode.RECORD, recorder)
        fingerprints[backend] = (result_fingerprint(result),
                                 trace_fingerprint(recorder))
    assert fingerprints["vm"] == fingerprints["interp"]


# ---------------------------------------------------------------------------
# Backend plumbing
# ---------------------------------------------------------------------------


def test_create_backend_selects_engine():
    program = program_for("fibonacci", CASES[0][1])
    assert isinstance(create_backend(program), VirtualMachine)
    assert isinstance(
        create_backend(program, config=ExecutionConfig(backend="interp")),
        Interpreter)
    with pytest.raises(ValueError):
        create_backend(program, config=ExecutionConfig(backend="jit"))


def test_compiled_code_is_cached_per_program():
    from repro.vm.compiler import compile_program

    program = program_for("fibonacci", CASES[0][1])
    assert compile_program(program) is compile_program(program)


def test_call_stack_overflow_parity():
    """Unbounded guest recursion crashes identically on both backends.

    The guest depth limit is lowered so the tree-walker (which spends
    several host stack frames per guest call) stays within Python's own
    recursion limit.
    """

    source = "int spin(int n) { return spin(n + 1); }\nint main() { return spin(0); }"
    program = Program.from_source(source, name="overflow")
    fingerprints = {}
    for backend in BACKENDS:
        executor = create_backend(
            program,
            config=ExecutionConfig(max_call_depth=64, backend=backend))
        result = executor.run(["overflow"])
        fingerprints[backend] = result_fingerprint(result)
    assert fingerprints["vm"] == fingerprints["interp"]
    assert fingerprints["vm"]["crashed"]
    assert "call stack overflow" in fingerprints["vm"]["crash"][2]


def test_step_limit_parity():
    """Both backends convert the step budget into the same outcome."""

    source = "int main() { int i; for (i = 0; i >= 0; i = i + 1) {} return 0; }"
    program = Program.from_source(source, name="spin")
    outcomes = {}
    for backend in BACKENDS:
        executor = create_backend(
            program,
            config=ExecutionConfig(max_steps=5_000, backend=backend))
        result = executor.run(["spin"])
        outcomes[backend] = (result.step_limit_hit, result.exit_code)
        # The lumped charge of a bytecode instruction may overshoot the
        # budget by a couple of tree-walker steps, never more.
        assert 5_000 < result.steps <= 5_010
    assert outcomes["vm"] == outcomes["interp"] == (True, 124)


def test_pointer_values_are_numbered_per_run():
    """A pointer's integer value is a function of the run alone.

    Each run numbers its arrays from 1 in allocation order, the same order
    on both backends, so a program that returns a pointer exits with one
    code however many runs came before it in the process.
    """

    source = ('int g = 3; int main(int argc, char **argv) '
              '{ int *p = &g; char *s = "hi"; int a[4]; return p; }')
    program = Program.from_source(source, name="pointer-exit")
    codes = [create_backend(program, config=ExecutionConfig(backend=backend))
             .run(["pointer-exit", "x"]).exit_code
             for backend in ("interp", "vm", "vm", "interp")]
    # argv, argv[0] and argv[1] come first; &g boxes the fourth array.
    assert codes == [4 * 1_000_003 + 1] * 4
