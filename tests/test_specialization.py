"""Differential parity for plan-specialized bytecode.

The VM may compile a different instruction stream per
:class:`InstrumentationPlan` (each branch's ``slot`` operand says whether
the plan logs it) and run its bitvector bookkeeping inline — but none of
that is allowed to be *observable*: for every workload and for empty /
partial / full plans, the
recorded bitvectors, syscall logs, per-location statistics, crash sites and
the entire explored replay search tree must match the unspecialized
tree-walking interpreter bit for bit.
"""

from __future__ import annotations

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import Pipeline
from repro.environment import simple_environment
from repro.instrument.logger import BranchLogger
from repro.instrument.methods import InstrumentationMethod, build_plan
from repro.interp.backend import create_backend
from repro.interp.inputs import ExecutionMode, InputBinder
from repro.interp.interpreter import ExecutionConfig
from repro.lang.program import Program
from repro.replay.budget import ReplayBudget
from repro.replay.engine import ReplayEngine
from repro.vm import opcodes as op
from repro.vm.compiler import cache_stats, compile_program, reset_cache_stats
from repro.workloads import all_cases, diffutil, userver
from repro.workloads.coreutils import ALL_PROGRAMS

CASES = all_cases()
CASE_IDS = [name for name, _, _ in CASES]

_PROGRAMS = {}


def program_for(name: str, source: str) -> Program:
    key = name.rsplit("-", 1)[0]
    if key not in _PROGRAMS:
        _PROGRAMS[key] = Program.from_source(source, name=key)
    return _PROGRAMS[key]


def plan_variants(program: Program):
    """Empty, partial (every other location) and full instrumentation plans."""

    locations = sorted(program.branch_locations)
    return {
        "empty": build_plan(InstrumentationMethod.NONE, program.branch_locations),
        "partial": build_plan(InstrumentationMethod.ALL_BRANCHES,
                              program.branch_locations).__class__.from_sets(
                                  "partial", locations[::2], locations),
        "full": build_plan(InstrumentationMethod.ALL_BRANCHES,
                           program.branch_locations),
    }


def record_fingerprint(program: Program, environment, plan,
                       backend: str) -> tuple:
    logger = BranchLogger(plan)
    executor = create_backend(
        program,
        kernel=environment.make_kernel(),
        hooks=logger,
        binder=InputBinder(mode=ExecutionMode.RECORD),
        config=ExecutionConfig(mode=ExecutionMode.RECORD, backend=backend),
    )
    result = executor.run(environment.argv)
    crash = None
    if result.crash is not None:
        crash = (result.crash.function, result.crash.line, result.crash.message)
    return (
        result.exit_code, result.steps, result.branch_executions,
        result.symbolic_branch_executions, result.syscall_count,
        result.stdout, crash,
        tuple(logger.bitvector),
        logger.bitvector.flushes,
        tuple(sorted((kind.value, tuple(values)) for kind, values
                     in logger.syscall_log.results.items())),
        logger.instrumented_executions,
        logger.total_branch_executions,
        tuple(sorted((loc.function, loc.node_id, count) for loc, count
                     in logger.per_location_executions.items())),
    )


# ---------------------------------------------------------------------------
# Recording parity: specialized VM vs interpreter, across plan shapes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plan_kind", ["empty", "partial", "full"])
@pytest.mark.parametrize("name, source, environment", CASES, ids=CASE_IDS)
def test_specialized_recording_parity(name, source, environment, plan_kind):
    program = program_for(name, source)
    plan = plan_variants(program)[plan_kind]
    reference = record_fingerprint(program, environment, plan, "interp")
    specialized = record_fingerprint(program, environment, plan, "vm")
    assert specialized == reference


# ---------------------------------------------------------------------------
# Replay-search parity: the explored tree is identical across engines
# ---------------------------------------------------------------------------


def outcome_fingerprint(outcome) -> tuple:
    crash = None
    if outcome.crash_site is not None:
        crash = (outcome.crash_site.function, outcome.crash_site.line)
    return (
        outcome.reproduced, outcome.runs, outcome.solver_calls,
        tuple((r.outcome, r.consumed_bits, r.constraints, r.deviation)
              for r in outcome.run_records),
        tuple(sorted(outcome.pending_stats.items())),
        tuple(sorted(outcome.found_input.items())),
        crash,
    )


def replay_search(pipeline, recording, backend: str, plan=None):
    engine = ReplayEngine(
        program=pipeline.program,
        plan=plan or recording.plan,
        bitvector=recording.bitvector,
        syscall_log=recording.syscall_log if recording.plan.log_syscalls else None,
        crash_site=recording.crash_site,
        environment=recording.environment.scaffold(),
        # Run-count bounded (not wall-clock bounded) so the termination point
        # is deterministic across engines and machines.
        budget=ReplayBudget(max_runs=400, max_seconds=600),
        backend=backend,
    )
    return engine.reproduce()


REPLAY_SCENARIOS = {
    "mkdir": lambda: (ALL_PROGRAMS["mkdir"].SOURCE,
                      ALL_PROGRAMS["mkdir"].bug_scenario(), frozenset()),
    "paste": lambda: (ALL_PROGRAMS["paste"].SOURCE,
                      ALL_PROGRAMS["paste"].bug_scenario(), frozenset()),
    # The grown coreutils scenario: replay walks a 24-line input file.
    "paste-big24": lambda: (ALL_PROGRAMS["paste"].SOURCE,
                            ALL_PROGRAMS["paste"].big_bug_scenario(24),
                            frozenset()),
    "diff": lambda: (diffutil.SOURCE, diffutil.experiment_1(), frozenset()),
    "userver": lambda: (userver.SOURCE, userver.experiment(1),
                        frozenset(userver.LIBRARY_FUNCTIONS)),
}


#: Scenarios grown toward the paper's request counts and file sizes.  Their
#: interpreter searches take seconds (userver-load6 ~10 s), so they run on
#: the VM alone; the parity test covers the engine they share.
GROWN_SCENARIOS = {
    "userver-load6": lambda: (userver.SOURCE, userver.saturation_workload(6),
                              frozenset(userver.LIBRARY_FUNCTIONS)),
    "diff-exp2": lambda: (diffutil.SOURCE, diffutil.experiment_2(),
                          frozenset()),
    "diff-big10": lambda: (diffutil.SOURCE, diffutil.experiment_big(10),
                           frozenset()),
}


def _recorded(workload, scenarios):
    source, environment, lib = scenarios[workload]()
    pipeline = Pipeline.from_source(
        source, name=f"spec-{workload}",
        config=PipelineConfig(library_functions=set(lib)))
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    return pipeline, pipeline.record(plan, environment)


@pytest.mark.parametrize("workload", sorted(REPLAY_SCENARIOS))
def test_replay_search_parity(workload):
    pipeline, recording = _recorded(workload, REPLAY_SCENARIOS)
    reference = outcome_fingerprint(
        replay_search(pipeline, recording, "interp"))
    outcome = replay_search(pipeline, recording, "vm")
    assert outcome_fingerprint(outcome) == reference, (
        f"{workload}: the vm diverged from the interpreter search")
    assert reference[0], f"{workload}: search did not reproduce the crash"
    # One compiled-code cache lookup per committed run.
    assert outcome.compile_cache_lookups == outcome.runs


@pytest.mark.parametrize("workload", sorted(GROWN_SCENARIOS))
def test_grown_scenarios_reproduce_on_the_vm(workload):
    pipeline, recording = _recorded(workload, GROWN_SCENARIOS)
    outcome = replay_search(pipeline, recording, "vm")
    assert outcome.reproduced, f"{workload}: search did not reproduce"
    assert outcome.compile_cache_lookups == outcome.runs


# ---------------------------------------------------------------------------
# The plan-aware compiled-code cache
# ---------------------------------------------------------------------------


def test_compile_cache_is_plan_aware():
    program = Program.from_source(diffutil.SOURCE, name="cache-probe")
    locations = sorted(program.branch_locations)
    empty = build_plan(InstrumentationMethod.NONE, program.branch_locations)
    full = build_plan(InstrumentationMethod.ALL_BRANCHES, program.branch_locations)
    partial = full.from_sets("partial", locations[::2], locations)

    reset_cache_stats()
    unspecialized = compile_program(program)
    code_empty = compile_program(program, empty)
    code_full = compile_program(program, full)
    code_partial = compile_program(program, partial)
    assert cache_stats() == {"hits": 0, "misses": 4}

    # Hits return the identical object for the identical plan fingerprint...
    assert compile_program(program, full) is code_full
    assert compile_program(program) is unspecialized
    # ...including a *different* plan object with the same instrumented set.
    refreshed = full.from_sets("renamed", full.instrumented, full.all_locations,
                               log_syscalls=False)
    assert compile_program(program, refreshed) is code_full
    assert cache_stats() == {"hits": 3, "misses": 4}

    # Stale specialization can never leak across plans: every variant is a
    # distinct code object stamped with its own fingerprint.
    variants = {id(c) for c in (unspecialized, code_empty, code_full, code_partial)}
    assert len(variants) == 4
    assert unspecialized.plan_fingerprint is None
    assert code_full.plan_fingerprint == full.fingerprint()
    assert code_partial.plan_fingerprint == partial.fingerprint()
    assert len(code_full.logged_locations) == len(locations)
    assert len(code_partial.logged_locations) == len(locations[::2])
    assert not code_empty.logged_locations


def test_specialized_opcodes_follow_the_plan():
    source = """
        int main(int argc, char **argv) {
            int i; int total = 0;
            for (i = 0; i < 10; i = i + 1) {
                if (i > argc) { total = total + i; }
            }
            return total;
        }
    """
    program = Program.from_source(source, name="opcode-probe")
    locations = sorted(program.branch_locations)
    partial = build_plan(InstrumentationMethod.ALL_BRANCHES,
                         program.branch_locations).from_sets(
                             "partial", locations[:1], locations)
    # Branches count whether they compiled standalone or fused into a
    # compare-and-branch superinstruction (`i < 10` and the `i > argc` slot
    # comparison): the `slot` operand names its flavour.
    assert _branch_flavours(compile_program(program, partial)) == {
        "logged": 1, "bare": len(locations) - 1}
    assert _branch_flavours(compile_program(program)) == {
        "hooked": len(locations)}


def _branch_flavours(compiled) -> dict:
    """``{flavour: count}`` of the branch instructions in *compiled*.

    ``logged`` carries a slot, ``bare`` is a slotless branch of
    plan-specialized code and ``hooked`` one of plan-free code.
    """

    flavours: dict = {}
    for code in compiled.functions.values():
        for opcode, arg, _charge, _line in code.instructions:
            if opcode not in op.BRANCH_OPCODES:
                continue
            if arg[-1] is not None:
                flavour = "logged"
            elif compiled.plan_fingerprint is not None:
                flavour = "bare"
            else:
                flavour = "hooked"
            flavours[flavour] = flavours.get(flavour, 0) + 1
    return flavours


def test_superinstructions_emitted():
    source = """
        int bump(int n) { int r = n * 2; return r; }
        int main() {
            int i = 0; int total = 0;
            while (i < 8) { total = total + i; i = i + 1; }
            return bump(total);
        }
    """
    program = Program.from_source(source, name="fusion-probe")
    # Every local is slotted, so the fused shapes are the slot-indexed ones.
    compiled = compile_program(program)
    opcodes = [instr[0] for code in compiled.functions.values()
               for instr in code.instructions]
    assert op.BINOP_FC_STORE in opcodes   # i = i + 1
    assert op.BINOP_FF_STORE in opcodes   # total = total + i
    assert op.LOAD_FAST_RET in opcodes    # return r;


def _opcode_stream(compiled):
    return [instr[0] for code in compiled.functions.values()
            for instr in code.instructions]


def test_compare_and_branch_superinstruction_parity():
    """``BINOP_FF;BRANCH_*`` fuses for ``while (i < n)`` and changes nothing
    observable: identical results, events and bitvectors on the interpreter
    and the fused VM."""

    source = """
        int main(int argc, char **argv) {
            int n = strlen(argv[1]);
            int target = 120;
            int i = 0;
            int hits = 0;
            while (i < n) {
                int c = argv[1][i];
                if (c == target) { hits = hits + 1; }
                i = i + 1;
            }
            if (hits >= 2) { crash("cmp-branch"); }
            return hits;
        }
    """
    program = Program.from_source(source, name="cmp-branch-probe")

    # Emission: both slot-slot comparisons fuse — the concrete loop bound
    # (`i < n`) and the input-dependent character test (`c == target`).
    fused = _opcode_stream(compile_program(program))
    assert fused.count(op.BINOP_FF_BRANCH) == 2
    # ... and plan-specialized code fuses the same way, logging the branch
    # through its slot operand.
    plan = build_plan(InstrumentationMethod.ALL_BRANCHES,
                      program.branch_locations)
    specialized = [instr for code in compile_program(program, plan)
                   .functions.values() for instr in code.instructions]
    assert any(opcode == op.BINOP_FF_BRANCH and arg[-1] is not None
               for opcode, arg, _charge, _line in specialized)

    # Record-mode differential against the interpreter.
    environment = simple_environment(["cmp", "axbx"], name="cmp-branch")
    fingerprints = {}
    for backend in ("interp", "vm"):
        logger = BranchLogger(plan)
        executor = create_backend(
            program,
            kernel=environment.make_kernel(),
            hooks=logger,
            binder=InputBinder(mode=ExecutionMode.RECORD),
            config=ExecutionConfig(mode=ExecutionMode.RECORD, backend=backend))
        result = executor.run(environment.argv)
        crash = ((result.crash.function, result.crash.line)
                 if result.crash else None)
        fingerprints[backend] = (
            result.steps, result.branch_executions,
            result.symbolic_branch_executions, result.crashed, crash,
            list(logger.bitvector), logger.instrumented_executions)
    assert fingerprints["vm"] == fingerprints["interp"]
    assert fingerprints["interp"][3] is True  # the probe crash fired

    # Replay parity: the replay run binds the argument bytes symbolically, so
    # the fused opcode's symbolic slow path drives the search — and the fused
    # VM must explore the identical tree the interpreter does.
    logger = BranchLogger(plan)
    executor = create_backend(
        program, kernel=environment.make_kernel(), hooks=logger,
        binder=InputBinder(mode=ExecutionMode.RECORD),
        config=ExecutionConfig(mode=ExecutionMode.RECORD, backend="vm"))
    recorded = executor.run(environment.argv)
    outcomes = {}
    for backend in ("interp", "vm"):
        engine = ReplayEngine(
            program=program, plan=plan, bitvector=logger.bitvector,
            syscall_log=logger.syscall_log, crash_site=recorded.crash,
            environment=environment.scaffold(),
            budget=ReplayBudget.quick(), backend=backend)
        outcomes[backend] = engine.reproduce()
    assert outcomes["vm"].reproduced

    def tree(outcome):
        return (outcome.reproduced, outcome.runs,
                tuple((r.outcome, r.consumed_bits, r.constraints, r.deviation)
                      for r in outcome.run_records),
                tuple(sorted(outcome.found_input.items())))

    assert tree(outcomes["vm"]) == tree(outcomes["interp"])


# ---------------------------------------------------------------------------
# The replay scaffold's structural argv
# ---------------------------------------------------------------------------


def test_scaffold_keeps_path_arguments_only():
    environment = simple_environment(
        ["diff", "/old.txt", "secret-flag"],
        files={"/old.txt": b"alpha\n"}, name="scaffold-probe")
    scaffold = environment.scaffold()
    assert scaffold.argv[0] == "diff"
    assert scaffold.argv[1] == "/old.txt"          # path: structural, kept
    assert scaffold.argv[2] == "A" * len("secret-flag")  # data: blanked
    kernel = scaffold.make_kernel()
    entry = kernel.fs.get("/old.txt")
    assert entry is not None and bytes(entry.data) == b"A" * len(b"alpha\n")
