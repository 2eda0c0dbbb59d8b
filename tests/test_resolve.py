"""The static scope-resolution pass: edge cases and fuzzed parity.

The first half pins the resolution rules directly (what gets a slot, what
resolves to a global, what stays unresolved and so sends the program to the
interpreter); the second half is a differential fuzz loop asserting that the
register-allocated VM is observably identical to the tree-walking
interpreter on randomly generated MiniC snippets that lean into the ugly
corners: implicit declarations, conditional declarations, shadowing,
read-before-write, globals, and block lifetimes.
"""

from __future__ import annotations

import random

import pytest

from repro.environment import simple_environment
from repro.interp.backend import create_backend, engine_for
from repro.interp.inputs import ExecutionMode, InputBinder
from repro.interp.interpreter import ExecutionConfig, Interpreter
from repro.interp.tracer import TraceRecorder
from repro.lang.errors import SemanticError
from repro.lang.program import Program
from repro.lang.resolve import (
    GLOBAL,
    RESOLVER_VERSION,
    SLOT,
    resolve_program,
)
from repro.vm.compiler import compile_program
from repro.vm import opcodes as op
from repro.vm.machine import VirtualMachine
from repro.workloads import workload_registry


def resolution_for(source: str):
    program = Program.from_source(source, name="probe")
    return program, resolve_program(program)


def accesses_of(program, resolution, function, name):
    """Access kinds of every Identifier/Declarator named *name* in *function*."""

    from repro.lang.ast_nodes import Declarator, Identifier

    fn_resolution = resolution.for_function(function)
    out = []
    for node in program.functions[function].walk():
        if isinstance(node, Identifier) and node.name == name:
            out.append(fn_resolution.access(node.node_id))
        elif isinstance(node, Declarator) and node.name == name:
            out.append(fn_resolution.access(node.node_id))
    return out


class TestResolutionRules:
    def test_plain_locals_get_slots(self):
        program, resolution = resolution_for("""
            int main() { int a = 1; int b = a + 2; return a + b; }
        """)
        main = resolution.for_function("main")
        assert main.nlocals == 2
        assert main.slot_names == ["a", "b"]
        assert not main.unresolved and resolution.complete

    def test_parameters_get_the_first_slots(self):
        program, resolution = resolution_for("""
            int add(int x, int y) { int s = x + y; return s; }
            int main() { return add(1, 2); }
        """)
        add = resolution.for_function("add")
        assert add.slot_names[:2] == ["x", "y"]
        assert accesses_of(program, resolution, "add", "x") == [(SLOT, 0)]
        assert accesses_of(program, resolution, "add", "y") == [(SLOT, 1)]

    def test_read_before_write_falls_back(self):
        # `x` is read before any declaration: the read must keep raising the
        # interpreter's "undefined variable" error, so the program falls
        # back to the interpreter.
        program, resolution = resolution_for("""
            int main() { int y = x + 1; x = 2; return y; }
        """)
        assert resolution.for_function("main").unresolved == {"x"}
        assert not resolution.complete
        assert resolution.unresolved() == {"main": ["x"]}
        assert engine_for(program, "vm") == "interp"

    def test_read_before_write_of_global_resolves_global(self):
        program, resolution = resolution_for("""
            int counter = 5;
            int main() { int y = counter + 1; counter = y; return counter; }
        """)
        main = resolution.for_function("main")
        assert all(a == (GLOBAL,)
                   for a in accesses_of(program, resolution, "main", "counter"))
        # Global accesses do not block slotting of the real locals.
        assert not main.unresolved and "y" in main.slot_names

    def test_same_name_in_sibling_functions_gets_independent_slots(self):
        program, resolution = resolution_for("""
            int first() { int n = 1; return n; }
            int second(int n) { n = n + 1; return n; }
            int main() { return first() + second(2); }
        """)
        assert resolution.for_function("first").slot_names == ["n"]
        assert resolution.for_function("second").slot_names == ["n"]
        assert resolution.for_function("first").nlocals == 1
        assert resolution.for_function("second").nlocals == 1

    def test_shadowing_across_blocks_gets_two_slots(self):
        program, resolution = resolution_for("""
            int main() {
                int x = 1;
                { int x = 2; x = x + 1; }
                return x;
            }
        """)
        main = resolution.for_function("main")
        assert main.slot_names == ["x", "x"]
        assert not main.unresolved
        # Outer return reads slot 0; inner accesses use slot 1.
        accesses = accesses_of(program, resolution, "main", "x")
        assert (SLOT, 0) in accesses and (SLOT, 1) in accesses

    def test_shadowing_inside_if_and_while_bodies(self):
        program, resolution = resolution_for("""
            int main(int argc, char **argv) {
                int x = 1;
                if (argc > 1) { int x = 10; x = x + 1; }
                while (x < 4) { int x = 99; x = x - 1; }
                x = x + 1;
                return x;
            }
        """)
        main = resolution.for_function("main")
        assert not main.unresolved
        assert main.slot_names.count("x") == 3  # outer + if body + while body

    def test_conditional_implicit_declaration_falls_back(self):
        # Whether `x` exists after the `if` depends on the branch taken:
        # reads cannot be resolved statically.
        program, resolution = resolution_for("""
            int main(int argc, char **argv) {
                if (argc > 1) x = 1;
                return x;
            }
        """)
        assert "x" in resolution.for_function("main").unresolved

    def test_conditional_then_unconditional_store_is_slotted(self):
        # After the unconditional `x = 2;` both paths denote the same
        # variable (same innermost scope, no outer binding), so `x` can
        # still live in a slot.
        program, resolution = resolution_for("""
            int main(int argc, char **argv) {
                if (argc > 1) x = 1;
                x = 2;
                return x;
            }
        """)
        main = resolution.for_function("main")
        assert not main.unresolved
        assert "x" in main.slot_names

    def test_block_scoped_implicit_local_dies_with_its_block(self):
        # `t` is implicitly declared inside the block, so the read after the
        # block would be an undefined-variable error at run time.
        program, resolution = resolution_for("""
            int main() {
                { t = 5; }
                return t;
            }
        """)
        assert "t" in resolution.for_function("main").unresolved

    def test_address_of_local_keeps_its_slot(self):
        program, resolution = resolution_for("""
            int main() { int x = 3; int *p = &x; *p = 7; return x; }
        """)
        main = resolution.for_function("main")
        assert "x" in main.slot_names and "p" in main.slot_names
        assert not main.unresolved

    def test_address_of_global_uses_the_globals_only_op(self):
        program, resolution = resolution_for("""
            int g = 3;
            int *p = &g;
            int main() { int *q = &g; *q = *p + 1; return *p; }
        """)
        assert resolution.complete
        compiled = compile_program(program)
        for code in (compiled.globals_code, compiled.main):
            assert op.ADDR_GLOBAL in [instr[0] for instr in code.instructions]
        results = {backend: create_backend(
            program, config=ExecutionConfig(backend=backend)).run(["g"])
            for backend in ("interp", "vm")}
        assert results["vm"].exit_code == results["interp"].exit_code == 4
        assert results["vm"].steps == results["interp"].steps

    def test_resolved_program_compiles_to_slot_and_global_ops(self):
        program, _ = resolution_for("""
            int limit = 4;
            int total = limit * 0;
            int main() { int i;
                for (i = 0; i < limit; i = i + 1) { total = total + i; }
                return total; }
        """)
        compiled = compile_program(program)
        assert compiled.resolver_version == RESOLVER_VERSION
        names = {op.OPCODE_NAMES[instr[0]]
                 for code in (compiled.globals_code, *compiled.functions.values())
                 for instr in code.instructions}
        assert {"LOAD_GLOBAL", "STORE_GLOBAL", "STORE_FAST"} <= names
        # No by-name variable, declaration or scope opcode exists any more.
        assert not [name for name in (
            "LOAD", "STORE", "DECL_LOCAL", "DECL_GLOBAL", "SCOPE_PUSH",
            "SCOPE_POP", "BINOP_NC", "BINOP_NN", "BINOP_NC_STORE",
            "BINOP_NN_STORE", "LOAD_RET", "ADDR_NAME") if hasattr(op, name)]

    def test_unresolved_program_runs_on_the_interpreter(self):
        program, resolution = resolution_for("""
            int main(int argc, char **argv) {
                if (argc > 1) late = 1;
                { int inner = late + 1; }
                return 0;
            }
        """)
        assert resolution.for_function("main").unresolved == {"late"}
        assert engine_for(program, "vm") == "interp"
        assert engine_for(program, "interp") == "interp"
        assert isinstance(create_backend(program), Interpreter)
        with pytest.raises(SemanticError, match="runs on the interpreter"):
            compile_program(program)
        with pytest.raises(SemanticError):
            VirtualMachine(program)

    def test_dead_code_access_is_unresolved(self):
        # Statically unreachable accesses get no resolution of their own.
        program, resolution = resolution_for("""
            int main() { int a = 1; while (a < 3) { a = a + 1; continue;
                a = a * 2; } return a; }
        """)
        assert resolution.for_function("main").unresolved == {"a"}
        assert engine_for(program, "vm") == "interp"

    def test_global_initializers_resolve_in_declaration_order(self):
        # A global read before its declaration raises at run time, and an
        # initializer has no frame to declare an unknown name in: both stay
        # unresolved.  Earlier globals resolve.  A global that a function
        # called from an initializer uses resolves only if it is declared
        # before that initializer: the interpreter declares a local for
        # ``late = 5`` (and ``x = 4``), so ``g`` finds no ``late`` (no ``x``).
        for source, unresolved in (
                ("int a = 1; int b = a + 1;", {}),
                ("int a = b; int b = 1;", {"<globals>": ["b"]}),
                ("int a = (z = 2);", {"<globals>": ["z"]}),
                ("int a = 1; int b = (a = 2) + a;", {}),
                ("int f() { late = 5; return 0; } int g() { return late; } "
                 "int early = f(); int probe = g(); int late = 1;",
                 {"<globals>": ["late"]}),
                ("int g() { return x; } int f() { x = 4; return g(); } "
                 "int x = f();", {"<globals>": ["x"]}),
                ("int y = 2; int f() { return y; } int x = f();", {})):
            program = Program.from_source(
                source + "\nint main() { return 0; }", name="globals")
            assert resolve_program(program).unresolved() == unresolved, source
            if "z" in source:
                # The interpreter runs it and crashes in the guest.
                crash = create_backend(program).run(["globals"]).crash
                assert (crash.function, crash.line) == ("<global>", 1)
                assert "assignment to undefined variable 'z'" in crash.message
            if "late" in source:
                executor = create_backend(
                    program, config=ExecutionConfig(backend="vm"))
                assert isinstance(executor, Interpreter)
                runs = [executor.run(["globals"]), create_backend(
                    program, config=ExecutionConfig(backend="interp")).run(
                        ["globals"])]
                assert [(run.exit_code, run.crash.function, run.crash.message)
                        for run in runs] == [
                    (139, "<global>", "undefined variable 'late' (line 1)")] * 2

    def test_duplicate_parameter_names_fall_back(self):
        # The last argument wins at run time; the resolver must not try to
        # slot the collapsed binding, so the program runs on the
        # interpreter whichever backend is selected.
        source = "int f(int a, int a) { return a; }\nint main() { return f(1, 2); }"
        program, resolution = resolution_for(source)
        assert "a" in resolution.for_function("f").unresolved
        fingerprints = {}
        for backend in ("interp", "vm"):
            executor = create_backend(
                program, config=ExecutionConfig(backend=backend))
            assert isinstance(executor, Interpreter)
            result = executor.run(["dup"])
            fingerprints[backend] = (result.exit_code, result.steps,
                                     result.crashed)
        assert fingerprints["vm"] == fingerprints["interp"]
        assert fingerprints["interp"][0] == 2  # last argument wins


def test_every_workload_program_runs_on_the_vm():
    for name, (source, _environment, library) in sorted(
            workload_registry().items()):
        program = Program.from_source(source, name=name,
                                      library_functions=set(library))
        assert resolve_program(program).unresolved() == {}, name
        executor = create_backend(program, config=ExecutionConfig())
        assert isinstance(executor, VirtualMachine), name


@pytest.mark.parametrize("source, keyword, line", [
    ("int main() {\n  break;\n  return 0;\n}", "break", 2),
    ("int main() {\n  return 0;\n  continue;\n}", "continue", 3),
    # A helper's break would otherwise break its caller's loop.
    ("int helper() {\n  break;\n}\nint main() {\n  int i = 0;\n"
     "  while (i < 2) { i = i + 1; helper(); }\n  return i;\n}", "break", 2),
])
def test_loop_exit_outside_a_loop_is_rejected_when_parsed(source, keyword,
                                                         line):
    with pytest.raises(SemanticError, match=f"'{keyword}' outside a loop") \
            as rejected:
        Program.from_source(source, name="loop-exit")
    assert rejected.value.line == line


# ---------------------------------------------------------------------------
# Differential fuzzing: resolved VM vs interpreter
# ---------------------------------------------------------------------------


class _SnippetGenerator:
    """Random MiniC snippets biased toward scope-resolution edge cases.

    With ``declare_up_front`` (the default) every function declares all of
    :attr:`NAMES` before its random statements, so most programs resolve
    and run on the VM; without it most programs have a name the resolver
    cannot slot and run on the interpreter.
    """

    NAMES = ["a", "b", "c", "d", "x", "y"]

    def __init__(self, rng: random.Random,
                 declare_up_front: bool = True) -> None:
        self.rng = rng
        self.declare_up_front = declare_up_front
        self.loop_id = 0

    def declarations(self, *declared: str) -> str:
        if not self.declare_up_front:
            return ""
        return " ".join(f"int {name} = 0;" for name in self.NAMES
                        if name not in declared)

    def expr(self, depth: int = 0) -> str:
        rng = self.rng
        roll = rng.random()
        if depth >= 2 or roll < 0.35:
            return str(rng.randint(0, 9))
        if roll < 0.7:
            return rng.choice(self.NAMES)
        operator = rng.choice(["+", "-", "*", "<", "<=", "==", "!=", ">"])
        return (f"({self.expr(depth + 1)} {operator} {self.expr(depth + 1)})")

    def statement(self, depth: int = 0, allow_loop: bool = True) -> str:
        rng = self.rng
        roll = rng.random()
        if depth >= 3:
            roll = min(roll, 0.59)  # leaf statements only
        if not allow_loop and roll >= 0.80:
            # The loop production expands to two statements (guard decl +
            # while) and is only legal where a statement list is.
            roll = rng.random() * 0.8
        if roll < 0.22:
            return f"int {rng.choice(self.NAMES)} = {self.expr()};"
        if roll < 0.50:
            # Plain assignment: may implicitly declare, assign an outer
            # binding, or hit an undefined name (a legitimate crash).
            return f"{rng.choice(self.NAMES)} = {self.expr()};"
        if roll < 0.60:
            return f'printf("%d ", {rng.choice(self.NAMES)});'
        if roll < 0.80:
            body = self.block(depth + 1) if rng.random() < 0.7 \
                else self.statement(depth + 1, allow_loop=False)
            if rng.random() < 0.5:
                alt = self.block(depth + 1) if rng.random() < 0.5 \
                    else self.statement(depth + 1, allow_loop=False)
                return f"if ({self.expr()}) {body} else {alt}"
            return f"if ({self.expr()}) {body}"
        # Bounded loop: a dedicated counter guards termination while the
        # body stays free to mutate anything.
        self.loop_id += 1
        guard = f"g{self.loop_id}"
        body = self.block(depth + 1, extra=f"{guard} = {guard} + 1;")
        return (f"int {guard} = 0; "
                f"while (({guard} < {self.rng.randint(1, 4)}) "
                f"&& {self.expr()}) {body}")

    def block(self, depth: int, extra: str = "") -> str:
        count = self.rng.randint(1, 3)
        body = " ".join(self.statement(depth) for _ in range(count))
        return "{ " + extra + " " + body + " }"

    def program(self) -> str:
        rng = self.rng
        parts = []
        if rng.random() < 0.5:
            parts.append(f"int ga = {rng.randint(0, 9)};")
        if rng.random() < 0.3:
            parts.append("int gb = 0;")
        helper = ""
        if rng.random() < 0.6:
            helper_body = " ".join(self.statement(1)
                                   for _ in range(rng.randint(1, 3)))
            parts.append("int helper(int a, int n) { "
                         + self.declarations("a") + " "
                         + helper_body + " return a + n; }")
            helper = "x = helper(x, 2);"
        main_body = []
        main_body.append(f"int x = atoi(argv[1]); {self.declarations('x')}")
        for _ in range(rng.randint(2, 5)):
            main_body.append(self.statement(0))
        if helper and rng.random() < 0.8:
            main_body.insert(rng.randint(1, len(main_body)), helper)
        main_body.append('printf("end %d\\n", x);')
        main_body.append("return x;")
        parts.append("int main(int argc, char **argv) { "
                     + " ".join(main_body) + " }")
        return "\n".join(parts)


def run_fingerprint(program: Program, backend: str,
                    profile_opcodes: bool = False) -> tuple:
    recorder = TraceRecorder()
    executor = create_backend(
        program,
        kernel=simple_environment(["fuzz", "7"], name="fuzz").make_kernel(),
        hooks=recorder,
        binder=InputBinder(mode=ExecutionMode.RECORD),
        config=ExecutionConfig(mode=ExecutionMode.RECORD, backend=backend,
                               max_steps=60_000,
                               profile_opcodes=profile_opcodes),
    )
    result = executor.run(["fuzz", "7"])
    crash = None
    if result.crash is not None:
        crash = (result.crash.function, result.crash.line, result.crash.message)
    events = [(event.location, event.taken, event.symbolic,
               str(event.condition), event.index)
              for event in recorder.events]
    return (result.exit_code, result.steps, result.branch_executions,
            result.symbolic_branch_executions, result.syscall_count,
            result.crashed, crash, result.step_limit_hit, result.stdout,
            events)


def fuzzed_programs(base_seed: int, seed: int, count: int,
                    declare_up_front: bool = True):
    """*count* generated programs of one fuzz seed, in generation order."""

    rng = random.Random(base_seed + seed)
    for iteration in range(count):
        source = _SnippetGenerator(rng, declare_up_front).program()
        yield Program.from_source(source,
                                  name=f"fuzz-{base_seed}-{seed}-{iteration}")


#: ``base seed, programs per seed`` of the two VM differential fuzzers.
RESOLUTION_FUZZ = (20260730, 12)
SPECIALIZATION_FUZZ = (20260807, 10)


@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_resolution_parity(seed):
    """Resolved VM == interpreter on random snippets."""

    base_seed, count = RESOLUTION_FUZZ
    for program in fuzzed_programs(base_seed, seed, count):
        resolved = run_fingerprint(program, "vm")
        interp = run_fingerprint(program, "interp")
        assert resolved == interp, program.source


def test_fuzzers_stay_on_the_vm():
    """The differential fuzzers compare the VM with the interpreter, not the
    interpreter with itself: at least 90% of each one's programs resolve.
    (Measured: 91/96, 78/80 and 8/8.)"""

    shares = {}
    for label, (base_seed, count) in (("resolution", RESOLUTION_FUZZ),
                                      ("specialization", SPECIALIZATION_FUZZ)):
        programs = [program for seed in range(8)
                    for program in fuzzed_programs(base_seed, seed, count)]
        shares[label] = sum(resolve_program(program).complete
                            for program in programs) / len(programs)
    shares["fanout"] = sum(
        resolve_program(Program.from_source(_fanout_source(seed))).complete
        for seed in range(8)) / 8
    assert min(shares.values()) >= 0.9, shares


@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_unresolved_programs_run_on_the_interpreter(seed):
    """Programs whose names the resolver cannot slot (undefined reads,
    conditional implicit declarations): ``backend="vm"`` builds the
    interpreter and observes exactly what ``backend="interp"`` does."""

    unresolved = 0
    for program in fuzzed_programs(RESOLUTION_FUZZ[0], seed, 6,
                                   declare_up_front=False):
        if resolve_program(program).complete:
            continue
        unresolved += 1
        assert isinstance(create_backend(program), Interpreter)
        assert run_fingerprint(program, "vm") == \
            run_fingerprint(program, "interp"), program.source
    assert unresolved >= 5


# ---------------------------------------------------------------------------
# Fuzzed specialization parity: the VM's superinstruction stream, run by
# the plain and by the opcode-profiling dispatch loop, is observably
# identical to the interpreter — same steps, branch events, syscalls, crash
# sites and stdout — and the replay search it drives explores the identical
# fan-out.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_specialization_parity(seed):
    """VM == profiled VM == interpreter on random snippets.

    The profiled VM runs the same stream under the generated dispatch loop,
    so the test checks that loop too.  The generator leans into the
    specializer's risk surface: implicitly declared ints, shadowing (slot
    reuse across sibling blocks), loops, symbolic ``atoi`` input flowing
    into compare-and-branch sites, and undefined-name crashes (crash-site
    parity through fused superinstructions).
    """

    base_seed, count = SPECIALIZATION_FUZZ
    for program in fuzzed_programs(base_seed, seed, count):
        vm = run_fingerprint(program, "vm")
        profiled = run_fingerprint(program, "vm", profile_opcodes=True)
        interp = run_fingerprint(program, "interp")
        assert vm == profiled == interp, program.source


def _fanout_fingerprint(outcome) -> tuple:
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


def _fuzz_replay_search(pipeline, recording, backend: str):
    from repro.core.config import ReplayBudget
    from repro.replay.engine import ReplayEngine

    engine = ReplayEngine(
        program=pipeline.program,
        plan=recording.plan,
        bitvector=recording.bitvector,
        syscall_log=(recording.syscall_log
                     if recording.plan.log_syscalls else None),
        crash_site=recording.crash_site,
        environment=recording.environment.scaffold(),
        # Run-count bounded so the termination point is deterministic
        # across substrates and machines.
        budget=ReplayBudget(max_runs=24, max_seconds=600),
        backend=backend,
    )
    return engine.reproduce()


def _fanout_source(seed: int) -> str:
    """A fuzzed program whose crash depends on symbolic input.

    The generated body (over pre-declared names, so it cannot crash on its
    own and the program runs on the VM) stirs the specialization tiers —
    int arithmetic, loops, branches on the symbolic char ``x`` — while the
    guarded ``crash`` on the second symbolic char ``q`` (a name the
    generator never uses) only fires for part of the input space: recorded
    ``'E'`` crashes, the scaffolded replay input does not, so the search
    must fan out and solve its way back to the crash.
    """

    rng = random.Random(20260808 + seed)
    generator = _SnippetGenerator(rng)
    body = " ".join(generator.statement(1, allow_loop=True)
                    for _ in range(4))
    return ("int main(int argc, char **argv) { "
            "int a = 0; int b = 1; int c = 2; int d = 3; int y = 4; "
            "char *arg = argv[1]; int x = arg[0]; int q = arg[1]; "
            + body +
            ' if ((q > 67) && (q < 75)) { crash("boom"); } '
            'printf("end %d %d\\n", q, x); return q; }')


@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_specialization_replay_fanout(seed):
    """The specialized VM's replay search fans out like the interpreter's.

    Record once, then search the recorded crash on the interpreter and on
    the VM — both must explore the identical run tree: same run count,
    per-run outcomes, consumed bits, deviation points, solver calls and
    found input.
    """

    from repro.core.pipeline import Pipeline
    from repro.instrument.methods import InstrumentationMethod

    source = _fanout_source(seed)
    pipeline = Pipeline.from_source(source, name=f"spec-fan-{seed}")
    environment = simple_environment(["fuzz", "EE"], name="fuzz")
    plan = pipeline.make_plan(InstrumentationMethod.NONE,
                              environment=environment)
    recording = pipeline.record(plan, environment)
    assert recording.crash_site is not None, source
    reference = _fanout_fingerprint(
        _fuzz_replay_search(pipeline, recording, "interp"))
    assert reference[0], source  # the oracle search reproduces the crash
    assert reference[1] >= 2, source  # ...and really fanned out to do so
    vm = _fanout_fingerprint(_fuzz_replay_search(pipeline, recording, "vm"))
    assert vm == reference, source
