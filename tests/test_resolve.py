"""The static scope-resolution pass: edge cases and fuzzed parity.

The first half pins the resolution rules directly (what gets a slot, what
falls back to named cells, what resolves to a global); the second half is a
differential fuzz loop asserting that the register-allocated VM is
observably identical to the tree-walking interpreter on randomly generated
MiniC snippets that lean into the ugly corners: implicit declarations,
conditional declarations, shadowing, read-before-write, globals, and block
lifetimes.
"""

from __future__ import annotations

import random

import pytest

from repro.environment import simple_environment
from repro.interp.backend import create_backend
from repro.interp.inputs import ExecutionMode, InputBinder
from repro.interp.interpreter import ExecutionConfig
from repro.interp.tracer import TraceRecorder
from repro.lang.program import Program
from repro.lang.resolve import (
    GLOBAL,
    NAMED,
    RESOLVER_VERSION,
    SLOT,
    resolve_program,
)
from repro.vm.compiler import compile_program
from repro.vm import opcodes as op


def resolution_for(source: str):
    program = Program.from_source(source, name="probe")
    return program, resolve_program(program)


def kinds_for(resolution, function, name):
    """The set of access kinds the identifier *name* got in *function*."""

    fn = resolution.for_function(function)
    program_kinds = set()
    for node_id, access in fn.accesses.items():
        program_kinds.add(access[0])
    return program_kinds


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
        assert main.elide_scopes
        assert not main.fallback_names

    def test_parameters_get_the_first_slots(self):
        program, resolution = resolution_for("""
            int add(int x, int y) { int s = x + y; return s; }
            int main() { return add(1, 2); }
        """)
        add = resolution.for_function("add")
        assert add.param_slots == [0, 1]
        assert add.slot_names[:2] == ["x", "y"]

    def test_read_before_write_falls_back(self):
        # `x` is read before any declaration: the read must keep raising the
        # interpreter's "undefined variable" error, so every access of `x`
        # stays on the named-cell path.
        program, resolution = resolution_for("""
            int main() { int y = x + 1; x = 2; return y; }
        """)
        assert "x" in resolution.for_function("main").fallback_names
        assert all(a == (NAMED,)
                   for a in accesses_of(program, resolution, "main", "x"))
        assert not resolution.for_function("main").elide_scopes

    def test_read_before_write_of_global_resolves_global(self):
        program, resolution = resolution_for("""
            int counter = 5;
            int main() { int y = counter + 1; counter = y; return counter; }
        """)
        main = resolution.for_function("main")
        assert "counter" not in main.fallback_names
        assert all(a == (GLOBAL,)
                   for a in accesses_of(program, resolution, "main", "counter"))
        # Global accesses do not block slotting of the real locals.
        assert main.elide_scopes and "y" in main.slot_names

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
        assert "x" not in main.fallback_names
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
        assert "x" not in main.fallback_names
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
        assert "x" in resolution.for_function("main").fallback_names

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
        assert "x" not in main.fallback_names
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
        assert "t" in resolution.for_function("main").fallback_names

    def test_address_of_local_keeps_its_slot(self):
        program, resolution = resolution_for("""
            int main() { int x = 3; int *p = &x; *p = 7; return x; }
        """)
        main = resolution.for_function("main")
        assert "x" in main.slot_names and "p" in main.slot_names
        assert main.elide_scopes

    def test_fully_slotted_function_elides_scope_opcodes(self):
        program, _ = resolution_for("""
            int main() { int total = 0; int i;
                for (i = 0; i < 4; i = i + 1) { total = total + i; }
                return total; }
        """)
        compiled = compile_program(program)
        assert compiled.resolver_version == RESOLVER_VERSION
        opcodes = [instr[0] for instr in compiled.main.instructions]
        assert op.SCOPE_PUSH not in opcodes and op.SCOPE_POP not in opcodes

    def test_fallback_function_keeps_scope_opcodes(self):
        program, resolution = resolution_for("""
            int main(int argc, char **argv) {
                if (argc > 1) late = 1;
                { int inner = late + 1; }
                return 0;
            }
        """)
        assert not resolution.for_function("main").elide_scopes
        compiled = compile_program(program)
        opcodes = [instr[0] for instr in compiled.main.instructions]
        assert op.SCOPE_PUSH in opcodes and op.SCOPE_POP in opcodes

    def test_duplicate_parameter_names_fall_back(self):
        # The last argument wins at run time (both backends agree); the
        # resolver must not try to slot the collapsed binding.
        source = "int f(int a, int a) { return a; }\nint main() { return f(1, 2); }"
        program, resolution = resolution_for(source)
        assert "a" in resolution.for_function("f").fallback_names
        fingerprints = {}
        for backend in ("interp", "vm"):
            executor = create_backend(
                program, config=ExecutionConfig(backend=backend))
            result = executor.run(["dup"])
            fingerprints[backend] = (result.exit_code, result.steps,
                                     result.crashed)
        assert fingerprints["vm"] == fingerprints["interp"]
        assert fingerprints["interp"][0] == 2  # last argument wins


# ---------------------------------------------------------------------------
# Differential fuzzing: resolved VM vs interpreter
# ---------------------------------------------------------------------------


class _SnippetGenerator:
    """Random MiniC snippets biased toward scope-resolution edge cases."""

    NAMES = ["a", "b", "c", "d", "x", "y"]

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.loop_id = 0

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
                         + helper_body + " return a + n; }")
            helper = "x = helper(x, 2);"
        main_body = []
        main_body.append(f"int x = atoi(argv[1]);")
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


@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_resolution_parity(seed):
    """Resolved VM == interpreter on random snippets."""

    rng = random.Random(20260730 + seed)
    for iteration in range(12):
        source = _SnippetGenerator(rng).program()
        program = Program.from_source(source, name=f"fuzz-{seed}-{iteration}")
        resolved = run_fingerprint(program, "vm")
        interp = run_fingerprint(program, "interp")
        assert resolved == interp, source


# ---------------------------------------------------------------------------
# Fuzzed adaptive-specialization parity: the unboxed/quickened/synthesized
# VM is observably identical to the generic stream the opcode profiler runs
# and to the interpreter — same steps, branch events, syscalls, crash sites
# and stdout — and the replay search it drives explores the identical
# fan-out.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_specialization_parity(seed):
    """Specialized VM == profiled generic VM == interpreter on random snippets.

    The generator leans into the specializer's risk surface: implicitly
    declared ints, shadowing (slot reuse across sibling blocks), loops
    (warm-up triggers fire mid-run), symbolic ``atoi`` input flowing into
    compare-and-branch sites, and undefined-name crashes (crash-site parity
    through fused superinstructions).
    """

    rng = random.Random(20260807 + seed)
    for iteration in range(10):
        source = _SnippetGenerator(rng).program()
        program = Program.from_source(
            source, name=f"spec-fuzz-{seed}-{iteration}")
        specialized = run_fingerprint(program, "vm")
        generic = run_fingerprint(program, "vm", profile_opcodes=True)
        interp = run_fingerprint(program, "interp")
        assert specialized == generic == interp, source


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


def _fuzz_replay_search(pipeline, recording, backend: str, workers: int):
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
        workers=workers,
    )
    return engine.reproduce()


def _fanout_source(seed: int) -> str:
    """A fuzzed program whose crash depends on symbolic input.

    The generated body (over pre-declared names, so it cannot crash on its
    own) stirs the specialization tiers — int arithmetic, loops, branches
    on the symbolic char ``x`` — while the guarded undefined-name crash on
    the second symbolic char ``q`` (a name the generator never uses) only
    fires for part of the input space: recorded ``'E'`` crashes, the
    scaffolded replay input does not, so the search must fan out and solve
    its way back to the crash.
    """

    rng = random.Random(20260808 + seed)
    generator = _SnippetGenerator(rng)
    body = " ".join(generator.statement(1, allow_loop=True)
                    for _ in range(4))
    return ("int main(int argc, char **argv) { "
            "int a = 0; int b = 1; int c = 2; int d = 3; int y = 4; "
            "char *arg = argv[1]; int x = arg[0]; int q = arg[1]; "
            + body +
            " if ((q > 67) && (q < 75)) { q = boom + 1; } "
            'printf("end %d %d\\n", q, x); return q; }')


@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_specialization_replay_fanout(seed):
    """The specialized VM's replay search fans out like the interpreter's.

    Record once, then search the recorded crash on the interpreter, on the
    VM serially and on the VM across a process pool — every configuration
    must explore the identical run tree: same run count, per-run outcomes,
    consumed bits, deviation points, solver calls and found input.
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
        _fuzz_replay_search(pipeline, recording, "interp", 1))
    assert reference[0], source  # the oracle search reproduces the crash
    assert reference[1] >= 2, source  # ...and really fanned out to do so
    serial = _fanout_fingerprint(
        _fuzz_replay_search(pipeline, recording, "vm", 1))
    assert serial == reference, source
    # Process workers rebuild the engine from a pickled spec in their own
    # interpreters and must commit the same serial pop order.
    pooled = _fanout_fingerprint(
        _fuzz_replay_search(pipeline, recording, "vm", 2))
    assert pooled == reference, source
