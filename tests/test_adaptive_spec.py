"""Specialization: the int lattice, deopt and the fixed pair fusions.

The mechanisms under test: the resolver's int-type lattice (which slots the
compiler unboxes), deoptimization (a type-guard violation rewrites an
unboxed site back to its generic origin mid-run — the mechanism that makes
record-specialized / replay-generic runs observably identical), and the
compiler's fixed pair peephole (:data:`repro.vm.compiler.PAIR_CATALOG`).
"""

from __future__ import annotations

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import Pipeline
from repro.instrument.methods import InstrumentationMethod
from repro.lang.program import Program
from repro.lang.resolve import resolve_program
from repro.service import workload_pipeline
from repro.service.cli import render_dispatch_table
from repro.telemetry import MetricsRegistry
from repro.telemetry.runtime import scoped
from repro.trace import dump_trace_bytes, trace_from_recording
from repro.vm import opcodes as op
from repro.vm.compiler import compile_program
from repro.workloads import fibonacci
from repro.workloads.coreutils import ALL_PROGRAMS


def slots_by_name(program: Program, function: str):
    code = compile_program(program).functions[function]
    return {name: index for index, name in enumerate(code.slot_names)}


def lattice_for(source: str, function: str = "main"):
    program = Program.from_source(source, name="lattice-probe")
    resolution = resolve_program(program)
    return program, resolution.for_function(function)


# ---------------------------------------------------------------------------
# The resolver's int-type lattice
# ---------------------------------------------------------------------------


class TestIntLattice:
    def test_int_locals_and_atoi_results_are_int_slots(self):
        program, fn = lattice_for("""
            int main(int argc, char **argv) {
              int n = atoi(argv[1]);
              int total = 0;
              int i = 0;
              while (i < n) { total = total + i; i = i + 1; }
              return total;
            }
        """)
        slots = slots_by_name(program, "main")
        for name in ("argc", "n", "total", "i"):
            assert slots[name] in fn.int_slots, name

    def test_pointer_slots_are_excluded(self):
        program, fn = lattice_for("""
            int main(int argc, char **argv) {
              char buf[8];
              char *p = buf;
              int n = 3;
              p[0] = 65;
              return n;
            }
        """)
        slots = slots_by_name(program, "main")
        assert slots["buf"] in fn.pointer_slots
        assert slots["p"] in fn.pointer_slots
        assert slots["buf"] not in fn.int_slots
        assert slots["p"] not in fn.int_slots
        assert slots["n"] in fn.int_slots

    def test_pointer_write_poisons_an_otherwise_int_slot(self):
        # `x` starts as an int but is later overwritten with a pointer: the
        # lattice must converge to not-int (a single unboxed site reading a
        # pointer out of an "int" slot would corrupt the run).
        program, fn = lattice_for("""
            int main(int argc, char **argv) {
              int x = 1;
              x = x + 2;
              x = argv;
              return 0;
            }
        """)
        slots = slots_by_name(program, "main")
        assert slots["x"] not in fn.int_slots

    def test_int_slots_drive_unboxed_emission(self):
        # One stream: the counting loop's proven-int sites are unboxed, and
        # `x`, poisoned by a pointer write, keeps its boxed arithmetic.
        program = Program.from_source("""
            int main(int argc, char **argv) {
              int i = 0;
              int total = 0;
              int x = 1;
              while (i < 1000) { total = total + i; i = i + 1; }
              x = x + 2;
              x = argv;
              return total;
            }
        """, name="emission-probe")
        code = compile_program(program).functions["main"]
        slots = {name: index for index, name in enumerate(code.slot_names)}
        stores = {arg[3]: opcode  # keyed by the target slot
                  for opcode, arg, _charge, _line in code.instructions
                  if opcode in (op.BINOP_FC_STORE, op.BINOP_IC_STORE,
                                op.BINOP_II_STORE)}
        assert stores == {slots["i"]: op.BINOP_IC_STORE,
                          slots["total"]: op.BINOP_II_STORE,
                          slots["x"]: op.BINOP_FC_STORE}
        assert op.BINOP_IC_BRANCH in {i[0] for i in code.instructions}


# ---------------------------------------------------------------------------
# Deoptimization: the only rewrite of a compiled stream
# ---------------------------------------------------------------------------


class TestDeopt:
    def test_concrete_runs_leave_the_compiled_code_as_compiled(self):
        # A recording runs on concrete values, so no guard fails and the
        # cached stream stays exactly what the compiler emitted.
        pipeline, environment = workload_pipeline("userver-exp1")
        plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                                  environment=environment)
        compiled = compile_program(pipeline.program, plan)
        codes = [compiled.globals_code, *compiled.functions.values()]
        snapshot = [list(code.instructions) for code in codes]
        pipeline.record(plan, environment)
        pipeline.record(plan, environment)
        assert [code.instructions for code in codes] == snapshot
        fresh_pipeline, _ = workload_pipeline("userver-exp1")
        fresh = compile_program(fresh_pipeline.program, plan)

        def shape(streams):
            return [[(opcode, charge, line)
                     for opcode, _arg, charge, line in stream]
                    for stream in streams]

        assert shape(snapshot) == shape(
            code.instructions
            for code in [fresh.globals_code, *fresh.functions.values()])

    def test_replay_deoptimizes_specialized_sites(self):
        # Record runs concrete (unboxed guards hold); replay runs the same
        # stream against symbolic values, so the guards must fail and flip
        # each site back to its generic origin — counted as deopts.
        pipeline = Pipeline.from_source(
            fibonacci.SOURCE, name="deopt-count",
            config=PipelineConfig(backend="vm"))
        environment = fibonacci.scenario_b()
        plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                                  environment=environment)
        recording = pipeline.record(plan, environment)
        registry = MetricsRegistry()
        with scoped(registry):
            pipeline.reproduce(recording)
        counters = registry.snapshot().counters
        assert counters.get("vm.deopts", 0) >= 1, counters


# ---------------------------------------------------------------------------
# Deopt parity: record specialized, replay flips generic — the interpreter's
# bytes
# ---------------------------------------------------------------------------


def _outcome_fingerprint(outcome) -> tuple:
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


#: Deopt-parity scenarios: mkfifo's replay reproduces its crash (report
#: parity through a full successful search); fibonacci's replay feeds
#: symbolic input straight into statically unboxed arithmetic, so its
#: int-slot guards must fail and deoptimize mid-search.
_PARITY_SCENARIOS = {
    "mkfifo": (lambda: (ALL_PROGRAMS["mkfifo"].SOURCE,
                        ALL_PROGRAMS["mkfifo"].bug_scenario()),
               False),
    "fibonacci": (lambda: (fibonacci.SOURCE, fibonacci.scenario_b()),
                  True),
}


def _record_and_reproduce(workload: str, name: str, backend: str):
    source, environment = _PARITY_SCENARIOS[workload][0]()
    config = PipelineConfig(backend=backend)
    pipeline = Pipeline.from_source(source, name=name, config=config)
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    recording = pipeline.record(plan, environment)
    registry = MetricsRegistry()
    with scoped(registry):
        report = pipeline.reproduce(recording)
    deopts = registry.snapshot().counters.get("vm.deopts", 0)
    return recording, report, deopts


@pytest.mark.parametrize("workload", sorted(_PARITY_SCENARIOS))
def test_guard_violating_replay_produces_identical_traces_and_reports(workload):
    """Record on the specialized VM == record on the interpreter, down to
    the trace bytes.

    The specialized recording runs unboxed and fused code and its replay
    deoptimizes every guard-violating site back to generic; the
    interpreter oracle has nothing to specialize.  Both must produce the
    byte-identical persisted trace and the identical replay report.
    """

    expect_deopts = _PARITY_SCENARIOS[workload][1]
    specialized_rec, specialized_report, specialized_deopts = \
        _record_and_reproduce(workload, f"deopt-parity-{workload}-vm", "vm")
    generic_rec, generic_report, generic_deopts = \
        _record_and_reproduce(workload, f"deopt-parity-{workload}-interp",
                              "interp")
    # The interpreter has nothing to deoptimize, ever; the workloads marked
    # expect_deopts really do hit guards and flip sites back.
    assert generic_deopts == 0
    if expect_deopts:
        assert specialized_deopts >= 1
    on_bytes = dump_trace_bytes(
        trace_from_recording(specialized_rec, program_name=workload))
    off_bytes = dump_trace_bytes(
        trace_from_recording(generic_rec, program_name=workload))
    assert on_bytes == off_bytes
    assert _outcome_fingerprint(specialized_report.outcome) == \
        _outcome_fingerprint(generic_report.outcome)
    if workload == "mkfifo":
        assert specialized_report.outcome.reproduced
    # Every counter but the VM's compile-cache lookups (the interpreter
    # compiles nothing) matches.
    specialized, generic = specialized_report.outcome, generic_report.outcome
    assert generic.compile_cache_lookups == 0
    for name in ("runs", "solver_calls", "solver_nodes", "warm_start_hits"):
        assert getattr(specialized, name) == getattr(generic, name), name


# ---------------------------------------------------------------------------
# Superinstruction synthesis: the fixed pair peephole
# ---------------------------------------------------------------------------


class TestSynth:
    def test_try_fuse_second_round_pairs(self):
        # The second round fuses a first-round product: each all-slot
        # access becomes one instruction carrying both slots, the summed
        # charge of the three it replaces (the two operands of the store;
        # the statement, the access and its two operands of the load) and
        # the access's line.
        program = Program.from_source(
            "int main(int argc, char **argv) {\n"
            "  int arr[4];\n"
            "  int i = 1;\n"
            "  arr[i] = 7;\n"
            "  return arr[i];\n"
            "}\n", name="synth-second-round")
        code = compile_program(program).functions["main"]
        slots = {name: index for index, name in enumerate(code.slot_names)}
        pair = (slots["arr"], slots["i"])
        assert [instr for instr in code.instructions
                if instr[0] in (op.LOAD_INDEX_FF, op.STORE_INDEX_FF)] == [
            (op.STORE_INDEX_FF, pair, 2, 4), (op.LOAD_INDEX_FF, pair, 4, 5)]

    def test_compiler_materializes_all_slot_array_access(self):
        # LOAD_FAST;LOAD_FAST;LOAD_INDEX collapses in two rounds: first to
        # LOAD2_FAST;LOAD_INDEX, then to the one-dispatch LOAD_INDEX_FF.
        program = Program.from_source("""
            int main(int argc, char **argv) {
              int arr[4];
              int i = 1;
              arr[i] = 7;
              return arr[i];
            }
        """, name="synth-ff")
        compiled = compile_program(program)
        stream = [instr[0] for instr in
                  compiled.functions["main"].instructions]
        assert op.LOAD_INDEX_FF in stream
        assert op.STORE_INDEX_FF in stream

    def test_render_dispatch_table(self):
        counts = {"CONST": 85, "BRANCH": 10, "BINOP_FF_BRANCH": 5}
        table = render_dispatch_table(
            counts, top=2, branches={"logged": 10, "unlogged": 5})
        lines = table.splitlines()
        assert lines[1].startswith("CONST")
        assert lines[2].startswith("BRANCH") and lines[2].endswith("branch")
        assert "logged branches: 10" in lines[-1]
        assert "unlogged branches: 5" in lines[-1]
        assert "shown: 2/3 opcodes" in lines[-1]
        # CONST is arm 1, BRANCH arm 21 and BINOP_FF_BRANCH arm 26.
        assert lines[-1].endswith("mean arms tested per dispatch: 4.25")
        assert render_dispatch_table({}) == "(no vm.opcode.* records)"
