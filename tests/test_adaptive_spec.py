"""Adaptive specialization: the int lattice, quickening, deopt and synth.

The tiers under test: the resolver's int-type lattice (which slots may be
unboxed statically), runtime quickening (warm-up triggers rewriting hot
generic sites in place), deoptimization (a type-guard violation rewrites a
specialized site back to its generic origin mid-run — the mechanism that
makes record-specialized / replay-generic runs observably identical), and
profile-driven superinstruction synthesis (:mod:`repro.vm.synth`).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import Pipeline
from repro.instrument.methods import InstrumentationMethod
from repro.lang.program import Program
from repro.lang.resolve import resolve_program
from repro.telemetry import MetricsRegistry
from repro.telemetry.runtime import scoped
from repro.trace import dump_trace_bytes, trace_from_recording
from repro.vm import opcodes as op
from repro.vm import synth
from repro.vm.compiler import compile_program
from repro.workloads import fibonacci, userver
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
        program = Program.from_source("""
            int main(int argc, char **argv) {
              int i = 0;
              int total = 0;
              while (i < 1000) { total = total + i; i = i + 1; }
              return total;
            }
        """, name="emission-probe")
        generic = compile_program(program).functions["main"]
        specialized = compile_program(
            program, specialize_ints=True).functions["main"]
        unboxed = {op.BINOP_II, op.BINOP_IC, op.BINOP_II_STORE,
                   op.BINOP_IC_STORE, op.BINOP_II_BRANCH, op.BINOP_IC_BRANCH}
        assert not unboxed & {i[0] for i in generic.instructions}
        assert unboxed & {i[0] for i in specialized.instructions}


# ---------------------------------------------------------------------------
# Runtime quickening and deoptimization counters
# ---------------------------------------------------------------------------


def run_vm(program: Program, environment, plan=None):
    from repro.instrument.logger import BranchLogger
    from repro.interp.inputs import ExecutionMode, InputBinder
    from repro.interp.interpreter import ExecutionConfig
    from repro.interp.tracer import NullHooks
    from repro.vm.machine import VirtualMachine

    hooks = BranchLogger(plan) if plan is not None else NullHooks()
    vm = VirtualMachine(
        program, kernel=environment.make_kernel(), hooks=hooks,
        binder=InputBinder(mode=ExecutionMode.RECORD),
        config=ExecutionConfig(mode=ExecutionMode.RECORD, backend="vm"))
    result = vm.run(environment.argv)
    return vm, result


class TestQuickening:
    def test_warm_up_rewrites_hot_sites(self):
        # userver has candidate sites the lattice cannot prove (library
        # string loops over argv-derived pointers feeding int locals); a
        # fresh compile starts them generic with warm-up triggers, and one
        # run must rewrite at least one of them in place.
        program = Program.from_source(userver.SOURCE, name="quicken-probe")
        environment = userver.saturation_workload(4)
        vm, result = run_vm(program, environment)
        stats = vm.quicken_stats()
        assert result.steps > 0
        assert stats["hits"] >= 1, stats
        assert stats["deopts"] == 0, stats

    def test_second_run_reuses_the_quickened_stream(self):
        # The compile cache returns the already-rewritten stream, so a
        # second run in the same process has nothing left to quicken: the
        # counters are per-run, and the warm sites are already specialized.
        program = Program.from_source(userver.SOURCE, name="quicken-warm")
        environment = userver.saturation_workload(4)
        first_vm, first = run_vm(program, environment)
        second_vm, second = run_vm(program, environment)
        assert first_vm.quicken_stats()["hits"] >= 1
        assert second_vm.quicken_stats()["hits"] == 0
        # Warm or cold, the observable run is identical.
        assert (first.steps, first.branch_executions, first.stdout) == \
            (second.steps, second.branch_executions, second.stdout)

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
        assert counters.get("vm.quicken.deopts", 0) >= 1, counters


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
    deopts = registry.snapshot().counters.get("vm.quicken.deopts", 0)
    return recording, report, deopts


@pytest.mark.parametrize("workload", sorted(_PARITY_SCENARIOS))
def test_guard_violating_replay_produces_identical_traces_and_reports(workload):
    """Record on the specialized VM == record on the interpreter, down to
    the trace bytes.

    The specialized recording runs unboxed/quickened/synthesized code and
    its replay deoptimizes every guard-violating site back to generic; the
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
    cache_keys = ("compile_cache_lookups", "compile_cache_hits",
                  "compile_cache_misses")
    specialized_stats = specialized_report.outcome.stats()
    generic_stats = generic_report.outcome.stats()
    for key in cache_keys:
        specialized_stats.pop(key)
        assert generic_stats.pop(key) == 0
    assert specialized_stats == generic_stats


# ---------------------------------------------------------------------------
# Superinstruction synthesis
# ---------------------------------------------------------------------------


class TestSynth:
    def test_rank_candidates_scores_by_rarer_member(self):
        static = Counter({(op.LOAD_FAST, op.LOAD_FAST): 3,
                          (op.BINARY, op.RET): 1})
        counts = {"LOAD_FAST": 1000, "BINARY": 40, "RET": 90}
        ranked = synth.rank_candidates(static, counts)
        assert ranked[0] == ("load2_fast", 1000)
        assert ("binary_ret", 40) in ranked
        # No static site, or a never-dispatched member -> not a candidate.
        names = [name for name, _score in ranked]
        assert "const_ret" not in names
        assert "load_index_fast" not in names

    def test_select_fusions_limits_and_orders(self):
        program = Program.from_source("""
            int main(int argc, char **argv) {
              int arr[4];
              int i = 1;
              arr[i] = 7;
              return arr[i];
            }
        """, name="synth-select")
        compiled = compile_program(program)
        counts = {"LOAD_FAST": 500, "LOAD_INDEX": 120, "STORE_INDEX": 80,
                  "CONST": 60, "RET": 10}
        selected = synth.select_fusions(compiled, counts, limit=2)
        assert len(selected) == 2
        assert selected[0] == "load2_fast"

    def test_try_fuse_second_round_pairs(self):
        fused = synth.try_fuse(
            ("load_index_ff",),
            (op.LOAD2_FAST, (2, 3), 5, 11), (op.LOAD_INDEX, None, 1, 12))
        assert fused == (op.LOAD_INDEX_FF, (2, 3), 6, 12)
        stored = synth.try_fuse(
            ("store_index_ff",),
            (op.LOAD2_FAST, (0, 1), 2, 7), (op.STORE_INDEX, None, 1, 8))
        assert stored == (op.STORE_INDEX_FF, (0, 1), 3, 8)
        # Unselected patterns never fuse.
        assert synth.try_fuse(
            ("const_ret",),
            (op.LOAD2_FAST, (0, 1), 2, 7), (op.STORE_INDEX, None, 1, 8)) is None

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
        compiled = compile_program(program, specialize_ints=True,
                                   synth_fusions=synth.DEFAULT_FUSIONS)
        stream = [instr[0] for instr in
                  compiled.functions["main"].instructions]
        assert op.LOAD_INDEX_FF in stream
        assert op.STORE_INDEX_FF in stream

    def test_render_dispatch_table(self):
        counts = {"CONST": 85, "BRANCH_LOGGED": 10, "BRANCH_BARE": 5}
        table = synth.render_dispatch_table(counts, top=2)
        lines = table.splitlines()
        assert lines[1].startswith("CONST")
        assert "logged branches: 10" in lines[-1]
        assert "bare branches: 5" in lines[-1]
        assert "shown: 2/3 opcodes" in lines[-1]
        assert synth.render_dispatch_table({}) == "(no vm.opcode.* records)"
