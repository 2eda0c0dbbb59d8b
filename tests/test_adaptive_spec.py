"""Compiled streams: no run rewrites one, and the dispatch-table view.

Every run of one ``(program, plan)`` pair executes the one stream
:func:`repro.vm.compiler.compile_program` caches for it.  A recording runs
it on concrete values and a replay search on symbolic ones; neither writes
to it, and both match the interpreter oracle byte for byte.
"""

from __future__ import annotations

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import Pipeline
from repro.instrument.methods import InstrumentationMethod
from repro.service.cli import render_dispatch_table
from repro.trace import dump_trace_bytes, trace_from_recording
from repro.vm.compiler import compile_program
from repro.workloads import fibonacci
from repro.workloads.coreutils import ALL_PROGRAMS


# ---------------------------------------------------------------------------
# No run rewrites a compiled stream
# ---------------------------------------------------------------------------


def _shape(streams):
    return [[(opcode, charge, line) for opcode, _arg, charge, line in stream]
            for stream in streams]


class TestDeopt:
    """Nothing deoptimizes: the cached stream is never written to."""

    def test_concrete_runs_leave_the_compiled_code_as_compiled(self):
        # The recording runs the cached stream on concrete values; the
        # replay search runs it again on symbolic ones (scenario b feeds
        # its symbolic input straight into slot arithmetic and slot
        # compare-and-branch sites).  Afterwards the cache still holds the
        # stream the compiler emitted, instruction for instruction.
        pipeline = Pipeline.from_source(
            fibonacci.SOURCE, name="stream-probe",
            config=PipelineConfig(backend="vm"))
        environment = fibonacci.scenario_b()
        plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                                  environment=environment)
        compiled = compile_program(pipeline.program, plan)
        codes = [compiled.globals_code, *compiled.functions.values()]
        snapshot = [list(code.instructions) for code in codes]
        recording = pipeline.record(plan, environment)
        outcome = pipeline.reproduce(recording).outcome
        assert outcome.compile_cache_lookups == outcome.runs > 1
        assert compile_program(pipeline.program, plan) is compiled
        assert [code.instructions for code in codes] == snapshot
        fresh_pipeline = Pipeline.from_source(fibonacci.SOURCE,
                                              name="stream-probe-fresh")
        fresh = compile_program(fresh_pipeline.program, plan)
        assert _shape(snapshot) == _shape(
            code.instructions
            for code in [fresh.globals_code, *fresh.functions.values()])


# ---------------------------------------------------------------------------
# Record and replay on the VM: the interpreter's trace bytes and report
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


#: Parity scenarios: mkfifo's replay reproduces its crash (report parity
#: through a full successful search); fibonacci's replay feeds symbolic
#: input straight into the slot superinstructions, so they take their
#: symbolic paths mid-search.
_PARITY_SCENARIOS = {
    "mkfifo": lambda: (ALL_PROGRAMS["mkfifo"].SOURCE,
                       ALL_PROGRAMS["mkfifo"].bug_scenario()),
    "fibonacci": lambda: (fibonacci.SOURCE, fibonacci.scenario_b()),
}


def _record_and_reproduce(workload: str, name: str, backend: str):
    source, environment = _PARITY_SCENARIOS[workload]()
    config = PipelineConfig(backend=backend)
    pipeline = Pipeline.from_source(source, name=name, config=config)
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    recording = pipeline.record(plan, environment)
    return recording, pipeline.reproduce(recording)


@pytest.mark.parametrize("workload", sorted(_PARITY_SCENARIOS))
def test_guard_violating_replay_produces_identical_traces_and_reports(workload):
    """Record on the specialized VM == record on the interpreter, down to
    the trace bytes.

    The VM records and replays on plan-specialized code with fused
    superinstructions; the interpreter oracle has nothing to specialize.
    Both must produce the byte-identical persisted trace and the identical
    replay report.
    """

    specialized_rec, specialized_report = _record_and_reproduce(
        workload, f"parity-{workload}-vm", "vm")
    generic_rec, generic_report = _record_and_reproduce(
        workload, f"parity-{workload}-interp", "interp")
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
# The dispatch-table view of a profile
# ---------------------------------------------------------------------------


class TestSynth:
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
        # CONST is arm 2, BRANCH arm 19 and BINOP_FF_BRANCH arm 9.
        assert lines[-1].endswith("mean arms tested per dispatch: 4.05")
        assert render_dispatch_table({}) == "(no vm.opcode.* records)"
