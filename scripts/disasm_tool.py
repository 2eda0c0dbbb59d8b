#!/usr/bin/env python
"""Disassemble the bytecode the VM would run for a workload.

The debugging aid for the register-allocation and plan-specialization
layers: dump every compiled code object — opcode names, slot numbers with
their source names, branch targets and, for each branch the selected
instrumentation plan logs, its bitvector slot (``[slot N]``: inline
bitvector append/compare; a branch without the mark dispatches no hook)::

    PYTHONPATH=src python scripts/disasm_tool.py --workload microbench
    PYTHONPATH=src python scripts/disasm_tool.py --workload diff-exp1 \
        --method "all branches" --function main
    PYTHONPATH=src python scripts/disasm_tool.py --workload userver-exp1 \
        --summary

``--method`` selects the plan (omitted: unspecialized code); the listing
is the one stream every run of that plan executes, compare-and-branch and
slot superinstructions included, and no run rewrites it.  ``--summary``
prints per-function frame layouts and opcode counts instead of full
listings.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.instrument.methods import InstrumentationMethod  # noqa: E402
from repro.lang.resolve import resolve_program  # noqa: E402
from repro.service import workload_pipeline  # noqa: E402
from repro.vm.code import CompiledProgram  # noqa: E402
from repro.vm.compiler import compile_program  # noqa: E402
from repro.vm.opcodes import OPCODE_NAMES  # noqa: E402
from repro.workloads import workload_registry  # noqa: E402


def summarize(compiled: CompiledProgram) -> str:
    lines = []
    codes = list(compiled.functions.values())
    if compiled.globals_code is not None and compiled.globals_code.instructions:
        codes.insert(0, compiled.globals_code)
    for code in codes:
        ops = Counter(OPCODE_NAMES.get(instr[0], str(instr[0]))
                      for instr in code.instructions)
        layout = ", ".join(f"{i}:{name}"
                           for i, name in enumerate(code.slot_names)) or "-"
        lines.append(f"{code.name}: {len(code.instructions)} instructions, "
                     f"nlocals={code.nlocals} [{layout}]")
        lines.append("  " + ", ".join(f"{name}x{count}"
                                      for name, count in ops.most_common()))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a name from `trace_tool.py list`")
    parser.add_argument("--method", default=None,
                        choices=[m.value for m in InstrumentationMethod],
                        help="plan-specialize for this instrumentation method "
                             "(omit for unspecialized code)")
    parser.add_argument("--function", default=None,
                        help="disassemble only this function")
    parser.add_argument("--summary", action="store_true",
                        help="frame layouts and opcode histograms only")
    args = parser.parse_args(argv)

    table = workload_registry()
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose one of: "
              f"{', '.join(sorted(table))}", file=sys.stderr)
        return 2
    pipeline, environment = workload_pipeline(args.workload)
    program = pipeline.program

    plan = None
    if args.method is not None:
        plan = pipeline.make_plan(InstrumentationMethod(args.method),
                                  environment=environment)
    compiled = compile_program(program, plan)

    stats = resolve_program(program).stats()
    header = [f"workload {args.workload}: {len(compiled.functions)} functions, "
              f"{compiled.instruction_count()} instructions"]
    header.append(f"plan: {args.method or 'none (unspecialized)'}; "
                  f"logged branch slots: {len(compiled.logged_locations)}")
    header.append(
        f"register allocation v{compiled.resolver_version}: "
        f"{stats['slots']} slots, {stats['slot_accesses']} slot accesses, "
        f"{stats['global_accesses']} global accesses")
    print("\n".join(header))
    print()

    if args.function is not None:
        code = compiled.functions.get(args.function)
        if code is None:
            print(f"no function {args.function!r} in this workload",
                  file=sys.stderr)
            return 2
        print(summarize(compiled) if args.summary else code.dis())
        return 0
    print(summarize(compiled) if args.summary else compiled.dis())
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Output piped into `head`/`grep -q` that closed early: the
        # consumer got what it wanted, not an error on our side.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
