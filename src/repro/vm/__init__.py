"""The MiniC bytecode execution backend.

``repro.vm`` lowers a parsed :class:`~repro.lang.program.Program` into a
compact stack-machine instruction stream (:mod:`repro.vm.compiler`,
:mod:`repro.vm.opcodes`) and executes it with a flat dispatch loop
(:mod:`repro.vm.machine`).  The VM is observationally identical to the
tree-walking interpreter — same :class:`ExecutionResult`, same branch-event
and syscall streams, same crash sites, same step accounting — but cheaper per
executed construct, which matters because recording, replay search and
concolic analysis all re-run the same program hundreds of times.

Select it with ``ExecutionConfig(backend="vm")`` /
``PipelineConfig(backend="vm")`` (a program whose names the static scope
resolution cannot all slot then runs on the interpreter) or build one
directly for a program it resolves completely::

    from repro.vm import VirtualMachine
    vm = VirtualMachine(program, kernel=kernel, hooks=hooks)
    result = vm.run(argv)
"""

from repro.vm.code import CodeObject, CompiledProgram
from repro.vm.compiler import Compiler, compile_program
from repro.vm.machine import VirtualMachine

__all__ = [
    "CodeObject",
    "CompiledProgram",
    "Compiler",
    "VirtualMachine",
    "compile_program",
]
