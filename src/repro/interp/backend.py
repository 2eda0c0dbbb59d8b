"""The execution-backend protocol and factory.

Two engines can execute a MiniC program run: the tree-walking
:class:`~repro.interp.interpreter.Interpreter` and the bytecode
:class:`~repro.vm.machine.VirtualMachine`.  Both satisfy the same
:class:`Backend` protocol — construct with ``(program, kernel, hooks, binder,
config)``, call :meth:`run`, observe identical events — so every pipeline
stage (recording, replay search, concolic analysis) is backend-agnostic.

:func:`create_backend` picks the engine from
:attr:`~repro.interp.interpreter.ExecutionConfig.backend`; the pipeline
threads :attr:`~repro.core.config.PipelineConfig.backend` into it.  The VM
runs only programs whose every identifier the static scope resolution pins
to one frame slot or global (:attr:`~repro.lang.resolve.ProgramResolution.
complete`); ``backend="vm"`` runs any other program on the interpreter, the
oracle the VM is checked against, so the choice never changes what a run
observes.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, runtime_checkable

from repro.interp.inputs import InputBinder
from repro.interp.interpreter import ExecutionConfig, ExecutionResult, Interpreter
from repro.interp.tracer import ExecutionHooks
from repro.lang.program import Program
from repro.lang.resolve import resolve_program
from repro.osmodel.kernel import Kernel
from repro.osmodel.syscalls import SyscallKind

#: The selectable execution backends.
BACKENDS = ("interp", "vm")


def compile_cache_stats() -> dict:
    """Hit/miss counters of the VM's ``(Program, plan)`` compiled-code cache.

    The replay engine's hundreds of re-runs must hit this cache after the
    first run of each plan; a miss-heavy profile means plans are being
    rebuilt with differing fingerprints.  Counters are process-wide.
    """

    from repro.vm.compiler import cache_stats

    return cache_stats()


@runtime_checkable
class Backend(Protocol):
    """What every execution engine exposes.

    Beyond :meth:`run`, the attributes listed here are relied on by the
    shared builtin functions (:mod:`repro.interp.builtins`), which receive
    the executing backend as their first argument.
    """

    program: Program
    kernel: Kernel
    hooks: ExecutionHooks
    binder: InputBinder
    config: ExecutionConfig
    #: The replay guard log the builtins append to, or ``None``.
    guards: Optional[list]

    def run(self, argv: Sequence[str]) -> ExecutionResult:
        """Execute ``main`` with *argv* and return the run summary."""

    def current_function_name(self) -> str:
        """Name of the function currently executing (``<global>`` outside)."""

    def notify_syscall(self) -> None:
        """Report newly recorded kernel syscalls to the hooks."""

    def forced_syscall_result(self, kind: SyscallKind) -> Optional[int]:
        """Next replay-logged result for *kind*, if a log is installed."""


def engine_for(program: Program, backend: Optional[str]) -> str:
    """The engine that runs *program* when *backend* is selected.

    ``"vm"`` only for a program the scope resolution resolves completely
    (decided once per program: the resolution is cached on it); everything
    else runs on ``"interp"``.
    """

    name = backend or "vm"
    if name not in BACKENDS:
        raise ValueError(f"unknown execution backend {name!r}; "
                         f"expected one of {BACKENDS}")
    if name == "vm" and resolve_program(program).complete:
        return "vm"
    return "interp"


def create_backend(program: Program, kernel: Optional[Kernel] = None,
                   hooks: Optional[ExecutionHooks] = None,
                   binder: Optional[InputBinder] = None,
                   config: Optional[ExecutionConfig] = None) -> Backend:
    """Build the execution engine :func:`engine_for` picks."""

    config = config or ExecutionConfig()
    if engine_for(program, config.backend) == "vm":
        from repro.vm.machine import VirtualMachine

        return VirtualMachine(program, kernel=kernel, hooks=hooks,
                              binder=binder, config=config)
    return Interpreter(program, kernel=kernel, hooks=hooks,
                       binder=binder, config=config)
