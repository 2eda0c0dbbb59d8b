"""The execution-backend protocol and factory.

Two engines can execute a MiniC program run: the tree-walking
:class:`~repro.interp.interpreter.Interpreter` and the bytecode
:class:`~repro.vm.machine.VirtualMachine`.  Both satisfy the same
:class:`Backend` protocol — construct with ``(program, kernel, hooks, binder,
config)``, call :meth:`run`, observe identical events — so every pipeline
stage (recording, replay search, concolic analysis) is backend-agnostic.

:func:`create_backend` picks the engine from
:attr:`~repro.interp.interpreter.ExecutionConfig.backend`; the pipeline
threads :attr:`~repro.core.config.PipelineConfig.backend` into it.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, runtime_checkable

from repro.interp.inputs import InputBinder
from repro.interp.interpreter import ExecutionConfig, ExecutionResult, Interpreter
from repro.interp.tracer import ExecutionHooks
from repro.lang.program import Program
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


def create_backend(program: Program, kernel: Optional[Kernel] = None,
                   hooks: Optional[ExecutionHooks] = None,
                   binder: Optional[InputBinder] = None,
                   config: Optional[ExecutionConfig] = None) -> Backend:
    """Build the execution engine selected by ``config.backend``."""

    config = config or ExecutionConfig()
    name = config.backend or "vm"
    if name == "vm":
        from repro.vm.machine import VirtualMachine

        return VirtualMachine(program, kernel=kernel, hooks=hooks,
                              binder=binder, config=config)
    if name != "interp":
        raise ValueError(f"unknown execution backend {name!r}; "
                         f"expected one of {BACKENDS}")
    return Interpreter(program, kernel=kernel, hooks=hooks,
                       binder=binder, config=config)
