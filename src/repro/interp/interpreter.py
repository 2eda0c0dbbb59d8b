"""The MiniC tree-walking interpreter.

One interpreter instance executes one run of a program.  The interpreter:

* computes with :class:`~repro.interp.values.ConcolicValue` objects so the same
  code path serves concrete recording, dynamic analysis and replay;
* reports every branch execution and syscall to the installed
  :class:`~repro.interp.tracer.ExecutionHooks`;
* counts "instructions" (interpreter steps) so the instrumentation overhead
  model has a base cost to compare against;
* converts guest-level failures (out-of-bounds accesses, null dereferences,
  explicit ``crash()``/``abort()``/failed ``assert``) into a
  :class:`~repro.lang.errors.ProgramCrash` recorded in the
  :class:`ExecutionResult` — the simulated equivalent of the segfault that
  triggers a bug report in the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.interp.builtins import lookup_builtin
from repro.interp.environment import Environment
from repro.interp.inputs import ExecutionMode, InputBinder
from repro.interp.tracer import BranchEvent, ExecutionHooks, NullHooks
from repro.interp.values import (
    ArrayObject,
    ConcolicValue,
    Pointer,
    Value,
    ZERO,
    as_int,
    binary_int_op,
    concrete,
    pointer_binary_op,
    string_to_array,
    unary_int_op,
)
from repro.lang.ast_nodes import (
    ArrayIndex,
    Assign,
    AssignExpr,
    BinaryOp,
    Block,
    Break,
    Call,
    CharLiteral,
    Continue,
    Expr,
    ExprStmt,
    ForStmt,
    FunctionDef,
    Identifier,
    IfStmt,
    IntLiteral,
    ReturnStmt,
    Stmt,
    StringLiteral,
    TernaryOp,
    UnaryOp,
    VarDecl,
    WhileStmt,
)
from repro.lang.cfg import branch_location_for
from repro.lang.errors import (
    DivisionByZeroError,
    ExitProgram,
    ProgramCrash,
    RuntimeMiniCError,
    StepLimitExceeded,
)
from repro.lang.program import Program
from repro.osmodel.kernel import Kernel
from repro.osmodel.syscalls import SyscallKind
from repro.symbolic.expr import as_condition


class _ReturnSignal(Exception):
    def __init__(self, value: Value) -> None:
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


@dataclass
class CrashSite:
    """Identity of a crash location: what the bug report pinpoints."""

    function: str
    line: int
    message: str = ""

    def same_location(self, other: "CrashSite") -> bool:
        return self.function == other.function and self.line == other.line


@dataclass
class ExecutionConfig:
    """Per-run execution limits and mode switches (backend-independent)."""

    mode: ExecutionMode = ExecutionMode.RECORD
    max_steps: int = 5_000_000
    max_call_depth: int = 256
    # Provider used during replay when syscall results were logged: given a
    # syscall kind, return the next recorded result (or None to fall through
    # to the symbolic model).
    syscall_result_provider: Optional[Callable[[SyscallKind], Optional[int]]] = None
    # Which execution engine runs the program: the bytecode VM ("vm") or the
    # tree-walking interpreter ("interp").  See repro.interp.backend.
    backend: str = "vm"
    # Run the VM's per-opcode profiling dispatch loop: exact execution
    # counts per opcode, merged into the active repro.telemetry registry
    # after the run.  The profiled loop is generated mechanically from the
    # shipped loop's source (see repro.vm.machine), so with this off the VM
    # executes literally unmodified code.  Ignored by the interpreter.
    profile_opcodes: bool = False


@dataclass
class ExecutionResult:
    """Everything a single run produced."""

    exit_code: int = 0
    steps: int = 0
    branch_executions: int = 0
    symbolic_branch_executions: int = 0
    syscall_count: int = 0
    crashed: bool = False
    crash: Optional[CrashSite] = None
    step_limit_hit: bool = False
    stdout: str = ""
    wall_seconds: float = 0.0
    aborted: bool = False
    abort_reason: str = ""

    @property
    def completed(self) -> bool:
        return not self.crashed and not self.step_limit_hit and not self.aborted


class AbortRun(Exception):
    """Raised by replay hooks when the run deviates from the recorded path."""

    def __init__(self, reason: str = "") -> None:
        super().__init__(reason or "run aborted")
        self.reason = reason


#: Every guest-level exception a run can end with; both backends catch
#: exactly this tuple and classify with :func:`classify_run_exception`.
GUEST_EXCEPTIONS = (ExitProgram, DivisionByZeroError, RuntimeMiniCError, AbortRun)


def classify_run_exception(result: ExecutionResult, exc: Exception,
                           current_function: str) -> None:
    """Map a guest exception onto the :class:`ExecutionResult` fields.

    Shared by the interpreter and the VM so run classification (exit codes,
    crash sites, budget cutoffs, replay aborts) cannot drift between
    backends.  ``current_function`` is evaluated *after* stack unwinding, so
    crashes without an explicit function fall back to ``<global>`` on both.
    """

    if isinstance(exc, ExitProgram):
        result.exit_code = exc.code
    elif isinstance(exc, ProgramCrash):
        result.crashed = True
        result.crash = CrashSite(exc.function or current_function,
                                 exc.line, str(exc))
        result.exit_code = 139  # SIGSEGV analogue
    elif isinstance(exc, StepLimitExceeded):
        result.step_limit_hit = True
        result.exit_code = 124
    elif isinstance(exc, (DivisionByZeroError, RuntimeMiniCError)):
        result.crashed = True
        result.crash = CrashSite(current_function, getattr(exc, "line", 0),
                                 str(exc))
        result.exit_code = 139
    elif isinstance(exc, AbortRun):
        result.aborted = True
        result.abort_reason = exc.reason
    else:  # pragma: no cover - guarded by GUEST_EXCEPTIONS
        raise exc


def build_main_args(param_count: int, argv: List[str],
                    binder: InputBinder) -> List[Value]:
    """Marshal argv into guest values for ``main`` (shared by both backends).

    argv[0] is the program name (concrete); the bytes of argv[1..] are bound
    through the :class:`InputBinder` so they can be symbolic.
    """

    args: List[Value] = []
    if param_count >= 1:
        args.append(concrete(len(argv)))
    if param_count >= 2:
        argv_array = ArrayObject(len(argv) + 1, label="argv")
        for index, arg in enumerate(argv):
            argv_array.set(index, Pointer(_make_arg_array(binder, index, arg), 0))
        argv_array.set(len(argv), ZERO)
        args.append(Pointer(argv_array, 0))
    return args


def _make_arg_array(binder: InputBinder, index: int, text: str) -> ArrayObject:
    data = text.encode("utf-8")
    array = ArrayObject(len(data) + 1, label=f"argv[{index}]")
    if index == 0:
        for position, byte in enumerate(data):
            array.set(position, concrete(byte))
    else:
        channel = f"arg{index}"
        for position, byte in enumerate(data):
            name = f"{channel}_{position}"
            # argv bytes are structural: during replay their concrete values
            # come from the environment scaffold (which decides what is
            # blanked), not from the hidden user data.
            array.set(position, binder.bind_byte(name, byte, structural=True))
    array.set(len(data), ZERO)
    return array


class Interpreter:
    """Executes one MiniC program run."""

    #: The interpreter always restarts replay runs, so the shared builtins
    #: record no replay guards here (see ``VirtualMachine.guards``).
    guards = None

    def __init__(self, program: Program, kernel: Optional[Kernel] = None,
                 hooks: Optional[ExecutionHooks] = None,
                 binder: Optional[InputBinder] = None,
                 config: Optional[ExecutionConfig] = None) -> None:
        self.program = program
        self.kernel = kernel or Kernel()
        self.hooks = hooks or NullHooks()
        self.config = config or ExecutionConfig()
        self.binder = binder or InputBinder(mode=self.config.mode)
        self.env = Environment()
        self.steps = 0
        self.branch_counter = 0
        self.symbolic_branch_counter = 0
        self._string_cache: Dict[int, ArrayObject] = {}
        self._syscall_seen = 0

    # -- bookkeeping ------------------------------------------------------------

    def current_function_name(self) -> str:
        if self.env.frames:
            return self.env.current_frame.function_name
        return "<global>"

    def _step(self, node=None) -> None:
        self.steps += 1
        if self.steps > self.config.max_steps:
            raise StepLimitExceeded("interpreter step budget exhausted",
                                    getattr(node, "line", 0))

    def notify_syscall(self) -> None:
        """Report any newly recorded kernel syscalls to the hooks."""

        events = self.kernel.trace.events
        while self._syscall_seen < len(events):
            self.hooks.on_syscall(events[self._syscall_seen])
            self._syscall_seen += 1

    def forced_syscall_result(self, kind: SyscallKind) -> Optional[int]:
        """Ask the replay syscall log (if any) for the next result of *kind*."""

        provider = self.config.syscall_result_provider
        if provider is None:
            return None
        return provider(kind)

    # -- program entry ------------------------------------------------------------

    def run(self, argv: Sequence[str]) -> ExecutionResult:
        """Execute ``main`` with the given argv and return the run summary."""

        start = time.monotonic()
        result = ExecutionResult()
        try:
            self._init_globals()
            exit_value = self._call_main(list(argv))
            result.exit_code = as_int(exit_value).concrete
        except GUEST_EXCEPTIONS as exc:
            classify_run_exception(result, exc, self.current_function_name())
        result.steps = self.steps
        result.branch_executions = self.branch_counter
        result.symbolic_branch_executions = self.symbolic_branch_counter
        result.syscall_count = len(self.kernel.trace)
        result.stdout = self.kernel.stdout_text()
        result.wall_seconds = time.monotonic() - start
        return result

    def _init_globals(self) -> None:
        for global_decl in self.program.unit.globals:
            self._exec_vardecl(global_decl.decl, declare_global=True)

    def _call_main(self, argv: List[str]) -> Value:
        main = self.program.main
        args = build_main_args(len(main.params), argv, self.binder)
        return self._call_function(main, args, main)

    # -- functions -------------------------------------------------------------

    def _call_function(self, function: FunctionDef, args: List[Value], node) -> Value:
        if self.env.call_depth >= self.config.max_call_depth:
            raise ProgramCrash("call stack overflow", getattr(node, "line", 0),
                               self.current_function_name())
        self.env.push_frame(function.name)
        try:
            for index, param in enumerate(function.params):
                value = args[index] if index < len(args) else ZERO
                self.env.declare_local(param.name, value)
            try:
                self._exec_stmt(function.body)
            except _ReturnSignal as signal:
                return signal.value
            return ZERO
        finally:
            self.env.pop_frame()

    # -- statements --------------------------------------------------------------

    def _exec_stmt(self, stmt: Stmt) -> None:
        self._step(stmt)
        if isinstance(stmt, Block):
            self.env.current_frame.push_scope()
            try:
                for child in stmt.statements:
                    self._exec_stmt(child)
            finally:
                self.env.current_frame.pop_scope()
        elif isinstance(stmt, VarDecl):
            self._exec_vardecl(stmt)
        elif isinstance(stmt, Assign):
            value = self._eval(stmt.value)
            self._store(stmt.target, value)
        elif isinstance(stmt, ExprStmt):
            self._eval(stmt.expr)
        elif isinstance(stmt, IfStmt):
            self._exec_if(stmt)
        elif isinstance(stmt, WhileStmt):
            self._exec_while(stmt)
        elif isinstance(stmt, ForStmt):
            self._exec_for(stmt)
        elif isinstance(stmt, ReturnStmt):
            value = self._eval(stmt.value) if stmt.value is not None else ZERO
            raise _ReturnSignal(value)
        elif isinstance(stmt, Break):
            raise _BreakSignal()
        elif isinstance(stmt, Continue):
            raise _ContinueSignal()
        else:
            raise RuntimeMiniCError(f"unsupported statement {type(stmt).__name__}",
                                    getattr(stmt, "line", 0))

    def _exec_vardecl(self, decl: VarDecl, declare_global: bool = False) -> None:
        for declarator in decl.declarators:
            if declarator.is_array:
                size = 1
                if declarator.array_size is not None:
                    size = max(1, as_int(self._eval(declarator.array_size)).concrete)
                value: Value = Pointer(ArrayObject(size, label=declarator.name), 0)
            elif declarator.init is not None:
                value = self._eval(declarator.init)
            else:
                value = ZERO
            if declare_global:
                self.env.declare_global(declarator.name, value)
            else:
                self.env.declare_local(declarator.name, value)

    # -- branches -----------------------------------------------------------------

    def _evaluate_branch(self, stmt: Stmt, cond: Expr) -> bool:
        value = self._eval(cond)
        int_value = as_int(value)
        taken = int_value.concrete != 0
        symbolic = isinstance(value, ConcolicValue) and value.is_symbolic
        condition = None
        if symbolic:
            expr = as_condition(value.symbolic)
            condition = expr if taken else expr.negated()
        location = branch_location_for(self.current_function_name(), stmt)
        event = BranchEvent(location=location, taken=taken, symbolic=symbolic,
                            condition=condition, index=self.branch_counter)
        self.branch_counter += 1
        if symbolic:
            self.symbolic_branch_counter += 1
        self.hooks.on_branch(event)
        return taken

    def _exec_if(self, stmt: IfStmt) -> None:
        if self._evaluate_branch(stmt, stmt.cond):
            self._exec_stmt(stmt.then)
        elif stmt.otherwise is not None:
            self._exec_stmt(stmt.otherwise)

    def _exec_while(self, stmt: WhileStmt) -> None:
        while self._evaluate_branch(stmt, stmt.cond):
            try:
                self._exec_stmt(stmt.body)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue

    def _exec_for(self, stmt: ForStmt) -> None:
        self.env.current_frame.push_scope()
        try:
            if stmt.init is not None:
                self._exec_stmt(stmt.init)
            while True:
                if stmt.cond is not None and not self._evaluate_branch(stmt, stmt.cond):
                    break
                try:
                    self._exec_stmt(stmt.body)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if stmt.update is not None:
                    self._exec_stmt(stmt.update)
        finally:
            self.env.current_frame.pop_scope()

    # -- lvalues ---------------------------------------------------------------------

    def _store(self, target: Expr, value: Value) -> None:
        if isinstance(target, Identifier):
            if self.env.is_defined(target.name):
                self.env.set(target.name, value, target.line)
            elif not self.env.frames:
                # A global initializer has no scope to declare a local in.
                raise RuntimeMiniCError(
                    f"assignment to undefined variable '{target.name}'",
                    target.line)
            else:
                # C would reject this; MiniC treats it as an implicit local so
                # terse workload code stays readable.
                self.env.declare_local(target.name, value)
            return
        if isinstance(target, ArrayIndex):
            pointer, index = self._resolve_element(target)
            pointer.block.set(index, value)
            return
        if isinstance(target, UnaryOp) and target.op == "*":
            pointer = self._eval(target.operand)
            if not isinstance(pointer, Pointer):
                raise ProgramCrash("null or invalid pointer dereference",
                                   target.line, self.current_function_name())
            if not pointer.block.in_bounds(pointer.offset):
                raise ProgramCrash("pointer store out of bounds", target.line,
                                   self.current_function_name())
            pointer.block.set(pointer.offset, value)
            return
        raise RuntimeMiniCError("invalid assignment target", getattr(target, "line", 0))

    def _resolve_element(self, node: ArrayIndex) -> (Pointer, int):
        base = self._eval(node.base)
        index_value = as_int(self._eval(node.index)).concrete
        if not isinstance(base, Pointer):
            raise ProgramCrash("indexing a non-pointer value", node.line,
                               self.current_function_name())
        index = base.offset + index_value
        if not base.block.in_bounds(index):
            raise ProgramCrash(
                f"array index out of bounds ({index} not in 0..{len(base.block) - 1})",
                node.line, self.current_function_name())
        return base, index

    # -- expressions -------------------------------------------------------------------

    def _eval(self, node: Expr) -> Value:
        self._step(node)
        if isinstance(node, IntLiteral):
            return concrete(node.value)
        if isinstance(node, CharLiteral):
            return concrete(node.value)
        if isinstance(node, StringLiteral):
            cached = self._string_cache.get(node.node_id)
            if cached is None:
                cached = string_to_array(node.value, label="literal")
                self._string_cache[node.node_id] = cached
            return Pointer(cached, 0)
        if isinstance(node, Identifier):
            return self.env.get(node.name, node.line)
        if isinstance(node, ArrayIndex):
            pointer, index = self._resolve_element(node)
            return pointer.block.get(index)
        if isinstance(node, UnaryOp):
            return self._eval_unary(node)
        if isinstance(node, BinaryOp):
            return self._eval_binary(node)
        if isinstance(node, TernaryOp):
            cond = as_int(self._eval(node.cond))
            return self._eval(node.then) if cond.concrete != 0 else self._eval(node.otherwise)
        if isinstance(node, AssignExpr):
            value = self._eval(node.value)
            self._store(node.target, value)
            return value
        if isinstance(node, Call):
            return self._eval_call(node)
        raise RuntimeMiniCError(f"unsupported expression {type(node).__name__}",
                                getattr(node, "line", 0))

    def _eval_unary(self, node: UnaryOp) -> Value:
        if node.op == "&":
            if isinstance(node.operand, ArrayIndex):
                pointer, index = self._resolve_element(node.operand)
                return Pointer(pointer.block, index)
            if isinstance(node.operand, Identifier):
                value = self.env.get(node.operand.name, node.line)
                if isinstance(value, Pointer):
                    return value
                # Taking the address of a scalar boxes it into a one-cell
                # array; writes through the pointer update the box, and the
                # variable is rebound to read through it as well.
                box = ArrayObject(1, label=f"&{node.operand.name}")
                box.set(0, value)
                boxed = Pointer(box, 0)
                self.env.set(node.operand.name, boxed, node.line)
                return boxed
            raise RuntimeMiniCError("cannot take the address of this expression",
                                    node.line)
        operand = self._eval(node.operand)
        if node.op == "*":
            if not isinstance(operand, Pointer):
                raise ProgramCrash("null or invalid pointer dereference",
                                   node.line, self.current_function_name())
            if not operand.block.in_bounds(operand.offset):
                raise ProgramCrash("pointer read out of bounds", node.line,
                                   self.current_function_name())
            return operand.block.get(operand.offset)
        if isinstance(operand, Pointer):
            if node.op == "!":
                return concrete(0)
            raise RuntimeMiniCError(f"unary {node.op!r} applied to a pointer", node.line)
        try:
            return unary_int_op(node.op, operand)
        except ZeroDivisionError:
            raise DivisionByZeroError("division by zero", node.line)

    def _eval_binary(self, node: BinaryOp) -> Value:
        if node.op == "&&":
            left = as_int(self._eval(node.left))
            if left.concrete == 0:
                # Short-circuit: the value of the conjunction is determined by
                # the (false) left operand, so the symbolic value of the whole
                # expression is the left condition itself.
                return ConcolicValue(0, as_condition(left.symbolic)
                                     if left.symbolic is not None else None)
            right = as_int(self._eval(node.right))
            return binary_int_op("&&", left, right)
        if node.op == "||":
            left = as_int(self._eval(node.left))
            if left.concrete != 0:
                return ConcolicValue(1, as_condition(left.symbolic)
                                     if left.symbolic is not None else None)
            right = as_int(self._eval(node.right))
            return binary_int_op("||", left, right)

        left = self._eval(node.left)
        right = self._eval(node.right)
        # Pointer arithmetic and comparisons.
        if isinstance(left, Pointer) or isinstance(right, Pointer):
            return pointer_binary_op(node.op, left, right, node.line)
        try:
            return binary_int_op(node.op, left, right)
        except ZeroDivisionError:
            raise DivisionByZeroError("division by zero", node.line)

    def _eval_call(self, node: Call) -> Value:
        args = [self._eval(arg) for arg in node.args]
        function = self.program.functions.get(node.name)
        if function is not None:
            return self._call_function(function, args, node)
        builtin_fn = lookup_builtin(node.name)
        if builtin_fn is not None:
            return builtin_fn(self, args, node)
        raise RuntimeMiniCError(f"call to undefined function '{node.name}'", node.line)
