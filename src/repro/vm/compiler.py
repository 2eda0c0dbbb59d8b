"""The MiniC bytecode compiler.

Lowers the AST of every function in a :class:`~repro.lang.program.Program`
into the stack-machine instruction stream described in
:mod:`repro.vm.opcodes`.  The compiler is careful about three kinds of parity
with the tree-walking interpreter (which the differential tests in
``tests/test_vm_parity.py`` enforce):

* **evaluation order** — operands compile in exactly the interpreter's
  evaluation order, so branch events and syscalls fire in the same sequence;
* **step accounting** — every AST node the interpreter would visit (one
  ``_step()`` per statement execution and per expression evaluation) is
  charged onto the first instruction executed on that node's behalf, pre-order
  via a pending-charge counter.  Loop headers and other control-flow joins are
  preceded by a ``NOP`` so per-entry charges are not re-paid on every
  iteration;
* **failure behaviour** — invalid programs fail at *run* time with the same
  error type, message and source line as the interpreter (e.g. a call to an
  undefined function only fails if executed), never at compile time.

Every identifier compiles to a slot or a global operation, as the static
scope resolution of :mod:`repro.lang.resolve` decided; the compiler accepts
only programs it resolves completely (programs with an unresolved name run
on the interpreter, see :func:`repro.interp.backend.create_backend`).

Compilation is cached per ``(Program, plan fingerprint)`` pair
(``compile_program``), so the replay engine's hundreds of re-runs compile once
per instrumentation plan.  Passing an :class:`~repro.instrument.plan.
InstrumentationPlan` produces *plan-specialized* code: every branch opcode
carries a ``slot`` operand, the branch's bitvector slot where the plan
instruments it (the VM inlines the bitvector append/compare there) and
``None`` everywhere else, so an uninstrumented branch pays no hook dispatch,
mirroring the paper's "overhead only where you instrument".  Without a plan
every slot is ``None``, and the VM reports each branch to whatever
:class:`~repro.interp.tracer.ExecutionHooks` the run installs.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Iterator, List, Optional

from repro.interp.builtins import lookup_builtin
from repro.interp.values import ZERO, concrete
from repro.telemetry import runtime as telemetry_runtime
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
from repro.lang.errors import SemanticError
from repro.lang.program import Program
from repro.lang.resolve import (
    GLOBALS,
    RESOLVER_VERSION,
    SLOT,
    FunctionResolution,
    resolve_program,
)
from repro.vm import opcodes as op
from repro.vm.code import CodeObject, CompiledProgram

_CACHE_ATTR = "_vm_compiled_by_plan"

#: Operators eligible for compare-and-branch fusion (their concrete result is
#: the branch decision itself).
_COMPARISONS = frozenset(("<", ">", "<=", ">=", "==", "!="))

#: Process-wide compiled-code cache counters (all programs, all plans).
#: Guarded by a lock because VMs may be constructed from several threads
#: (the upload server's connection handlers) and the counters are a
#: diagnostic whose sums must add up.
_CACHE_STATS = {"hits": 0, "misses": 0}
_CACHE_STATS_LOCK = threading.Lock()


def cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the ``(Program, plan)`` compiled-code cache.

    The same events flow into the active :mod:`repro.telemetry` registry as
    the timing-marked ``vm.compile_cache.hits`` / ``vm.compile_cache.misses``
    counters (timing-marked because cache warmth is per-process, not a
    property of the committed run sequence).
    """

    with _CACHE_STATS_LOCK:
        return dict(_CACHE_STATS)


def reset_cache_stats() -> None:
    with _CACHE_STATS_LOCK:
        _CACHE_STATS["hits"] = 0
        _CACHE_STATS["misses"] = 0


#: Per-thread scope for attributing cache events to one logical operation.
#: The process-wide counters above cannot tell concurrent callers apart; a
#: scope counts only the compile_program calls made by *this* thread while it
#: is active, which is exactly one pending-item evaluation in the replay
#: engine (inline and in worker processes alike).
_SCOPE_TLS = threading.local()


@contextlib.contextmanager
def cache_scope() -> Iterator[Dict[str, int]]:
    """Count this thread's compile-cache hits/misses while the scope is open.

    The replay engine uses it to fill each evaluation's
    ``compile_cache_hits``/``compile_cache_misses``; a
    ``telemetry.scoped(registry)`` block captures the same events as
    ``vm.compile_cache.*`` counters.
    """

    events = {"hits": 0, "misses": 0}
    previous = getattr(_SCOPE_TLS, "events", None)
    _SCOPE_TLS.events = events
    try:
        yield events
    finally:
        _SCOPE_TLS.events = previous


def _count_event(kind: str) -> None:
    with _CACHE_STATS_LOCK:
        _CACHE_STATS[kind] += 1
    events = getattr(_SCOPE_TLS, "events", None)
    if events is not None:
        events[kind] += 1
    # Mirror into the active telemetry registry (a shared no-op when
    # telemetry is off, so this costs one attribute lookup + method call).
    telemetry_runtime.active().counter(
        f"vm.compile_cache.{kind}", timing=True).inc()


def compile_program(program: Program, plan=None) -> CompiledProgram:
    """Compile *program* for *plan*, caching per ``(program, plan)``.

    ``plan=None`` compiles unspecialized branch dispatch; a plan keys the
    cache on :meth:`~repro.instrument.plan.InstrumentationPlan.fingerprint`,
    so specialized code compiled for one plan can never be handed to a run
    using a different plan — two plans only share code when their
    instrumented branch sets are identical (in which case the code streams
    are, too).  Every run of the pair, profiled or not, executes the one
    cached stream.

    Locals live in the numbered frame slots the static scope-resolution
    pass of :mod:`repro.lang.resolve` assigns; a program it does not resolve
    completely raises :class:`~repro.lang.errors.SemanticError`.  The
    stream is compiled one way, with the superinstructions the emitter
    fuses as it goes (slot operands, slot stores, ``return x;`` and
    compare-and-branch), and no run rewrites it once it is returned.
    """

    key = None if plan is None else plan.fingerprint()
    cache = getattr(program, _CACHE_ATTR, None)
    if cache is None:
        cache = {}
        setattr(program, _CACHE_ATTR, cache)
    cached = cache.get(key)
    if cached is not None:
        _count_event("hits")
        return cached
    _count_event("misses")
    compiled = Compiler(program, plan=plan).compile()
    cache[key] = compiled
    return compiled


class _Label:
    """A forward-patchable jump target."""

    __slots__ = ("pc",)

    def __init__(self) -> None:
        self.pc: Optional[int] = None


class Compiler:
    """Compiles every function of one program (optionally plan-specialized)."""

    def __init__(self, program: Program, plan=None) -> None:
        self.program = program
        self.plan = plan
        self.resolution = resolve_program(program)
        if not self.resolution.complete:
            raise SemanticError(
                f"program {program.name!r} has names the resolver cannot "
                f"slot ({self.resolution.unresolved()}); it runs on the "
                f"interpreter")
        # Slot table of the logged branches: slot index -> BranchLocation.
        # The VM keeps one inline execution counter per slot.
        self.logged_locations: List[object] = []
        # Branch instructions carry the program's own locations, whose dense
        # index the VM's analyze mode marks a concrete branch by.
        self.branch_locations = {location: location
                                 for location in program.branch_locations}
        # Stubs first so recursive and mutual calls can reference callees.
        self.code_objects: Dict[str, CodeObject] = {}
        for name, fn in program.functions.items():
            code = CodeObject(name=name, params=[p.name for p in fn.params],
                              source_line=fn.line)
            fn_resolution = self.resolution.for_function(name)
            code.nlocals = fn_resolution.nlocals
            code.slot_names = list(fn_resolution.slot_names)
            self.code_objects[name] = code

    def compile(self) -> CompiledProgram:
        globals_code = CodeObject(name=GLOBALS)
        emitter = _FunctionEmitter(self, GLOBALS, globals_code,
                                   self.resolution.initializers)
        for decl in self.program.unit.globals:
            # The interpreter runs global initializers directly (no statement
            # step for the declaration itself), so only the initializer
            # expressions carry charges here.
            emitter.compile_vardecl(decl.decl)
        emitter.finish()
        for name, fn in self.program.functions.items():
            body_emitter = _FunctionEmitter(self, name, self.code_objects[name],
                                            self.resolution.for_function(name))
            body_emitter.compile_stmt(fn.body)
            body_emitter.finish()
        return CompiledProgram(name=self.program.name,
                               functions=self.code_objects,
                               globals_code=globals_code,
                               plan_fingerprint=(None if self.plan is None
                                                 else self.plan.fingerprint()),
                               logged_locations=self.logged_locations,
                               resolver_version=RESOLVER_VERSION)


class _FunctionEmitter:
    """Emits the instruction stream of a single function."""

    def __init__(self, compiler: Compiler, function_name: str,
                 code: CodeObject, resolution: FunctionResolution) -> None:
        self.compiler = compiler
        self.function_name = function_name
        self.instructions = code.instructions
        self.resolution = resolution
        self.pending = 0
        # (break_label, continue_label) for each enclosing loop.
        self.loops: List[tuple] = []
        # Instruction indexes some already-bound label points at; peephole
        # fusion must not swallow a jump target.
        self._bound_positions: set = set()

    # -- emission helpers -------------------------------------------------------

    def emit(self, opcode: int, arg: object = None, line: int = 0) -> None:
        charge = self.pending
        self.pending = 0
        self.instructions.append((opcode, arg, charge, line))

    def bind(self, label: _Label) -> None:
        # Flush any pending charge so it is not re-paid by every path that
        # jumps here (loop headers, if/else joins).
        if self.pending:
            self.emit(op.NOP)
        label.pc = len(self.instructions)
        self._bound_positions.add(label.pc)

    def finish(self) -> None:
        if self.pending:
            self.emit(op.NOP)
        self.emit(op.CONST, ZERO)
        self.emit(op.RET)
        self._patch_labels()

    def _patch_labels(self) -> None:
        jump_ops = (op.JUMP, op.AND_JUMP, op.OR_JUMP, op.TERN_FALSE)
        for pc, (opcode, arg, charge, line) in enumerate(self.instructions):
            if opcode in jump_ops and isinstance(arg, _Label):
                self.instructions[pc] = (opcode, arg.pc, charge, line)
            elif opcode in op.BRANCH_OPCODES:
                # Every branch shape ends its arg in ``(..., label, slot)``.
                self.instructions[pc] = (
                    opcode, arg[:-2] + (arg[-2].pc, arg[-1]), charge, line)

    def branch_location(self, stmt: Stmt):
        """The program's location of branch statement *stmt*."""

        return self.compiler.branch_locations[
            branch_location_for(self.function_name, stmt)]

    def emit_branch(self, location, else_label: _Label) -> None:
        """Emit a branch whose ``slot`` says whether the plan logs it.

        The slot is the branch's bitvector slot when the plan instruments
        the location and ``None`` otherwise, so plan-free code carries
        ``None`` throughout.  This is the only decision the compilation
        mode makes about a branch.
        """

        plan = self.compiler.plan
        slot = None
        if plan is not None and plan.is_instrumented(location):
            slot = len(self.compiler.logged_locations)
            self.compiler.logged_locations.append(location)
        branch_arg = (location, else_label, slot)
        if not self._fuse_cmp_branch(branch_arg):
            self.emit(op.BRANCH, branch_arg)

    def _fuse_cmp_branch(self, branch_arg: tuple) -> bool:
        """Peephole: collapse ``BINOP_FF;BRANCH`` (the ``while (i < n)``
        hot shape) into one compare-and-branch dispatch.

        Only comparison operators fuse: their concrete result *is* the branch
        decision, so the fused opcode skips materializing the intermediate
        truth value entirely.  Same label rules as :meth:`_fuse_binop_store_fast`
        — declined when a bound label points at the would-be branch position
        (a jump could land there expecting the condition on the stack).
        """

        instructions = self.instructions
        if not instructions or len(instructions) in self._bound_positions:
            return False
        opcode, arg, charge, line = instructions[-1]
        if opcode == op.BINOP_FC:
            fused_opcode = op.BINOP_FC_BRANCH
        elif opcode == op.BINARY:
            # Stack-condition comparisons: the result's truth value is the
            # branch decision.  A CONST feeding the right operand — the
            # ``ch == 'X'`` parser shape — is swallowed too, unless a bound
            # label points at the BINARY (a jump could land there expecting
            # the const on the stack).
            if arg not in _COMPARISONS:
                return False
            if (len(instructions) >= 2
                    and instructions[-2][0] == op.CONST
                    and len(instructions) - 1 not in self._bound_positions):
                instructions.pop()
                _const_op, const, const_charge, _const_line = instructions[-1]
                charge += const_charge + self.pending
                self.pending = 0
                instructions[-1] = (op.BINOP_SC_BRANCH,
                                    (arg, const) + branch_arg, charge, line)
                return True
            charge += self.pending
            self.pending = 0
            instructions[-1] = (op.BINARY_BRANCH, (arg,) + branch_arg,
                                charge, line)
            return True
        elif opcode == op.BINOP_FF:
            fused_opcode = op.BINOP_FF_BRANCH
        else:
            return False
        if arg[0] not in _COMPARISONS:
            return False
        charge += self.pending
        self.pending = 0
        instructions[-1] = (fused_opcode, arg + branch_arg, charge, line)
        return True

    # -- statements ------------------------------------------------------------

    def compile_stmt(self, stmt: Stmt) -> None:
        self.pending += 1  # the interpreter's _exec_stmt step
        if isinstance(stmt, Block):
            # Every local lives in a slot, so a block compiles to nothing
            # of its own: the pending charge flows to the first instruction
            # of the first child, preserving the accumulated step totals.
            for child in stmt.statements:
                self.compile_stmt(child)
        elif isinstance(stmt, VarDecl):
            self.compile_vardecl(stmt)
        elif isinstance(stmt, Assign):
            self.compile_expr(stmt.value)
            self._compile_store(stmt.target)
        elif isinstance(stmt, ExprStmt):
            self.compile_expr(stmt.expr)
            self.emit(op.POP)
        elif isinstance(stmt, IfStmt):
            self._compile_if(stmt)
        elif isinstance(stmt, WhileStmt):
            self._compile_while(stmt)
        elif isinstance(stmt, ForStmt):
            self._compile_for(stmt)
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                self.compile_expr(stmt.value)
            else:
                self.emit(op.CONST, ZERO)
            if not self._fuse_load_ret():
                self.emit(op.RET)
        elif isinstance(stmt, Break):
            self.emit(op.JUMP, self.loops[-1][0])
        elif isinstance(stmt, Continue):
            self.emit(op.JUMP, self.loops[-1][1])
        else:  # pragma: no cover - parser produces no other statement nodes
            raise SemanticError(
                f"unsupported statement {type(stmt).__name__}")

    def compile_vardecl(self, decl: VarDecl) -> None:
        for declarator in decl.declarators:
            if declarator.is_array:
                has_size = declarator.array_size is not None
                if has_size:
                    self.compile_expr(declarator.array_size)
                self.emit(op.NEW_ARRAY, (declarator.name, has_size))
            elif declarator.init is not None:
                self.compile_expr(declarator.init)
            else:
                self.emit(op.CONST, ZERO)
            # A declaration is a plain write: locals get their own slot
            # (shadowing variables get distinct ones), globals their entry.
            access = self.resolution.access(declarator.node_id)
            if access[0] == SLOT:
                self.emit(op.STORE_FAST, access[1])
            else:
                self.emit(op.STORE_GLOBAL, declarator.name)

    def _compile_if(self, stmt: IfStmt) -> None:
        else_label = _Label()
        self.compile_expr(stmt.cond)
        location = self.branch_location(stmt)
        self.emit_branch(location, else_label)
        self.compile_stmt(stmt.then)
        if stmt.otherwise is not None:
            end_label = _Label()
            self.emit(op.JUMP, end_label)
            self.bind(else_label)
            self.compile_stmt(stmt.otherwise)
            self.bind(end_label)
        else:
            self.bind(else_label)

    def _compile_while(self, stmt: WhileStmt) -> None:
        header = _Label()
        after = _Label()
        self.bind(header)  # flushes the while-statement charge before the loop
        self.compile_expr(stmt.cond)
        location = self.branch_location(stmt)
        self.emit_branch(location, after)
        self.loops.append((after, header))
        self.compile_stmt(stmt.body)
        self.loops.pop()
        self.emit(op.JUMP, header)
        self.bind(after)

    def _compile_for(self, stmt: ForStmt) -> None:
        if stmt.init is not None:
            self.compile_stmt(stmt.init)
        header = _Label()
        cont = _Label()
        after = _Label()
        self.bind(header)
        if stmt.cond is not None:
            self.compile_expr(stmt.cond)
            location = self.branch_location(stmt)
            self.emit_branch(location, after)
        self.loops.append((after, cont))
        self.compile_stmt(stmt.body)
        self.loops.pop()
        self.bind(cont)
        if stmt.update is not None:
            self.compile_stmt(stmt.update)
        self.emit(op.JUMP, header)
        self.bind(after)

    # -- lvalues ----------------------------------------------------------------

    def _compile_store(self, target: Expr, keep_value: bool = False) -> None:
        """Compile a store into *target*; the value is on the stack.

        With ``keep_value`` the stored value is left on the stack (assignment
        in expression position).
        """

        if keep_value:
            self.emit(op.DUP)
        if isinstance(target, Identifier):
            access = self.resolution.access(target.node_id)
            if access[0] == SLOT:
                slot = access[1]
                if keep_value or not self._fuse_binop_store_fast(slot):
                    self.emit(op.STORE_FAST, slot, line=target.line)
            else:
                self.emit(op.STORE_GLOBAL, target.name, line=target.line)
        elif isinstance(target, ArrayIndex):
            self.compile_expr(target.base)
            self.compile_expr(target.index)
            self.emit(op.STORE_INDEX, line=target.line)
        elif isinstance(target, UnaryOp) and target.op == "*":
            self.compile_expr(target.operand)
            self.emit(op.STORE_DEREF, line=target.line)
        else:
            self.emit(op.INVALID_TARGET, line=getattr(target, "line", 0))

    # -- expressions -------------------------------------------------------------

    def compile_expr(self, node: Expr) -> None:
        self.pending += 1  # the interpreter's _eval step
        if isinstance(node, IntLiteral):
            self.emit(op.CONST, concrete(node.value))
        elif isinstance(node, CharLiteral):
            self.emit(op.CONST, concrete(node.value))
        elif isinstance(node, StringLiteral):
            self.emit(op.STRING, (node.node_id, node.value))
        elif isinstance(node, Identifier):
            access = self.resolution.access(node.node_id)
            if access[0] == SLOT:
                self.emit(op.LOAD_FAST, access[1], line=node.line)
            else:
                self.emit(op.LOAD_GLOBAL, node.name, line=node.line)
        elif isinstance(node, ArrayIndex):
            self.compile_expr(node.base)
            self.compile_expr(node.index)
            self.emit(op.LOAD_INDEX, line=node.line)
        elif isinstance(node, UnaryOp):
            self._compile_unary(node)
        elif isinstance(node, BinaryOp):
            self._compile_binary(node)
        elif isinstance(node, TernaryOp):
            self._compile_ternary(node)
        elif isinstance(node, AssignExpr):
            self.compile_expr(node.value)
            self._compile_store(node.target, keep_value=True)
        elif isinstance(node, Call):
            self._compile_call(node)
        else:  # pragma: no cover - parser produces no other expression nodes
            raise SemanticError(
                f"unsupported expression {type(node).__name__}")

    def _compile_unary(self, node: UnaryOp) -> None:
        if node.op == "&":
            operand = node.operand
            if isinstance(operand, ArrayIndex):
                self.compile_expr(operand.base)
                self.compile_expr(operand.index)
                self.emit(op.ADDR_INDEX, line=operand.line)
            elif isinstance(operand, Identifier):
                access = self.resolution.access(operand.node_id)
                if access[0] == SLOT:
                    self.emit(op.ADDR_FAST, (access[1], operand.name),
                              line=node.line)
                else:
                    self.emit(op.ADDR_GLOBAL, operand.name, line=node.line)
            else:
                self.emit(op.ADDR_INVALID, line=node.line)
            return
        self.compile_expr(node.operand)
        if node.op == "*":
            self.emit(op.LOAD_DEREF, line=node.line)
        else:
            self.emit(op.UNARY, node.op, line=node.line)

    def _compile_binary(self, node: BinaryOp) -> None:
        if node.op == "&&":
            end = _Label()
            self.compile_expr(node.left)
            self.emit(op.AND_JUMP, end)
            self.compile_expr(node.right)
            self.emit(op.AND_END)
            self.bind(end)
            return
        if node.op == "||":
            end = _Label()
            self.compile_expr(node.left)
            self.emit(op.OR_JUMP, end)
            self.compile_expr(node.right)
            self.emit(op.OR_END)
            self.bind(end)
            return
        self.compile_expr(node.left)
        self.compile_expr(node.right)
        if not self._fuse_binary(node.op, node.line):
            self.emit(op.BINARY, node.op, line=node.line)

    def _fuse_binary(self, operator: str, line: int) -> bool:
        """Peephole: collapse ``LOAD_FAST;CONST;BINARY`` and
        ``LOAD_FAST;LOAD_FAST;BINARY`` into ``BINOP_FC``/``BINOP_FF``.

        These two operand shapes (``i < limit``, ``n - 1``, ``i = i + 1``)
        dominate hot loops; fusing them saves two dispatches per evaluation.
        Declined when a bound label points between the candidate
        instructions (a jump could then land mid-pattern) — the step charges
        of the fused instructions are summed, so the accounting stays exact.
        """

        instructions = self.instructions
        if len(instructions) < 2:
            return False
        end = len(instructions)
        if end in self._bound_positions or (end - 1) in self._bound_positions:
            return False
        first_op, first_arg, first_charge, _first_line = instructions[-2]
        second_op, second_arg, second_charge, _second_line = instructions[-1]
        if first_op != op.LOAD_FAST:
            return False
        if second_op == op.CONST:
            fused = op.BINOP_FC
        elif second_op == op.LOAD_FAST:
            fused = op.BINOP_FF
        else:
            return False
        charge = first_charge + second_charge + self.pending
        self.pending = 0
        del instructions[-2:]
        instructions.append((fused, (operator, first_arg, second_arg),
                             charge, line))
        return True

    def _fuse_binop_store_fast(self, target_slot: int) -> bool:
        """Peephole: collapse ``BINOP_F*;STORE_FAST`` (the ``i = i + 1``
        shape) into one dispatch — the hottest statement shape in every
        counting loop.

        Declined when a bound label points at the would-be ``STORE_FAST``
        position (a jump could then land expecting the store still to
        happen).  Fusing *onto* a label-bound position is fine: the fused
        instruction performs exactly what a jump there expected.
        """

        instructions = self.instructions
        if not instructions or len(instructions) in self._bound_positions:
            return False
        opcode, arg, charge, line = instructions[-1]
        if opcode == op.BINOP_FC:
            fused = op.BINOP_FC_STORE
        elif opcode == op.BINOP_FF:
            fused = op.BINOP_FF_STORE
        else:
            return False
        charge += self.pending
        self.pending = 0
        instructions[-1] = (fused, arg + (target_slot,), charge, line)
        return True

    def _fuse_load_ret(self) -> bool:
        """Peephole: collapse ``LOAD_FAST;RET`` (the ``return x;`` shape)."""

        instructions = self.instructions
        if not instructions or len(instructions) in self._bound_positions:
            return False
        opcode, arg, charge, line = instructions[-1]
        if opcode != op.LOAD_FAST:
            return False
        charge += self.pending
        self.pending = 0
        instructions[-1] = (op.LOAD_FAST_RET, arg, charge, line)
        return True

    def _compile_ternary(self, node: TernaryOp) -> None:
        else_label = _Label()
        end_label = _Label()
        self.compile_expr(node.cond)
        self.emit(op.TERN_FALSE, else_label)
        self.compile_expr(node.then)
        self.emit(op.JUMP, end_label)
        self.bind(else_label)
        self.compile_expr(node.otherwise)
        self.bind(end_label)

    def _compile_call(self, node: Call) -> None:
        for arg in node.args:
            self.compile_expr(arg)
        argc = len(node.args)
        if node.name in self.compiler.code_objects:
            callee = self.compiler.code_objects[node.name]
            self.emit(op.CALL, (callee, argc), line=node.line)
            return
        builtin_fn = lookup_builtin(node.name)
        if builtin_fn is not None:
            # The AST node travels with the instruction because builtins
            # report crash lines via ``getattr(node, "line", 0)``.
            self.emit(op.CALL_BUILTIN, (builtin_fn, argc, node), line=node.line)
            return
        self.emit(op.CALL_UNDEF, node.name, line=node.line)
