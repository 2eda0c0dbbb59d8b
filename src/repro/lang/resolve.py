"""Static scope resolution: numbered frame slots for MiniC locals.

MiniC has *implicit declaration* (the first assignment to an unknown name
declares it in the innermost scope at that moment) and block scoping with
shadowing, so which variable an identifier denotes is in general a dynamic
property.  This pass models those semantics statically with a forward
abstract interpretation over the structured control flow: every lexical
scope tracks, per name, whether the name is **declared on all paths**
(``DECLARED``) or only **on some paths** (``MAYBE``) at each program point;
``if``/``else`` arms, short-circuit operands and ternary arms merge their
exit states, and loops iterate the body transfer function to a fixpoint
(the state lattice is finite and monotone, so this converges in a couple of
passes).

An identifier access *resolves* when the abstract walk can name the single
variable (one ``(scope, name)`` pair, or the global) it denotes on **every**
execution reaching it.  A name with an access that cannot — a ``MAYBE``
entry anywhere in the scope chain, a read of a name never declared, an
access in statically dead code, a duplicate parameter — is *unresolved*
(:attr:`FunctionResolution.unresolved`).  The global initializers resolve
the same way, against the globals declared before each one.

A program whose every access resolves (:attr:`ProgramResolution.complete`)
runs on the bytecode VM: the compiler (:mod:`repro.vm.compiler`) emits
``LOAD_FAST``/``STORE_FAST`` (flat list indexing) for every local and
``LOAD_GLOBAL``/``STORE_GLOBAL`` for every global.  Any other program runs
on the tree-walking interpreter, whose scope-chain walk is correct for every
dynamic behaviour (see :func:`repro.interp.backend.create_backend`).

``RESOLVER_VERSION`` is stamped on every compiled program
(``CompiledProgram.resolver_version``) so a disassembly names the rules its
slot layout came from (see :func:`repro.vm.compiler.compile_program`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

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
    Node,
    ReturnStmt,
    Stmt,
    StringLiteral,
    TernaryOp,
    UnaryOp,
    VarDecl,
    WhileStmt,
)

#: Bump whenever resolution semantics (or the slot-op encoding derived from
#: them) change; the bytecode compiler keys its cache on this.
#: 2: per-slot int-type lattice (``int_slots``/``pointer_slots``) feeding the
#: unboxed BINOP_II* superinstructions and the runtime quickening pass.
#: 3: no named-cell fallback — an unresolved name sends the whole program to
#: the interpreter — and the global initializers resolve too.
#: 4: a global that a function called from an initializer uses before the
#: global's declaration is unresolved.
RESOLVER_VERSION = 4

# Declaration states in the abstract scope chain.
_DECLARED = 1
_MAYBE = 2

#: Access resolutions, as stored in :attr:`FunctionResolution.accesses`.
SLOT = "slot"      # ("slot", index) — a pure local, lives in frame.slots
GLOBAL = "global"  # ("global",)     — proven to denote the module global

#: Builtins whose return value is always a plain integer (never a pointer).
#: Used by the int-slot lattice to classify ``x = builtin(...)`` writes; the
#: VM's type guards make an over-approximation here merely slow, never wrong,
#: but this set is exact for the shipped builtin table.
_INT_BUILTINS = frozenset({
    "abs", "accept", "assert", "atoi", "close", "file_exists", "fprintf_err",
    "getchar", "isalpha", "isdigit", "isspace", "mkdir", "mkfifo", "mknod",
    "net_listen", "net_select", "open", "printf", "putchar", "puts", "read",
    "read_option", "recv", "send", "send_str", "strcmp", "strlen", "strncmp",
    "tolower", "toupper", "unlink", "workload_done", "write",
})

#: Scalar base types whose depth-0 values are integers.
_INT_BASES = frozenset({"int", "char"})


class _Var:
    """One statically identified local variable: a ``(scope, name)`` pair."""

    __slots__ = ("name", "scope_uid", "order", "is_param")

    def __init__(self, name: str, scope_uid: int, order: int,
                 is_param: bool = False) -> None:
        self.name = name
        self.scope_uid = scope_uid
        self.order = order
        self.is_param = is_param


class _ScopeState:
    """Abstract contents of one lexical scope: name -> declaration state."""

    __slots__ = ("uid", "names")

    def __init__(self, uid: int, names: Optional[Dict[str, int]] = None) -> None:
        self.uid = uid
        self.names = dict(names) if names else {}

    def copy(self) -> "_ScopeState":
        return _ScopeState(self.uid, self.names)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, _ScopeState)
                and self.uid == other.uid and self.names == other.names)

    def __ne__(self, other: object) -> bool:  # pragma: no cover - symmetry
        return not self.__eq__(other)


#: A program point: the scope chain, innermost last.  ``None`` = unreachable.
_State = Optional[List[_ScopeState]]


def _copy_state(state: _State) -> _State:
    if state is None:
        return None
    return [scope.copy() for scope in state]


def _merge(a: _State, b: _State) -> _State:
    """Join two states arriving at the same program point."""

    if a is None:
        return _copy_state(b)
    if b is None:
        return _copy_state(a)
    assert len(a) == len(b), "control-flow join with mismatched scope chains"
    merged: List[_ScopeState] = []
    for scope_a, scope_b in zip(a, b):
        assert scope_a.uid == scope_b.uid
        names: Dict[str, int] = {}
        for name in set(scope_a.names) | set(scope_b.names):
            state_a = scope_a.names.get(name)
            state_b = scope_b.names.get(name)
            if state_a == _DECLARED and state_b == _DECLARED:
                names[name] = _DECLARED
            else:
                names[name] = _MAYBE
        merged.append(_ScopeState(scope_a.uid, names))
    return merged


def _merge_many(states: Sequence[_State]) -> _State:
    result: _State = None
    for state in states:
        result = _merge(result, state)
    return result


def _states_equal(a: _State, b: _State) -> bool:
    if a is None or b is None:
        return a is b
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


class _LoopCtx:
    """Break/continue join collectors for one loop, at one chain depth."""

    __slots__ = ("depth", "breaks", "continues")

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.breaks: List[_State] = []
        self.continues: List[_State] = []


@dataclass
class FunctionResolution:
    """Slot layout and per-access resolutions for one function.

    Parameters occupy slots ``0..n-1`` in declaration order (resolution
    creates their variables first).  ``accesses`` covers every identifier
    and declarator only when no name is :attr:`unresolved`; the compiler
    reads it for completely resolved programs alone.
    """

    name: str
    nlocals: int = 0
    #: Slot index -> source name (disassembly / debugging).
    slot_names: List[str] = field(default_factory=list)
    #: node_id -> ("slot", index) | ("global",)
    accesses: Dict[int, Tuple] = field(default_factory=dict)
    #: Names with an access the walk cannot pin to one variable.
    unresolved: frozenset = frozenset()
    #: Slots the int-type lattice proved only ever hold integers (every write
    #: reaching them is provably an int under the declared types of params
    #: and callees).  The proof is optimistic about declarations — a caller
    #: passing a pointer into an ``int`` parameter defeats it — which is safe
    #: because every unboxed instruction carries a runtime type guard that
    #: deoptimizes back to the generic form.
    int_slots: frozenset = frozenset()
    #: Slots that may hold pointers or are address-taken: never eligible for
    #: unboxed raw-int stores, statically or via quickening.
    pointer_slots: frozenset = frozenset()

    def access(self, node_id: int) -> Tuple:
        return self.accesses[node_id]


#: Name of the pseudo-function holding the global initializers' resolution.
GLOBALS = "<globals>"


@dataclass
class ProgramResolution:
    """Resolution of every function and of the global initializers."""

    version: int
    #: The global initializers: every access is ``("global",)``.
    initializers: FunctionResolution
    functions: Dict[str, FunctionResolution] = field(default_factory=dict)

    def for_function(self, name: str) -> Optional[FunctionResolution]:
        return self.functions.get(name)

    @cached_property
    def complete(self) -> bool:
        """Whether every access in the program resolves (it runs on the VM)."""

        return not self.unresolved()

    def unresolved(self) -> Dict[str, List[str]]:
        """Function (or ``<globals>``) -> its unresolved names, sorted."""

        return {resolution.name: sorted(resolution.unresolved)
                for resolution in (self.initializers,
                                   *self.functions.values())
                if resolution.unresolved}

    def stats(self) -> Dict[str, int]:
        slot_accesses = global_accesses = slots = 0
        for resolution in (self.initializers, *self.functions.values()):
            slots += resolution.nlocals
            for kind in resolution.accesses.values():
                if kind[0] == SLOT:
                    slot_accesses += 1
                else:
                    global_accesses += 1
        return {"slots": slots, "slot_accesses": slot_accesses,
                "global_accesses": global_accesses,
                "int_slots": sum(
                    len(r.int_slots) for r in self.functions.values())}


#: Base-scope uid (parameters and function-body implicit locals that are not
#: inside any block... the body Block itself gets its node_id as uid).
_BASE_SCOPE = -1

#: Fixpoint iteration guard; the lattice height makes 2-3 passes typical.
_MAX_LOOP_PASSES = 8


class _FunctionResolver:
    """Resolves one function body (see module docstring for the model)."""

    def __init__(self, function: Optional[FunctionDef], global_names: Set[str],
                 int_functions: Optional[Set[str]] = None) -> None:
        self.function = function
        self.global_names = global_names
        # Program functions whose declared return type is a depth-0 scalar;
        # calls to them classify as int writes in the type lattice.
        self.int_functions = int_functions if int_functions is not None else set()
        self.vars: Dict[Tuple[int, str], _Var] = {}
        self.accesses: Dict[int, object] = {}  # node_id -> _Var | GLOBAL
        self.unresolved: Set[str] = set()
        self.loop_stack: List[_LoopCtx] = []

    # -- variable bookkeeping ---------------------------------------------------

    def _var(self, scope_uid: int, name: str, is_param: bool = False) -> _Var:
        key = (scope_uid, name)
        var = self.vars.get(key)
        if var is None:
            var = _Var(name, scope_uid, len(self.vars), is_param)
            self.vars[key] = var
        return var

    # -- chain walks ------------------------------------------------------------

    def _resolve_read(self, node: Node, name: str, state: List[_ScopeState]) -> None:
        """A load (or address-of) of *name* at *node*."""

        for scope in reversed(state):
            status = scope.names.get(name)
            if status == _DECLARED:
                self.accesses[node.node_id] = self._var(scope.uid, name)
                return
            if status == _MAYBE:
                # Could bind here or further out depending on the path taken.
                self.unresolved.add(name)
                return
        if name in self.global_names:
            self.accesses[node.node_id] = GLOBAL
            return
        # Guaranteed-undefined read: the interpreter raises its exact
        # runtime error.
        self.unresolved.add(name)

    def _resolve_write(self, node: Node, name: str,
                       state: List[_ScopeState]) -> None:
        """An assignment to *name*; may implicitly declare it."""

        for position, scope in enumerate(reversed(state)):
            status = scope.names.get(name)
            if status == _DECLARED:
                self.accesses[node.node_id] = self._var(scope.uid, name)
                return
            if status == _MAYBE:
                # Runtime: assigns this scope's binding on paths where it
                # exists, otherwise keeps walking (or implicitly declares in
                # the innermost scope).  Both behaviours hit the *same*
                # variable exactly when the maybe-scope is the innermost one
                # and the name exists nowhere further out.
                if (position == 0
                        and name not in self.global_names
                        and not any(name in outer.names
                                    for outer in state[:-1])):
                    scope.names[name] = _DECLARED
                    self.accesses[node.node_id] = self._var(scope.uid, name)
                    return
                self.unresolved.add(name)
                return
        if name in self.global_names:
            self.accesses[node.node_id] = GLOBAL
            return
        if not state:
            # A global initializer assigning a name not yet declared: the
            # interpreter has no frame to declare it in.
            self.unresolved.add(name)
            return
        # Implicit declaration in the innermost scope.
        innermost = state[-1]
        innermost.names[name] = _DECLARED
        self.accesses[node.node_id] = self._var(innermost.uid, name)

    def _declare(self, node: Node, name: str, state: List[_ScopeState]) -> None:
        """An explicit ``VarDecl`` declarator in the innermost scope."""

        innermost = state[-1]
        innermost.names[name] = _DECLARED
        self.accesses[node.node_id] = self._var(innermost.uid, name)

    # -- unreachable code -------------------------------------------------------

    def _resolve_dead(self, node: Optional[Node]) -> None:
        """Leave every name in a subtree the walk does not model unresolved.

        That is statically unreachable code and the operands of invalid
        assignment and address-of targets.  The compiler still emits code
        for them, so each identifier would need a resolution the walk has
        no state to give.
        """

        if node is None:
            return
        for child in node.walk():
            if isinstance(child, Identifier):
                self.unresolved.add(child.name)
            elif isinstance(child, VarDecl):
                self.unresolved.update(declarator.name
                                       for declarator in child.declarators)

    # -- statement transfer functions ------------------------------------------

    def _stmt(self, stmt: Stmt, state: _State) -> _State:
        if state is None:
            self._resolve_dead(stmt)
            return None
        if isinstance(stmt, Block):
            state.append(_ScopeState(stmt.node_id))
            for child in stmt.statements:
                state = self._stmt(child, state)
            if state is not None:
                state.pop()
            return state
        if isinstance(stmt, VarDecl):
            for declarator in stmt.declarators:
                if declarator.array_size is not None:
                    state = self._expr(declarator.array_size, state)
                if declarator.init is not None:
                    state = self._expr(declarator.init, state)
                self._declare(declarator, declarator.name, state)
            return state
        if isinstance(stmt, Assign):
            state = self._expr(stmt.value, state)
            return self._store_target(stmt.target, state)
        if isinstance(stmt, ExprStmt):
            return self._expr(stmt.expr, state)
        if isinstance(stmt, IfStmt):
            state = self._expr(stmt.cond, state)
            then_exit = self._stmt(stmt.then, _copy_state(state))
            if stmt.otherwise is not None:
                else_exit = self._stmt(stmt.otherwise, state)
            else:
                else_exit = state
            return _merge(then_exit, else_exit)
        if isinstance(stmt, WhileStmt):
            return self._while(stmt, state)
        if isinstance(stmt, ForStmt):
            return self._for(stmt, state)
        if isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                self._expr(stmt.value, state)
            return None
        if isinstance(stmt, Break):
            # Programs reject break/continue outside a loop when parsed.
            ctx = self.loop_stack[-1]
            ctx.breaks.append(_copy_state(state[:ctx.depth]))
            return None
        if isinstance(stmt, Continue):
            ctx = self.loop_stack[-1]
            ctx.continues.append(_copy_state(state[:ctx.depth]))
            return None
        # Unknown statement kinds (none today) stay unresolved.
        self._resolve_dead(stmt)
        return state

    def _store_target(self, target: Expr, state: _State,
                      ) -> _State:
        if state is None:
            self._resolve_dead(target)
            return None
        if isinstance(target, Identifier):
            self._resolve_write(target, target.name, state)
            return state
        if isinstance(target, ArrayIndex):
            state = self._expr(target.base, state)
            return self._expr(target.index, state)
        if isinstance(target, UnaryOp) and target.op == "*":
            return self._expr(target.operand, state)
        # Invalid assignment target: compiles to a runtime error.
        self._resolve_dead(target)
        return state

    # -- loops -----------------------------------------------------------------

    def _while(self, stmt: WhileStmt, state: List[_ScopeState]) -> _State:
        entry = state
        exit_state: _State = None
        for _ in range(_MAX_LOOP_PASSES):
            ctx = _LoopCtx(len(entry))
            trial = _copy_state(entry)
            after_cond = self._expr(stmt.cond, trial)
            exit_state = _copy_state(after_cond)
            self.loop_stack.append(ctx)
            body_exit = self._stmt(stmt.body, _copy_state(after_cond))
            self.loop_stack.pop()
            after_iter = _merge_many([body_exit] + ctx.continues)
            new_entry = _merge(entry, after_iter)
            exit_state = _merge_many([exit_state] + ctx.breaks)
            if _states_equal(new_entry, entry):
                break
            entry = new_entry
        return exit_state

    def _for(self, stmt: ForStmt, state: List[_ScopeState]) -> _State:
        state.append(_ScopeState(stmt.node_id))
        if stmt.init is not None:
            state = self._stmt(stmt.init, state)
        if state is None:  # init returned/broke: cannot happen in practice
            self._resolve_dead(stmt.cond)
            self._resolve_dead(stmt.body)
            self._resolve_dead(stmt.update)
            return None
        entry = state
        exit_state: _State = None
        for _ in range(_MAX_LOOP_PASSES):
            ctx = _LoopCtx(len(entry))
            trial = _copy_state(entry)
            if stmt.cond is not None:
                after_cond = self._expr(stmt.cond, trial)
                exit_state = _copy_state(after_cond)
            else:
                after_cond = trial
                exit_state = None  # no condition: leaves only via break
            self.loop_stack.append(ctx)
            body_exit = self._stmt(stmt.body, _copy_state(after_cond))
            self.loop_stack.pop()
            after_body = _merge_many([body_exit] + ctx.continues)
            if after_body is not None and stmt.update is not None:
                after_update = self._stmt(stmt.update, after_body)
            else:
                if after_body is None:
                    self._resolve_dead(stmt.update)
                after_update = after_body
            new_entry = _merge(entry, after_update)
            exit_state = _merge_many([exit_state] + ctx.breaks)
            if _states_equal(new_entry, entry):
                break
            entry = new_entry
        if exit_state is not None:
            exit_state.pop()
        return exit_state

    # -- expression transfer functions -----------------------------------------

    def _expr(self, node: Expr, state: List[_ScopeState]) -> List[_ScopeState]:
        if isinstance(node, (IntLiteral, CharLiteral, StringLiteral)):
            return state
        if isinstance(node, Identifier):
            self._resolve_read(node, node.name, state)
            return state
        if isinstance(node, ArrayIndex):
            state = self._expr(node.base, state)
            return self._expr(node.index, state)
        if isinstance(node, UnaryOp):
            if node.op == "&":
                operand = node.operand
                if isinstance(operand, Identifier):
                    # Address-of reads the binding and may rebind it (scalar
                    # boxing) — same variable either way.
                    self._resolve_read(operand, operand.name, state)
                    return state
                if isinstance(operand, ArrayIndex):
                    state = self._expr(operand.base, state)
                    return self._expr(operand.index, state)
                self._resolve_dead(operand)
                return state
            return self._expr(node.operand, state)
        if isinstance(node, BinaryOp):
            state = self._expr(node.left, state)
            if node.op in ("&&", "||"):
                # The right operand evaluates on some executions only.
                right_exit = self._expr(node.right, _copy_state(state))
                return _merge(state, right_exit)
            return self._expr(node.right, state)
        if isinstance(node, TernaryOp):
            state = self._expr(node.cond, state)
            then_exit = self._expr(node.then, _copy_state(state))
            else_exit = self._expr(node.otherwise, state)
            return _merge(then_exit, else_exit)
        if isinstance(node, AssignExpr):
            state = self._expr(node.value, state)
            return self._store_target(node.target, state)
        if isinstance(node, Call):
            for arg in node.args:
                state = self._expr(arg, state)
            return state
        # Unknown expression kinds (none today).
        self._resolve_dead(node)
        return state

    # -- entry -----------------------------------------------------------------

    def resolve(self) -> FunctionResolution:
        base = _ScopeState(_BASE_SCOPE)
        for param in self.function.params:
            if param.name in base.names:
                # Duplicate parameter names collapse onto one binding at run
                # time (the last argument wins), which slots cannot model.
                self.unresolved.add(param.name)
            base.names[param.name] = _DECLARED
            self._var(_BASE_SCOPE, param.name, is_param=True)
        self._stmt(self.function.body, [base])
        return self._finish()

    def _finish(self) -> FunctionResolution:
        resolution = FunctionResolution(name=self.function.name,
                                        unresolved=frozenset(self.unresolved))
        # Slot assignment: every variable in first (static) appearance
        # order, so parameters take slots 0..n-1.
        slot_of: Dict[Tuple[int, str], int] = {}
        for key, var in sorted(self.vars.items(), key=lambda kv: kv[1].order):
            slot_of[key] = len(resolution.slot_names)
            resolution.slot_names.append(var.name)
        resolution.nlocals = len(resolution.slot_names)
        for node_id, target in self.accesses.items():
            if isinstance(target, _Var):
                resolution.accesses[node_id] = (
                    SLOT, slot_of[(target.scope_uid, target.name)])
            else:
                resolution.accesses[node_id] = (GLOBAL,)
        resolution.int_slots, resolution.pointer_slots = \
            self._int_slot_analysis(slot_of)
        return resolution

    # -- int-type lattice --------------------------------------------------------

    def _int_slot_analysis(self, slot_of: Dict[Tuple[int, str], int],
                           ) -> Tuple[frozenset, frozenset]:
        """Prove which slots only ever hold integers.

        Second pass over the function body, after slot assignment: collect
        every write reaching each slotted variable (declarator initializers,
        assignments, parameter bindings) plus the *never-int* conditions
        (array/pointer declarations, pointer-typed parameters, address-taken
        variables — ``&x`` may rebind ``x`` to the boxing pointer).  Then run
        an optimistic fixpoint: start every non-never variable as INT and
        demote any whose reaching writes are not all provably int, until
        stable.  Optimism about declared types (``int`` parameters, ``int``
        callees) is sound because the VM guards every unboxed site at run
        time; the lattice only decides where the fast form is *worth
        emitting*, never what a value *is*.
        """

        never: Set[Tuple[int, str]] = set()
        writes: List[Tuple[Tuple[int, str], Optional[Expr]]] = []

        def var_key(node: Node) -> Optional[Tuple[int, str]]:
            target = self.accesses.get(node.node_id)
            if isinstance(target, _Var):
                return (target.scope_uid, target.name)
            return None

        for param in self.function.params:
            key = (_BASE_SCOPE, param.name)
            if key not in slot_of:
                continue
            type_name = param.type_name
            if type_name.pointer_depth or type_name.base not in _INT_BASES:
                never.add(key)
            # Declared-int parameters contribute no write: they start INT and
            # only in-body assignments can demote them.
        for node in self.function.body.walk():
            if isinstance(node, VarDecl):
                pointer_decl = (node.type_name.pointer_depth > 0
                                or node.type_name.base not in _INT_BASES)
                for declarator in node.declarators:
                    key = var_key(declarator)
                    if key is None:
                        continue
                    if declarator.is_array or pointer_decl:
                        never.add(key)
                    else:
                        # No initializer means the implicit int zero.
                        writes.append((key, declarator.init))
            elif isinstance(node, (Assign, AssignExpr)):
                target = node.target
                if isinstance(target, Identifier):
                    key = var_key(target)
                    if key is not None:
                        writes.append((key, node.value))
            elif isinstance(node, UnaryOp) and node.op == "&":
                operand = node.operand
                if isinstance(operand, Identifier):
                    key = var_key(operand)
                    if key is not None:
                        never.add(key)

        int_vars: Set[Tuple[int, str]] = {
            key for key in slot_of if key not in never}
        for _ in range(_MAX_LOOP_PASSES):
            demoted = {key for key, value in writes
                       if key in int_vars
                       and not self._provably_int(value, int_vars)}
            if not demoted:
                break
            int_vars -= demoted
        int_slots = frozenset(slot_of[key] for key in int_vars)
        pointer_slots = frozenset(
            slot_of[key] for key in never if key in slot_of)
        return int_slots, pointer_slots

    def _provably_int(self, node: Optional[Expr],
                      int_vars: Set[Tuple[int, str]]) -> bool:
        """Whether *node* evaluates to an integer under the current lattice."""

        if node is None:  # declarator without initializer: the implicit zero
            return True
        if isinstance(node, (IntLiteral, CharLiteral)):
            return True
        if isinstance(node, Identifier):
            target = self.accesses.get(node.node_id)
            return (isinstance(target, _Var)
                    and (target.scope_uid, target.name) in int_vars)
        if isinstance(node, UnaryOp):
            if node.op in ("&", "*"):
                return False
            return self._provably_int(node.operand, int_vars)
        if isinstance(node, BinaryOp):
            # Pointer arithmetic yields pointers, so both operands must be
            # ints; every int x int operator (including && / ||) yields int.
            return (self._provably_int(node.left, int_vars)
                    and self._provably_int(node.right, int_vars))
        if isinstance(node, TernaryOp):
            return (self._provably_int(node.then, int_vars)
                    and self._provably_int(node.otherwise, int_vars))
        if isinstance(node, AssignExpr):
            return self._provably_int(node.value, int_vars)
        if isinstance(node, Call):
            if node.name in self.int_functions:
                return True
            return node.name in _INT_BUILTINS
        # ArrayIndex (cells hold arbitrary values), StringLiteral, unknown.
        return False


def _globals_used(function: FunctionDef,
                  resolution: FunctionResolution) -> Set[str]:
    """The globals *function*'s body reads or writes."""

    return {node.name for node in function.walk()
            if isinstance(node, Identifier)
            and resolution.accesses.get(node.node_id) == (GLOBAL,)}


def _resolve_initializers(program, functions: Dict[str, FunctionResolution]
                          ) -> FunctionResolution:
    """Resolve the global initializers, in declaration order.

    They run before any frame exists, so an identifier can only denote a
    global declared before it: a read of any other name raises, and an
    assignment to one has no scope to declare it in.  Both stay unresolved.
    So does a global that a function the initializer calls (directly or
    through further calls) uses: function bodies resolve against every
    global, but while the initializer runs, the global it initializes and
    every later one do not exist yet, so the interpreter declares a local
    where the body assigns one and raises where the body reads one.
    """

    declared: Set[str] = set()
    resolver = _FunctionResolver(None, declared)
    for decl in program.unit.globals:
        for declarator in decl.decl.declarators:
            for expr in (declarator.array_size, declarator.init):
                if expr is None:
                    continue
                resolver._expr(expr, [])
                for node in expr.walk():
                    if isinstance(node, Call) and node.name in functions:
                        for callee in program.reachable_functions(node.name):
                            resolver.unresolved.update(_globals_used(
                                program.functions[callee],
                                functions[callee]) - declared)
            declared.add(declarator.name)
            resolver.accesses[declarator.node_id] = GLOBAL
    return FunctionResolution(
        name=GLOBALS, accesses=dict.fromkeys(resolver.accesses, (GLOBAL,)),
        unresolved=frozenset(resolver.unresolved))


_RESOLUTION_ATTR = "_scope_resolution_cache"


def resolve_program(program) -> ProgramResolution:
    """Resolve every function and the global initializers of *program*
    (cached per program instance)."""

    cached = getattr(program, _RESOLUTION_ATTR, None)
    if cached is not None and cached.version == RESOLVER_VERSION:
        return cached
    global_names = set(program.global_names())
    int_functions = {
        name for name, function in program.functions.items()
        if function.return_type.pointer_depth == 0
        and function.return_type.base in _INT_BASES}
    functions = {name: _FunctionResolver(function, global_names,
                                         int_functions).resolve()
                 for name, function in program.functions.items()}
    resolution = ProgramResolution(
        version=RESOLVER_VERSION,
        initializers=_resolve_initializers(program, functions),
        functions=functions)
    setattr(program, _RESOLUTION_ATTR, resolution)
    return resolution
