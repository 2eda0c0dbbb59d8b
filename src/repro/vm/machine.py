"""The MiniC bytecode virtual machine.

A :class:`VirtualMachine` is a drop-in replacement for
:class:`~repro.interp.interpreter.Interpreter`: it executes one run of a
program, computes with the same :class:`ConcolicValue`/:class:`Pointer`
values, reports the same :class:`BranchEvent`/syscall stream to the installed
:class:`ExecutionHooks`, and produces an identical
:class:`~repro.interp.interpreter.ExecutionResult` (including the ``steps``
count, which the compiler charges in tree-walker units — see
:mod:`repro.vm.compiler`).  Builtins are shared with the interpreter
unchanged: the machine exposes the same ``kernel``/``binder``/``hooks``
surface the builtin functions expect from their first argument.

What makes it faster than the tree-walker is purely the execution substrate:
a flat dispatch loop over pre-lowered instruction tuples instead of recursive
``isinstance``-dispatched AST visits, and register-allocated frames: every
local is a numbered slot in a flat list and every global one dict probe.  It
runs only programs whose every identifier the static scope resolution
(:mod:`repro.lang.resolve`) pins to one slot or global;
:func:`~repro.interp.backend.create_backend` sends every other program to the
interpreter.

When the installed hooks are the branch-logging runtime
(:class:`~repro.instrument.logger.BranchLogger`) or the replay-run policy
(:class:`~repro.replay.hooks.ReplayRunHooks`) — recognised duck-typed via
their ``vm_inline`` attribute — the machine additionally runs
*plan-specialized* code (see :mod:`repro.vm.compiler`): a branch the plan
instruments carries its bitvector slot as an operand, and the bitvector
append (record) or cursor compare (replay) is inlined into the dispatch
loop; every other branch carries no slot and dispatches no hook.  Only the
rare slow paths (symbolic conditions, bitvector mismatches) call back into
the hook object, whose bookkeeping the machine merges at the end of the run
so the observable behaviour is bit-identical to the unspecialized engines.

The third inline mode, *analyze*, serves the concolic analysis
(:class:`~repro.concolic.hooks.ConcolicRunTrace`, ``vm_inline =
"analyze"``).  It runs the plan-free stream, but a concrete branch only sets
its location's mark in a per-run list, by the dense index its
:class:`~repro.lang.cfg.BranchLocation` carries; a symbolic branch still
builds its :class:`BranchEvent` for the hooks, which add its constraint.
:meth:`VirtualMachine.run` folds the marks into the labels once, after the
run ends however it ends (a crash or the step cap included).

The opcode arms of the dispatch loop run most frequent first (see the
comment above them and :func:`mean_arm_position`).  The five branch shapes
compute only the branch's direction and share one tail after the arms, so
what a branch does with its outcome in each kind of run is written once.

Every run of one ``(program, plan)`` pair executes the one stream
:func:`~repro.vm.compiler.compile_program` caches for it, profiled runs
included, and no run writes to it: what a run dispatches depends on the
program, the plan and the run's own input, never on what ran before it in
the process.  A value in a frame slot or on the operand stack is always a
:class:`ConcolicValue` or a :class:`Pointer`, never a raw int.

A replay run the engine may *repair in place* (:meth:`VirtualMachine.repair`)
also keeps a guard log (:attr:`VirtualMachine.guards`): at a logged symbolic
mismatch the replay engine may move the run onto the next input of its
search instead of restarting it from ``main``.  Every other run leaves the
log off and executes the unguarded helpers.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Mapping, Optional, Sequence

from repro.interp.inputs import InputBinder
from repro.interp.interpreter import (
    ExecutionConfig,
    ExecutionResult,
    GUEST_EXCEPTIONS,
    build_main_args,
    classify_run_exception,
)
from repro.interp.tracer import BranchEvent, ExecutionHooks, NullHooks
from repro.interp.values import (
    ArrayObject,
    ConcolicValue,
    ONE,
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
from repro.lang.errors import (
    DivisionByZeroError,
    ProgramCrash,
    RuntimeMiniCError,
    StepLimitExceeded,
)
from repro.lang.program import Program
from repro.osmodel.kernel import Kernel
from repro.osmodel.syscalls import SyscallKind
from repro.symbolic.expr import SymExpr, SymVar, as_condition
from repro.symbolic.simplify import evaluate, variable_names
from repro.vm import opcodes as op
from repro.vm.code import CodeObject
from repro.vm.compiler import compile_program

_MISSING = object()

#: Lazily built profiling variant of the dispatch loop; ``None`` until the
#: first request, ``False`` if the source is unavailable (frozen builds).
_PROFILED_EXEC_CACHE: List[object] = [None]


def _dispatch_loop():
    """``(tree, function, loop, first_line)`` of the shipped dispatch loop.

    The module AST of :meth:`VirtualMachine._exec_code`'s source, its
    function node, the ``while`` loop inside it, and the source line the
    function starts on.  Raises ``OSError`` or ``TypeError`` when the source
    cannot be retrieved (frozen builds).
    """

    import ast
    import inspect
    import textwrap

    lines, first_line = inspect.getsourcelines(VirtualMachine._exec_code)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    fn = tree.body[0]
    loop = next(node for node in fn.body if isinstance(node, ast.While))
    return tree, fn, loop, first_line


def dispatch_arm_order() -> List[str]:
    """The opcode names of the dispatch chain's arms, in the order tested.

    Read from the shipped loop's source, so it is always the order the
    running code tests: an instruction whose opcode is the chain's *n*-th
    arm pays *n* opcode tests.
    """

    import ast

    _tree, _fn, loop, _line = _dispatch_loop()
    arm = next(stmt for stmt in loop.body
               if isinstance(stmt, ast.If)
               and isinstance(stmt.test, ast.Compare)
               and isinstance(stmt.test.left, ast.Name)
               and stmt.test.left.id == "opcode")
    names = []
    while arm is not None:
        names.append(arm.test.comparators[0].attr)
        orelse = arm.orelse
        arm = orelse[0] if len(orelse) == 1 and isinstance(orelse[0], ast.If) \
            else None
    return names


def mean_arm_position(counts: Mapping[str, int]) -> float:
    """Mean opcode tests per dispatch of a profile (opcode name -> count).

    Arm 1 costs one test.  Names the chain does not test (a profile written
    by an older VM) are left out; an empty profile reads 0.0.
    """

    position = {name: index
                for index, name in enumerate(dispatch_arm_order(), 1)}
    known = [(position[name], count) for name, count in counts.items()
             if name in position]
    total = sum(count for _position, count in known)
    if not total:
        return 0.0
    return sum(arm * count for arm, count in known) / total


def _build_profiled_exec():
    """Generate the per-opcode-counting dispatch loop from the real one.

    The profiler requirement is *zero* overhead when off — not even one
    flag test per dispatched instruction — so instead of branching inside
    the hot loop, a profiling variant of :meth:`VirtualMachine._exec_code`
    is generated mechanically from its own source: parse it, insert
    ``_profile[opcode] = _profile.get(opcode, 0) + 1`` right after the
    instruction fetch, and compile the result in this module's namespace.
    The shipped loop stays untouched (the off path executes literally
    unmodified code), and the profiled loop cannot drift from it because it
    *is* it.  Returns ``None`` when the source cannot be retrieved.
    """

    import ast

    try:
        tree, fn, loop, first_line = _dispatch_loop()
    except (OSError, TypeError):  # pragma: no cover - frozen
        return None
    # Count right after the first statement that binds ``opcode`` (the
    # instruction fetch) so every dispatch iteration counts exactly once,
    # before any opcode arm can ``continue``.
    fetch_index = None
    for index, stmt in enumerate(loop.body):
        if isinstance(stmt, ast.Assign) and any(
                isinstance(el, ast.Name) and el.id == "opcode"
                for target in stmt.targets
                if isinstance(target, ast.Tuple) for el in target.elts):
            fetch_index = index
            break
    if fetch_index is None:  # pragma: no cover - defensive
        return None
    counting = ast.parse(
        "_profile[opcode] = _profile.get(opcode, 0) + 1").body[0]
    loop.body.insert(fetch_index + 1, counting)
    fn.body.insert(0, ast.parse("_profile = self.opcode_counts").body[0])
    fn.name = "_exec_code_profiled"
    ast.fix_missing_locations(tree)
    ast.increment_lineno(tree, first_line - 1)
    namespace: Dict[str, object] = {}
    exec(compile(tree, __file__, "exec"), globals(), namespace)
    return namespace["_exec_code_profiled"]


def _profiled_exec_code():
    """The cached profiling dispatch loop, or ``None`` if unavailable."""

    cached = _PROFILED_EXEC_CACHE[0]
    if cached is None:
        cached = _build_profiled_exec()
        _PROFILED_EXEC_CACHE[0] = cached if cached is not None else False
    return None if cached is False else cached

#: Interned concrete values for the slot superinstructions' inline
#: arithmetic.  ``ConcolicValue`` is a frozen dataclass — construction costs
#: more than the arithmetic itself — and immutable, so results in the common
#: small range (loop counters, comparisons, character codes) share one
#: instance exactly like the compiler's prebuilt CONST operands do.
_SMALL_INTS = tuple(ConcolicValue(i) for i in range(1025))
_NSMALL = len(_SMALL_INTS)


#: Shared slot list for frames of functions without locals; never written
#: (STORE_FAST is only emitted when ``nlocals > 0``).
_NO_SLOTS: List[Value] = []


class _Frame:
    """One function invocation: its numbered slots.

    Every local lives in ``slots``, a flat list indexed by the slot numbers
    the resolution pass (:mod:`repro.lang.resolve`) burned into the
    instruction stream; a shadowing declaration got a slot of its own, so
    block scopes need no run-time bookkeeping.  Parameters occupy slots
    ``0..n-1``.
    """

    __slots__ = ("function_name", "slots")

    def __init__(self, function_name: str, nlocals: int = 0) -> None:
        self.function_name = function_name
        self.slots: List[Value] = [None] * nlocals if nlocals else _NO_SLOTS


class VirtualMachine:
    """Executes one MiniC program run on compiled bytecode."""

    def __init__(self, program: Program, kernel: Optional[Kernel] = None,
                 hooks: Optional[ExecutionHooks] = None,
                 binder: Optional[InputBinder] = None,
                 config: Optional[ExecutionConfig] = None) -> None:
        self.program = program
        self.kernel = kernel or Kernel()
        self.hooks = hooks or NullHooks()
        self.config = config or ExecutionConfig()
        self.binder = binder or InputBinder(mode=self.config.mode)
        self.globals: Dict[str, Value] = {}
        self.branch_counter = 0
        self.symbolic_branch_counter = 0
        self._steps = [0]
        self._frames: List[_Frame] = []
        self._string_cache: Dict[int, ArrayObject] = {}
        self._syscall_seen = 0
        # Array ids are per run (see ArrayObject); a run repaired in place
        # keeps counting where its parent stopped.
        self.array_ids = itertools.count(1)
        # Plan specialization: compile for the hooks' instrumentation plan
        # when the hooks opt in (BranchLogger / ReplayRunHooks), otherwise run
        # plan-free code whose BRANCH dispatches every event to the hooks
        # (analyze mode runs that stream too, under compile key None).
        # Profiling is not part of the key: a profiled run executes the
        # stream every other run of its plan executes.
        self._spec = self._select_specialization()
        self._plan = (self.hooks.plan if self._spec in ("record", "replay")
                      else None)
        self.compiled = self.lookup_compiled()
        # Inline state for the logged branches.  ``_rec_append`` doubles as
        # the record/replay discriminator in the dispatch loop, and both
        # modes count each slot's executions (a plan-free stream has none).
        self._rec_append = None
        self._slot_counts = [0] * len(self.compiled.logged_locations)
        self._replay_bits: List[bool] = []
        self._replay_len = 0
        self._cursor_cell = [0]
        self._marks: Optional[List[bool]] = None
        if self._spec == "analyze":
            self._marks = [False] * len(self.program.branch_locations)
        elif self._spec == "record":
            self._rec_append = self.hooks.bitvector.bits.append
        elif self._spec == "replay":
            bitvector = self.hooks.bitvector
            bits = getattr(bitvector, "bits", None)
            self._replay_bits = bits if bits is not None else list(bitvector)
            self._replay_len = len(self._replay_bits)
            self._cursor_cell = self.hooks.cursor_cell
        # The guard log: ``(kind, expression, observed value)`` for every use
        # of a symbolic value's concrete part that emits no branch event,
        # appended by the dispatch loop and the shared builtins.  ``None``
        # (no recording) unless the replay engine sets a list before a run
        # it may repair; :meth:`repair` reads it.
        self.guards: Optional[list] = None
        self._guard_index: Dict[str, List[int]] = {}
        self._guards_indexed = 0
        # Per-opcode execution counts (telemetry).  When enabled, the
        # generated profiling dispatch loop shadows the class method on this
        # instance; when off, nothing changes anywhere near the hot loop.
        self.opcode_counts: Optional[Dict[int, int]] = None
        if self.config.profile_opcodes:
            profiled = _profiled_exec_code()
            if profiled is not None:
                self.opcode_counts = {}
                self._exec_code = profiled.__get__(self, VirtualMachine)

    def _select_specialization(self) -> Optional[str]:
        mode = getattr(self.hooks, "vm_inline", None)
        if mode == "analyze":
            return "analyze"
        if getattr(self.hooks, "plan", None) is None:
            return None
        if mode == "record" and self.hooks.vm_can_inline():
            return "record"
        if mode == "replay" and hasattr(self.hooks, "cursor_cell"):
            return "replay"
        return None

    # -- interpreter-compatible surface (used by shared builtins) ---------------

    @property
    def steps(self) -> int:
        return self._steps[0]

    def current_function_name(self) -> str:
        if self._frames:
            return self._frames[-1].function_name
        return "<global>"

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

    # -- program entry ----------------------------------------------------------

    def run(self, argv: Sequence[str]) -> ExecutionResult:
        """Execute ``main`` with the given argv and return the run summary."""

        start = time.monotonic()
        result = ExecutionResult()
        try:
            self._exec_code(self.compiled.globals_code, _Frame("<global>"))
            exit_value = self._call_main(list(argv))
            result.exit_code = as_int(exit_value).concrete
        except GUEST_EXCEPTIONS as exc:
            # The flat dispatch loop does not unwind guest frames on the way
            # out; reset them so classification sees the interpreter's
            # fully-unwound state (current function falls back to <global>).
            del self._frames[:]
            classify_run_exception(result, exc, self.current_function_name())
        if self._spec == "record":
            self.hooks.vm_merge(self.branch_counter,
                                self.compiled.logged_locations,
                                self._slot_counts)
        elif self._spec == "replay":
            self.hooks.vm_finish(self.branch_counter)
        elif self._spec == "analyze":
            self.hooks.vm_fold_marks(self.program.branch_locations,
                                     self._marks)
        result.steps = self._steps[0]
        result.branch_executions = self.branch_counter
        result.symbolic_branch_executions = self.symbolic_branch_counter
        result.syscall_count = len(self.kernel.trace)
        result.stdout = self.kernel.stdout_text()
        result.wall_seconds = time.monotonic() - start
        if self.opcode_counts is not None:
            self._publish_opcode_counts()
        return result

    def _publish_opcode_counts(self) -> None:
        """Merge the profiled dispatch counts into the active registry.

        ``vm.opcode.<NAME>`` counters are exact per-opcode execution counts.
        Like ``replay.vm_steps`` they count what the VM executed, not what a
        search committed: a search resumed from a checkpoint re-runs from
        ``main`` what the uninterrupted search repaired in place.
        Whether a branch is logged is its operand, not its opcode, so the
        run adds the split: ``vm.branches.logged`` (the executions counted
        per logged slot) and ``vm.branches.unlogged`` (every other branch
        execution).  All of them are flagged ``timing=True``, so turning
        the profiler on leaves the deterministic snapshot as it was.
        """

        from repro.telemetry import runtime as telemetry_runtime

        registry = telemetry_runtime.active()
        counter = registry.counter
        for opcode, count in self.opcode_counts.items():
            name = op.OPCODE_NAMES.get(opcode, str(opcode))
            counter(f"vm.opcode.{name}", timing=True).inc(count)
        logged = sum(self._slot_counts)
        counter("vm.branches.logged", timing=True).inc(logged)
        counter("vm.branches.unlogged", timing=True).inc(
            self.branch_counter - logged)

    def _call_main(self, argv: List[str]) -> Value:
        main_fn = self.program.main
        args = build_main_args(len(main_fn.params), argv, self.binder,
                               self.array_ids)
        return self._call(self.compiled.main, args, main_fn.line)

    # -- calls ------------------------------------------------------------------

    def _call(self, code: CodeObject, args: List[Value], line: int) -> Value:
        if len(self._frames) >= self.config.max_call_depth:
            raise ProgramCrash("call stack overflow", line,
                               self.current_function_name())
        frame = _Frame(code.name, code.nlocals)
        argc = len(args)
        slots = frame.slots
        for index in range(len(code.params)):
            slots[index] = args[index] if index < argc else ZERO
        self._frames.append(frame)
        try:
            return self._exec_code(code, frame)
        finally:
            self._frames.pop()

    # -- memory helpers ---------------------------------------------------------

    def _resolve_element(self, base: Value, index_value: Value, line: int):
        index = index_value if type(index_value) is ConcolicValue \
            else as_int(index_value)
        if not isinstance(base, Pointer):
            raise ProgramCrash("indexing a non-pointer value", line,
                               self.current_function_name())
        position = base.offset + index.concrete
        cells = base.block.cells
        if not 0 <= position < len(cells):
            raise ProgramCrash(
                f"array index out of bounds ({position} not in 0..{len(cells) - 1})",
                line, self.current_function_name())
        return base.block, position

    # -- replay guards and repair in place --------------------------------------

    def _guarded_resolve_element(self, base: Value, index_value: Value,
                                 line: int):
        """``_resolve_element`` that logs a symbolic index it applies."""

        if type(index_value) is ConcolicValue \
                and index_value.symbolic is not None:
            self.guards.append(("index", index_value.symbolic,
                                index_value.concrete))
        return self._resolve_element(base, index_value, line)

    def _guarded_int_op(self, operator: str, left: ConcolicValue,
                        right: ConcolicValue) -> ConcolicValue:
        """``binary_int_op`` that logs a symbolic divisor's zero test."""

        if (operator == "/" or operator == "%") and right.symbolic is not None:
            self.guards.append(("divisor", as_condition(right.symbolic),
                                0 if right.concrete == 0 else 1))
        return binary_int_op(operator, left, right)

    def _guarded_pointer_op(self, operator: str, left: Value, right: Value,
                            line: int = 0) -> Value:
        """``pointer_binary_op`` that logs a symbolic offset it applies."""

        if operator == "+" or operator == "-":
            for value in (left, right):
                if type(value) is ConcolicValue and value.symbolic is not None:
                    self.guards.append(("pointer", value.symbolic,
                                        value.concrete))
        return pointer_binary_op(operator, left, right, line)

    def repair(self, live: tuple, overrides: Dict[str, int],
               condition: SymExpr) -> str:
        """Move this replay run onto the input *overrides* in place.

        Called at a logged symbolic branch the run took the wrong way, with
        the solved input of the alternative that forces the recorded
        direction.  The run may continue as that input's run only if the two
        cannot have diverged so far: every guard that mentions a changed
        input must still evaluate to its observed value, and *condition*
        (the direction taken) must now be false.  Then every live value
        whose expression mentions a changed input is re-evaluated — the
        operand stacks (the current one and the callers' parked in
        ``live``), the slots of every frame, the globals, the string
        literals and every heap block reachable from them — and the binder
        takes the new input.

        Returns ``""`` on success.  Otherwise the run is left untouched and
        the result names what forbids the repair: the blocking guard's kind,
        ``"unbound"`` (the input lacks a value the run already consumed),
        ``"branch"`` (the branch would still go the wrong way) or
        ``"evaluation"`` (an expression failed to evaluate).
        """

        binder = self.binder
        values = dict(binder.concrete_values)
        changed = set()
        for name, old in binder.concrete_values.items():
            if name not in overrides:
                return "unbound"
            var = binder.variables[name]
            value = max(var.lo, min(var.hi, overrides[name]))
            if value != old:
                values[name] = value
                changed.add(name)
        try:
            blocked = self._blocking_guard(changed, values)
            if blocked:
                return blocked
            if evaluate(condition, values):
                return "branch"
            updates = self._live_updates(live, values, changed)
        except (ArithmeticError, KeyError, RecursionError):
            return "evaluation"
        for container, key, value in updates:
            container[key] = value
        binder.concrete_values.update((name, values[name]) for name in changed)
        binder.overrides = dict(overrides)
        return ""

    def _blocking_guard(self, changed, values: Dict[str, int]) -> str:
        """Kind of the first logged guard the *changed* inputs break."""

        guards = self.guards
        index = self._guard_index
        for position in range(self._guards_indexed, len(guards)):
            for name in variable_names(guards[position][1]):
                index.setdefault(name, []).append(position)
        self._guards_indexed = len(guards)
        for position in sorted({position for name in changed
                                for position in index.get(name, ())}):
            kind, expr, observed = guards[position]
            if evaluate(expr, values) != observed:
                return kind
        return ""

    def _live_updates(self, live: tuple, values: Dict[str, int],
                      changed) -> List[tuple]:
        """``(container, key, new value)`` for every live value that moves."""

        stack, call_stack = live
        memo: Dict[int, int] = {}
        updates: List[tuple] = []
        blocks = list(self._string_cache.values())
        seen = {id(block) for block in blocks}

        def refreshed(value):
            # The value under the new input, or None when it stays put; a
            # pointer queues its block for the walk.
            kind = type(value)
            if kind is ConcolicValue:
                sym = value.symbolic
                if sym is None:
                    return None
                if type(sym) is SymVar:
                    if sym.name not in changed:
                        return None
                    fresh = values[sym.name]
                else:
                    fresh = memo.get(id(sym))
                    if fresh is None:
                        fresh = memo[id(sym)] = evaluate(sym, values)
                return None if fresh == value.concrete \
                    else ConcolicValue(fresh, sym)
            if kind is Pointer and id(value.block) not in seen:
                seen.add(id(value.block))
                blocks.append(value.block)
            return None

        def scan(cells: list) -> None:
            for position, value in enumerate(cells):
                # Most cells are concrete: skip them without a call.
                kind = type(value)
                if kind is ConcolicValue:
                    if value.symbolic is None:
                        continue
                elif kind is not Pointer:
                    continue
                fresh = refreshed(value)
                if fresh is not None:
                    updates.append((cells, position, fresh))

        scan(stack)
        for parked in call_stack:
            scan(parked[3])
        # The globals code's frame (parked under a global initializer's
        # call) has no slots, so the guest frames are all there is.
        for frame in self._frames:
            scan(frame.slots)
        for name, value in self.globals.items():
            fresh = refreshed(value)
            if fresh is not None:
                updates.append((self.globals, name, fresh))
        while blocks:
            scan(blocks.pop().cells)
        return updates

    def lookup_compiled(self):
        """This run's compiled code, from the ``(program, plan)`` cache.

        A run repaired in place keeps executing its parent's code but looks
        it up once more, as a restarted run would: the compile-cache
        counters stay at one lookup per logical run.
        """

        return compile_program(self.program, self._plan)

    # -- the dispatch loop ------------------------------------------------------

    def _exec_code(self, code: CodeObject, frame: _Frame) -> Value:
        """Run *code* (and everything it calls) in one flat dispatch loop.

        Guest calls do not recurse into the host: ``CALL`` parks the caller's
        execution state (instruction stream, pc, operand stack, frame
        slots) on ``call_stack`` and switches the loop's locals to the
        callee; the ``RET`` family pops it back.  One guest call therefore
        costs a handful of local rebindings instead of a Python function
        call, a fresh prologue and a try/finally — and host recursion limits
        no longer shadow the guest's ``max_call_depth``.  On a guest
        exception the loop simply unwinds out; :meth:`run` resets
        ``self._frames`` before classifying, matching the interpreter's
        fully unwound state.
        """

        instructions = code.instructions
        end = len(instructions)
        stack: List[Value] = []
        push = stack.append
        pop = stack.pop
        step_cell = self._steps
        max_steps = self.config.max_steps
        max_call_depth = self.config.max_call_depth
        global_vars = self.globals
        frames = self._frames
        frame_slots = frame.slots
        hooks = self.hooks
        # Parked caller states: (instructions, end, pc, stack, push, pop,
        # frame_slots) per active guest call.
        call_stack: List[tuple] = []
        # What an unlogged branch reports, chosen once per run (a logged
        # one only exists in record and replay runs).  Analyze mode sets a
        # concrete branch's mark in ``marks`` (None in every other run)
        # instead of building a BranchEvent; any other plan-free run with
        # hooks hands every branch to ``on_branch``; a replay run hands a
        # symbolic one to the hooks' unlogged-symbolic callback.  Plain runs
        # (exactly NullHooks) and record runs report nothing; the counters
        # still tick.
        marks = self._marks
        on_concrete = on_symbolic = None
        if self._spec == "replay":
            on_symbolic = hooks.vm_bare_symbolic
        elif self._spec != "record" and type(hooks) is not NullHooks:
            on_symbolic = hooks.on_branch
            if marks is None:
                on_concrete = on_symbolic
        # Plan-specialized inline state (None / empty when unspecialized).
        rec_append = self._rec_append
        slot_counts = self._slot_counts
        replay_bits = self._replay_bits
        replay_len = self._replay_len
        cursor_cell = self._cursor_cell
        # A run the replay engine may repair logs every use of a symbolic
        # value's concrete part that emits no branch event (see repair);
        # every other run calls the plain helpers.
        guards = self.guards
        if guards is None:
            int_op = binary_int_op
            pointer_op = pointer_binary_op
            resolve = self._resolve_element
        else:
            int_op = self._guarded_int_op
            pointer_op = self._guarded_pointer_op
            resolve = self._guarded_resolve_element
        pc = 0
        while pc < end:
            opcode, arg, charge, line = instructions[pc]
            pc += 1
            if charge:
                total = step_cell[0] + charge
                step_cell[0] = total
                if total > max_steps:
                    raise StepLimitExceeded("interpreter step budget exhausted",
                                            line)
            # The arms run in order of how often each opcode executes, most
            # frequent first: an instruction pays one failed
            # ``opcode == op.X`` test (a module-attribute load and an int
            # compare) for every arm above its own.  The counts come from
            # the VM's profiler (``ExecutionConfig.profile_opcodes``) over
            # the registry workloads (``repro.workloads.all_cases()``), with
            # analyze, record, replay and plain runs weighted equally;
            # tests/test_dispatch_order.py holds that profile's
            # mean_arm_position to 8 in each mode.  The arms are disjoint,
            # so their order changes no behaviour.  A comment that
            # introduces a family of arms sits above the family's first arm
            # in this order.
            if opcode == op.LOAD_FAST:
                push(frame_slots[arg])
                continue
            elif opcode == op.CONST:
                push(arg)
                continue
            # The four slot superinstructions inline the fully concrete
            # arithmetic of the hot operators (comparison results and small
            # sums reuse interned values; binary_int_op would build the same
            # frozen dataclass from scratch).  Symbolic operands, pointers
            # and the rare operators take the shared helpers, so results are
            # identical by construction.
            elif opcode == op.BINOP_FC_STORE:
                operator, slot, right, target_slot = arg
                left = frame_slots[slot]
                if (type(left) is ConcolicValue and left.symbolic is None
                        and right.symbolic is None):
                    a = left.concrete
                    b = right.concrete
                    if operator == "+":
                        r = a + b
                        frame_slots[target_slot] = (
                            _SMALL_INTS[r] if 0 <= r < _NSMALL
                            else ConcolicValue(r))
                        continue
                    if operator == "-":
                        r = a - b
                        frame_slots[target_slot] = (
                            _SMALL_INTS[r] if 0 <= r < _NSMALL
                            else ConcolicValue(r))
                        continue
                    if operator == "*":
                        r = a * b
                        frame_slots[target_slot] = (
                            _SMALL_INTS[r] if 0 <= r < _NSMALL
                            else ConcolicValue(r))
                        continue
                    if operator == "<":
                        frame_slots[target_slot] = ONE if a < b else ZERO
                        continue
                    if operator == ">":
                        frame_slots[target_slot] = ONE if a > b else ZERO
                        continue
                    if operator == "==":
                        frame_slots[target_slot] = ONE if a == b else ZERO
                        continue
                    if operator == "!=":
                        frame_slots[target_slot] = ONE if a != b else ZERO
                        continue
                    if operator == "<=":
                        frame_slots[target_slot] = ONE if a <= b else ZERO
                        continue
                    if operator == ">=":
                        frame_slots[target_slot] = ONE if a >= b else ZERO
                        continue
                if type(left) is ConcolicValue:
                    try:
                        frame_slots[target_slot] = int_op(operator, left, right)
                    except ZeroDivisionError:
                        raise DivisionByZeroError("division by zero", line)
                else:
                    frame_slots[target_slot] = pointer_op(
                        operator, left, right, line)
                continue
            # The five branch shapes compute only the branch's direction:
            # each binds location, target, slot, taken and sym and falls
            # through to the branch tail below the chain.  The
            # compare-and-branch superinstructions decide a fully concrete
            # comparison without building its truth value; symbolic or
            # pointer operands take the shared helpers, so events,
            # conditions and crashes are the unfused sequence's by
            # construction.
            elif opcode == op.BINOP_FC_BRANCH:
                operator, left_slot, right, location, target, slot = arg
                left = frame_slots[left_slot]
                if (type(left) is ConcolicValue
                        and left.symbolic is None and right.symbolic is None):
                    a = left.concrete
                    b = right.concrete
                    if operator == "<":
                        taken = a < b
                    elif operator == ">":
                        taken = a > b
                    elif operator == "==":
                        taken = a == b
                    elif operator == "!=":
                        taken = a != b
                    elif operator == "<=":
                        taken = a <= b
                    else:
                        taken = a >= b
                    sym = None
                else:
                    if type(left) is ConcolicValue:
                        value = int_op(operator, left, right)
                    else:
                        value = pointer_op(operator, left, right, line)
                    if type(value) is ConcolicValue:
                        taken = value.concrete != 0
                        sym = value.symbolic
                    else:
                        taken = as_int(value).concrete != 0
                        sym = None
            elif opcode == op.JUMP:
                pc = arg
                continue
            elif opcode == op.BINOP_FC:
                operator, slot, right = arg
                left = frame_slots[slot]
                if (type(left) is ConcolicValue and left.symbolic is None
                        and right.symbolic is None):
                    a = left.concrete
                    b = right.concrete
                    if operator == "<":
                        push(ONE if a < b else ZERO)
                        continue
                    if operator == "+":
                        r = a + b
                        push(_SMALL_INTS[r] if 0 <= r < _NSMALL
                             else ConcolicValue(r))
                        continue
                    if operator == "-":
                        r = a - b
                        push(_SMALL_INTS[r] if 0 <= r < _NSMALL
                             else ConcolicValue(r))
                        continue
                    if operator == ">":
                        push(ONE if a > b else ZERO)
                        continue
                    if operator == "==":
                        push(ONE if a == b else ZERO)
                        continue
                    if operator == "!=":
                        push(ONE if a != b else ZERO)
                        continue
                    if operator == "<=":
                        push(ONE if a <= b else ZERO)
                        continue
                    if operator == ">=":
                        push(ONE if a >= b else ZERO)
                        continue
                    if operator == "*":
                        r = a * b
                        push(_SMALL_INTS[r] if 0 <= r < _NSMALL
                             else ConcolicValue(r))
                        continue
                if type(left) is ConcolicValue:
                    try:
                        push(int_op(operator, left, right))
                    except ZeroDivisionError:
                        raise DivisionByZeroError("division by zero", line)
                else:
                    push(pointer_op(operator, left, right, line))
                continue
            elif opcode == op.CALL:
                callee, argc = arg
                if len(frames) >= max_call_depth:
                    raise ProgramCrash("call stack overflow", line,
                                       self.current_function_name())
                callee_frame = _Frame(callee.name, callee.nlocals)
                callee_slots = callee_frame.slots
                nparams = len(callee.params)
                if argc == nparams:
                    # Parameters occupy slots 0..n-1 in declaration order
                    # (resolution creates them first), so the arguments
                    # drop straight in.
                    if argc:
                        callee_slots[:argc] = stack[-argc:]
                        del stack[-argc:]
                else:
                    # Extra arguments were evaluated and are dropped;
                    # missing ones read as zero, as in the interpreter.
                    if argc:
                        args = stack[-argc:]
                        del stack[-argc:]
                    else:
                        args = []
                    for index in range(nparams):
                        callee_slots[index] = args[index] if index < argc \
                            else ZERO
                call_stack.append((instructions, end, pc, stack, push, pop,
                                   frame_slots))
                frames.append(callee_frame)
                frame_slots = callee_slots
                instructions = callee.instructions
                end = len(instructions)
                stack = []
                push = stack.append
                pop = stack.pop
                pc = 0
                continue
            elif opcode == op.STORE_INDEX:
                index = pop()
                base = pop()
                value = pop()
                block, position = resolve(base, index, line)
                block.cells[position] = value
                continue
            elif opcode == op.BINOP_FF_BRANCH:
                operator, left_slot, right_slot, location, target, slot = arg
                left = frame_slots[left_slot]
                right = frame_slots[right_slot]
                if (type(left) is ConcolicValue
                        and type(right) is ConcolicValue
                        and left.symbolic is None and right.symbolic is None):
                    a = left.concrete
                    b = right.concrete
                    if operator == "<":
                        taken = a < b
                    elif operator == ">":
                        taken = a > b
                    elif operator == "==":
                        taken = a == b
                    elif operator == "!=":
                        taken = a != b
                    elif operator == "<=":
                        taken = a <= b
                    else:
                        taken = a >= b
                    sym = None
                else:
                    if (type(left) is ConcolicValue
                            and type(right) is ConcolicValue):
                        value = int_op(operator, left, right)
                    else:
                        value = pointer_op(operator, left, right, line)
                    if type(value) is ConcolicValue:
                        taken = value.concrete != 0
                        sym = value.symbolic
                    else:
                        taken = as_int(value).concrete != 0
                        sym = None
            elif opcode == op.BINARY:
                right = pop()
                left = pop()
                if type(left) is ConcolicValue and type(right) is ConcolicValue:
                    try:
                        push(int_op(arg, left, right))
                    except ZeroDivisionError:
                        raise DivisionByZeroError("division by zero", line)
                else:
                    push(pointer_op(arg, left, right, line))
                continue
            elif opcode == op.RET:
                value = pop()
                if not call_stack:
                    return value
                frames.pop()
                (instructions, end, pc, stack, push, pop,
                 frame_slots) = call_stack.pop()
                push(value)
                continue
            elif opcode == op.LOAD_INDEX:
                index = pop()
                base = pop()
                block, position = resolve(base, index, line)
                push(block.cells[position])
                continue
            elif opcode == op.LOAD_FAST_RET:
                value = frame_slots[arg]
                if not call_stack:
                    return value
                frames.pop()
                (instructions, end, pc, stack, push, pop,
                 frame_slots) = call_stack.pop()
                push(value)
                continue
            elif opcode == op.STORE_FAST:
                frame_slots[arg] = pop()
                continue
            elif opcode == op.BINARY_BRANCH:
                operator, location, target, slot = arg
                right = pop()
                left = pop()
                if (type(left) is ConcolicValue and type(right) is ConcolicValue
                        and left.symbolic is None and right.symbolic is None):
                    a = left.concrete
                    b = right.concrete
                    if operator == "==":
                        taken = a == b
                    elif operator == "!=":
                        taken = a != b
                    elif operator == "<":
                        taken = a < b
                    elif operator == ">":
                        taken = a > b
                    elif operator == "<=":
                        taken = a <= b
                    else:
                        taken = a >= b
                    sym = None
                else:
                    if (type(left) is ConcolicValue
                            and type(right) is ConcolicValue):
                        value = int_op(operator, left, right)
                    else:
                        value = pointer_op(operator, left, right, line)
                    if type(value) is ConcolicValue:
                        taken = value.concrete != 0
                        sym = value.symbolic
                    else:
                        taken = as_int(value).concrete != 0
                        sym = None
            elif opcode == op.BINOP_SC_BRANCH:
                operator, right, location, target, slot = arg
                left = pop()
                if (type(left) is ConcolicValue
                        and left.symbolic is None and right.symbolic is None):
                    a = left.concrete
                    b = right.concrete
                    if operator == "==":
                        taken = a == b
                    elif operator == "!=":
                        taken = a != b
                    elif operator == "<":
                        taken = a < b
                    elif operator == ">":
                        taken = a > b
                    elif operator == "<=":
                        taken = a <= b
                    else:
                        taken = a >= b
                    sym = None
                else:
                    if type(left) is ConcolicValue:
                        value = int_op(operator, left, right)
                    else:
                        value = pointer_op(operator, left, right, line)
                    if type(value) is ConcolicValue:
                        taken = value.concrete != 0
                        sym = value.symbolic
                    else:
                        taken = as_int(value).concrete != 0
                        sym = None
            elif opcode == op.CALL_BUILTIN:
                fn, argc, node = arg
                if argc:
                    args = stack[-argc:]
                    del stack[-argc:]
                else:
                    args = []
                push(fn(self, args, node))
                continue
            elif opcode == op.AND_JUMP:
                left = pop()
                if type(left) is not ConcolicValue:
                    left = as_int(left)
                if left.concrete == 0:
                    sym = left.symbolic
                    if sym is not None:
                        sym = as_condition(sym)
                        if guards is not None:
                            guards.append(("short-circuit", sym, 0))
                    push(ConcolicValue(0, sym))
                    pc = arg
                else:
                    if guards is not None and left.symbolic is not None:
                        guards.append(("short-circuit",
                                       as_condition(left.symbolic), 1))
                    push(left)
                continue
            elif opcode == op.BRANCH:
                location, target, slot = arg
                value = pop()
                if type(value) is ConcolicValue:
                    taken = value.concrete != 0
                    sym = value.symbolic
                else:
                    taken = as_int(value).concrete != 0
                    sym = None
            elif opcode == op.AND_END:
                right = pop()
                left = pop()
                if type(right) is not ConcolicValue:
                    right = as_int(right)
                push(int_op("&&", left, right))
                continue
            elif opcode == op.BINOP_FF:
                operator, left_slot, right_slot = arg
                left = frame_slots[left_slot]
                right = frame_slots[right_slot]
                if (type(left) is ConcolicValue
                        and type(right) is ConcolicValue
                        and left.symbolic is None and right.symbolic is None):
                    a = left.concrete
                    b = right.concrete
                    if operator == "<":
                        push(ONE if a < b else ZERO)
                        continue
                    if operator == "+":
                        r = a + b
                        push(_SMALL_INTS[r] if 0 <= r < _NSMALL
                             else ConcolicValue(r))
                        continue
                    if operator == "-":
                        r = a - b
                        push(_SMALL_INTS[r] if 0 <= r < _NSMALL
                             else ConcolicValue(r))
                        continue
                    if operator == ">":
                        push(ONE if a > b else ZERO)
                        continue
                    if operator == "==":
                        push(ONE if a == b else ZERO)
                        continue
                    if operator == "!=":
                        push(ONE if a != b else ZERO)
                        continue
                    if operator == "<=":
                        push(ONE if a <= b else ZERO)
                        continue
                    if operator == ">=":
                        push(ONE if a >= b else ZERO)
                        continue
                    if operator == "*":
                        r = a * b
                        push(_SMALL_INTS[r] if 0 <= r < _NSMALL
                             else ConcolicValue(r))
                        continue
                if type(left) is ConcolicValue and type(right) is ConcolicValue:
                    try:
                        push(int_op(operator, left, right))
                    except ZeroDivisionError:
                        raise DivisionByZeroError("division by zero", line)
                else:
                    push(pointer_op(operator, left, right, line))
                continue
            elif opcode == op.NOP:
                continue
            elif opcode == op.LOAD_GLOBAL:
                value = global_vars.get(arg, _MISSING)
                if value is _MISSING:
                    raise RuntimeMiniCError(f"undefined variable '{arg}'",
                                            line)
                push(value)
                continue
            elif opcode == op.POP:
                pop()
                continue
            elif opcode == op.NEW_ARRAY:
                label, has_size = arg
                size = 1
                if has_size:
                    size_value = pop()
                    if type(size_value) is not ConcolicValue:
                        size_value = as_int(size_value)
                    if guards is not None and size_value.symbolic is not None:
                        guards.append(("array-size", size_value.symbolic,
                                       size_value.concrete))
                    size = max(1, size_value.concrete)
                push(Pointer(ArrayObject(size, label=label,
                                         array_id=next(self.array_ids)), 0))
                continue
            elif opcode == op.STORE_GLOBAL:
                global_vars[arg] = pop()
                continue
            elif opcode == op.STRING:
                cache_key, text = arg
                cached = self._string_cache.get(cache_key)
                if cached is None:
                    cached = string_to_array(
                        text, label="literal", array_id=next(self.array_ids))
                    self._string_cache[cache_key] = cached
                push(Pointer(cached, 0))
                continue
            elif opcode == op.OR_JUMP:
                left = pop()
                if type(left) is not ConcolicValue:
                    left = as_int(left)
                if left.concrete != 0:
                    sym = left.symbolic
                    if sym is not None:
                        sym = as_condition(sym)
                        if guards is not None:
                            guards.append(("short-circuit", sym, 1))
                    push(ConcolicValue(1, sym))
                    pc = arg
                else:
                    if guards is not None and left.symbolic is not None:
                        guards.append(("short-circuit",
                                       as_condition(left.symbolic), 0))
                    push(left)
                continue
            elif opcode == op.OR_END:
                right = pop()
                left = pop()
                if type(right) is not ConcolicValue:
                    right = as_int(right)
                push(int_op("||", left, right))
                continue
            elif opcode == op.UNARY:
                value = pop()
                if type(value) is Pointer:
                    if arg == "!":
                        push(concrete(0))
                    else:
                        raise RuntimeMiniCError(
                            f"unary {arg!r} applied to a pointer", line)
                else:
                    try:
                        push(unary_int_op(arg, value))
                    except ZeroDivisionError:
                        raise DivisionByZeroError("division by zero", line)
                continue
            elif opcode == op.BINOP_FF_STORE:
                operator, left_slot, right_slot, target_slot = arg
                left = frame_slots[left_slot]
                right = frame_slots[right_slot]
                if (type(left) is ConcolicValue
                        and type(right) is ConcolicValue
                        and left.symbolic is None and right.symbolic is None):
                    a = left.concrete
                    b = right.concrete
                    if operator == "+":
                        r = a + b
                        frame_slots[target_slot] = (
                            _SMALL_INTS[r] if 0 <= r < _NSMALL
                            else ConcolicValue(r))
                        continue
                    if operator == "-":
                        r = a - b
                        frame_slots[target_slot] = (
                            _SMALL_INTS[r] if 0 <= r < _NSMALL
                            else ConcolicValue(r))
                        continue
                    if operator == "*":
                        r = a * b
                        frame_slots[target_slot] = (
                            _SMALL_INTS[r] if 0 <= r < _NSMALL
                            else ConcolicValue(r))
                        continue
                    if operator == "<":
                        frame_slots[target_slot] = ONE if a < b else ZERO
                        continue
                    if operator == ">":
                        frame_slots[target_slot] = ONE if a > b else ZERO
                        continue
                    if operator == "==":
                        frame_slots[target_slot] = ONE if a == b else ZERO
                        continue
                    if operator == "!=":
                        frame_slots[target_slot] = ONE if a != b else ZERO
                        continue
                    if operator == "<=":
                        frame_slots[target_slot] = ONE if a <= b else ZERO
                        continue
                    if operator == ">=":
                        frame_slots[target_slot] = ONE if a >= b else ZERO
                        continue
                if type(left) is ConcolicValue and type(right) is ConcolicValue:
                    try:
                        frame_slots[target_slot] = int_op(operator, left, right)
                    except ZeroDivisionError:
                        raise DivisionByZeroError("division by zero", line)
                else:
                    frame_slots[target_slot] = pointer_op(
                        operator, left, right, line)
                continue
            elif opcode == op.DUP:
                push(stack[-1])
                continue
            elif opcode == op.TERN_FALSE:
                value = pop()
                if type(value) is not ConcolicValue:
                    value = as_int(value)
                if guards is not None and value.symbolic is not None:
                    guards.append(("short-circuit",
                                   as_condition(value.symbolic),
                                   0 if value.concrete == 0 else 1))
                if value.concrete == 0:
                    pc = arg
                continue
            elif opcode == op.LOAD_DEREF:
                pointer = pop()
                if not isinstance(pointer, Pointer):
                    raise ProgramCrash("null or invalid pointer dereference",
                                       line, self.current_function_name())
                if not pointer.block.in_bounds(pointer.offset):
                    raise ProgramCrash("pointer read out of bounds", line,
                                       self.current_function_name())
                push(pointer.block.cells[pointer.offset])
                continue
            elif opcode == op.STORE_DEREF:
                pointer = pop()
                value = pop()
                if not isinstance(pointer, Pointer):
                    raise ProgramCrash("null or invalid pointer dereference",
                                       line, self.current_function_name())
                if not pointer.block.in_bounds(pointer.offset):
                    raise ProgramCrash("pointer store out of bounds", line,
                                       self.current_function_name())
                pointer.block.cells[pointer.offset] = value
                continue
            elif opcode == op.ADDR_FAST:
                slot, name = arg
                value = frame_slots[slot]
                if isinstance(value, Pointer):
                    push(value)
                else:
                    # Box the scalar and rebind the variable, as the
                    # interpreter's address-of does.
                    box = ArrayObject(1, label=f"&{name}",
                                      array_id=next(self.array_ids))
                    box.cells[0] = value
                    boxed = Pointer(box, 0)
                    frame_slots[slot] = boxed
                    push(boxed)
                continue
            elif opcode == op.ADDR_GLOBAL:
                value = global_vars.get(arg, _MISSING)
                if value is _MISSING:
                    raise RuntimeMiniCError(f"undefined variable '{arg}'",
                                            line)
                if isinstance(value, Pointer):
                    push(value)
                else:
                    box = ArrayObject(1, label=f"&{arg}",
                                      array_id=next(self.array_ids))
                    box.cells[0] = value
                    boxed = Pointer(box, 0)
                    global_vars[arg] = boxed
                    push(boxed)
                continue
            elif opcode == op.ADDR_INDEX:
                index = pop()
                base = pop()
                block, position = resolve(base, index, line)
                push(Pointer(block, position))
                continue
            elif opcode == op.ADDR_INVALID:
                raise RuntimeMiniCError(
                    "cannot take the address of this expression", line)
            elif opcode == op.CALL_UNDEF:
                raise RuntimeMiniCError(
                    f"call to undefined function '{arg}'", line)
            elif opcode == op.INVALID_TARGET:
                raise RuntimeMiniCError("invalid assignment target", line)
            else:  # pragma: no cover - the compiler emits no other opcodes
                raise RuntimeMiniCError(f"unknown opcode {opcode}", line)
            # The branch tail.  Every arm above ends in ``continue``,
            # ``return`` or ``raise`` except the five branch shapes, which
            # bind ``location``, ``target``, ``slot``, ``taken`` and ``sym``
            # (the condition's symbolic part, or None) and fall through to
            # here, so what a branch does with its outcome is written once.
            index = self.branch_counter
            self.branch_counter = index + 1
            if slot is not None:
                # A logged branch: the bitvector append (record) or the
                # cursor walk (replay) is inlined; only symbolic conditions
                # and deviations reach the hook object.
                slot_counts[slot] += 1
                if rec_append is not None:
                    if sym is not None:
                        self.symbolic_branch_counter += 1
                    rec_append(taken)
                elif sym is None:
                    cursor = cursor_cell[0]
                    if cursor >= replay_len:
                        hooks.vm_log_exhausted(location)  # raises AbortRun
                    cursor_cell[0] = cursor + 1
                    if replay_bits[cursor] != taken:
                        hooks.vm_concrete_mismatch(location, cursor)
                else:
                    self.symbolic_branch_counter += 1
                    # May abort the run, or repair it onto the next input
                    # and follow the recorded direction instead.
                    taken = hooks.vm_logged_symbolic(
                        location, taken, as_condition(sym), index, stack,
                        call_stack)
            elif sym is None:
                if marks is not None:
                    marks[location.index] = True
                elif on_concrete is not None:
                    on_concrete(BranchEvent(location=location, taken=taken,
                                            symbolic=False, condition=None,
                                            index=index))
            else:
                self.symbolic_branch_counter += 1
                if on_symbolic is not None:
                    expr = as_condition(sym)
                    on_symbolic(BranchEvent(
                        location=location, taken=taken, symbolic=True,
                        condition=expr if taken else expr.negated(),
                        index=index))
            if not taken:
                pc = target
        # Only reachable if a code object lacks the CONST;RET terminator the
        # compiler always emits.
        if call_stack:  # pragma: no cover
            raise RuntimeMiniCError("code object missing its terminator", 0)
        return ZERO
