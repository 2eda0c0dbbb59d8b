"""Code objects produced by the bytecode compiler.

A :class:`CodeObject` holds the instruction stream of one MiniC function (or
of the module-level global initializers).  A :class:`CompiledProgram` bundles
every code object of a :class:`~repro.lang.program.Program`; the compiler
caches one per program instance so the replay engine's hundreds of re-runs pay
for compilation exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.vm import opcodes
from repro.vm.opcodes import OPCODE_NAMES

Instruction = Tuple[int, object, int, int]
"""``(opcode, arg, charge, line)`` — see :mod:`repro.vm.opcodes`."""

#: Disassembly column width: the longest opcode name plus one space.
_NAME_WIDTH = max(len(name) for name in OPCODE_NAMES.values()) + 1


def _branch_text(location, target, slot) -> str:
    """A branch operand's tail: its location, target and logged slot."""

    text = f"{location.short()} -> {target}"
    return text if slot is None else f"{text} [slot {slot}]"


@dataclass
class CodeObject:
    """The compiled body of one function.

    ``nlocals``/``slot_names`` describe the register-allocated frame layout
    (see :mod:`repro.lang.resolve`): the frame allocates ``nlocals`` flat
    slots and ``slot_names[i]`` is the source name living in slot ``i``
    (names repeat when distinct shadowing variables each got a slot).  The
    parameters occupy slots ``0..len(params)-1``.
    """

    name: str
    params: List[str] = field(default_factory=list)
    instructions: List[Instruction] = field(default_factory=list)
    source_line: int = 0
    nlocals: int = 0
    slot_names: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    # -- debugging ---------------------------------------------------------------

    def dis(self) -> str:
        """Human-readable disassembly (debugging and documentation aid)."""

        header = f"{self.name}({', '.join(self.params)}):"
        if self.nlocals:
            header += f"  ; nlocals={self.nlocals}"
        lines = [header]
        for pc, (op, arg, charge, line) in enumerate(self.instructions):
            operand = self._format_arg(op, arg)
            note = f"  ; steps+={charge}" if charge else ""
            src = f"  @L{line}" if line else ""
            lines.append(f"  {pc:4d}  {OPCODE_NAMES.get(op, op):<{_NAME_WIDTH}}"
                         f"{operand}{note}{src}")
        return "\n".join(lines)

    def _slot(self, index: object) -> str:
        names = self.slot_names
        if isinstance(index, int) and 0 <= index < len(names):
            return f"{index} ({names[index]})"
        return repr(index)

    def _format_arg(self, op: int, arg: object) -> str:
        if arg is None:
            return ""
        if op == opcodes.BRANCH:
            return _branch_text(*arg)
        if op == opcodes.CALL:
            code, argc = arg
            return f"{code.name}/{argc}"
        if op == opcodes.CALL_BUILTIN:
            fn, argc, _node = arg
            return f"{getattr(fn, '__name__', fn)}/{argc}"
        if op in (opcodes.LOAD_FAST, opcodes.STORE_FAST, opcodes.LOAD_FAST_RET):
            return self._slot(arg)
        if op == opcodes.ADDR_FAST:
            slot, name = arg
            return f"{slot} (&{name})"
        if op == opcodes.BINOP_FC:
            operator, slot, const = arg
            return f"{operator!r} {self._slot(slot)}, {const!r}"
        if op == opcodes.BINOP_FF:
            operator, left, right = arg
            return f"{operator!r} {self._slot(left)}, {self._slot(right)}"
        if op == opcodes.BINOP_FC_STORE:
            operator, slot, const, target = arg
            return (f"{operator!r} {self._slot(slot)}, {const!r}"
                    f" -> {self._slot(target)}")
        if op == opcodes.BINOP_FF_STORE:
            operator, left, right, target = arg
            return (f"{operator!r} {self._slot(left)}, {self._slot(right)}"
                    f" -> {self._slot(target)}")
        if op == opcodes.BINOP_FF_BRANCH:
            operator, left, right, *branch = arg
            return (f"{operator!r} {self._slot(left)}, {self._slot(right)}; "
                    f"{_branch_text(*branch)}")
        if op == opcodes.BINOP_FC_BRANCH:
            operator, slot, const, *branch = arg
            return (f"{operator!r} {self._slot(slot)}, {const!r}; "
                    f"{_branch_text(*branch)}")
        if op == opcodes.BINOP_SC_BRANCH:
            operator, const, *branch = arg
            return f"{operator!r} <stack>, {const!r}; {_branch_text(*branch)}"
        if op == opcodes.BINARY_BRANCH:
            operator, *branch = arg
            return f"{operator!r}; {_branch_text(*branch)}"
        return repr(arg)


@dataclass
class CompiledProgram:
    """Every code object of one program, ready for the VM.

    When compiled for a specific :class:`~repro.instrument.plan.
    InstrumentationPlan` (*plan-specialized* code), ``plan_fingerprint``
    identifies the plan the instruction stream was specialized for and
    ``logged_locations`` maps every logged branch's slot index back to its
    :class:`~repro.lang.cfg.BranchLocation` (the VM keeps one inline counter
    per slot and merges them into the logger's per-location statistics at the
    end of the run).  Unspecialized code has ``plan_fingerprint is None`` and
    an empty slot table.
    """

    name: str
    functions: Dict[str, CodeObject] = field(default_factory=dict)
    globals_code: Optional[CodeObject] = None
    plan_fingerprint: Optional[Tuple] = None
    logged_locations: List[object] = field(default_factory=list)
    #: RESOLVER_VERSION the slot layout was produced by.
    resolver_version: int = 0

    @property
    def main(self) -> CodeObject:
        return self.functions["main"]

    def instruction_count(self) -> int:
        total = len(self.globals_code.instructions) if self.globals_code else 0
        return total + sum(len(code.instructions) for code in self.functions.values())

    def dis(self) -> str:
        parts = []
        if self.globals_code is not None and self.globals_code.instructions:
            parts.append(self.globals_code.dis())
        parts.extend(code.dis() for code in self.functions.values())
        return "\n\n".join(parts)
