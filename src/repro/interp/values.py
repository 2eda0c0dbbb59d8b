"""Runtime values for the MiniC interpreter.

The value model is deliberately small:

* :class:`ConcolicValue` — an integer with an optional symbolic expression
  attached.  All MiniC scalars (int, char) are ConcolicValues.
* :class:`ArrayObject` — a fixed-size block of cells.  Strings are arrays of
  character codes terminated by a 0 cell, exactly like C.
* :class:`Pointer` — a reference to a cell inside an :class:`ArrayObject`
  (block + offset).  The null pointer is represented by the integer 0, so
  ``p == 0`` behaves as in C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.lang.errors import RuntimeMiniCError
from repro.symbolic.expr import SymBinOp, SymConst, SymExpr, SymUnOp
from repro.symbolic.simplify import simplify


@dataclass(frozen=True)
class ConcolicValue:
    """An integer value, optionally shadowed by a symbolic expression."""

    concrete: int
    symbolic: Optional[SymExpr] = None

    @property
    def is_symbolic(self) -> bool:
        return self.symbolic is not None

    def expr(self) -> SymExpr:
        """The symbolic expression for this value (a constant if concrete)."""

        return self.symbolic if self.symbolic is not None else SymConst(self.concrete)

    def truthy(self) -> bool:
        return self.concrete != 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        if self.symbolic is not None:
            return f"ConcolicValue({self.concrete}, {self.symbolic})"
        return f"ConcolicValue({self.concrete})"


ZERO = ConcolicValue(0)
ONE = ConcolicValue(1)


def concrete(value: int) -> ConcolicValue:
    """Build a purely concrete value."""

    return ConcolicValue(int(value))


class ArrayObject:
    """A block of mutable cells, each holding a runtime value.

    ``array_id`` numbers the block within its run: each run (an
    ``Interpreter`` or ``VirtualMachine``) counts its allocations from 1,
    in the order both backends share, so a pointer's integer value (see
    :func:`as_int`) depends on the program, its input and its plan only.
    """

    __slots__ = ("array_id", "cells", "label")

    def __init__(self, size: int, label: str = "", *, array_id: int) -> None:
        self.array_id = array_id
        self.cells: List[Value] = [ZERO] * size
        self.label = label

    def __len__(self) -> int:
        return len(self.cells)

    def get(self, index: int) -> "Value":
        return self.cells[index]

    def set(self, index: int, value: "Value") -> None:
        self.cells[index] = value

    def in_bounds(self, index: int) -> bool:
        return 0 <= index < len(self.cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ArrayObject(#{self.array_id}, size={len(self.cells)}, {self.label!r})"


@dataclass(frozen=True)
class Pointer:
    """A pointer to a cell inside an :class:`ArrayObject`."""

    block: ArrayObject
    offset: int = 0

    def moved(self, delta: int) -> "Pointer":
        return Pointer(self.block, self.offset + delta)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Pointer(#{self.block.array_id}+{self.offset})"


Value = Union[ConcolicValue, Pointer]


def as_int(value: Value) -> ConcolicValue:
    """Coerce a value to an integer ConcolicValue.

    Pointers coerce to a non-zero address-like integer; this is only used for
    truthiness and (in)equality against 0, never for arithmetic on addresses.
    """

    if isinstance(value, ConcolicValue):
        return value
    return ConcolicValue(value.block.array_id * 1_000_003 + value.offset + 1)


def string_to_array(text: Union[str, bytes], label: str = "", *,
                    array_id: int) -> ArrayObject:
    """Build a NUL-terminated character array from Python text or bytes."""

    if isinstance(text, str):
        data = text.encode("utf-8")
    else:
        data = bytes(text)
    array = ArrayObject(len(data) + 1, label=label or "string",
                        array_id=array_id)
    for index, byte in enumerate(data):
        array.cells[index] = ConcolicValue(byte)
    array.cells[len(data)] = ZERO
    return array


def array_to_string(pointer: Pointer, max_length: int = 1 << 16) -> str:
    """Read a NUL-terminated string starting at *pointer* (concrete bytes only)."""

    out: List[str] = []
    block, offset = pointer.block, pointer.offset
    for index in range(offset, min(len(block), offset + max_length)):
        cell = block.get(index)
        code = as_int(cell).concrete
        if code == 0:
            break
        out.append(chr(code & 0xFF))
    return "".join(out)


def array_to_bytes(pointer: Pointer, length: int) -> bytes:
    """Read *length* raw bytes starting at *pointer* (concrete parts only)."""

    block, offset = pointer.block, pointer.offset
    data = bytearray()
    for index in range(offset, min(len(block), offset + length)):
        data.append(as_int(block.get(index)).concrete & 0xFF)
    return bytes(data)


# ---------------------------------------------------------------------------
# Concolic arithmetic
# ---------------------------------------------------------------------------


def _combine(op: str, left: ConcolicValue, right: ConcolicValue,
             concrete_result: int) -> ConcolicValue:
    """Build the result value, propagating symbolic expressions when present."""

    if left.symbolic is None and right.symbolic is None:
        return ConcolicValue(concrete_result)
    expr = simplify(SymBinOp(op, left.expr(), right.expr()))
    return ConcolicValue(concrete_result, expr)


def _c_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _c_mod(a: int, b: int) -> int:
    return a - _c_div(a, b) * b


def binary_int_op(op: str, left: ConcolicValue, right: ConcolicValue) -> ConcolicValue:
    """Apply a binary operator to two integer values with concolic tracking.

    Division and modulo by zero raise ``ZeroDivisionError``; the interpreter
    converts that into a guest :class:`~repro.lang.errors.DivisionByZeroError`.
    """

    a, b = left.concrete, right.concrete
    if op == "+":
        result = a + b
    elif op == "-":
        result = a - b
    elif op == "*":
        result = a * b
    elif op == "/":
        if b == 0:
            raise ZeroDivisionError("division by zero")
        result = _c_div(a, b)
    elif op == "%":
        if b == 0:
            raise ZeroDivisionError("modulo by zero")
        result = _c_mod(a, b)
    elif op == "<<":
        result = a << (b & 63)
    elif op == ">>":
        result = a >> (b & 63)
    elif op == "&":
        result = a & b
    elif op == "|":
        result = a | b
    elif op == "^":
        result = a ^ b
    elif op == "==":
        result = int(a == b)
    elif op == "!=":
        result = int(a != b)
    elif op == "<":
        result = int(a < b)
    elif op == "<=":
        result = int(a <= b)
    elif op == ">":
        result = int(a > b)
    elif op == ">=":
        result = int(a >= b)
    elif op == "&&":
        result = int(bool(a) and bool(b))
    elif op == "||":
        result = int(bool(a) or bool(b))
    else:
        raise ValueError(f"unsupported binary operator {op!r}")
    return _combine(op, left, right, result)


def unary_int_op(op: str, operand: ConcolicValue) -> ConcolicValue:
    """Apply a unary operator with concolic tracking."""

    if op == "-":
        result = -operand.concrete
    elif op == "!":
        result = int(not operand.concrete)
    elif op == "~":
        result = ~operand.concrete
    elif op == "+":
        return operand
    else:
        raise ValueError(f"unsupported unary operator {op!r}")
    if operand.symbolic is None:
        return ConcolicValue(result)
    if op == "+":
        return operand
    expr = simplify(SymUnOp(op, operand.expr()))
    return ConcolicValue(result, expr)


def compare_values(op: str, left: Value, right: Value) -> ConcolicValue:
    """Equality/relational comparison that also understands pointers."""

    if isinstance(left, Pointer) or isinstance(right, Pointer):
        return binary_int_op(op, as_int(left), as_int(right))
    return binary_int_op(op, left, right)


def pointer_binary_op(op: str, left: Value, right: Value, line: int = 0) -> Value:
    """Binary operation with at least one pointer operand.

    Shared by both execution backends so pointer semantics cannot drift:
    same-block comparisons compare offsets, mixed comparisons fall back to
    address-like integers, ``+``/``-`` move pointers, and pointer difference
    works within one block.
    """

    if op in ("==", "!=", "<", "<=", ">", ">="):
        if isinstance(left, Pointer) and isinstance(right, Pointer) \
                and left.block is right.block:
            return binary_int_op(op, concrete(left.offset), concrete(right.offset))
        return compare_values(op, left, right)
    if op == "+":
        if isinstance(left, Pointer) and isinstance(right, ConcolicValue):
            return left.moved(right.concrete)
        if isinstance(right, Pointer) and isinstance(left, ConcolicValue):
            return right.moved(left.concrete)
    if op == "-":
        if isinstance(left, Pointer) and isinstance(right, ConcolicValue):
            return left.moved(-right.concrete)
        if isinstance(left, Pointer) and isinstance(right, Pointer) \
                and left.block is right.block:
            return concrete(left.offset - right.offset)
    raise RuntimeMiniCError(f"unsupported pointer operation {op!r}", line)
