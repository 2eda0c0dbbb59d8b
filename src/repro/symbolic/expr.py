"""Symbolic expression trees.

Expressions are immutable and hashable, which lets constraint sets be stored in
Python sets and compared structurally.  Arithmetic follows MiniC's integer
semantics (Python ints, C-style truncating division towards zero).

Because a node never changes, what :mod:`repro.symbolic.simplify` derives from
it (its simplified form, its variables, its compiled evaluator) is computed
on first use and kept in the node's ``__dict__`` under an underscore name.
Those caches are not part of the node's identity: equality, hashing, ``repr``
and pickling see only the dataclass fields.
"""

from __future__ import annotations

from dataclasses import dataclass

ARITH_OPS = frozenset({"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^"})
COMPARE_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})
BOOL_OPS = frozenset({"&&", "||"})
UNARY_OPS = frozenset({"-", "!", "~"})

_NEGATED_COMPARE = {
    "==": "!=",
    "!=": "==",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}


@dataclass(frozen=True)
class SymExpr:
    """Base class for all symbolic expressions."""

    #: True when ``simplify`` returns the node itself.  Leaves are simple by
    #: class; an operator node is marked in its ``__dict__`` once simplified.
    _simple = False
    # Derived caches, None until first asked for (see the module docstring).
    _simplified = None
    _vars = None
    _names = None
    _fn = None

    def __getstate__(self) -> dict:
        # Fields only: derived caches are rebuilt on demand after unpickling.
        return {name: value for name, value in self.__dict__.items()
                if name[0] != "_"}

    def is_boolean(self) -> bool:
        """True when the expression denotes a truth value (0/1)."""

        return False

    def negated(self) -> "SymExpr":
        """Return the logical negation of this expression."""

        return SymUnOp("!", self)


@dataclass(frozen=True)
class SymConst(SymExpr):
    """A constant integer."""

    _simple = True

    value: int

    def __str__(self) -> str:
        return str(self.value)

    def is_boolean(self) -> bool:
        return self.value in (0, 1)


@dataclass(frozen=True)
class SymVar(SymExpr):
    """A symbolic input variable with an inclusive integer domain.

    By default variables are bytes (0..255), matching argv characters and the
    bytes returned by the simulated ``read``/``recv`` syscalls.  Syscall return
    values use wider (or signed) domains, e.g. ``read`` returns -1..N.
    """

    _simple = True

    name: str
    lo: int = 0
    hi: int = 255

    def __str__(self) -> str:
        return self.name

    @property
    def domain_size(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class SymUnOp(SymExpr):
    """A unary operation: negation, logical not, bitwise not."""

    op: str
    operand: SymExpr

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"

    def is_boolean(self) -> bool:
        return self.op == "!"

    def negated(self) -> SymExpr:
        if self.op == "!":
            return self.operand
        return SymUnOp("!", self)


@dataclass(frozen=True)
class SymBinOp(SymExpr):
    """A binary operation over two symbolic expressions."""

    op: str
    left: SymExpr
    right: SymExpr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"

    def is_boolean(self) -> bool:
        return self.op in COMPARE_OPS or self.op in BOOL_OPS

    def negated(self) -> SymExpr:
        if self.op in _NEGATED_COMPARE:
            return SymBinOp(_NEGATED_COMPARE[self.op], self.left, self.right)
        if self.op == "&&":
            return SymBinOp("||", self.left.negated(), self.right.negated())
        if self.op == "||":
            return SymBinOp("&&", self.left.negated(), self.right.negated())
        return SymUnOp("!", self)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def sym_const(value: int) -> SymConst:
    """Build a constant expression."""

    return SymConst(int(value))


def sym_var(name: str, lo: int = 0, hi: int = 255) -> SymVar:
    """Build a symbolic variable with the inclusive domain ``[lo, hi]``."""

    if lo > hi:
        raise ValueError(f"empty domain for {name}: [{lo}, {hi}]")
    return SymVar(name, lo, hi)


def sym_bin(op: str, left: SymExpr, right: SymExpr) -> SymBinOp:
    """Build a binary operation, validating the operator."""

    if op not in ARITH_OPS and op not in COMPARE_OPS and op not in BOOL_OPS:
        raise ValueError(f"unsupported binary operator {op!r}")
    return SymBinOp(op, left, right)


def sym_not(expr: SymExpr) -> SymExpr:
    """Logical negation (uses the structural negation when available)."""

    return expr.negated()


def sym_and(*exprs: SymExpr) -> SymExpr:
    """Conjunction of one or more boolean expressions."""

    if not exprs:
        return sym_const(1)
    result = exprs[0]
    for expr in exprs[1:]:
        result = SymBinOp("&&", result, expr)
    return result


def as_condition(expr: SymExpr) -> SymExpr:
    """Coerce an arbitrary integer expression into a boolean condition.

    MiniC (like C) treats any non-zero value as true, so ``if (x)`` becomes the
    condition ``x != 0``.
    """

    if expr.is_boolean():
        return expr
    return SymBinOp("!=", expr, sym_const(0))
