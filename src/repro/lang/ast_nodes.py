"""AST node classes for MiniC.

Every node carries a unique integer ``node_id`` (assigned at construction, in
parse order) and a source ``line``/``column``.  The ``node_id`` of an
``IfStmt``, ``WhileStmt`` or ``ForStmt`` is what the rest of the system uses as
the identity of the corresponding *branch location* (see
:class:`repro.lang.cfg.BranchLocation`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

_NODE_COUNTER = itertools.count(1)


def _next_node_id() -> int:
    return next(_NODE_COUNTER)


def reset_node_ids() -> None:
    """Restart the global node-id counter at 1.

    Called by :func:`repro.lang.parser.parse_program` (under its parse lock)
    before every parse, so node ids — and the branch-location identities and
    plan fingerprints derived from them — are a pure function of the source
    text.  The trace format's matched-binaries check depends on this.
    """

    global _NODE_COUNTER
    _NODE_COUNTER = itertools.count(1)


@dataclass
class Node:
    """Base class for all AST nodes."""

    line: int = 0
    column: int = 0
    node_id: int = field(default_factory=_next_node_id)

    def children(self) -> Sequence["Node"]:
        """Return the direct child nodes, in source order."""

        return ()

    def walk(self) -> Iterator["Node"]:
        """Yield this node and every descendant in pre-order."""

        yield self
        for child in self.children():
            yield from child.walk()


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass
class TypeName(Node):
    """A (loosely checked) type: a base name plus a pointer depth.

    ``int``  -> TypeName("int", 0)
    ``char*``-> TypeName("char", 1)
    ``char**``-> TypeName("char", 2)
    """

    base: str = "int"
    pointer_depth: int = 0

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return self.base + "*" * self.pointer_depth


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expression nodes."""


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class CharLiteral(Expr):
    value: int = 0  # stored as the character code


@dataclass
class StringLiteral(Expr):
    value: str = ""


@dataclass
class Identifier(Expr):
    name: str = ""


@dataclass
class ArrayIndex(Expr):
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]

    def children(self) -> Sequence[Node]:
        return (self.base, self.index)


@dataclass
class UnaryOp(Expr):
    """Unary operators: ``-`` ``!`` ``*`` (deref) ``&`` (address-of) ``+``."""

    op: str = "-"
    operand: Expr = None  # type: ignore[assignment]

    def children(self) -> Sequence[Node]:
        return (self.operand,)


@dataclass
class BinaryOp(Expr):
    """Binary operators, including short-circuit ``&&`` and ``||``."""

    op: str = "+"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]

    def children(self) -> Sequence[Node]:
        return (self.left, self.right)


@dataclass
class TernaryOp(Expr):
    """The C conditional expression ``cond ? then : otherwise``."""

    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    otherwise: Expr = None  # type: ignore[assignment]

    def children(self) -> Sequence[Node]:
        return (self.cond, self.then, self.otherwise)


@dataclass
class Call(Expr):
    name: str = ""
    args: List[Expr] = field(default_factory=list)

    def children(self) -> Sequence[Node]:
        return tuple(self.args)


@dataclass
class AssignExpr(Expr):
    """Assignment used in expression position (``x = e`` inside a condition)."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]

    def children(self) -> Sequence[Node]:
        return (self.target, self.value)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statement nodes."""


@dataclass
class Declarator(Node):
    """One declared name within a :class:`VarDecl`."""

    name: str = ""
    array_size: Optional[Expr] = None
    init: Optional[Expr] = None
    is_array: bool = False

    def children(self) -> Sequence[Node]:
        out: List[Node] = []
        if self.array_size is not None:
            out.append(self.array_size)
        if self.init is not None:
            out.append(self.init)
        return tuple(out)


@dataclass
class VarDecl(Stmt):
    type_name: TypeName = field(default_factory=TypeName)
    declarators: List[Declarator] = field(default_factory=list)

    def children(self) -> Sequence[Node]:
        return tuple(self.declarators)


@dataclass
class Assign(Stmt):
    """Statement-level assignment: ``target op value;`` with op in {=, +=, -=}."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]
    op: str = "="

    def children(self) -> Sequence[Node]:
        return (self.target, self.value)


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]

    def children(self) -> Sequence[Node]:
        return (self.expr,)


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)

    def children(self) -> Sequence[Node]:
        return tuple(self.statements)


@dataclass
class IfStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    otherwise: Optional[Stmt] = None

    def children(self) -> Sequence[Node]:
        out: List[Node] = [self.cond, self.then]
        if self.otherwise is not None:
            out.append(self.otherwise)
        return tuple(out)


@dataclass
class WhileStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]

    def children(self) -> Sequence[Node]:
        return (self.cond, self.body)


@dataclass
class ForStmt(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    update: Optional[Stmt] = None
    body: Stmt = None  # type: ignore[assignment]

    def children(self) -> Sequence[Node]:
        out: List[Node] = []
        if self.init is not None:
            out.append(self.init)
        if self.cond is not None:
            out.append(self.cond)
        if self.update is not None:
            out.append(self.update)
        out.append(self.body)
        return tuple(out)


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None

    def children(self) -> Sequence[Node]:
        return (self.value,) if self.value is not None else ()


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Param(Node):
    type_name: TypeName = field(default_factory=TypeName)
    name: str = ""


@dataclass
class FunctionDef(Node):
    return_type: TypeName = field(default_factory=TypeName)
    name: str = ""
    params: List[Param] = field(default_factory=list)
    body: Block = None  # type: ignore[assignment]

    def children(self) -> Sequence[Node]:
        return tuple(self.params) + (self.body,)


@dataclass
class GlobalDecl(Node):
    decl: VarDecl = None  # type: ignore[assignment]

    def children(self) -> Sequence[Node]:
        return (self.decl,)


@dataclass
class TranslationUnit(Node):
    """The root of a parsed MiniC source file."""

    functions: List[FunctionDef] = field(default_factory=list)
    globals: List[GlobalDecl] = field(default_factory=list)
    items: List[Node] = field(default_factory=list)  # in source order

    def children(self) -> Sequence[Node]:
        return tuple(self.items)


BRANCH_STATEMENTS = (IfStmt, WhileStmt, ForStmt)
"""Statement classes whose condition constitutes a *branch location*."""


def iter_branch_statements(root: Node) -> Iterator[Stmt]:
    """Yield every branch statement (if/while/for with a condition) under *root*."""

    for node in root.walk():
        if isinstance(node, BRANCH_STATEMENTS):
            if isinstance(node, ForStmt) and node.cond is None:
                continue
            yield node
