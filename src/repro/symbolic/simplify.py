"""Evaluation, simplification and variable extraction for symbolic expressions.

Every derived form is computed once per node and kept on it (see
:mod:`repro.symbolic.expr`), so a constraint that is solved, warm-started and
re-checked many times is walked once:

* :func:`simplify` caches its result on the node it was asked about.  A
  result carries the ``_simple`` flag (a flag, not a reference to itself, so
  refcounting still frees it), and simplifying it again returns it at once.
  The cache relies on ``simplify`` being idempotent.
* :func:`variables` and :func:`variable_names` cache their set on the node
  they were asked about; identical sets share one frozenset object.
* :func:`try_evaluate` runs a closure compiled once per node
  (:func:`compiled`) that behaves exactly like :func:`evaluate`.

Nothing is cached eagerly, and children get no cache of their own from a
question asked of their parent: long-lived nodes (canonical constraints in
the intern table) hold only what was asked of them.  :func:`evaluate` stays a
plain tree walk for callers that evaluate an expression once.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set

from repro.symbolic.expr import (
    COMPARE_OPS,
    SymBinOp,
    SymConst,
    SymExpr,
    SymUnOp,
    SymVar,
    as_condition,
    sym_const,
)


def _c_div(a: int, b: int) -> int:
    """C-style integer division: truncation towards zero."""

    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return quotient


def _c_mod(a: int, b: int) -> int:
    """C-style remainder: sign follows the dividend."""

    return a - _c_div(a, b) * b


def _apply_binary(op: str, a: int, b: int) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise ZeroDivisionError("symbolic evaluation divided by zero")
        return _c_div(a, b)
    if op == "%":
        if b == 0:
            raise ZeroDivisionError("symbolic evaluation modulo by zero")
        return _c_mod(a, b)
    if op == "<<":
        return a << (b & 63)
    if op == ">>":
        return a >> (b & 63)
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    if op == "==":
        return int(a == b)
    if op == "!=":
        return int(a != b)
    if op == "<":
        return int(a < b)
    if op == "<=":
        return int(a <= b)
    if op == ">":
        return int(a > b)
    if op == ">=":
        return int(a >= b)
    if op == "&&":
        return int(bool(a) and bool(b))
    if op == "||":
        return int(bool(a) or bool(b))
    raise ValueError(f"unknown binary operator {op!r}")


def _apply_unary(op: str, a: int) -> int:
    if op == "-":
        return -a
    if op == "!":
        return int(not a)
    if op == "~":
        return ~a
    raise ValueError(f"unknown unary operator {op!r}")


def evaluate(expr: SymExpr, assignment: Mapping[str, int]) -> int:
    """Evaluate *expr* under a full assignment of its variables.

    Raises :class:`KeyError` if a variable is missing from the assignment.
    """

    if isinstance(expr, SymConst):
        return expr.value
    if isinstance(expr, SymVar):
        return assignment[expr.name]
    if isinstance(expr, SymUnOp):
        return _apply_unary(expr.op, evaluate(expr.operand, assignment))
    if isinstance(expr, SymBinOp):
        # Short-circuit semantics mirror the interpreter's.
        if expr.op == "&&":
            left = evaluate(expr.left, assignment)
            if not left:
                return 0
            return int(bool(evaluate(expr.right, assignment)))
        if expr.op == "||":
            left = evaluate(expr.left, assignment)
            if left:
                return 1
            return int(bool(evaluate(expr.right, assignment)))
        return _apply_binary(expr.op, evaluate(expr.left, assignment),
                             evaluate(expr.right, assignment))
    raise TypeError(f"not a symbolic expression: {expr!r}")


def try_evaluate(expr: SymExpr, assignment: Mapping[str, int]) -> Optional[int]:
    """Like :func:`evaluate` but returns ``None`` when a variable is unassigned
    or the evaluation hits a division by zero."""

    fn = expr._fn or compiled(expr)
    try:
        return fn(assignment)
    except (KeyError, ZeroDivisionError):
        return None


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------

Evaluator = Callable[[Mapping[str, int]], int]


def _shift_left(a: int, b: int) -> int:
    return a << (b & 63)


def _shift_right(a: int, b: int) -> int:
    return a >> (b & 63)


_ARITH: Dict[str, Callable[[int, int], int]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    # _c_div raises ZeroDivisionError on a zero divisor, as evaluate does.
    "/": _c_div, "%": _c_mod, "<<": _shift_left, ">>": _shift_right,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
}
_COMPARE: Dict[str, Callable[[int, int], bool]] = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
#: ``var <op> const`` leaves, the bulk of every path constraint.
_VAR_CONST: Dict[str, Callable[[str, int], Evaluator]] = {
    "==": lambda n, c: lambda a: 1 if a[n] == c else 0,
    "!=": lambda n, c: lambda a: 1 if a[n] != c else 0,
    "<": lambda n, c: lambda a: 1 if a[n] < c else 0,
    "<=": lambda n, c: lambda a: 1 if a[n] <= c else 0,
    ">": lambda n, c: lambda a: 1 if a[n] > c else 0,
    ">=": lambda n, c: lambda a: 1 if a[n] >= c else 0,
    "+": lambda n, c: lambda a: a[n] + c,
    "-": lambda n, c: lambda a: a[n] - c,
    "*": lambda n, c: lambda a: a[n] * c,
    "&": lambda n, c: lambda a: a[n] & c,
}


def compiled(expr: SymExpr) -> Evaluator:
    """*expr* as a closure over an assignment, cached on the node.

    ``compiled(e)(a)`` returns what ``evaluate(e, a)`` returns and raises
    what it raises: C-truncating ``/`` and ``%``, ``ZeroDivisionError`` on a
    zero divisor, ``KeyError`` on a missing variable, short-circuiting
    ``&&``/``||`` and comparisons yielding 0 or 1, shift counts masked with
    ``& 63``.
    """

    fn = expr._fn
    if fn is None:
        fn = _compile(expr)
        expr.__dict__["_fn"] = fn
    return fn


def _leaf_closure(node: SymExpr) -> Optional[Evaluator]:
    """The closure of a node that needs none from its children, or None."""

    if not isinstance(node, (SymUnOp, SymBinOp, SymConst, SymVar)):
        return lambda a: evaluate(node, a)  # raises evaluate's TypeError
    if node._fn is not None:
        return node._fn
    if isinstance(node, SymConst):
        value = node.value
        return lambda a: value
    if isinstance(node, SymVar):
        return operator.itemgetter(node.name)
    if (isinstance(node, SymBinOp) and isinstance(node.left, SymVar)
            and isinstance(node.right, SymConst) and node.op in _VAR_CONST):
        return _VAR_CONST[node.op](node.left.name, node.right.value)
    return None


def _compile(root: SymExpr) -> Evaluator:
    """Build *root*'s closure bottom-up with an explicit stack.

    A tree of any depth compiles; calling the closure nests one Python call
    per level, as :func:`evaluate` does.
    """

    built: Dict[int, Evaluator] = {}
    stack = [(root, False)]
    while stack:
        node, children_built = stack.pop()
        if id(node) in built:
            continue
        if not children_built:
            leaf = _leaf_closure(node)
            if leaf is not None:
                built[id(node)] = leaf
                continue
            stack.append((node, True))
            if isinstance(node, SymUnOp):
                stack.append((node.operand, False))
            else:
                stack.append((node.right, False))
                stack.append((node.left, False))
            continue
        if isinstance(node, SymUnOp):
            built[id(node)] = _unary_closure(node.op, built[id(node.operand)])
        else:
            built[id(node)] = _binary_closure(node.op, built[id(node.left)],
                                              built[id(node.right)])
    return built[id(root)]


def _unary_closure(op: str, inner: Evaluator) -> Evaluator:
    if op == "-":
        return lambda a: -inner(a)
    if op == "!":
        return lambda a: 0 if inner(a) else 1
    if op == "~":
        return lambda a: ~inner(a)
    return lambda a: _apply_unary(op, inner(a))


def _binary_closure(op: str, left: Evaluator, right: Evaluator) -> Evaluator:
    if op == "&&":
        return lambda a: (1 if right(a) else 0) if left(a) else 0
    if op == "||":
        return lambda a: 1 if left(a) else (1 if right(a) else 0)
    test = _COMPARE.get(op)
    if test is not None:
        return lambda a: 1 if test(left(a), right(a)) else 0
    apply = _ARITH.get(op)
    if apply is not None:
        return lambda a: apply(left(a), right(a))
    return lambda a: _apply_binary(op, left(a), right(a))


# ---------------------------------------------------------------------------
# Variables
# ---------------------------------------------------------------------------

#: Interned variable sets.  ``variables`` sets are keyed by their iteration
#: order, so a shared set iterates exactly like the one it replaces (the
#: solver's variable order follows it); name sets are only ever probed.
#: Clearing a table costs future sharing, never correctness.
_SHARED_VARS: Dict[tuple, FrozenSet[SymVar]] = {}
_SHARED_NAMES: Dict[FrozenSet[str], FrozenSet[str]] = {}
_SHARED_LIMIT = 65536


def _share(table: dict, key, value):
    shared = table.get(key)
    if shared is None:
        if len(table) >= _SHARED_LIMIT:
            table.clear()
        table[key] = shared = value
    return shared


def variables(expr: SymExpr) -> FrozenSet[SymVar]:
    """Return the set of :class:`SymVar` nodes appearing in *expr*."""

    found = expr._vars
    if found is None:
        collected: Set[SymVar] = set()
        # Pre-order, left first: the set is built in the order a recursive
        # walk adds to it, which fixes its iteration order.
        stack: List[SymExpr] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, SymVar):
                collected.add(node)
            elif isinstance(node, SymUnOp):
                stack.append(node.operand)
            elif isinstance(node, SymBinOp):
                stack.append(node.right)
                stack.append(node.left)
        found = frozenset(collected)
        found = _share(_SHARED_VARS, tuple(found), found)
        expr.__dict__["_vars"] = found
    return found


def variable_names(expr: SymExpr) -> FrozenSet[str]:
    """Names of variables appearing in *expr*."""

    names = expr._names
    if names is None:
        names = frozenset(v.name for v in variables(expr))
        names = _share(_SHARED_NAMES, names, names)
        expr.__dict__["_names"] = names
    return names


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def simplify(expr: SymExpr) -> SymExpr:
    """Structurally simplify *expr*: constant folding plus a few identities.

    The simplifier is conservative — it never changes the value of the
    expression under any assignment — and it is idempotent, which is what
    lets the result be cached on *expr* and flagged as already simple.
    """

    if expr._simple:
        return expr
    result = expr._simplified
    if result is None:
        result = _simplify(expr)
        if result is expr:
            expr.__dict__["_simple"] = True
        else:
            if not result._simple:
                result.__dict__["_simple"] = True
            expr.__dict__["_simplified"] = result
    return result


def _simplify(expr: SymExpr) -> SymExpr:
    """One simplification step over already-simplified children."""

    if isinstance(expr, SymUnOp):
        operand = simplify(expr.operand)
        if isinstance(operand, SymConst):
            return sym_const(_apply_unary(expr.op, operand.value))
        if expr.op == "!" and isinstance(operand, SymUnOp) and operand.op == "!":
            inner = operand.operand
            if inner.is_boolean():
                return inner
        if expr.op == "-" and isinstance(operand, SymUnOp) and operand.op == "-":
            return operand.operand
        if operand is expr.operand:
            return expr
        return SymUnOp(expr.op, operand)
    if isinstance(expr, SymBinOp):
        left = simplify(expr.left)
        right = simplify(expr.right)
        if isinstance(left, SymConst) and isinstance(right, SymConst):
            try:
                return sym_const(_apply_binary(expr.op, left.value, right.value))
            except ZeroDivisionError:
                return _rebuilt(expr, left, right)
        # Arithmetic identities.
        if expr.op == "+":
            if isinstance(left, SymConst) and left.value == 0:
                return right
            if isinstance(right, SymConst) and right.value == 0:
                return left
        if expr.op == "-" and isinstance(right, SymConst) and right.value == 0:
            return left
        if expr.op == "*":
            for a, b in ((left, right), (right, left)):
                if isinstance(a, SymConst):
                    if a.value == 0:
                        return sym_const(0)
                    if a.value == 1:
                        return b
        # Boolean identities.  The result of && / || is always 0 or 1, so the
        # surviving operand must be coerced to a boolean condition.
        if expr.op == "&&":
            if isinstance(left, SymConst):
                return simplify(as_condition(right)) if left.value else sym_const(0)
            if isinstance(right, SymConst):
                return simplify(as_condition(left)) if right.value else sym_const(0)
        if expr.op == "||":
            if isinstance(left, SymConst):
                return sym_const(1) if left.value else simplify(as_condition(right))
            if isinstance(right, SymConst):
                return sym_const(1) if right.value else simplify(as_condition(left))
        # x == x, x != x and friends over identical subtrees.
        if expr.op in COMPARE_OPS and left == right:
            return sym_const(_apply_binary(expr.op, 0, 0))
        return _rebuilt(expr, left, right)
    raise TypeError(f"not a symbolic expression: {expr!r}")


def _rebuilt(expr: SymBinOp, left: SymExpr, right: SymExpr) -> SymBinOp:
    """*expr* over simplified children, reusing it when they are its own."""

    if left is expr.left and right is expr.right:
        return expr
    return SymBinOp(expr.op, left, right)


def substitute(expr: SymExpr, assignment: Mapping[str, int]) -> SymExpr:
    """Replace any assigned variables with constants and simplify the result."""

    if isinstance(expr, SymConst):
        return expr
    if isinstance(expr, SymVar):
        if expr.name in assignment:
            return sym_const(assignment[expr.name])
        return expr
    if isinstance(expr, SymUnOp):
        return simplify(SymUnOp(expr.op, substitute(expr.operand, assignment)))
    if isinstance(expr, SymBinOp):
        return simplify(SymBinOp(expr.op,
                                 substitute(expr.left, assignment),
                                 substitute(expr.right, assignment)))
    raise TypeError(f"not a symbolic expression: {expr!r}")
