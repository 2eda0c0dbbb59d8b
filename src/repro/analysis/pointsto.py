"""Flow-insensitive, field-insensitive points-to analysis (Andersen style).

The analysis computes, for every pointer-valued variable in the program, the
set of *abstract objects* it may point to.  Abstract objects are:

* declared arrays (one object per declaration),
* ``malloc`` call sites (one object per site),
* string literals (one object per literal),
* the memory reachable from ``main``'s ``argv`` (a single summary object),
* a catch-all ``external`` object for pointers produced by builtins the
  analysis does not model precisely.

Whole arrays are modelled as single objects (no per-element precision), which
is exactly the kind of over-approximation the paper blames for static analysis
labelling some concrete branches symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lang.ast_nodes import (
    ArrayIndex,
    Assign,
    AssignExpr,
    BinaryOp,
    Call,
    Expr,
    FunctionDef,
    Identifier,
    ReturnStmt,
    StringLiteral,
    TernaryOp,
    UnaryOp,
    VarDecl,
)
from repro.lang.program import Program

ARGV_OBJECT = "obj:argv"
EXTERNAL_OBJECT = "obj:external"

#: Builtins that return a pointer into one of their pointer arguments.
_RETURNS_ARGUMENT_POINTER = {"strchr": 0, "strcpy": 0, "strcat": 0, "memcpy": 0,
                             "memset": 0}
#: Builtins that return a fresh heap object.
_RETURNS_FRESH_OBJECT = {"malloc"}


def qualify(function: Optional[str], name: str) -> str:
    """Qualified variable name: ``function::name`` or ``::name`` for globals."""

    return f"{function}::{name}" if function else f"::{name}"


@dataclass
class PointsToResult:
    """The computed may-point-to sets."""

    points_to: Dict[str, Set[str]] = field(default_factory=dict)
    objects: Set[str] = field(default_factory=set)

    def pointees(self, qualified_name: str) -> Set[str]:
        return self.points_to.get(qualified_name, set())

    def may_alias(self, a: str, b: str) -> bool:
        return bool(self.pointees(a) & self.pointees(b))


class PointsToAnalysis:
    """Computes :class:`PointsToResult` for a program."""

    def __init__(self, program: Program,
                 skip_functions: Optional[Set[str]] = None) -> None:
        self.program = program
        self.skip_functions = set(skip_functions or ())
        # Inclusion edges: dst ⊇ src  (both are variable keys).
        self._copy_edges: List[Tuple[str, str]] = []
        # Base facts: variable key -> set of objects.
        self._base: Dict[str, Set[str]] = {}
        # Return variables, one synthetic key per function.
        self._globals: Set[str] = set(program.global_names())

    # -- public API -------------------------------------------------------------------

    def run(self) -> PointsToResult:
        self._collect_constraints()
        points_to = self._solve()
        objects = set()
        for pointees in points_to.values():
            objects.update(pointees)
        return PointsToResult(points_to=points_to, objects=objects)

    # -- constraint generation ----------------------------------------------------------

    def _var_key(self, function: Optional[str], name: str) -> str:
        if function is not None and name in self._globals:
            # A name shadowed by a local declaration stays local; approximating
            # by preferring the local is safe for may-point-to purposes.
            for decl in self._declared_locals(function):
                if decl == name:
                    return qualify(function, name)
            return qualify(None, name)
        return qualify(function, name)

    def _declared_locals(self, function: str) -> Set[str]:
        names: Set[str] = set()
        fn = self.program.functions.get(function)
        if fn is None:
            return names
        for param in fn.params:
            names.add(param.name)
        for node in fn.body.walk():
            if isinstance(node, VarDecl):
                for declarator in node.declarators:
                    names.add(declarator.name)
        return names

    def _add_base(self, key: str, obj: str) -> None:
        self._base.setdefault(key, set()).add(obj)

    def _add_copy(self, dst: str, src: str) -> None:
        self._copy_edges.append((dst, src))

    def _collect_constraints(self) -> None:
        # Globals with array declarations produce objects.
        for global_decl in self.program.unit.globals:
            for declarator in global_decl.decl.declarators:
                key = qualify(None, declarator.name)
                if declarator.is_array:
                    self._add_base(key, f"obj:global:{declarator.name}")
                if declarator.init is not None:
                    self._handle_assignment(None, key, declarator.init)

        for function in self.program.unit.functions:
            if function.name in self.skip_functions:
                continue
            self._collect_function(function)

        # argv: main's second parameter points at the argv summary object.
        main = self.program.functions.get("main")
        if main is not None and len(main.params) >= 2:
            self._add_base(qualify("main", main.params[1].name), ARGV_OBJECT)

    def _collect_function(self, function: FunctionDef) -> None:
        name = function.name
        for node in function.body.walk():
            if isinstance(node, VarDecl):
                for declarator in node.declarators:
                    key = self._var_key(name, declarator.name)
                    if declarator.is_array:
                        self._add_base(key, f"obj:{name}:{declarator.name}")
                    if declarator.init is not None:
                        self._handle_assignment(name, key, declarator.init)
            elif isinstance(node, (Assign, AssignExpr)):
                target = node.target
                if isinstance(target, Identifier):
                    self._handle_assignment(name, self._var_key(name, target.name),
                                            node.value)
                # Stores through pointers do not change what pointers point to
                # in this field-insensitive model.
            elif isinstance(node, ReturnStmt) and node.value is not None:
                self._handle_assignment(name, f"ret::{name}", node.value)
            elif isinstance(node, Call):
                self._handle_call(name, None, node)

    def _handle_assignment(self, function: Optional[str], dst_key: str,
                           value: Expr) -> None:
        for src in self._pointer_sources(function, value):
            kind, payload = src
            if kind == "object":
                self._add_base(dst_key, payload)
            else:
                self._add_copy(dst_key, payload)

    def _handle_call(self, function: Optional[str], dst_key: Optional[str],
                     call: Call) -> None:
        callee = self.program.functions.get(call.name)
        if callee is not None and callee.name not in self.skip_functions:
            for index, param in enumerate(callee.params):
                if index >= len(call.args):
                    break
                param_key = qualify(callee.name, param.name)
                self._handle_assignment(function, param_key, call.args[index])
            if dst_key is not None:
                self._add_copy(dst_key, f"ret::{callee.name}")
            return
        if dst_key is None:
            return
        if call.name in _RETURNS_FRESH_OBJECT:
            self._add_base(dst_key, f"obj:malloc:{call.node_id}")
        elif call.name in _RETURNS_ARGUMENT_POINTER:
            arg_index = _RETURNS_ARGUMENT_POINTER[call.name]
            if arg_index < len(call.args):
                self._handle_assignment(function, dst_key, call.args[arg_index])
        else:
            self._add_base(dst_key, EXTERNAL_OBJECT)

    def _pointer_sources(self, function: Optional[str],
                         expr: Expr) -> List[Tuple[str, str]]:
        """Possible pointer values of *expr*: ("object", obj) or ("copy", key)."""

        sources: List[Tuple[str, str]] = []
        if isinstance(expr, Identifier):
            sources.append(("copy", self._var_key(function, expr.name)))
        elif isinstance(expr, StringLiteral):
            sources.append(("object", f"obj:literal:{expr.node_id}"))
        elif isinstance(expr, UnaryOp) and expr.op == "&":
            inner = expr.operand
            if isinstance(inner, Identifier):
                sources.append(("copy", self._var_key(function, inner.name)))
                sources.append(("object", f"obj:addr:{function}:{inner.name}"))
            elif isinstance(inner, ArrayIndex):
                sources.extend(self._pointer_sources(function, inner.base))
        elif isinstance(expr, BinaryOp) and expr.op in ("+", "-"):
            # Pointer arithmetic keeps pointing into the same objects.
            sources.extend(self._pointer_sources(function, expr.left))
            sources.extend(self._pointer_sources(function, expr.right))
        elif isinstance(expr, TernaryOp):
            sources.extend(self._pointer_sources(function, expr.then))
            sources.extend(self._pointer_sources(function, expr.otherwise))
        elif isinstance(expr, Call):
            callee = self.program.functions.get(expr.name)
            if callee is not None and callee.name not in self.skip_functions:
                for index, param in enumerate(callee.params):
                    if index >= len(expr.args):
                        break
                    self._handle_assignment(function, qualify(callee.name, param.name),
                                            expr.args[index])
                sources.append(("copy", f"ret::{expr.name}"))
            elif expr.name in _RETURNS_FRESH_OBJECT:
                sources.append(("object", f"obj:malloc:{expr.node_id}"))
            elif expr.name in _RETURNS_ARGUMENT_POINTER:
                arg_index = _RETURNS_ARGUMENT_POINTER[expr.name]
                if arg_index < len(expr.args):
                    sources.extend(self._pointer_sources(function, expr.args[arg_index]))
            else:
                sources.append(("object", EXTERNAL_OBJECT))
        elif isinstance(expr, (ArrayIndex,)):
            # Loading a pointer out of an array of pointers (e.g. argv[i]):
            # approximate by "points into whatever the array's object holds" —
            # modelled as the array object itself plus the external object.
            sources.extend(self._pointer_sources(function, expr.base))
        elif isinstance(expr, UnaryOp) and expr.op == "*":
            sources.extend(self._pointer_sources(function, expr.operand))
        return sources

    # -- constraint solving -----------------------------------------------------------------

    def _solve(self) -> Dict[str, Set[str]]:
        points_to: Dict[str, Set[str]] = {key: set(objs) for key, objs in self._base.items()}
        changed = True
        iterations = 0
        while changed and iterations < 1000:
            changed = False
            iterations += 1
            for dst, src in self._copy_edges:
                src_set = points_to.get(src)
                if not src_set:
                    continue
                dst_set = points_to.setdefault(dst, set())
                before = len(dst_set)
                dst_set.update(src_set)
                if len(dst_set) != before:
                    changed = True
        return points_to
