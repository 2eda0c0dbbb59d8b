"""Interprocedural dataflow analysis propagating "symbolic" (input-derived) facts.

This is the reproduction of the paper's Algorithms 1 and 2:

* the set of symbolic variables is seeded with ``argv`` and the return values
  of input-returning functions,
* assignments propagate the symbolic flag from right-hand sides to targets,
* function calls propagate it into formal parameters, out of return values,
  and through memory written via pointer parameters or globals,
* every branch whose condition may reference a symbolic value is labelled
  symbolic (Algorithm 2's ``logThisBranch``).

Aliasing questions are answered by the points-to analysis; its imprecision can
only make the result more conservative (extra branches labelled symbolic),
mirroring the behaviour the paper reports for its static method.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.analysis.pointsto import (
    ARGV_OBJECT,
    EXTERNAL_OBJECT,
    PointsToAnalysis,
    PointsToResult,
    qualify,
)
from repro.interp.builtins import INPUT_RETURNING_BUILTINS
from repro.lang.ast_nodes import (
    ArrayIndex,
    Assign,
    AssignExpr,
    BinaryOp,
    Call,
    CharLiteral,
    Expr,
    ExprStmt,
    ForStmt,
    FunctionDef,
    Identifier,
    IfStmt,
    IntLiteral,
    ReturnStmt,
    StringLiteral,
    TernaryOp,
    UnaryOp,
    VarDecl,
    WhileStmt,
    iter_branch_statements,
)
from repro.lang.cfg import BranchLocation, branch_location_for
from repro.lang.program import Program

#: Builtins that copy bytes from their second argument into their first.
_COPYING_BUILTINS = {"strcpy", "strncpy", "strcat", "memcpy"}
#: Builtins that fill their second argument (a buffer) with fresh input bytes.
_INPUT_FILLING_BUILTINS = {"read", "recv", "read_line"}
#: Builtins whose integer result is derived from the bytes of their arguments.
_CONTENT_DERIVED_BUILTINS = {"strlen", "strcmp", "strncmp", "atoi", "strchr",
                             "isdigit", "isalpha", "isspace", "toupper",
                             "tolower", "abs"}


@dataclass
class StaticAnalysisResult:
    """Output of the static analysis."""

    symbolic_branches: Set[BranchLocation] = field(default_factory=set)
    concrete_branches: Set[BranchLocation] = field(default_factory=set)
    symbolic_variables: Set[str] = field(default_factory=set)
    symbolic_objects: Set[str] = field(default_factory=set)
    functions_returning_symbolic: Set[str] = field(default_factory=set)
    analyzed_functions: Set[str] = field(default_factory=set)
    skipped_functions: Set[str] = field(default_factory=set)
    passes: int = 0
    wall_seconds: float = 0.0
    points_to: Optional[PointsToResult] = None

    def counts(self) -> Dict[str, int]:
        return {
            "symbolic_branches": len(self.symbolic_branches),
            "concrete_branches": len(self.concrete_branches),
            "symbolic_variables": len(self.symbolic_variables),
            "functions_returning_symbolic": len(self.functions_returning_symbolic),
        }

    def summary(self) -> str:
        counts = self.counts()
        return (f"static analysis: {counts['symbolic_branches']} symbolic / "
                f"{counts['concrete_branches']} concrete branch locations, "
                f"{counts['symbolic_variables']} symbolic variables, "
                f"{self.passes} passes")


class StaticAnalyzer:
    """Runs the whole-program static analysis."""

    def __init__(self, program: Program,
                 skip_functions: Optional[Set[str]] = None,
                 extra_input_functions: Optional[Set[str]] = None,
                 max_passes: int = 50) -> None:
        """``skip_functions`` are treated like the uClibc library in the paper's
        uServer experiment: they are not analyzed and *all* their branches are
        conservatively labelled symbolic."""

        self.program = program
        self.skip_functions = set(skip_functions or ())
        self.input_functions = set(INPUT_RETURNING_BUILTINS) | set(extra_input_functions or ())
        self.max_passes = max_passes
        self._symbolic_vars: Set[str] = set()
        self._symbolic_objects: Set[str] = set()
        self._returns_symbolic: Set[str] = set()
        self._symbolic_branches: Set[BranchLocation] = set()
        self._points_to: Optional[PointsToResult] = None
        self._changed = False

    # -- public API ---------------------------------------------------------------------

    def run(self) -> StaticAnalysisResult:
        start = time.monotonic()
        self._points_to = PointsToAnalysis(self.program, self.skip_functions).run()
        self._seed()

        reachable = self.program.reachable_functions("main")
        worklist = [name for name in self.program.functions
                    if name in reachable and name not in self.skip_functions]
        passes = 0
        while passes < self.max_passes:
            passes += 1
            self._changed = False
            for name in worklist:
                self._analyze_function(self.program.functions[name])
            if not self._changed:
                break

        # Library functions: all branches conservatively symbolic.
        for name in self.skip_functions:
            function = self.program.functions.get(name)
            if function is None:
                continue
            for stmt in iter_branch_statements(function.body):
                self._symbolic_branches.add(branch_location_for(name, stmt))

        all_branches = set(self.program.branch_locations)
        result = StaticAnalysisResult(
            symbolic_branches=set(self._symbolic_branches),
            concrete_branches=all_branches - self._symbolic_branches,
            symbolic_variables=set(self._symbolic_vars),
            symbolic_objects=set(self._symbolic_objects),
            functions_returning_symbolic=set(self._returns_symbolic),
            analyzed_functions=set(worklist),
            skipped_functions=set(self.skip_functions) & set(self.program.functions),
            passes=passes,
            wall_seconds=time.monotonic() - start,
            points_to=self._points_to,
        )
        return result

    # -- seeding ---------------------------------------------------------------------------

    def _seed(self) -> None:
        main = self.program.functions.get("main")
        if main is None:
            return
        # argv (and argc, which is derived from the command line) are symbolic.
        for param in main.params:
            self._symbolic_vars.add(qualify("main", param.name))
        self._symbolic_objects.add(ARGV_OBJECT)

    # -- helpers ------------------------------------------------------------------------------

    def _mark_var(self, key: str) -> None:
        if key not in self._symbolic_vars:
            self._symbolic_vars.add(key)
            self._changed = True

    def _mark_object(self, obj: str) -> None:
        if obj not in self._symbolic_objects:
            self._symbolic_objects.add(obj)
            self._changed = True

    def _mark_returns(self, function: str) -> None:
        if function not in self._returns_symbolic:
            self._returns_symbolic.add(function)
            self._changed = True

    def _var_key(self, function: str, name: str) -> str:
        # Prefer the local binding; fall back to a global of the same name.
        return qualify(function, name)

    def _is_var_symbolic(self, function: str, name: str) -> bool:
        return (qualify(function, name) in self._symbolic_vars
                or qualify(None, name) in self._symbolic_vars)

    def _pointees(self, function: str, expr: Expr) -> Set[str]:
        """Abstract objects the pointer expression may reference."""

        if self._points_to is None:
            return set()
        if isinstance(expr, Identifier):
            pointees = set(self._points_to.pointees(qualify(function, expr.name)))
            pointees |= self._points_to.pointees(qualify(None, expr.name))
            return pointees
        if isinstance(expr, (ArrayIndex,)):
            return self._pointees(function, expr.base)
        if isinstance(expr, UnaryOp) and expr.op in ("*", "&"):
            return self._pointees(function, expr.operand)
        if isinstance(expr, BinaryOp) and expr.op in ("+", "-"):
            return self._pointees(function, expr.left) | self._pointees(function, expr.right)
        if isinstance(expr, Call):
            return {EXTERNAL_OBJECT}
        if isinstance(expr, StringLiteral):
            return {f"obj:literal:{expr.node_id}"}
        return set()

    def _points_to_symbolic(self, function: str, expr: Expr) -> bool:
        return bool(self._pointees(function, expr) & self._symbolic_objects)

    # -- expression symbolic-ness ------------------------------------------------------------------

    def _expr_symbolic(self, function: str, expr: Expr) -> bool:
        if isinstance(expr, (IntLiteral, CharLiteral, StringLiteral)):
            return False
        if isinstance(expr, Identifier):
            return self._is_var_symbolic(function, expr.name)
        if isinstance(expr, ArrayIndex):
            if self._points_to_symbolic(function, expr.base):
                return True
            if self._expr_symbolic(function, expr.base):
                return True
            # Conservative: a symbolic index selects input-dependent data.
            return self._expr_symbolic(function, expr.index)
        if isinstance(expr, UnaryOp):
            if expr.op == "*":
                return (self._points_to_symbolic(function, expr.operand)
                        or self._expr_symbolic(function, expr.operand))
            if expr.op == "&":
                return False
            return self._expr_symbolic(function, expr.operand)
        if isinstance(expr, BinaryOp):
            return (self._expr_symbolic(function, expr.left)
                    or self._expr_symbolic(function, expr.right))
        if isinstance(expr, TernaryOp):
            return (self._expr_symbolic(function, expr.cond)
                    or self._expr_symbolic(function, expr.then)
                    or self._expr_symbolic(function, expr.otherwise))
        if isinstance(expr, AssignExpr):
            return self._expr_symbolic(function, expr.value)
        if isinstance(expr, Call):
            return self._call_returns_symbolic(function, expr)
        return False

    def _call_returns_symbolic(self, function: str, call: Call) -> bool:
        self._apply_call_effects(function, call)
        if call.name in self.input_functions:
            return True
        callee = self.program.functions.get(call.name)
        if callee is not None:
            if call.name in self.skip_functions:
                # Library code is not analyzed: assume it may return input.
                return True
            return call.name in self._returns_symbolic
        if call.name in _CONTENT_DERIVED_BUILTINS:
            return any(self._expr_symbolic(function, arg)
                       or self._points_to_symbolic(function, arg)
                       for arg in call.args)
        return False

    # -- call side effects --------------------------------------------------------------------------

    def _apply_call_effects(self, function: str, call: Call) -> None:
        callee = self.program.functions.get(call.name)
        if callee is not None and call.name in self.skip_functions:
            # Library code is not analyzed; conservatively assume it may write
            # input-derived data through any pointer argument it receives.
            for actual in call.args:
                for obj in self._pointees(function, actual):
                    self._mark_object(obj)
            return
        if callee is not None:
            for index, param in enumerate(callee.params):
                if index >= len(call.args):
                    break
                actual = call.args[index]
                if (self._expr_symbolic(function, actual)
                        or self._points_to_symbolic(function, actual)):
                    self._mark_var(qualify(callee.name, param.name))
            return
        if call.name in _INPUT_FILLING_BUILTINS and len(call.args) >= 2:
            for obj in self._pointees(function, call.args[1]):
                self._mark_object(obj)
        if call.name in _COPYING_BUILTINS and len(call.args) >= 2:
            source_symbolic = (self._expr_symbolic(function, call.args[1])
                               or self._points_to_symbolic(function, call.args[1]))
            if source_symbolic:
                for obj in self._pointees(function, call.args[0]):
                    self._mark_object(obj)

    # -- per-function pass ------------------------------------------------------------------------------

    def _analyze_function(self, function: FunctionDef) -> None:
        name = function.name
        for node in function.body.walk():
            if isinstance(node, VarDecl):
                for declarator in node.declarators:
                    if declarator.init is not None and self._expr_symbolic(name, declarator.init):
                        self._mark_var(qualify(name, declarator.name))
            elif isinstance(node, (Assign, AssignExpr)):
                self._analyze_assignment(name, node.target, node.value)
            elif isinstance(node, ExprStmt):
                if isinstance(node.expr, Call):
                    self._call_returns_symbolic(name, node.expr)
            elif isinstance(node, Call):
                self._apply_call_effects(name, node)
            elif isinstance(node, ReturnStmt):
                if node.value is not None and self._expr_symbolic(name, node.value):
                    self._mark_returns(name)
            elif isinstance(node, (IfStmt, WhileStmt, ForStmt)):
                cond = node.cond
                if cond is not None and self._expr_symbolic(name, cond):
                    location = branch_location_for(name, node)
                    if location not in self._symbolic_branches:
                        self._symbolic_branches.add(location)
                        self._changed = True

    def _analyze_assignment(self, function: str, target: Expr, value: Expr) -> None:
        value_symbolic = self._expr_symbolic(function, value)
        if isinstance(target, Identifier):
            if value_symbolic:
                if self.program.functions.get(function) is not None and \
                        qualify(None, target.name) in self._symbolic_vars:
                    return
                # Globals assigned inside functions propagate program-wide.
                if target.name in self.program.global_names() and \
                        not self._is_local(function, target.name):
                    self._mark_var(qualify(None, target.name))
                else:
                    self._mark_var(qualify(function, target.name))
            return
        if isinstance(target, (ArrayIndex,)) or (isinstance(target, UnaryOp) and target.op == "*"):
            if value_symbolic:
                base = target.base if isinstance(target, ArrayIndex) else target.operand
                for obj in self._pointees(function, base):
                    self._mark_object(obj)

    def _is_local(self, function: str, name: str) -> bool:
        fn = self.program.functions.get(function)
        if fn is None:
            return False
        for param in fn.params:
            if param.name == name:
                return True
        for node in fn.body.walk():
            if isinstance(node, VarDecl):
                for declarator in node.declarators:
                    if declarator.name == name:
                        return True
        return False
