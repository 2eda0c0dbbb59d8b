"""The :class:`Program` container: a parsed MiniC program ready for analysis.

A :class:`Program` binds together the translation unit, the per-function CFGs,
the canonical list of branch locations and a few convenience indexes (function
table, call graph edges).  Every stage of the pipeline — dynamic analysis,
static analysis, instrumentation, recording and replay — operates on the same
:class:`Program` instance, so branch identities are consistent throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.lang.ast_nodes import (
    Call,
    FunctionDef,
    GlobalDecl,
    TranslationUnit,
)
from repro.lang.cfg import (
    BranchLocation,
    ControlFlowGraph,
    build_all_cfgs,
    enumerate_branch_locations,
)
from repro.lang.errors import SemanticError
from repro.lang.parser import parse_program


@dataclass
class Program:
    """A parsed MiniC program plus derived structural information."""

    source: str
    unit: TranslationUnit
    name: str = "program"
    functions: Dict[str, FunctionDef] = field(default_factory=dict)
    cfgs: Dict[str, ControlFlowGraph] = field(default_factory=dict)
    branch_locations: List[BranchLocation] = field(default_factory=list)
    library_functions: Set[str] = field(default_factory=set)

    @classmethod
    def from_source(cls, source: str, name: str = "program",
                    library_functions: Optional[Set[str]] = None) -> "Program":
        """Parse *source* and build all derived structures.

        ``library_functions`` names functions that should be treated as
        "library" code (the uClibc analogue in the paper): the static analysis
        can be told to skip them, and branch-behaviour figures separate them
        from application code.
        """

        unit = parse_program(source)
        functions: Dict[str, FunctionDef] = {}
        for function in unit.functions:
            if function.name in functions:
                raise SemanticError(f"duplicate function definition: {function.name}")
            functions[function.name] = function
        if "main" not in functions:
            raise SemanticError("program has no main function")
        program = cls(
            source=source,
            unit=unit,
            name=name,
            functions=functions,
            cfgs=build_all_cfgs(unit),
            branch_locations=enumerate_branch_locations(unit),
            library_functions=set(library_functions or ()),
        )
        return program

    # -- lookups --------------------------------------------------------------

    @property
    def main(self) -> FunctionDef:
        return self.functions["main"]

    def branches_in_function(self, function_name: str) -> List[BranchLocation]:
        return [b for b in self.branch_locations if b.function == function_name]

    def application_branches(self) -> List[BranchLocation]:
        """Branch locations in application (non-library) functions."""

        return [b for b in self.branch_locations
                if b.function not in self.library_functions]

    def library_branches(self) -> List[BranchLocation]:
        """Branch locations in functions marked as library code."""

        return [b for b in self.branch_locations
                if b.function in self.library_functions]

    # -- call graph -----------------------------------------------------------

    def call_graph(self) -> Dict[str, Set[str]]:
        """Map of caller name to the set of (user-defined) callees."""

        edges: Dict[str, Set[str]] = {name: set() for name in self.functions}
        for name, function in self.functions.items():
            for node in function.body.walk():
                if isinstance(node, Call) and node.name in self.functions:
                    edges[name].add(node.name)
        return edges

    def reachable_functions(self, root: str = "main") -> Set[str]:
        """Functions reachable from *root* through direct calls."""

        graph = self.call_graph()
        seen: Set[str] = set()
        stack = [root]
        while stack:
            current = stack.pop()
            if current in seen or current not in graph:
                continue
            seen.add(current)
            stack.extend(graph[current])
        return seen

    def global_names(self) -> List[str]:
        names: List[str] = []
        for decl in self.unit.globals:
            if isinstance(decl, GlobalDecl):
                names.extend(d.name for d in decl.decl.declarators)
        return names

    # -- statistics used by figures -------------------------------------------

    def loc(self) -> int:
        """Number of non-blank source lines (used in reports only)."""

        return sum(1 for line in self.source.splitlines() if line.strip())

    def describe(self) -> Dict[str, int]:
        """Structural summary used by reports and examples."""

        return {
            "functions": len(self.functions),
            "branch_locations": len(self.branch_locations),
            "application_branches": len(self.application_branches()),
            "library_branches": len(self.library_branches()),
            "globals": len(self.global_names()),
            "source_lines": self.loc(),
        }
