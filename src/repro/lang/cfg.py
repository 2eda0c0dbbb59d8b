"""Control-flow graphs and branch-location enumeration for MiniC functions.

Two things downstream code needs from this module:

* :class:`BranchLocation` — the canonical identity of a branch *location* (a
  static ``if``/``while``/``for`` condition in the source).  The paper's whole
  approach revolves around deciding, per branch location, whether to
  instrument it; every analysis and the runtime logger agree on these ids.
* :class:`ControlFlowGraph` — a per-function graph of basic blocks, used by the
  static analysis for reachability/ordering queries and by tests to validate
  structural properties of workload programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lang.ast_nodes import (
    Block,
    Break,
    Continue,
    ForStmt,
    FunctionDef,
    IfStmt,
    ReturnStmt,
    Stmt,
    TranslationUnit,
    WhileStmt,
    iter_branch_statements,
)
from repro.lang.errors import SemanticError


@dataclass(frozen=True, order=True)
class BranchLocation:
    """The static identity of one branch in the program source.

    Ordering and hashing are by ``(function, node_id)``, which makes branch
    enumeration deterministic for a given parse of the program.

    ``index`` is the location's position in its program's
    ``Program.branch_locations`` (``None`` on a location built outside
    :func:`enumerate_branch_locations`).  It is not part of the identity: it
    takes no part in equality, hashing, ordering or ``repr``, so plans,
    fingerprints and trace files do not see it.  The VM's analyze mode reads
    it to mark a concrete branch with one list store.
    """

    function: str
    node_id: int
    line: int
    kind: str  # "if" | "while" | "for"
    index: Optional[int] = field(default=None, compare=False, repr=False)

    def short(self) -> str:
        """Human-readable label used in reports and figures."""

        return f"{self.function}:{self.line}:{self.kind}"


def branch_location_for(function_name: str, stmt: Stmt,
                        index: Optional[int] = None) -> BranchLocation:
    """Build the :class:`BranchLocation` for a branch statement node."""

    if isinstance(stmt, IfStmt):
        kind = "if"
    elif isinstance(stmt, WhileStmt):
        kind = "while"
    elif isinstance(stmt, ForStmt):
        kind = "for"
    else:  # pragma: no cover - guarded by callers
        raise TypeError(f"not a branch statement: {stmt!r}")
    return BranchLocation(function=function_name, node_id=stmt.node_id,
                          line=stmt.line, kind=kind, index=index)


def enumerate_branch_locations(unit: TranslationUnit) -> List[BranchLocation]:
    """Return every branch location in the translation unit, in a stable order.

    The order is the locations' own, by function and then node id (node ids
    are unique within a parse), and each location carries its position in
    it as its ``index``.
    """

    branches = sorted(((function.name, stmt) for function in unit.functions
                       for stmt in iter_branch_statements(function.body)),
                      key=lambda branch: (branch[0], branch[1].node_id))
    return [branch_location_for(name, stmt, index)
            for index, (name, stmt) in enumerate(branches)]


# ---------------------------------------------------------------------------
# Basic blocks
# ---------------------------------------------------------------------------


@dataclass
class BasicBlock:
    """A straight-line sequence of statements with a single entry and exit."""

    block_id: int
    statements: List[Stmt] = field(default_factory=list)
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)
    branch: Optional[BranchLocation] = None
    label: str = ""

    def add_successor(self, other: "BasicBlock") -> None:
        if other.block_id not in self.successors:
            self.successors.append(other.block_id)
        if self.block_id not in other.predecessors:
            other.predecessors.append(self.block_id)


@dataclass
class ControlFlowGraph:
    """Control-flow graph of a single MiniC function."""

    function: str
    blocks: Dict[int, BasicBlock] = field(default_factory=dict)
    entry_id: int = 0
    exit_id: int = 0

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[self.entry_id]

    @property
    def exit(self) -> BasicBlock:
        return self.blocks[self.exit_id]

    def new_block(self, label: str = "") -> BasicBlock:
        block = BasicBlock(block_id=len(self.blocks), label=label)
        self.blocks[block.block_id] = block
        return block

    def branch_blocks(self) -> List[BasicBlock]:
        """Blocks that end in a conditional branch."""

        return [b for b in self.blocks.values() if b.branch is not None]

    def edges(self) -> Iterable[Tuple[int, int]]:
        for block in self.blocks.values():
            for succ in block.successors:
                yield (block.block_id, succ)

    def reachable_blocks(self) -> List[int]:
        """Block ids reachable from the entry block (DFS order)."""

        seen: List[int] = []
        stack = [self.entry_id]
        visited = set()
        while stack:
            block_id = stack.pop()
            if block_id in visited:
                continue
            visited.add(block_id)
            seen.append(block_id)
            stack.extend(reversed(self.blocks[block_id].successors))
        return seen


class _CFGBuilder:
    """Builds a CFG by a structural walk of the function body."""

    def __init__(self, function: FunctionDef) -> None:
        self.function = function
        self.cfg = ControlFlowGraph(function=function.name)
        self.exit_block = self.cfg.new_block("exit")
        self.cfg.exit_id = self.exit_block.block_id
        # (break_target, continue_target) stack for loops.
        self._loop_stack: List[Tuple[BasicBlock, BasicBlock]] = []

    def build(self) -> ControlFlowGraph:
        entry = self.cfg.new_block("entry")
        self.cfg.entry_id = entry.block_id
        last = self._build_stmt(self.function.body, entry)
        if last is not None:
            last.add_successor(self.exit_block)
        return self.cfg

    # Each _build_* method returns the block where control continues, or None
    # if control cannot fall through (return/break/continue).

    def _build_stmt(self, stmt: Stmt, current: BasicBlock) -> Optional[BasicBlock]:
        if isinstance(stmt, Block):
            for child in stmt.statements:
                if current is None:
                    # Unreachable code after return/break: still record it in a
                    # detached block so branch enumeration remains complete.
                    current = self.cfg.new_block("unreachable")
                current = self._build_stmt(child, current)
            return current
        if isinstance(stmt, IfStmt):
            return self._build_if(stmt, current)
        if isinstance(stmt, WhileStmt):
            return self._build_while(stmt, current)
        if isinstance(stmt, ForStmt):
            return self._build_for(stmt, current)
        if isinstance(stmt, ReturnStmt):
            current.statements.append(stmt)
            current.add_successor(self.exit_block)
            return None
        if isinstance(stmt, (Break, Continue)):
            if not self._loop_stack:
                keyword = "break" if isinstance(stmt, Break) else "continue"
                raise SemanticError(f"'{keyword}' outside a loop", stmt.line)
            current.statements.append(stmt)
            target = 0 if isinstance(stmt, Break) else 1
            current.add_successor(self._loop_stack[-1][target])
            return None
        current.statements.append(stmt)
        return current

    def _build_if(self, stmt: IfStmt, current: BasicBlock) -> Optional[BasicBlock]:
        current.statements.append(stmt)
        current.branch = branch_location_for(self.function.name, stmt)
        then_block = self.cfg.new_block("then")
        join_block = self.cfg.new_block("join")
        current.add_successor(then_block)
        then_end = self._build_stmt(stmt.then, then_block)
        if then_end is not None:
            then_end.add_successor(join_block)
        if stmt.otherwise is not None:
            else_block = self.cfg.new_block("else")
            current.add_successor(else_block)
            else_end = self._build_stmt(stmt.otherwise, else_block)
            if else_end is not None:
                else_end.add_successor(join_block)
        else:
            current.add_successor(join_block)
        return join_block

    def _build_while(self, stmt: WhileStmt, current: BasicBlock) -> Optional[BasicBlock]:
        header = self.cfg.new_block("while-header")
        body_block = self.cfg.new_block("while-body")
        after = self.cfg.new_block("while-after")
        current.add_successor(header)
        header.statements.append(stmt)
        header.branch = branch_location_for(self.function.name, stmt)
        header.add_successor(body_block)
        header.add_successor(after)
        self._loop_stack.append((after, header))
        body_end = self._build_stmt(stmt.body, body_block)
        self._loop_stack.pop()
        if body_end is not None:
            body_end.add_successor(header)
        return after

    def _build_for(self, stmt: ForStmt, current: BasicBlock) -> Optional[BasicBlock]:
        if stmt.init is not None:
            current = self._build_stmt(stmt.init, current) or self.cfg.new_block("for-init")
        header = self.cfg.new_block("for-header")
        body_block = self.cfg.new_block("for-body")
        update_block = self.cfg.new_block("for-update")
        after = self.cfg.new_block("for-after")
        current.add_successor(header)
        header.statements.append(stmt)
        if stmt.cond is not None:
            header.branch = branch_location_for(self.function.name, stmt)
            header.add_successor(body_block)
            header.add_successor(after)
        else:
            header.add_successor(body_block)
        self._loop_stack.append((after, update_block))
        body_end = self._build_stmt(stmt.body, body_block)
        self._loop_stack.pop()
        if body_end is not None:
            body_end.add_successor(update_block)
        if stmt.update is not None:
            update_end = self._build_stmt(stmt.update, update_block)
        else:
            update_end = update_block
        if update_end is not None:
            update_end.add_successor(header)
        return after


def build_cfg(function: FunctionDef) -> ControlFlowGraph:
    """Build the control-flow graph of *function*."""

    return _CFGBuilder(function).build()


def build_all_cfgs(unit: TranslationUnit) -> Dict[str, ControlFlowGraph]:
    """Build a CFG for every function in the translation unit."""

    return {f.name: build_cfg(f) for f in unit.functions}
