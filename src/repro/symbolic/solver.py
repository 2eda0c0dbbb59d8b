"""A small-domain constraint solver for path constraints.

The solver is intentionally simple — the paper relies on an off-the-shelf style
solver for constraints over program inputs, and in our workloads those inputs
are argv bytes, request bytes, and bounded syscall return values.  The solver
therefore works over bounded integer domains with:

1. constant-folding / trivial unsat detection,
2. unary-constraint domain filtering (constraints mentioning a single
   variable prune that variable's domain by enumeration),
3. depth-first backtracking search with forward checking, value ordering that
   prefers a caller-supplied *hint* assignment (the concrete input of the run
   that produced the constraints — the "concolic" advantage discussed in §6 of
   the paper), and a node budget so a pathological constraint set fails fast
   instead of hanging the exploration loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.symbolic.constraints import Constraint, ConstraintSet
from repro.symbolic.expr import SymBinOp, SymConst, SymExpr, SymUnOp, SymVar, sym_const
from repro.symbolic.simplify import simplify, substitute, try_evaluate, variables

_MAX_ENUMERABLE_DOMAIN = 4096
_DEFAULT_NODE_BUDGET = 200_000


@dataclass
class SolverStats:
    """Counters describing the work a single ``solve`` call performed."""

    nodes: int = 0
    propagations: int = 0
    backtracks: int = 0
    wall_seconds: float = 0.0
    budget_exhausted: bool = False


@dataclass
class SolverResult:
    """Outcome of a ``solve`` call."""

    satisfiable: bool
    assignment: Optional[Dict[str, int]]
    stats: SolverStats = field(default_factory=SolverStats)

    def __bool__(self) -> bool:
        return self.satisfiable


class _Domain:
    """A candidate-value domain for one variable."""

    def __init__(self, var: SymVar) -> None:
        self.var = var
        self.lo = var.lo
        self.hi = var.hi
        self.excluded: Set[int] = set()
        # When a constraint pins the variable to a small candidate set, we
        # switch to explicit enumeration.
        self.candidates: Optional[Set[int]] = None

    def size(self) -> int:
        if self.candidates is not None:
            return len(self.candidates)
        return max(0, self.hi - self.lo + 1 - len(
            {v for v in self.excluded if self.lo <= v <= self.hi}))

    def is_empty(self) -> bool:
        return self.size() == 0

    def contains(self, value: int) -> bool:
        if self.candidates is not None:
            return value in self.candidates
        return self.lo <= value <= self.hi and value not in self.excluded

    def restrict_to(self, values: Iterable[int]) -> None:
        if self.candidates is not None:
            # C-speed intersection; same result as filtering via contains().
            self.candidates = self.candidates.intersection(values)
            return
        allowed = {v for v in values if self.contains(v)}
        self.candidates = allowed

    def exclude(self, value: int) -> None:
        if self.candidates is not None:
            self.candidates.discard(value)
        else:
            self.excluded.add(value)

    def iter_values(self, preferred: Sequence[int] = ()) -> Iterable[int]:
        """Yield candidate values, preferred ones first."""

        emitted: Set[int] = set()
        for value in preferred:
            if self.contains(value) and value not in emitted:
                emitted.add(value)
                yield value
        if self.candidates is not None:
            for value in sorted(self.candidates):
                if value not in emitted:
                    yield value
            return
        # Enumerate the interval; for wide domains fall back to a bounded scan
        # around "interesting" points plus the interval edges.
        width = self.hi - self.lo + 1
        if width <= _MAX_ENUMERABLE_DOMAIN:
            for value in range(self.lo, self.hi + 1):
                if value not in self.excluded and value not in emitted:
                    yield value
            return
        probes = [self.lo, self.lo + 1, 0, 1, -1, self.hi - 1, self.hi]
        for value in probes:
            if self.contains(value) and value not in emitted:
                emitted.add(value)
                yield value


def _interesting_values(expr: SymExpr) -> Set[int]:
    """Constants appearing in *expr*, plus their neighbours.

    These are good candidate values for variables compared against them.
    """

    values: Set[int] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, SymConst):
            values.update((node.value - 1, node.value, node.value + 1))
        elif isinstance(node, SymUnOp):
            stack.append(node.operand)
        elif isinstance(node, SymBinOp):
            stack.append(node.left)
            stack.append(node.right)
    return values


#: Memo of unary-constraint satisfying sets, keyed by ``(expr, lo, hi)``.
#: The replay engine re-solves near-identical constraint sets on every run of
#: a search, so the same single-variable constraints are filtered over the
#: same base domains hundreds of times; expressions are immutable and
#: hashable, which makes them perfect cache keys.
_UNARY_FILTER_CACHE: Dict[tuple, frozenset] = {}
_UNARY_FILTER_CACHE_LIMIT = 65536


def _unary_satisfying_values(expr: SymExpr, name: str, domain: "_Domain"):
    """Values satisfying the single-variable constraint *expr*.

    ``Domain.restrict_to`` intersects with the current domain, so answering
    from the variable's *base* interval (cacheable across solve calls) and
    answering from the current (possibly already narrowed) domain produce the
    same restriction.  Domains whose base interval is too wide to enumerate
    fall back to filtering the current (already small) domain, uncached.
    """

    width = domain.hi - domain.lo + 1
    if width > _MAX_ENUMERABLE_DOMAIN:
        return [value for value in domain.iter_values()
                if try_evaluate(expr, {name: value})]
    key = (expr, domain.lo, domain.hi)
    cached = _UNARY_FILTER_CACHE.get(key)
    if cached is None:
        if len(_UNARY_FILTER_CACHE) >= _UNARY_FILTER_CACHE_LIMIT:
            _UNARY_FILTER_CACHE.clear()
        cached = frozenset(
            value for value in range(domain.lo, domain.hi + 1)
            if try_evaluate(expr, {name: value}))
        _UNARY_FILTER_CACHE[key] = cached
    return cached


class _Search:
    """One backtracking search over the simplified constraints.

    Constraint checking is *incremental*: assigning a variable only touches
    the constraints that mention it (a fully-assigned constraint is evaluated
    exactly once, when its last variable is bound, and a one-free-variable
    look-ahead fires exactly when a constraint transitions to one unassigned
    variable).  Along an assignment path a constraint's verdict can never
    change after it was checked — earlier variables keep their values until
    backtracking undoes them — so the pruning decisions, the visit order and
    the first satisfying assignment are identical to re-scanning the whole
    constraint list at every node, at a per-node cost proportional to the
    just-assigned variable's constraint degree instead of the total
    constraint count.  The replay engine's constraint sets grow linearly with
    the recorded run's symbolic branches, which made the full rescans the
    dominant cost of replay search.
    """

    def __init__(self, constraints: List[SymExpr], domains: Dict[str, _Domain],
                 hint: Mapping[str, int], node_budget: int) -> None:
        self.constraints = constraints
        self.domains = domains
        self.hint = dict(hint)
        self.node_budget = node_budget
        self.stats = SolverStats()
        # Map variable name -> indices of constraints that mention it.
        self.by_var: Dict[str, List[int]] = {name: [] for name in domains}
        self.constraint_vars: List[FrozenSet[str]] = []
        for index, expr in enumerate(constraints):
            names = frozenset(v.name for v in variables(expr))
            self.constraint_vars.append(names)
            for name in names:
                self.by_var.setdefault(name, []).append(index)
        # Unassigned-variable count per constraint, maintained by _assign.
        self.free_counts: List[int] = [len(names) for names in self.constraint_vars]
        self.preferred: Dict[str, List[int]] = {name: [] for name in domains}
        for name in domains:
            if name in self.hint:
                self.preferred[name].append(self.hint[name])
        for index, expr in enumerate(constraints):
            interesting = sorted(_interesting_values(expr))
            for name in self.constraint_vars[index]:
                self.preferred.setdefault(name, []).extend(interesting)

    def run(self) -> Optional[Dict[str, int]]:
        # Variable-free constraints never reach the incremental checks; they
        # either hold vacuously or make the whole set unsatisfiable.
        for index, names in enumerate(self.constraint_vars):
            if not names:
                value = try_evaluate(self.constraints[index], {})
                if value is None or value == 0:
                    return None
        order = sorted(self.domains,
                       key=lambda name: (self.domains[name].size(),
                                         -len(self.by_var.get(name, ()))))
        return self._assign(order, {})

    def _narrowed_ok(self, name: str, assignment: Dict[str, int]) -> bool:
        """Re-check only the constraints narrowed by assigning *name*.

        A constraint whose last variable was just bound is evaluated; one
        that dropped to a single unassigned variable gets the cheap
        feasibility look-ahead over that variable's domain.
        """

        constraints = self.constraints
        free_counts = self.free_counts
        for index in self.by_var[name]:
            free = free_counts[index]
            if free == 0:
                value = try_evaluate(constraints[index], assignment)
                if value is None or value == 0:
                    return False
            elif free == 1:
                (free_name,) = (n for n in self.constraint_vars[index]
                                if n not in assignment)
                domain = self.domains[free_name]
                if domain.size() > 512:
                    continue
                residual = substitute(constraints[index], assignment)
                self.stats.propagations += 1
                feasible = False
                for value in domain.iter_values(self.preferred.get(free_name, ())):
                    if try_evaluate(residual, {free_name: value}):
                        feasible = True
                        break
                if not feasible:
                    return False
        return True

    def _assign(self, order: List[str],
                assignment: Dict[str, int]) -> Optional[Dict[str, int]]:
        """Depth-first search over *order*, one frame per bound variable.

        An explicit stack instead of recursion, so searches over thousands
        of variables (a no-syscall-log diff of a big file) cannot overflow
        the interpreter's recursion limit.  Each frame holds a variable and
        its remaining candidates; a frame whose candidates run out (or that
        hits the node budget) pops, and its parent counts a backtrack and
        moves on to its own next value.
        """

        stats = self.stats
        node_budget = self.node_budget
        free_counts = self.free_counts
        frames: List[Tuple[str, Iterator[int]]] = []
        descend = True
        while True:
            if descend:
                descend = False
                if stats.nodes >= node_budget:
                    stats.budget_exhausted = True
                    if not frames:
                        return None
                    stats.backtracks += 1
                    del assignment[frames[-1][0]]
                elif len(frames) == len(order):
                    return dict(assignment)
                else:
                    name = order[len(frames)]
                    for index in self.by_var[name]:
                        free_counts[index] -= 1
                    frames.append((name, iter(self.domains[name].iter_values(
                        self.preferred.get(name, ())))))
            name, values = frames[-1]
            for value in values:
                stats.nodes += 1
                if stats.nodes >= node_budget:
                    stats.budget_exhausted = True
                    break
                assignment[name] = value
                if self._narrowed_ok(name, assignment):
                    descend = True
                    break
                stats.backtracks += 1
                del assignment[name]
            if descend:
                continue
            # This frame failed: unbind its variable, backtrack the parent.
            frames.pop()
            for index in self.by_var[name]:
                free_counts[index] += 1
            if not frames:
                return None
            stats.backtracks += 1
            del assignment[frames[-1][0]]


def warm_start_assignment(constraint_set: ConstraintSet,
                          hint: Mapping[str, int]) -> Optional[Dict[str, int]]:
    """Satisfy *constraint_set* by changing at most one variable of *hint*.

    The replay engine's pending items differ from their parent run in exactly
    one flipped branch condition, and the parent's concrete input (the hint)
    satisfies every other constraint.  When the constraints touched by the
    flip are *unary* — one input byte compared against constants, the dominant
    shape in the uServer/coreutils parsers — the full backtracking search is
    overkill: enumerate that variable's filtered domain and keep the hint for
    everything else.

    Correctness contract: the returned assignment is **exactly** the one
    :func:`solve` would produce for the same set and hint (the search prefers
    hint values and orders candidates identically), so an engine using the
    warm start explores a byte-identical search tree and merely skips solver
    calls; ``None`` means "cannot guarantee that here, run the real solver".
    The differential test in ``tests/test_process_replay.py`` enforces the
    contract on randomized constraint sets.
    """

    if not hint:
        return None

    simplified: List[SymExpr] = []
    for constraint in constraint_set:
        expr = simplify(constraint.expr)
        if expr == sym_const(0):
            return None  # unsatisfiable: let solve() report it
        if expr == sym_const(1):
            continue
        simplified.append(expr)
    if not simplified:
        return None  # solve()'s trivial path is already cheap

    # Domains come from the *unsimplified* constraints, exactly like solve():
    # a variable that simplifies away still receives a value there.
    all_vars: Dict[str, SymVar] = {}
    for constraint in constraint_set:
        for var in variables(constraint.expr):
            all_vars.setdefault(var.name, var)
    for name, var in all_vars.items():
        if name not in hint:
            return None  # solve() would have to invent this value
        if not (var.lo <= hint[name] <= var.hi):
            return None  # solve() would skip the out-of-domain hint value

    expr_vars = [frozenset(v.name for v in variables(expr)) for expr in simplified]
    unsatisfied = [index for index, expr in enumerate(simplified)
                   if not try_evaluate(expr, hint)]
    if not unsatisfied:
        # The hint satisfies everything; solve()'s fast path returns it as-is.
        return dict(hint)

    flip_names = set()
    for index in unsatisfied:
        flip_names.update(expr_vars[index])
    if len(flip_names) != 1:
        return None
    (flip,) = flip_names
    # Every constraint mentioning the flip variable must be unary in it;
    # otherwise changing the flip value can break a multi-variable constraint
    # and solve() might instead move one of the *other* variables.
    relevant = [index for index, names in enumerate(expr_vars) if flip in names]
    if any(expr_vars[index] != {flip} for index in relevant):
        return None

    domain = _Domain(all_vars[flip])
    if domain.size() <= _MAX_ENUMERABLE_DOMAIN:
        # Mirror solve()'s unary filtering (same candidate order afterwards).
        for index in relevant:
            allowed = _unary_satisfying_values(simplified[index], flip, domain)
            domain.restrict_to(allowed)
            if domain.is_empty():
                return None
    preferred: List[int] = [hint[flip]]
    for index, expr in enumerate(simplified):
        if flip in expr_vars[index]:
            preferred.extend(sorted(_interesting_values(expr)))
    for value in domain.iter_values(preferred):
        if all(try_evaluate(simplified[index], {flip: value})
               for index in relevant):
            assignment = dict(hint)
            assignment[flip] = value
            return assignment
    return None


def solve(constraint_set: ConstraintSet,
          hint: Optional[Mapping[str, int]] = None,
          extra_variables: Optional[Iterable[SymVar]] = None,
          node_budget: int = _DEFAULT_NODE_BUDGET) -> SolverResult:
    """Find an assignment satisfying *constraint_set*.

    Parameters
    ----------
    constraint_set:
        The conjunction of path constraints to satisfy.
    hint:
        A (possibly partial) assignment to prefer; typically the concrete input
        of the run that produced the constraints.
    extra_variables:
        Variables that must receive a value even if no constraint mentions
        them (e.g. input bytes the program never branched on).
    node_budget:
        Upper bound on search nodes before giving up (reported as
        ``stats.budget_exhausted``).
    """

    start = time.monotonic()
    hint = dict(hint or {})
    stats = SolverStats()

    simplified: List[SymExpr] = []
    for constraint in constraint_set:
        expr = simplify(constraint.expr)
        if expr == sym_const(0):
            stats.wall_seconds = time.monotonic() - start
            return SolverResult(False, None, stats)
        if expr == sym_const(1):
            continue
        simplified.append(expr)

    domains: Dict[str, _Domain] = {}
    for constraint in constraint_set:
        for var in variables(constraint.expr):
            domains.setdefault(var.name, _Domain(var))
    for var in extra_variables or ():
        domains.setdefault(var.name, _Domain(var))

    # Fast path: the hint may already satisfy everything.
    if domains and all(name in hint for name in domains):
        if all(try_evaluate(expr, hint) for expr in simplified):
            stats.wall_seconds = time.monotonic() - start
            return SolverResult(True, {name: hint[name] for name in domains}, stats)

    # Unary filtering: constraints over a single small-domain variable.
    for expr in simplified:
        names = [v.name for v in variables(expr)]
        if len(set(names)) != 1:
            continue
        name = names[0]
        domain = domains[name]
        if domain.size() > _MAX_ENUMERABLE_DOMAIN:
            continue
        stats.propagations += 1
        domain.restrict_to(_unary_satisfying_values(expr, name, domain))
        if domain.is_empty():
            stats.wall_seconds = time.monotonic() - start
            return SolverResult(False, None, stats)

    if not simplified:
        # No non-trivial constraints: answer with the hint / domain minima.
        assignment = {}
        for name, domain in domains.items():
            if name in hint and domain.contains(hint[name]):
                assignment[name] = hint[name]
            else:
                assignment[name] = next(iter(domain.iter_values()))
        stats.wall_seconds = time.monotonic() - start
        return SolverResult(True, assignment, stats)

    search = _Search(simplified, domains, hint, node_budget)
    search.stats = stats
    assignment = search.run()
    stats.wall_seconds = time.monotonic() - start
    if assignment is None:
        return SolverResult(False, None, stats)
    # Fill in unconstrained extra variables from the hint where possible.
    for name, domain in domains.items():
        if name not in assignment:
            if name in hint and domain.contains(hint[name]):
                assignment[name] = hint[name]
            else:
                assignment[name] = next(iter(domain.iter_values()))
    return SolverResult(True, assignment, stats)
