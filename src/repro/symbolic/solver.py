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
from typing import (AbstractSet, Dict, FrozenSet, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Set, Tuple)

from repro.symbolic.constraints import Constraint, ConstraintSet
from repro.symbolic.expr import SymBinOp, SymConst, SymExpr, SymUnOp, SymVar
from repro.symbolic.simplify import (compiled, simplify, substitute,
                                     try_evaluate, variable_names, variables)

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


#: :attr:`SolverResult.status` values.  ``unknown`` is a give-up, not a
#: proof: the node budget ran out, or a domain too wide to enumerate was
#: only probed.
SAT, UNSAT, UNKNOWN = "sat", "unsat", "unknown"


@dataclass
class SolverResult:
    """Outcome of a ``solve`` call."""

    status: str
    assignment: Optional[Dict[str, int]]
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def satisfiable(self) -> bool:
        return self.status == SAT

    def __bool__(self) -> bool:
        return self.satisfiable


class _Domain:
    """A candidate-value domain for one variable."""

    def __init__(self, var: SymVar) -> None:
        self.var = var
        self.lo = var.lo
        self.hi = var.hi
        # When a constraint pins the variable to a small candidate set, we
        # switch to explicit enumeration.  The set may be the unary-filter
        # cache's own, so it is replaced, never mutated.
        self.candidates: Optional[AbstractSet[int]] = None

    def size(self) -> int:
        if self.candidates is not None:
            return len(self.candidates)
        return max(0, self.hi - self.lo + 1)

    def is_empty(self) -> bool:
        return self.size() == 0

    def is_probed(self) -> bool:
        """True when :meth:`iter_values` tries only a few probe values."""

        return (self.candidates is None
                and self.hi - self.lo + 1 > _MAX_ENUMERABLE_DOMAIN)

    def contains(self, value: int) -> bool:
        if self.candidates is not None:
            return value in self.candidates
        return self.lo <= value <= self.hi

    def restrict_to(self, values: FrozenSet[int]) -> None:
        """Keep only *values*, a set of values inside ``[lo, hi]``."""

        if self.candidates is None:
            self.candidates = values
        else:
            # C-speed intersection; same result as filtering via contains().
            self.candidates = self.candidates.intersection(values)

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
        if not self.is_probed():
            for value in range(self.lo, self.hi + 1):
                if value not in emitted:
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


def _unary_satisfying_values(expr: SymExpr, name: str,
                             domain: "_Domain") -> FrozenSet[int]:
    """Values satisfying the single-variable constraint *expr*.

    ``Domain.restrict_to`` intersects with the current domain, so answering
    from the variable's *base* interval (cacheable across solve calls) and
    answering from the current (possibly already narrowed) domain produce the
    same restriction.  Domains whose base interval is too wide to enumerate
    fall back to filtering the current (already small) domain, uncached.
    """

    width = domain.hi - domain.lo + 1
    if width > _MAX_ENUMERABLE_DOMAIN:
        return _satisfying(expr, name, domain.iter_values())
    key = (expr, domain.lo, domain.hi)
    cached = _UNARY_FILTER_CACHE.get(key)
    if cached is None:
        if len(_UNARY_FILTER_CACHE) >= _UNARY_FILTER_CACHE_LIMIT:
            _UNARY_FILTER_CACHE.clear()
        cached = _satisfying(expr, name, range(domain.lo, domain.hi + 1))
        _UNARY_FILTER_CACHE[key] = cached
    return cached


def _satisfying(expr: SymExpr, name: str,
                values: Iterable[int]) -> FrozenSet[int]:
    """The *values* of variable *name* under which *expr* holds."""

    check = compiled(expr)
    probe = {name: 0}
    found = []
    for value in values:
        probe[name] = value
        try:
            if check(probe):
                found.append(value)
        except (KeyError, ZeroDivisionError):
            pass
    return frozenset(found)


def _nontrivial(constraints: Iterable[Constraint]) -> Optional[List[SymExpr]]:
    """The simplified constraints minus the constant-true ones.

    None when one simplifies to the constant 0: the set is unsatisfiable.
    """

    out: List[SymExpr] = []
    for constraint in constraints:
        expr = simplify(constraint.expr)
        if type(expr) is SymConst:
            if expr.value == 0:
                return None
            if expr.value == 1:
                continue
        out.append(expr)
    return out


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
        #: Set when a variable that constraints mention was searched over
        #: probe values only: a failed search is then no proof.
        self.incomplete = False
        # The full-assignment check of each constraint.
        self.checks = [compiled(expr) for expr in constraints]
        # Map variable name -> indices of constraints that mention it.
        self.by_var: Dict[str, List[int]] = {name: [] for name in domains}
        self.constraint_vars: List[FrozenSet[str]] = []
        for index, expr in enumerate(constraints):
            names = variable_names(expr)
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
        checks = self.checks
        for index in self.by_var[name]:
            free = free_counts[index]
            if free == 0:
                try:
                    if not checks[index](assignment):
                        return False
                except (KeyError, ZeroDivisionError):
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
                    domain = self.domains[name]
                    if domain.is_probed() and self.by_var[name]:
                        self.incomplete = True
                    frames.append((name, iter(domain.iter_values(
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


def _first_occurrences(constraints: Sequence[Constraint],
                       names: AbstractSet[str]) -> Dict[str, Tuple[int, SymVar]]:
    """``name -> (position, variable)`` of each name's first occurrence.

    A variable's domain is that of its first occurrence in the set, as in
    :func:`solve`.
    """

    first: Dict[str, Tuple[int, SymVar]] = {}
    remaining = set(names)
    for position, constraint in enumerate(constraints):
        if not remaining:
            break
        if variable_names(constraint.expr).isdisjoint(remaining):
            continue
        for var in variables(constraint.expr):
            if var.name in remaining:
                first[var.name] = (position, var)
                remaining.discard(var.name)
    return first


def warm_start_assignment(constraint_set: ConstraintSet,
                          hint: Mapping[str, int],
                          satisfied_prefix: int = 0) -> Optional[Dict[str, int]]:
    """Satisfy *constraint_set* by changing at most one variable of *hint*.

    The replay engine's pending items differ from their parent run in exactly
    one flipped branch condition, and the parent's concrete input (the hint)
    satisfies every other constraint.  When the constraints touched by the
    flip are *unary* — one input byte compared against constants, the dominant
    shape in the uServer/coreutils parsers — the full backtracking search is
    overkill: enumerate that variable's filtered domain and keep the hint for
    everything else.

    *satisfied_prefix* is the caller's guarantee that the hint satisfies the
    first ``satisfied_prefix`` constraints and binds every variable they
    mention inside its domain.  Only the remaining constraints are then
    evaluated against the hint, and the flipped variable's other constraints
    are found from the cached variable-name sets, without walking a tree.
    Both engines pass ``len(constraint_set) - 1``: every pending item and
    every concolic flip is a run's own path prefix plus one negated
    constraint, with that run's input as the hint.  The default of 0
    guarantees nothing and checks everything.

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
    constraints = constraint_set.constraints
    head = _nontrivial(constraints[:satisfied_prefix])
    tail = _nontrivial(constraints[satisfied_prefix:])
    if head is None or tail is None:
        return None  # unsatisfiable: let solve() report it
    if not head and not tail:
        return None  # solve()'s trivial path is already cheap

    # Every variable needs a hint value inside its domain, or solve() would
    # have to invent one or skip the hint's.  The prefix's variables have one.
    checked: Set[str] = set()
    for constraint in constraints[satisfied_prefix:]:
        checked.update(variable_names(constraint.expr))
    first = _first_occurrences(constraints, checked)
    for name in checked:
        if name not in hint:
            return None
        position, var = first[name]
        if position >= satisfied_prefix and not var.lo <= hint[name] <= var.hi:
            return None

    unsatisfied = [expr for expr in tail if not try_evaluate(expr, hint)]
    if not unsatisfied:
        # The hint satisfies everything; solve()'s fast path returns it as-is.
        return dict(hint)

    flip_names: Set[str] = set()
    for expr in unsatisfied:
        flip_names.update(variable_names(expr))
    if len(flip_names) != 1:
        return None
    (flip,) = flip_names
    # Every constraint mentioning the flip variable must be unary in it;
    # otherwise changing the flip value can break a multi-variable constraint
    # and solve() might instead move one of the *other* variables.
    relevant = [expr for expr in head + tail if flip in variable_names(expr)]
    if any(len(variable_names(expr)) != 1 for expr in relevant):
        return None

    domain = _Domain(first[flip][1])
    if domain.size() <= _MAX_ENUMERABLE_DOMAIN:
        # Mirror solve()'s unary filtering (same candidate order afterwards).
        for expr in relevant:
            domain.restrict_to(_unary_satisfying_values(expr, flip, domain))
            if domain.is_empty():
                return None
    preferred: List[int] = [hint[flip]]
    for expr in relevant:
        preferred.extend(sorted(_interesting_values(expr)))
    probe = {flip: 0}
    for value in domain.iter_values(preferred):
        probe[flip] = value
        if all(try_evaluate(expr, probe) for expr in relevant):
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

    The result's :attr:`~SolverResult.status` is ``sat`` with an assignment,
    ``unsat`` when the set is proven unsatisfiable, or ``unknown`` when the
    solver gave up: the node budget ran out, or a variable whose domain is
    wider than 4,096 values was searched over a few probe values only.
    """

    start = time.monotonic()
    hint = dict(hint or {})
    stats = SolverStats()

    def finish(status: str,
               assignment: Optional[Dict[str, int]] = None) -> SolverResult:
        stats.wall_seconds = time.monotonic() - start
        return SolverResult(status, assignment, stats)

    simplified = _nontrivial(constraint_set)
    if simplified is None:
        return finish(UNSAT)

    domains: Dict[str, _Domain] = {}
    for constraint in constraint_set:
        for var in variables(constraint.expr):
            if var.name not in domains:
                domains[var.name] = _Domain(var)
    for var in extra_variables or ():
        if var.name not in domains:
            domains[var.name] = _Domain(var)

    # Fast path: the hint may already satisfy everything.
    if domains and all(name in hint for name in domains):
        if all(try_evaluate(expr, hint) for expr in simplified):
            return finish(SAT, {name: hint[name] for name in domains})

    # Unary filtering: constraints over a single small-domain variable.
    for expr in simplified:
        names = variable_names(expr)
        if len(names) != 1:
            continue
        (name,) = names
        domain = domains[name]
        if domain.size() > _MAX_ENUMERABLE_DOMAIN:
            continue
        stats.propagations += 1
        domain.restrict_to(_unary_satisfying_values(expr, name, domain))
        if domain.is_empty():
            return finish(UNSAT)

    if not simplified:
        # No non-trivial constraints: answer with the hint / domain minima.
        assignment = {}
        for name, domain in domains.items():
            if name in hint and domain.contains(hint[name]):
                assignment[name] = hint[name]
            else:
                assignment[name] = next(iter(domain.iter_values()))
        return finish(SAT, assignment)

    search = _Search(simplified, domains, hint, node_budget)
    search.stats = stats
    assignment = search.run()
    if assignment is None:
        gave_up = stats.budget_exhausted or search.incomplete
        return finish(UNKNOWN if gave_up else UNSAT)
    # Fill in unconstrained extra variables from the hint where possible.
    for name, domain in domains.items():
        if name not in assignment:
            if name in hint and domain.contains(hint[name]):
                assignment[name] = hint[name]
            else:
                assignment[name] = next(iter(domain.iter_values()))
    return finish(SAT, assignment)
