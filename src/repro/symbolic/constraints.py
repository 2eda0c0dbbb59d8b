"""Constraint sets: ordered conjunctions of branch conditions.

A :class:`ConstraintSet` corresponds to the paper's "constraint set associated
with a run": the conjunction of the conditions for the branch directions taken
so far.  The replay engine additionally keeps a list of *pending* constraint
sets describing unexplored alternatives (see
:mod:`repro.replay.pending`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.symbolic.expr import SymExpr, SymVar, sym_const
from repro.symbolic.simplify import simplify, try_evaluate, variables


@dataclass(frozen=True)
class Constraint:
    """A single boolean condition, tagged with where it came from.

    ``origin`` records the branch location id (AST node id) whose evaluation
    produced the condition, or 0 when the constraint came from a syscall model
    or was synthesised by the solver front-end.
    """

    expr: SymExpr
    origin: int = 0
    description: str = ""

    _entry = None  # the cached signature entry; not a field

    def entry(self) -> Tuple[int, str]:
        """``(origin, rendered expression)``: this constraint's signature entry.

        Rendered once and kept on the constraint (never pickled), so the
        signature of every set sharing it costs one lookup per constraint.
        """

        entry = self._entry
        if entry is None:
            entry = self.__dict__["_entry"] = (self.origin, str(self.expr))
        return entry

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items()
                if name[0] != "_"}

    def negated(self) -> "Constraint":
        return Constraint(self.expr.negated(), self.origin,
                          description=f"not({self.description})" if self.description else "")

    def __str__(self) -> str:
        return str(self.expr)


# ---------------------------------------------------------------------------
# Constraint-prefix interning
# ---------------------------------------------------------------------------
#
# The replay engine's pending items are overwhelmingly *prefix-sharing*: a
# run's alternatives extend the run's own constraint set, and items restored
# from a search checkpoint are structurally equal to the ones saved — but,
# having crossed a pickle boundary, share no objects with the alternatives
# the resumed search produces.  The intern table below hash-conses
# constraint chains: position ``k`` of a chain is canonicalized by the
# *identity* of position ``k-1``'s canonical constraint plus its own
# ``(origin, expr)`` signature entry, so two sets with equal prefixes
# resolve to the very same :class:`Constraint` objects.  That restores object
# sharing across pending items (pickling a batch of items stores each shared
# prefix constraint only once, shrinking every checkpoint's pending section)
# and bounds memory when thousands of items queue up.

#: ``(id(parent canonical), origin, rendered expr) -> canonical Constraint``.
_INTERN_CHAIN: Dict[Tuple, Constraint] = {}
_INTERN_LOCK = threading.Lock()
_INTERN_STATS = {"hits": 0, "misses": 0}
#: Safety valve: clearing the table only costs future sharing, never
#: correctness, so cap it instead of growing without bound.
_INTERN_MAX_ENTRIES = 200_000


def intern_stats() -> Dict[str, int]:
    """Hit/miss counters of the process-wide constraint intern table."""

    with _INTERN_LOCK:
        return dict(_INTERN_STATS)


class ConstraintSet:
    """An ordered, append-only conjunction of :class:`Constraint` objects."""

    def __init__(self, constraints: Optional[Iterable[Constraint]] = None) -> None:
        self._constraints: List[Constraint] = list(constraints or ())

    # -- construction ----------------------------------------------------------

    def add(self, constraint: Constraint) -> None:
        """Append a constraint to the conjunction."""

        self._constraints.append(constraint)
        self._interned = False

    def add_expr(self, expr: SymExpr, origin: int = 0, description: str = "") -> None:
        self.add(Constraint(simplify(expr), origin, description))

    def extended(self, constraint: Constraint) -> "ConstraintSet":
        """Return a copy of this set with one extra constraint appended."""

        clone = ConstraintSet(self._constraints)
        clone.add(constraint)
        return clone

    def copy(self) -> "ConstraintSet":
        return ConstraintSet(self._constraints)

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __getitem__(self, index: int) -> Constraint:
        return self._constraints[index]

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        return tuple(self._constraints)

    def signature(self) -> Tuple[Tuple[int, str], ...]:
        """A stable structural identity of the conjunction.

        ``(origin, rendered expression)`` per constraint, in order.  The
        rendering is purely structural, so the signature survives pickling —
        a pending item shipped to a replay worker process and back
        deduplicates exactly like one that never left the engine.  Cached per
        length: the set is append-only, so the length identifies its content
        for any one instance.
        """

        cached = getattr(self, "_signature", None)
        if cached is None or cached[0] != len(self._constraints):
            signature = tuple(c.entry() for c in self._constraints)
            cached = (len(self._constraints), signature)
            self._signature = cached
        return cached[1]

    def expressions(self) -> List[SymExpr]:
        return [c.expr for c in self._constraints]

    def all_variables(self) -> List[SymVar]:
        """Every variable referenced by the conjunction, deduplicated by name."""

        seen = {}
        for constraint in self._constraints:
            for var in variables(constraint.expr):
                seen.setdefault(var.name, var)
        return list(seen.values())

    def is_trivially_unsat(self) -> bool:
        """True when some constraint simplifies to the constant 0."""

        for constraint in self._constraints:
            simplified = simplify(constraint.expr)
            if simplified == sym_const(0):
                return True
        return False

    def satisfied_by(self, assignment: Mapping[str, int]) -> bool:
        """Check whether *assignment* satisfies every constraint.

        Unassigned variables make the check return ``False`` (the assignment is
        not a witness).
        """

        for constraint in self._constraints:
            value = try_evaluate(constraint.expr, assignment)
            if not value:
                return False
        return True

    def prefix(self, length: int) -> "ConstraintSet":
        """The conjunction of the first *length* constraints."""

        return ConstraintSet(self._constraints[:length])

    def interned(self) -> "ConstraintSet":
        """A structurally equal set backed by canonical shared constraints.

        Every prefix of the returned set resolves to the same
        :class:`Constraint` objects as any other interned set with that
        prefix — even when this set arrived from another process and shares
        nothing by identity.  The original set is left untouched; interning
        is pure canonicalization (the signature, and therefore pending-list
        dedup, is unchanged).
        """

        if getattr(self, "_interned", False):
            return self
        signature = self.signature()
        out: List[Constraint] = []
        parent_key = 0
        with _INTERN_LOCK:
            if len(_INTERN_CHAIN) > _INTERN_MAX_ENTRIES:
                _INTERN_CHAIN.clear()
            for constraint, entry in zip(self._constraints, signature):
                key = (parent_key, entry[0], entry[1])
                canonical = _INTERN_CHAIN.get(key)
                if canonical is None:
                    # First time this chain is seen: this set's own
                    # constraint becomes the canonical one.  Its id stays
                    # valid for as long as the table holds the reference.
                    _INTERN_CHAIN[key] = canonical = constraint
                    _INTERN_STATS["misses"] += 1
                else:
                    _INTERN_STATS["hits"] += 1
                out.append(canonical)
                parent_key = id(canonical)
        clone = ConstraintSet(out)
        clone._signature = (len(out), signature)
        clone._interned = True
        return clone

    def with_negated_last(self) -> "ConstraintSet":
        """Negate the final constraint (the classic concolic "flip")."""

        if not self._constraints:
            raise ValueError("cannot negate the last constraint of an empty set")
        flipped = ConstraintSet(self._constraints[:-1])
        flipped.add(self._constraints[-1].negated())
        return flipped

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return " && ".join(str(c) for c in self._constraints) or "true"
