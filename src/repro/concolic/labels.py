"""Branch labels produced by the dynamic analysis."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Set

from repro.lang.cfg import BranchLocation


class BranchLabel(enum.Enum):
    """The three states a branch location can be in after dynamic analysis."""

    SYMBOLIC = "symbolic"
    CONCRETE = "concrete"
    UNVISITED = "unvisited"


@dataclass
class BranchLabels:
    """Labelling of every branch location in a program.

    The labelling follows the paper's rules: once a branch is observed with a
    symbolic condition it stays symbolic; a branch observed only with concrete
    conditions is concrete; anything never executed within the budget is
    unvisited.
    """

    all_locations: Set[BranchLocation] = field(default_factory=set)
    symbolic: Set[BranchLocation] = field(default_factory=set)
    concrete: Set[BranchLocation] = field(default_factory=set)

    @classmethod
    def for_program(cls, locations: Iterable[BranchLocation]) -> "BranchLabels":
        return cls(all_locations=set(locations))

    # -- updates ------------------------------------------------------------------

    def observe(self, location: BranchLocation, symbolic: bool) -> None:
        """Record one execution of *location*."""

        self.all_locations.add(location)
        if symbolic:
            self.symbolic.add(location)
            self.concrete.discard(location)
        elif location not in self.symbolic:
            self.concrete.add(location)

    def merge(self, other: "BranchLabels") -> None:
        """Fold another labelling into this one (same upgrade rules)."""

        self.all_locations.update(other.all_locations)
        for location in other.symbolic:
            self.observe(location, symbolic=True)
        for location in other.concrete:
            self.observe(location, symbolic=False)

    # -- queries ---------------------------------------------------------------------

    def label_of(self, location: BranchLocation) -> BranchLabel:
        if location in self.symbolic:
            return BranchLabel.SYMBOLIC
        if location in self.concrete:
            return BranchLabel.CONCRETE
        return BranchLabel.UNVISITED

    @property
    def visited(self) -> Set[BranchLocation]:
        return self.symbolic | self.concrete

    @property
    def unvisited(self) -> Set[BranchLocation]:
        return self.all_locations - self.visited

    def coverage(self) -> float:
        """Fraction of known branch locations visited at least once."""

        if not self.all_locations:
            return 0.0
        return len(self.visited) / len(self.all_locations)

    def counts(self) -> Dict[str, int]:
        return {
            "symbolic": len(self.symbolic),
            "concrete": len(self.concrete),
            "unvisited": len(self.unvisited),
            "total": len(self.all_locations),
        }

    def summary(self) -> str:
        counts = self.counts()
        return (f"{counts['symbolic']} symbolic, {counts['concrete']} concrete, "
                f"{counts['unvisited']} unvisited of {counts['total']} branch locations "
                f"({self.coverage() * 100:.1f}% coverage)")
