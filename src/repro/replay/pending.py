"""The pending list of unexplored constraint sets (§3.1).

Whenever replay encounters an alternative it does not follow (an uninstrumented
symbolic branch, or a mismatch against the recorded bitvector), it pushes a
constraint set describing the unexplored direction onto the pending list.  When
a run aborts, the engine pops an entry, solves it, and starts a new run with
the resulting input.  Pops are depth-first, as in the paper: repair in place
continues a run only when the next pop is the alternative that run's commit
just pushed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.symbolic.constraints import ConstraintSet


@dataclass
class PendingItem:
    """One unexplored alternative path.

    Items are plain data end to end — constraint sets, hint assignments,
    bookkeeping ints — so they pickle: a search checkpoint carries the
    pending list, and the items it restores are indistinguishable from the
    ones it saved (the dedup signature below is structural, not
    identity-based).
    """

    constraints: ConstraintSet
    hint: Dict[str, int] = field(default_factory=dict)
    depth: int = 0
    origin_run: int = 0
    reason: str = ""

    def signature(self) -> Tuple:
        return self.constraints.signature()


class PendingList:
    """A de-duplicating stack of :class:`PendingItem` objects."""

    def __init__(self, max_size: int = 5_000) -> None:
        self.max_size = max_size
        self._items: List[PendingItem] = []
        self._seen: Set[Tuple] = set()
        self.dropped = 0
        self.duplicates = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, item: PendingItem) -> bool:
        """Add an item unless it duplicates one already scheduled."""

        signature = item.signature()
        if signature in self._seen:
            self.duplicates += 1
            return False
        if len(self._items) >= self.max_size:
            self.dropped += 1
            return False
        self._seen.add(signature)
        self._items.append(item)
        return True

    def pop(self) -> Optional[PendingItem]:
        if not self._items:
            return None
        return self._items.pop()

    def stats(self) -> Dict[str, int]:
        return {"pending": len(self._items), "dropped": self.dropped,
                "duplicates": self.duplicates}
