"""The plan ledger: versioned instrumentation plans, persisted per fleet.

The paper's deployment assumes every user machine runs the *same*
instrumented binary.  Once the service starts revising plans
(:mod:`repro.planner.replanner`), that stops being true for the fleet as a
whole — but it stays true *per plan version*, and the existing
matched-binaries fingerprint check is exactly the routing mechanism a
mixed-fingerprint fleet needs: every trace carries its plan, the plan's
fingerprint identifies the generation it was recorded under, and the ledger
maps that fingerprint back to the registered version so old clients keep
uploading (and reproducing) against the plan they actually ran.

:class:`PlanLedger` is that registry.  Per program it keeps a monotonic
sequence of :class:`PlanVersion` entries — version number, parent link,
fingerprint digest, the full branch sets, and (for replanned versions) the
machine-readable :class:`~repro.planner.replanner.PlanRevision` diff that
produced it.  The ledger persists as one JSON file next to the service's
spool (``plan_ledger.json``), written canonically (sorted keys, sorted
location rows) so the same history always serializes to the same bytes —
the determinism contract the replanning tests assert.

Replanned plans carry their version in the plan's ``method`` string
(``replan/v3``): the trace format already serializes arbitrary method
strings, so the version survives the user/developer round trip without a
format change, and :func:`plan_version_of` recovers it anywhere a trace is
inspected (inbox clustering, ``trace_tool.py info``).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.instrument.plan import InstrumentationPlan
from repro.trace import write_atomic

__all__ = [
    "LEDGER_FILE",
    "PlanLedger",
    "PlanLedgerError",
    "PlanVersion",
    "plan_fingerprint_digest",
    "plan_version_of",
    "replan_method",
]

LEDGER_FILE = "plan_ledger.json"
_LEDGER_VERSION = 1

#: Method-string prefix of replanned plans; the suffix is the version number.
REPLAN_METHOD_PREFIX = "replan/v"


def replan_method(version: int) -> str:
    """The ``method`` string a replanned plan of *version* carries."""

    return f"{REPLAN_METHOD_PREFIX}{version}"


def plan_version_of(method: object) -> Optional[int]:
    """The ledger version encoded in a replanned plan's method, else None.

    Base plans (``all branches``, ``dynamic``, ...) carry no version in
    their method string — they are generation 1 by convention, but this
    returns ``None`` so callers can distinguish "explicitly versioned" from
    "deployed base".
    """

    name = method if isinstance(method, str) else getattr(method, "value", "")
    if not isinstance(name, str) or not name.startswith(REPLAN_METHOD_PREFIX):
        return None
    suffix = name[len(REPLAN_METHOD_PREFIX):]
    return int(suffix) if suffix.isdigit() else None


def plan_fingerprint_digest(plan_or_fingerprint) -> str:
    """Short stable hex digest of a plan's instrumented-branch fingerprint.

    The fingerprint tuple itself is the identity the replay engine checks;
    this digest is its JSON-friendly spelling, used wherever the identity
    must live inside a ledger, an ``inbox.json`` entry or a wire payload.
    """

    fingerprint = plan_or_fingerprint
    if hasattr(fingerprint, "fingerprint"):
        fingerprint = fingerprint.fingerprint()
    payload = repr(tuple(fingerprint)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


class PlanLedgerError(ValueError):
    """``plan_ledger.json`` cannot be read, or a value in it has the wrong
    shape; the message names the file and the key path."""


def _typed(value, kinds: tuple, where: str):
    """*value*, if its exact type is one of *kinds* (so a JSON ``true`` is
    no ``int``); else a :class:`PlanLedgerError` naming *where*."""

    if type(value) not in kinds:
        names = " or ".join("null" if kind is type(None) else kind.__name__
                            for kind in kinds)
        raise PlanLedgerError(
            f"{where}: expected {names}, got {type(value).__name__}")
    return value


_ROW_TYPES = (str, int, int, str)


def _location_rows(rows, where: str) -> List[Tuple[str, int, int, str]]:
    """*rows* as sorted ``(function, node_id, line, kind)`` tuples."""

    checked = []
    for index, row in enumerate(_typed(rows, (list, tuple), where)):
        if (type(row) not in (list, tuple) or len(row) != len(_ROW_TYPES)
                or tuple(map(type, row)) != _ROW_TYPES):
            raise PlanLedgerError(f"{where}[{index}]: expected a "
                                  f"(str, int, int, str) row, got {row!r}")
        checked.append(tuple(row))
    return sorted(checked)


@dataclass
class PlanVersion:
    """One registered plan generation of one program."""

    program: str
    version: int
    #: Version this one was replanned from; None for a deployed base plan.
    parent: Optional[int]
    method: str
    fingerprint: str
    log_syscalls: bool
    instrumented: List[Tuple[str, int, int, str]]
    all_locations: List[Tuple[str, int, int, str]]
    #: The machine-readable diff that produced this version (replans only).
    revision: Optional[Dict[str, object]] = None

    @classmethod
    def from_plan(cls, program: str, version: int, parent: Optional[int],
                  plan: InstrumentationPlan,
                  revision: Optional[Dict[str, object]] = None
                  ) -> "PlanVersion":
        rows = plan.location_tuples()
        return cls(program=program, version=version, parent=parent,
                   method=(plan.method if isinstance(plan.method, str)
                           else getattr(plan.method, "value",
                                        str(plan.method))),
                   fingerprint=plan_fingerprint_digest(plan),
                   log_syscalls=plan.log_syscalls,
                   instrumented=_location_rows(rows["instrumented"],
                                               "instrumented"),
                   all_locations=_location_rows(rows["all_locations"],
                                                "all_locations"),
                   revision=revision)

    def plan(self) -> InstrumentationPlan:
        """Rebuild the :class:`InstrumentationPlan` this version registered."""

        return InstrumentationPlan.from_location_tuples(
            self.method, self.instrumented, self.all_locations,
            log_syscalls=self.log_syscalls)

    def to_json(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "version": self.version,
            "parent": self.parent,
            "method": self.method,
            "fingerprint": self.fingerprint,
            "log_syscalls": self.log_syscalls,
            "instrumented": [list(row) for row in self.instrumented],
            "all_locations": [list(row) for row in self.all_locations],
            "revision": self.revision,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object],
                  where: str = "plan version") -> "PlanVersion":
        """A version from its :meth:`to_json` form.

        A missing key or a value of the wrong JSON type is a
        :class:`PlanLedgerError` naming *where* and the key; ``parent`` and
        ``revision`` may be absent (read as null).
        """

        _typed(payload, (dict,), where)

        def field(key: str, kinds: tuple, optional: bool = False):
            if key not in payload and not optional:
                raise PlanLedgerError(f"{where}.{key}: missing")
            return _typed(payload.get(key), kinds, f"{where}.{key}")

        nullable = type(None)
        return cls(program=field("program", (str,)),
                   version=field("version", (int,)),
                   parent=field("parent", (int, nullable), optional=True),
                   method=field("method", (str,)),
                   fingerprint=field("fingerprint", (str,)),
                   log_syscalls=field("log_syscalls", (bool,)),
                   instrumented=_location_rows(field("instrumented", (list,)),
                                               f"{where}.instrumented"),
                   all_locations=_location_rows(
                       field("all_locations", (list,)),
                       f"{where}.all_locations"),
                   revision=field("revision", (dict, nullable), optional=True))


class PlanLedger:
    """Per-program plan versions, persisted next to the service's spool."""

    def __init__(self, path: str) -> None:
        self.path = path
        #: program name -> versions in ascending version order.
        self.programs: Dict[str, List[PlanVersion]] = {}
        self._load()

    @classmethod
    def load(cls, root: str) -> "PlanLedger":
        """The ledger of a service root (``<root>/plan_ledger.json``)."""

        return cls(os.path.join(root, LEDGER_FILE))

    # -- registration -----------------------------------------------------------

    def register_base(self, program: str,
                      plan: InstrumentationPlan) -> PlanVersion:
        """Register a deployed base plan; idempotent by fingerprint.

        If a version with this plan's fingerprint is already registered the
        existing entry is returned unchanged, so feeding the same fleet
        history through twice cannot grow the ledger.
        """

        existing = self.by_fingerprint(program, plan_fingerprint_digest(plan))
        if existing is not None:
            return existing
        entry = PlanVersion.from_plan(program, self._next_version(program),
                                      parent=None, plan=plan)
        self.programs.setdefault(program, []).append(entry)
        return entry

    def register(self, program: str, plan: InstrumentationPlan,
                 revision: Dict[str, object]) -> PlanVersion:
        """Register a replanned version (parent = the current latest)."""

        latest = self.latest(program)
        entry = PlanVersion.from_plan(
            program, self._next_version(program),
            parent=latest.version if latest else None,
            plan=plan, revision=dict(revision))
        self.programs.setdefault(program, []).append(entry)
        return entry

    def _next_version(self, program: str) -> int:
        versions = self.programs.get(program)
        return versions[-1].version + 1 if versions else 1

    # -- lookups ----------------------------------------------------------------

    def latest(self, program: str) -> Optional[PlanVersion]:
        versions = self.programs.get(program)
        return versions[-1] if versions else None

    def version(self, program: str, number: int) -> Optional[PlanVersion]:
        for entry in self.programs.get(program, ()):
            if entry.version == number:
                return entry
        return None

    def by_fingerprint(self, program: str,
                       digest: str) -> Optional[PlanVersion]:
        """Route a trace's plan fingerprint to its registered version.

        This is the mixed-fleet compatibility mechanism: an old client's
        trace resolves to the (old) version it was recorded under, and the
        service verifies it against that plan instead of rejecting it.
        """

        for entry in self.programs.get(program, ()):
            if entry.fingerprint == digest:
                return entry
        return None

    def describe(self) -> Dict[str, object]:
        return {program: [{"version": e.version, "parent": e.parent,
                           "method": e.method,
                           "fingerprint": e.fingerprint,
                           "instrumented": len(e.instrumented)}
                          for e in versions]
                for program, versions in sorted(self.programs.items())}

    # -- persistence ------------------------------------------------------------

    def save(self) -> str:
        """Write the ledger atomically; canonical bytes for a given state."""

        payload = {
            "version": _LEDGER_VERSION,
            "programs": {program: [entry.to_json() for entry in versions]
                         for program, versions in sorted(self.programs.items())},
        }
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        encoded = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return write_atomic(self.path, encoded.encode("utf-8"))

    def _load(self) -> None:
        """Read the ledger file, if there is one.

        Anything but a ledger of this build's layout is a
        :class:`PlanLedgerError` naming the file and the key path: JSON
        types and required keys, each location row's shape, each program's
        versions ascending, and each ``parent`` null or an earlier version
        of the same program.
        """

        try:
            with open(self.path) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return
        except (OSError, ValueError) as exc:
            raise PlanLedgerError(
                f"unreadable plan ledger {self.path}: {exc}") from None
        where = f"{self.path}:"
        version = _typed(payload, (dict,), where).get("version")
        if type(version) is not int or version != _LEDGER_VERSION:
            raise PlanLedgerError(
                f"plan ledger version {version} unsupported "
                f"(this build reads version {_LEDGER_VERSION})")
        programs = _typed(payload.get("programs", {}), (dict,),
                          f"{where} programs")
        for program, versions in programs.items():
            name = f"{where} programs[{program!r}]"
            entries: List[PlanVersion] = []
            for index, raw in enumerate(_typed(versions, (list,), name)):
                at = f"{name}[{index}]"
                entry = PlanVersion.from_json(raw, at)
                if entry.program != program:
                    raise PlanLedgerError(
                        f"{at}.program: {entry.program!r} differs")
                if entries and entry.version <= entries[-1].version:
                    raise PlanLedgerError(
                        f"{at}.version: {entry.version} does not follow "
                        f"{entries[-1].version}")
                if entry.parent is not None and entry.parent not in {
                        earlier.version for earlier in entries}:
                    raise PlanLedgerError(
                        f"{at}.parent: {entry.parent} is no earlier version")
                entries.append(entry)
            self.programs[program] = entries
