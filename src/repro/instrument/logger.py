"""Runtime logging: the branch bitvector and the selective syscall-result log.

The paper's instrumentation writes one bit per executed instrumented branch
into a 4 KB in-memory buffer that is flushed to disk when full (§4).  The
:class:`BranchLogger` reproduces that behaviour as an interpreter hook and
accounts for buffer flushes so the storage model can charge for them.

The :class:`SyscallResultLog` records the integer results of the syscalls in
:data:`repro.osmodel.syscalls.LOGGED_BY_DEFAULT` (``read``/``recv`` return
values, ``select`` ready descriptor, ``accept`` result) — never the transferred
data itself, matching the paper's privacy constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.instrument.plan import InstrumentationPlan
from repro.interp.tracer import BranchEvent, ExecutionHooks
from repro.lang.cfg import BranchLocation
from repro.osmodel.syscalls import LOGGED_BY_DEFAULT, SyscallEvent, SyscallKind

LOG_BUFFER_BYTES = 4096
"""Size of the in-memory branch-log buffer before it is flushed (the paper
uses a 4 KB buffer)."""


@dataclass
class BitvectorLog:
    """The branch log: one bit per executed instrumented branch, in order."""

    bits: List[bool] = field(default_factory=list)
    flushes: int = 0

    def append(self, taken: bool) -> None:
        self.bits.append(bool(taken))
        if len(self.bits) % (LOG_BUFFER_BYTES * 8) == 0:
            self.flushes += 1

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[bool]:
        return iter(self.bits)

    def __getitem__(self, index: int) -> bool:
        return self.bits[index]

    def storage_bytes(self) -> int:
        """Bytes needed to store the bitvector (rounded up to whole bytes)."""

        return (len(self.bits) + 7) // 8

    def to_bytes(self) -> bytes:
        """Pack the bitvector into bytes (LSB-first within each byte)."""

        out = bytearray((len(self.bits) + 7) // 8)
        for index, bit in enumerate(self.bits):
            if bit:
                out[index // 8] |= 1 << (index % 8)
        return bytes(out)

    @classmethod
    def from_bits(cls, bits: Sequence[bool]) -> "BitvectorLog":
        log = cls()
        for bit in bits:
            log.append(bool(bit))
        return log

    @classmethod
    def from_bytes(cls, data: bytes, bit_count: int) -> "BitvectorLog":
        """Inverse of :meth:`to_bytes`: unpack *bit_count* LSB-first bits.

        Rebuilds the flush count the way :meth:`append` would have, so a
        round-tripped log is indistinguishable from the original (the trace
        serializer and the engine spec that checkpoints carry rely on this).
        """

        if bit_count > len(data) * 8:
            raise ValueError(
                f"bitvector payload too short: {len(data)} bytes cannot hold "
                f"{bit_count} bits")
        log = cls()
        log.bits = [bool(data[index // 8] & (1 << (index % 8)))
                    for index in range(bit_count)]
        log.flushes = bit_count // (LOG_BUFFER_BYTES * 8)
        return log


@dataclass
class SyscallResultLog:
    """Ordered per-kind log of syscall results (integers only, never data)."""

    results: Dict[SyscallKind, List[int]] = field(default_factory=dict)
    logged_kinds: frozenset = LOGGED_BY_DEFAULT

    def record(self, event: SyscallEvent) -> None:
        if event.kind in self.logged_kinds:
            self.results.setdefault(event.kind, []).append(event.result)

    def count(self) -> int:
        return sum(len(values) for values in self.results.values())

    def storage_bytes(self) -> int:
        """4 bytes per logged result (a 32-bit integer each)."""

        return 4 * self.count()

    def of_kind(self, kind: SyscallKind) -> List[int]:
        return list(self.results.get(kind, ()))

    def cursor(self) -> "SyscallLogCursor":
        return SyscallLogCursor(self)

    def to_payload(self) -> Dict[str, List[int]]:
        """Plain ``{kind name: [results]}`` map for serialization."""

        return {kind.value: list(values) for kind, values in self.results.items()}

    @classmethod
    def from_payload(cls, payload: Dict[str, List[int]],
                     logged_kinds: Optional[Sequence[str]] = None) -> "SyscallResultLog":
        """Inverse of :meth:`to_payload` (kind names back to ``SyscallKind``)."""

        log = cls(results={SyscallKind(name): list(values)
                           for name, values in payload.items()})
        if logged_kinds is not None:
            log.logged_kinds = frozenset(SyscallKind(name) for name in logged_kinds)
        return log


class SyscallLogCursor:
    """Sequential reader used by the replay engine to consume logged results."""

    def __init__(self, log: SyscallResultLog) -> None:
        self._log = log
        self._positions: Dict[SyscallKind, int] = {}

    def next_result(self, kind: SyscallKind) -> Optional[int]:
        values = self._log.results.get(kind)
        if values is None:
            return None
        position = self._positions.get(kind, 0)
        if position >= len(values):
            return None
        self._positions[kind] = position + 1
        return values[position]

    def remaining(self, kind: SyscallKind) -> int:
        values = self._log.results.get(kind, [])
        return len(values) - self._positions.get(kind, 0)


class BranchLogger(ExecutionHooks):
    """Interpreter hook implementing the user-site instrumentation runtime.

    With the tree-walking interpreter (or the VM on unspecialized code) the
    logger filters every :meth:`on_branch` event against the plan.  The
    bytecode VM instead recognises ``vm_inline = "record"`` and runs
    plan-specialized code that appends bits straight onto
    ``self.bitvector.bits`` and counts per-slot executions inline, calling
    :meth:`vm_merge` once at the end of the run — same observable state, no
    per-branch hook dispatch.
    """

    #: Opt-in marker for the VM's inline record fast path.
    vm_inline = "record"

    def __init__(self, plan: InstrumentationPlan) -> None:
        self.plan = plan
        self.bitvector = BitvectorLog()
        self.syscall_log = SyscallResultLog()
        self.instrumented_executions = 0
        self.total_branch_executions = 0
        self.per_location_executions: Dict[BranchLocation, int] = {}

    def on_branch(self, event: BranchEvent) -> None:
        self.total_branch_executions += 1
        if not self.plan.is_instrumented(event.location):
            return
        self.instrumented_executions += 1
        self.per_location_executions[event.location] = (
            self.per_location_executions.get(event.location, 0) + 1)
        self.bitvector.append(event.taken)

    def on_syscall(self, event: SyscallEvent) -> None:
        if self.plan.log_syscalls:
            self.syscall_log.record(event)

    # -- VM inline-record integration ---------------------------------------------------

    def vm_can_inline(self) -> bool:
        """The inline fast path requires a fresh logger (one logger per run)."""

        return (not self.bitvector.bits and not self.total_branch_executions
                and not self.instrumented_executions
                and not self.per_location_executions)

    def vm_merge(self, total_branch_executions: int, locations: Sequence,
                 slot_counts: Sequence[int]) -> None:
        """Fold the VM's inline per-run state into the logger's statistics.

        The VM appended bits directly onto ``self.bitvector.bits`` (bypassing
        :meth:`BitvectorLog.append` and its flush bookkeeping) and counted
        executions per logged branch slot (the ``slot`` operand of the
        stream's branch opcodes); this recomputes the flush count and
        rebuilds the per-location tallies exactly as per-event dispatch
        would have.
        """

        self.total_branch_executions += total_branch_executions
        self.bitvector.flushes = len(self.bitvector.bits) // (LOG_BUFFER_BYTES * 8)
        per_location = self.per_location_executions
        for slot, count in enumerate(slot_counts):
            if count:
                self.instrumented_executions += count
                location = locations[slot]
                per_location[location] = per_location.get(location, 0) + count

    # -- storage accounting ------------------------------------------------------------

    def storage_bytes(self) -> int:
        total = self.bitvector.storage_bytes()
        if self.plan.log_syscalls:
            total += self.syscall_log.storage_bytes()
        return total
