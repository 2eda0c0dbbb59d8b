"""Syscall event records shared by the kernel, the logger and the replayer."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Tuple


class SyscallKind(enum.Enum):
    """The syscalls the simulated kernel implements.

    The paper singles out ``read`` and ``select`` as calls whose results are
    worth logging because symbolic replay would otherwise have to search over
    their possible outcomes; the other calls are included because the
    workloads need them, and their results are deterministic given the
    simulated environment.
    """

    OPEN = "open"
    READ = "read"
    WRITE = "write"
    CLOSE = "close"
    SELECT = "select"
    ACCEPT = "accept"
    RECV = "recv"
    SEND = "send"
    LISTEN = "listen"
    GETCHAR = "getchar"
    MKDIR = "mkdir"
    MKNOD = "mknod"
    MKFIFO = "mkfifo"
    STAT = "stat"
    UNLINK = "unlink"


#: Syscalls whose results the paper's "selective system call logging" records.
LOGGED_BY_DEFAULT = frozenset({
    SyscallKind.READ,
    SyscallKind.RECV,
    SyscallKind.SELECT,
    SyscallKind.ACCEPT,
    SyscallKind.GETCHAR,
})

#: Syscalls whose outcome is non-deterministic from the program's viewpoint.
NON_DETERMINISTIC = frozenset({
    SyscallKind.READ,
    SyscallKind.RECV,
    SyscallKind.SELECT,
    SyscallKind.ACCEPT,
    SyscallKind.GETCHAR,
})


@dataclass
class SyscallEvent:
    """One executed syscall: its kind, arguments and result.

    ``result`` is the integer return value visible to the guest program.
    ``data`` carries the bytes transferred into the guest (for ``read`` and
    ``recv``); the instrumentation layer never logs these bytes (the paper
    explicitly avoids logging input data), only the return value.
    """

    kind: SyscallKind
    args: Tuple[int, ...] = ()
    result: int = 0
    data: bytes = b""
    sequence: int = 0

    def summary(self) -> str:
        return f"{self.kind.value}({', '.join(map(str, self.args))}) = {self.result}"


@dataclass
class SyscallTrace:
    """The ordered list of syscall events produced by one execution."""

    events: List[SyscallEvent] = field(default_factory=list)

    def append(self, event: SyscallEvent) -> None:
        event.sequence = len(self.events)
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, kind: SyscallKind) -> List[SyscallEvent]:
        return [e for e in self.events if e.kind is kind]
