"""A scripted network model: the httperf analogue.

The uServer workload is driven by a :class:`NetworkScript`, an ordered list of
client connections each carrying request bytes.  The script describes *what*
arrives; the :class:`NetworkModel` decides *when* it becomes visible to the
guest program (connection arrival interleaving and per-``recv`` chunking),
which is exactly the non-determinism the paper's ``select``/``read`` logging
targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class ScriptedConnection:
    """One scripted client connection."""

    request: bytes
    arrival_step: int = 0
    # Optional chunking: sizes of the successive recv() results.  Empty means
    # "deliver everything that is available" (no artificial short reads).
    chunks: Sequence[int] = ()


@dataclass
class NetworkScript:
    """The full client workload for one server execution."""

    connections: List[ScriptedConnection] = field(default_factory=list)

    @classmethod
    def from_requests(cls, requests: Sequence[bytes],
                      chunk_size: int = 0) -> "NetworkScript":
        """Build a script where request *i* arrives at step *i*.

        ``chunk_size`` > 0 forces each recv() to deliver at most that many
        bytes, exercising the short-read paths of the parser.
        """

        connections = []
        for index, request in enumerate(requests):
            chunks: Sequence[int] = ()
            if chunk_size > 0:
                chunks = [chunk_size] * ((len(request) + chunk_size - 1) // chunk_size)
            connections.append(ScriptedConnection(request=bytes(request),
                                                  arrival_step=index,
                                                  chunks=chunks))
        return cls(connections=connections)

    def total_bytes(self) -> int:
        return sum(len(c.request) for c in self.connections)

    def __len__(self) -> int:
        return len(self.connections)


class Connection:
    """Kernel-side state of one accepted connection."""

    def __init__(self, conn_id: int, request: bytes, chunks: Sequence[int] = ()) -> None:
        self.conn_id = conn_id
        self.request = request
        self.position = 0
        self.chunks = list(chunks)
        self.chunk_index = 0
        self.sent: bytes = b""
        self.closed = False

    def available(self) -> int:
        return len(self.request) - self.position

    def next_chunk_limit(self) -> Optional[int]:
        if self.chunk_index < len(self.chunks):
            return self.chunks[self.chunk_index]
        return None

    def read(self, max_bytes: int) -> bytes:
        """Consume up to *max_bytes* of the pending request bytes."""

        limit = self.next_chunk_limit()
        if limit is not None:
            max_bytes = min(max_bytes, limit)
            self.chunk_index += 1
        data = self.request[self.position:self.position + max_bytes]
        self.position += len(data)
        return data

    def write(self, data: bytes) -> int:
        self.sent += data
        return len(data)


class NetworkModel:
    """Delivers scripted connections to the guest program.

    The model exposes the three operations the kernel needs:

    * :meth:`pending_connection` — is a new client waiting to be accepted?
    * :meth:`accept` — accept the next scripted connection,
    * :meth:`readable` — does an accepted connection have unread bytes?
    """

    def __init__(self, script: Optional[NetworkScript] = None) -> None:
        self.script = script or NetworkScript()
        self._next_to_arrive = 0
        self._step = 0
        self.connections: Dict[int, Connection] = {}

    def advance(self) -> None:
        """Advance simulated time by one step (called on each select)."""

        self._step += 1

    def pending_connection(self) -> bool:
        if self._next_to_arrive >= len(self.script.connections):
            return False
        return self.script.connections[self._next_to_arrive].arrival_step <= self._step

    def accept(self, conn_id: int) -> Optional[Connection]:
        """Accept the next scripted connection under the given id."""

        if not self.pending_connection():
            return None
        scripted = self.script.connections[self._next_to_arrive]
        self._next_to_arrive += 1
        connection = Connection(conn_id, scripted.request, scripted.chunks)
        self.connections[conn_id] = connection
        return connection

    def readable(self, conn_id: int) -> bool:
        connection = self.connections.get(conn_id)
        return bool(connection and not connection.closed and connection.available() > 0)

    def close(self, conn_id: int) -> None:
        connection = self.connections.get(conn_id)
        if connection is not None:
            connection.closed = True

    def all_done(self) -> bool:
        """True when every scripted connection has arrived and been drained."""

        if self._next_to_arrive < len(self.script.connections):
            return False
        return not any(self.readable(cid) for cid in self.connections)

    def responses(self) -> Dict[int, bytes]:
        """Bytes the guest sent back on each connection (for assertions)."""

        return {cid: conn.sent for cid, conn in self.connections.items()}
