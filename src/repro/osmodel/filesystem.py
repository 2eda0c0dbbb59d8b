"""An in-memory filesystem for the simulated kernel.

Only the features the workloads need are implemented: named byte files,
directories (for ``mkdir``/``mknod``/``mkfifo``), sequential reads and writes,
and existence checks.  The filesystem is deterministic; non-determinism enters
only through the kernel's short-read policy and the network model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class SimulatedFile:
    """A regular file: a name and its content bytes."""

    path: str
    data: bytes = b""
    kind: str = "file"  # "file" | "dir" | "fifo" | "node"
    mode: int = 0o644

    def size(self) -> int:
        return len(self.data)


class FileSystem:
    """A flat in-memory filesystem keyed by path string."""

    def __init__(self) -> None:
        self._entries: Dict[str, SimulatedFile] = {"/": SimulatedFile("/", kind="dir")}

    # -- queries ---------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return self._normalize(path) in self._entries

    def is_dir(self, path: str) -> bool:
        entry = self._entries.get(self._normalize(path))
        return entry is not None and entry.kind == "dir"

    def get(self, path: str) -> Optional[SimulatedFile]:
        return self._entries.get(self._normalize(path))

    def listdir(self) -> List[str]:
        return sorted(self._entries)

    # -- mutation ----------------------------------------------------------------

    def add_file(self, path: str, data: bytes = b"", kind: str = "file",
                 mode: int = 0o644) -> SimulatedFile:
        """Create (or replace) an entry; parent directories are implicit."""

        path = self._normalize(path)
        entry = SimulatedFile(path=path, data=data, kind=kind, mode=mode)
        self._entries[path] = entry
        return entry

    def mkdir(self, path: str, mode: int = 0o755) -> bool:
        """Create a directory; returns False if the path already exists."""

        path = self._normalize(path)
        if path in self._entries:
            return False
        parent = self._parent(path)
        if parent not in self._entries or self._entries[parent].kind != "dir":
            return False
        self._entries[path] = SimulatedFile(path=path, kind="dir", mode=mode)
        return True

    def mknod(self, path: str, mode: int = 0o644, kind: str = "node") -> bool:
        path = self._normalize(path)
        if path in self._entries:
            return False
        self._entries[path] = SimulatedFile(path=path, kind=kind, mode=mode)
        return True

    def unlink(self, path: str) -> bool:
        path = self._normalize(path)
        if path not in self._entries or path == "/":
            return False
        del self._entries[path]
        return True

    def write(self, path: str, data: bytes, append: bool = False) -> int:
        path = self._normalize(path)
        entry = self._entries.get(path)
        if entry is None:
            entry = self.add_file(path)
        if append:
            entry.data += data
        else:
            entry.data = data
        return len(data)

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _normalize(path: str) -> str:
        if not path.startswith("/"):
            path = "/" + path
        while "//" in path:
            path = path.replace("//", "/")
        if len(path) > 1 and path.endswith("/"):
            path = path[:-1]
        return path

    @classmethod
    def _parent(cls, path: str) -> str:
        path = cls._normalize(path)
        if path == "/":
            return "/"
        head = path.rsplit("/", 1)[0]
        return head or "/"

    def snapshot(self) -> Dict[str, bytes]:
        """Path -> content map, used by tests to assert program effects."""

        return {path: entry.data for path, entry in self._entries.items()}

    def entries(self) -> List[SimulatedFile]:
        """Every entry except the implicit root, in insertion order.

        Unlike :meth:`snapshot` this keeps the entry *kind* (file, dir, fifo,
        node) and mode, which an :class:`~repro.environment.Environment`
        records to rebuild a behaviourally identical filesystem per run.
        """

        return [entry for path, entry in self._entries.items() if path != "/"]
