"""The simulated kernel: the syscall layer the MiniC builtins call into.

The kernel owns the filesystem, the network model, the file-descriptor table
and standard input/output.  Every syscall is recorded in a
:class:`~repro.osmodel.syscalls.SyscallTrace` so that the instrumentation layer
can later decide which results to log (the paper's "selective system call
logging").

The kernel itself is deterministic given its inputs; the non-determinism the
paper worries about comes from the *program's* point of view: it cannot predict
how many bytes ``read``/``recv`` return or which descriptor ``select`` reports
ready, so those results must either be logged or searched for during replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.osmodel.filesystem import FileSystem
from repro.osmodel.network import Connection, NetworkModel, NetworkScript
from repro.osmodel.syscalls import SyscallEvent, SyscallKind, SyscallTrace

FD_STDIN = 0
FD_STDOUT = 1
FD_STDERR = 2


@dataclass
class KernelConfig:
    """Tunables for the simulated kernel."""

    stdin_data: bytes = b""
    # 0 means "no artificial short reads": read()/recv() return everything
    # available up to the requested size.  A positive value caps every
    # transfer, which exercises the short-read handling of the workloads.
    read_chunk_limit: int = 0
    # Maximum select() calls that may return -1 (nothing ready) in a row
    # before the kernel reports the workload as finished; keeps buggy guest
    # loops from spinning forever.
    max_idle_selects: int = 16


@dataclass
class _Descriptor:
    """One open file descriptor."""

    fd: int
    kind: str  # "file" | "conn" | "listen" | "stdin" | "stdout" | "stderr"
    path: str = ""
    offset: int = 0
    connection: Optional[Connection] = None


class Kernel:
    """The simulated kernel instance backing one program execution."""

    def __init__(self, filesystem: Optional[FileSystem] = None,
                 network: Optional[NetworkModel] = None,
                 config: Optional[KernelConfig] = None) -> None:
        self.fs = filesystem or FileSystem()
        self.net = network or NetworkModel(NetworkScript())
        self.config = config or KernelConfig()
        self.trace = SyscallTrace()
        self.stdout = bytearray()
        self.stderr = bytearray()
        self._stdin_pos = 0
        self._fd_table: Dict[int, _Descriptor] = {
            FD_STDIN: _Descriptor(FD_STDIN, "stdin"),
            FD_STDOUT: _Descriptor(FD_STDOUT, "stdout"),
            FD_STDERR: _Descriptor(FD_STDERR, "stderr"),
        }
        self._next_fd = 3
        self._idle_selects = 0

    # -- helpers -----------------------------------------------------------------

    def _alloc_fd(self, descriptor: _Descriptor) -> int:
        fd = self._next_fd
        self._next_fd += 1
        descriptor.fd = fd
        self._fd_table[fd] = descriptor
        return fd

    def _record(self, kind: SyscallKind, args: Tuple[int, ...], result: int,
                data: bytes = b"") -> int:
        self.trace.append(SyscallEvent(kind=kind, args=args, result=result, data=data))
        return result

    def descriptor(self, fd: int) -> Optional[_Descriptor]:
        return self._fd_table.get(fd)

    def stdout_text(self) -> str:
        return self.stdout.decode("utf-8", errors="replace")

    # -- file syscalls --------------------------------------------------------------

    def sys_open(self, path: str, flags: int = 0) -> int:
        entry = self.fs.get(path)
        if entry is None or entry.kind == "dir":
            return self._record(SyscallKind.OPEN, (flags,), -1)
        fd = self._alloc_fd(_Descriptor(-1, "file", path=path))
        return self._record(SyscallKind.OPEN, (flags,), fd)

    def sys_read(self, fd: int, nbytes: int) -> Tuple[int, bytes]:
        """Read up to *nbytes*; returns ``(count, data)`` with count -1 on error."""

        descriptor = self._fd_table.get(fd)
        if descriptor is None:
            self._record(SyscallKind.READ, (fd, nbytes), -1)
            return -1, b""
        if descriptor.kind == "stdin":
            data = self.config.stdin_data[self._stdin_pos:self._stdin_pos + nbytes]
            if self.config.read_chunk_limit:
                data = data[: self.config.read_chunk_limit]
            self._stdin_pos += len(data)
            self._record(SyscallKind.READ, (fd, nbytes), len(data), data)
            return len(data), data
        if descriptor.kind == "conn":
            return self._recv_from(descriptor, fd, nbytes, SyscallKind.READ)
        if descriptor.kind != "file":
            self._record(SyscallKind.READ, (fd, nbytes), -1)
            return -1, b""
        entry = self.fs.get(descriptor.path)
        if entry is None:
            self._record(SyscallKind.READ, (fd, nbytes), -1)
            return -1, b""
        limit = nbytes
        if self.config.read_chunk_limit:
            limit = min(limit, self.config.read_chunk_limit)
        data = entry.data[descriptor.offset:descriptor.offset + limit]
        descriptor.offset += len(data)
        self._record(SyscallKind.READ, (fd, nbytes), len(data), data)
        return len(data), data

    def sys_write(self, fd: int, data: bytes) -> int:
        descriptor = self._fd_table.get(fd)
        if descriptor is None:
            return self._record(SyscallKind.WRITE, (fd, len(data)), -1)
        if descriptor.kind == "stdout":
            self.stdout.extend(data)
        elif descriptor.kind == "stderr":
            self.stderr.extend(data)
        elif descriptor.kind == "conn" and descriptor.connection is not None:
            descriptor.connection.write(data)
        elif descriptor.kind == "file":
            entry = self.fs.get(descriptor.path)
            if entry is None:
                return self._record(SyscallKind.WRITE, (fd, len(data)), -1)
            entry.data += data
        else:
            return self._record(SyscallKind.WRITE, (fd, len(data)), -1)
        return self._record(SyscallKind.WRITE, (fd, len(data)), len(data))

    def sys_close(self, fd: int) -> int:
        descriptor = self._fd_table.pop(fd, None)
        if descriptor is None:
            return self._record(SyscallKind.CLOSE, (fd,), -1)
        if descriptor.kind == "conn":
            self.net.close(descriptor.connection.conn_id if descriptor.connection else fd)
        return self._record(SyscallKind.CLOSE, (fd,), 0)

    def sys_mkdir(self, path: str, mode: int = 0o755) -> int:
        ok = self.fs.mkdir(path, mode)
        return self._record(SyscallKind.MKDIR, (mode,), 0 if ok else -1)

    def sys_mknod(self, path: str, mode: int = 0o644) -> int:
        ok = self.fs.mknod(path, mode, kind="node")
        return self._record(SyscallKind.MKNOD, (mode,), 0 if ok else -1)

    def sys_mkfifo(self, path: str, mode: int = 0o644) -> int:
        ok = self.fs.mknod(path, mode, kind="fifo")
        return self._record(SyscallKind.MKFIFO, (mode,), 0 if ok else -1)

    def sys_stat(self, path: str) -> int:
        return self._record(SyscallKind.STAT, (), 0 if self.fs.exists(path) else -1)

    def sys_unlink(self, path: str) -> int:
        return self._record(SyscallKind.UNLINK, (), 0 if self.fs.unlink(path) else -1)

    def sys_getchar(self) -> int:
        if self._stdin_pos >= len(self.config.stdin_data):
            return self._record(SyscallKind.GETCHAR, (), -1)
        ch = self.config.stdin_data[self._stdin_pos]
        self._stdin_pos += 1
        return self._record(SyscallKind.GETCHAR, (), ch, bytes([ch]))

    # -- network syscalls --------------------------------------------------------------

    def sys_listen(self) -> int:
        fd = self._alloc_fd(_Descriptor(-1, "listen"))
        return self._record(SyscallKind.LISTEN, (), fd)

    def sys_select(self) -> int:
        """Return one ready descriptor, or -1 when nothing is ready.

        Priority: a pending (not yet accepted) connection is reported through
        the listen descriptor; otherwise the lowest-numbered readable accepted
        connection is returned.  This captures the paper's point that without
        logging, replay would have to consider every possible ready set.
        """

        self.net.advance()
        listen_fd = next((fd for fd, d in self._fd_table.items() if d.kind == "listen"), -1)
        if listen_fd >= 0 and self.net.pending_connection():
            self._idle_selects = 0
            return self._record(SyscallKind.SELECT, (), listen_fd)
        for fd in sorted(self._fd_table):
            descriptor = self._fd_table[fd]
            if descriptor.kind == "conn" and descriptor.connection is not None:
                if self.net.readable(descriptor.connection.conn_id):
                    self._idle_selects = 0
                    return self._record(SyscallKind.SELECT, (), fd)
        self._idle_selects += 1
        return self._record(SyscallKind.SELECT, (), -1)

    def workload_finished(self) -> bool:
        """True when the scripted workload is fully delivered and drained."""

        return self.net.all_done() or self._idle_selects > self.config.max_idle_selects

    def sys_accept(self, listen_fd: int) -> int:
        descriptor = self._fd_table.get(listen_fd)
        if descriptor is None or descriptor.kind != "listen":
            return self._record(SyscallKind.ACCEPT, (listen_fd,), -1)
        conn_descriptor = _Descriptor(-1, "conn")
        fd = self._alloc_fd(conn_descriptor)
        connection = self.net.accept(fd)
        if connection is None:
            del self._fd_table[fd]
            self._next_fd -= 1
            return self._record(SyscallKind.ACCEPT, (listen_fd,), -1)
        conn_descriptor.connection = connection
        return self._record(SyscallKind.ACCEPT, (listen_fd,), fd)

    def _recv_from(self, descriptor: _Descriptor, fd: int, nbytes: int,
                   kind: SyscallKind) -> Tuple[int, bytes]:
        connection = descriptor.connection
        if connection is None:
            self._record(kind, (fd, nbytes), -1)
            return -1, b""
        limit = nbytes
        if self.config.read_chunk_limit:
            limit = min(limit, self.config.read_chunk_limit)
        data = connection.read(limit)
        self._record(kind, (fd, nbytes), len(data), data)
        return len(data), data

    def sys_recv(self, fd: int, nbytes: int) -> Tuple[int, bytes]:
        descriptor = self._fd_table.get(fd)
        if descriptor is None or descriptor.kind != "conn":
            self._record(SyscallKind.RECV, (fd, nbytes), -1)
            return -1, b""
        return self._recv_from(descriptor, fd, nbytes, SyscallKind.RECV)

    def sys_send(self, fd: int, data: bytes) -> int:
        descriptor = self._fd_table.get(fd)
        if descriptor is None or descriptor.kind != "conn" or descriptor.connection is None:
            return self._record(SyscallKind.SEND, (fd, len(data)), -1)
        descriptor.connection.write(data)
        return self._record(SyscallKind.SEND, (fd, len(data)), len(data))
