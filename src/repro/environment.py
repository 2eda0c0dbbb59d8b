"""Execution environments: argv plus a factory for the simulated OS state.

Every stage that runs the program (recording, dynamic analysis, replay) needs a
fresh :class:`~repro.osmodel.kernel.Kernel` per run, because kernel state
(file offsets, network scripts, stdin position) is consumed by execution.  An
:class:`Environment` bundles the argv vector with a kernel factory so each run
starts from an identical simulated machine.

Replay uses :meth:`Environment.scaffold` — an environment with the same
*structure* (argument lengths, stdin length, file sizes, connection count and
request lengths) but with the user's actual data blanked out.  This mirrors the
paper's privacy stance: the developer never receives input contents, only the
branch bitvector and (optionally) selected syscall results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.osmodel.filesystem import FileSystem
from repro.osmodel.kernel import Kernel, KernelConfig
from repro.osmodel.network import NetworkModel, NetworkScript, ScriptedConnection


@dataclass
class Environment:
    """argv plus a kernel factory describing one execution scenario."""

    argv: List[str]
    kernel_factory: Callable[[], Kernel] = Kernel
    name: str = "scenario"

    def make_kernel(self) -> Kernel:
        return self.kernel_factory()

    # -- scaffolding for replay -------------------------------------------------------

    def scaffold(self) -> "Environment":
        """An environment with identical structure but blanked-out user data.

        The argv strings keep their lengths (content replaced by ``A``), stdin
        keeps its length, scripted requests keep their lengths, and the
        filesystem keeps its paths and file sizes.  The replay engine combines
        this scaffold with solver-chosen input bytes.

        Arguments that name a path of the (structurally preserved) filesystem
        are kept verbatim: the path string is already disclosed by the
        filesystem scaffold, and blanking the argument would leave replay
        unable to ``open`` the very files whose *contents* the privacy model
        actually protects (the diff workloads hit exactly this).  The check
        is string equality, so an argument that merely *collides* with a path
        name without being used as a path (e.g. a search pattern equal to a
        file's name) is also kept — a known over-disclosure limit of this
        heuristic; the path string itself is public either way via the
        filesystem snapshot, only the fact that an argv slot contains it is
        revealed.
        """

        template = self.make_kernel()
        known_paths = set(template.fs.snapshot())
        blank_argv = [self.argv[0]] + [
            arg if arg in known_paths else "A" * len(arg)
            for arg in self.argv[1:]
        ]

        def factory() -> Kernel:
            kernel = self.make_kernel()
            kernel.config = KernelConfig(
                stdin_data=b"A" * len(kernel.config.stdin_data),
                read_chunk_limit=kernel.config.read_chunk_limit,
                max_idle_selects=kernel.config.max_idle_selects,
            )
            blank_fs = FileSystem()
            for path, entry in kernel.fs.snapshot().items():
                if path == "/":
                    continue
                original = kernel.fs.get(path)
                kind = original.kind if original else "file"
                blank_fs.add_file(path, b"A" * len(entry), kind=kind)
            kernel.fs = blank_fs
            blank_connections = [
                ScriptedConnection(request=b"A" * len(conn.request),
                                   arrival_step=conn.arrival_step,
                                   chunks=conn.chunks)
                for conn in kernel.net.script.connections
            ]
            kernel.net = NetworkModel(NetworkScript(connections=blank_connections))
            return kernel

        del template  # only built to mirror the public contract; not reused
        return Environment(argv=blank_argv, kernel_factory=factory,
                           name=f"{self.name}-scaffold")


def simple_environment(argv: Sequence[str], stdin: bytes = b"",
                       files: Optional[dict] = None,
                       requests: Optional[Sequence[bytes]] = None,
                       name: str = "scenario",
                       read_chunk_limit: int = 0) -> Environment:
    """Convenience constructor used by workloads and tests.

    ``files`` maps path -> bytes; ``requests`` is the scripted client workload
    delivered through the network model.
    """

    argv_list = list(argv)
    files = dict(files or {})
    request_list = [bytes(r) for r in (requests or ())]

    def factory() -> Kernel:
        fs = FileSystem()
        for path, data in files.items():
            fs.add_file(path, bytes(data))
        net = NetworkModel(NetworkScript.from_requests(request_list))
        return Kernel(filesystem=fs, network=net,
                      config=KernelConfig(stdin_data=bytes(stdin),
                                          read_chunk_limit=read_chunk_limit))

    return Environment(argv=argv_list, kernel_factory=factory, name=name)
