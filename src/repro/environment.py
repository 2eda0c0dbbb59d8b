"""Execution environments: the inputs of one run, as plain data.

Every stage that runs the program (recording, dynamic analysis, replay) needs a
fresh :class:`~repro.osmodel.kernel.Kernel` per run, because kernel state
(file offsets, network scripts, stdin position) is consumed by execution.  An
:class:`Environment` holds what a run starts from — argv, stdin, filesystem
entries, scripted connections and kernel tunables — and
:meth:`Environment.make_kernel` builds an identical simulated machine from it
for each run.  Being plain data, an environment pickles (search checkpoints,
supervised search workers) and serializes (the trace file's ``ENVS``
section) as it is.

Replay uses :meth:`Environment.scaffold` — an environment with the same
*structure* (argument lengths, stdin length, file sizes, connection count and
request lengths) but with the user's actual data blanked out.  This mirrors the
paper's privacy stance: the developer never receives input contents, only the
branch bitvector and (optionally) selected syscall results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.osmodel.filesystem import FileSystem
from repro.osmodel.kernel import Kernel, KernelConfig
from repro.osmodel.network import NetworkModel, NetworkScript, ScriptedConnection


@dataclass(frozen=True)
class Environment:
    """The inputs of one execution scenario."""

    argv: Tuple[str, ...]
    name: str = "scenario"
    stdin: bytes = b""
    read_chunk_limit: int = 0
    max_idle_selects: int = 16
    #: ``(path, data, kind, mode)`` per filesystem entry, in insertion order,
    #: under the normalized path :class:`FileSystem` keys it by.
    files: Tuple[Tuple[str, bytes, str, int], ...] = ()
    #: ``(request, arrival_step, chunks)`` per scripted connection.
    connections: Tuple[Tuple[bytes, int, Tuple[int, ...]], ...] = ()

    def make_kernel(self) -> Kernel:
        fs = FileSystem()
        for path, data, kind, mode in self.files:
            fs.add_file(path, data, kind=kind, mode=mode)
        script = NetworkScript(connections=[
            ScriptedConnection(request=request, arrival_step=arrival,
                               chunks=list(chunks))
            for request, arrival, chunks in self.connections])
        return Kernel(filesystem=fs, network=NetworkModel(script),
                      config=KernelConfig(stdin_data=self.stdin,
                                          read_chunk_limit=self.read_chunk_limit,
                                          max_idle_selects=self.max_idle_selects))

    # -- scaffolding for replay -------------------------------------------------------

    def scaffold(self) -> "Environment":
        """An environment with identical structure but blanked-out user data.

        The argv strings keep their lengths (content replaced by ``A``), stdin
        keeps its length, scripted requests keep their lengths, and the
        filesystem keeps its paths, kinds, modes and file sizes.  The replay
        engine combines this scaffold with solver-chosen input bytes.

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

        known_paths = {"/"} | {path for path, _, _, _ in self.files}
        return replace(
            self,
            argv=self.argv[:1] + tuple(
                arg if arg in known_paths else "A" * len(arg)
                for arg in self.argv[1:]),
            name=f"{self.name}-scaffold",
            stdin=b"A" * len(self.stdin),
            files=tuple((path, b"A" * len(data), kind, mode)
                        for path, data, kind, mode in self.files),
            connections=tuple((b"A" * len(request), arrival, chunks)
                              for request, arrival, chunks in self.connections))


def simple_environment(argv: Sequence[str], stdin: bytes = b"",
                       files: Optional[dict] = None,
                       requests: Optional[Sequence[bytes]] = None,
                       name: str = "scenario",
                       read_chunk_limit: int = 0) -> Environment:
    """Convenience constructor used by workloads and tests.

    ``files`` maps path -> bytes; ``requests`` is the scripted client workload
    delivered through the network model, request *i* arriving at step *i*.
    """

    fs = FileSystem()
    for path, data in (files or {}).items():
        fs.add_file(path, bytes(data))
    return Environment(
        argv=tuple(argv), name=name, stdin=bytes(stdin),
        read_chunk_limit=read_chunk_limit,
        files=tuple((entry.path, entry.data, entry.kind, entry.mode)
                    for entry in fs.entries()),
        connections=tuple((bytes(request), index, ())
                          for index, request in enumerate(requests or ())))
