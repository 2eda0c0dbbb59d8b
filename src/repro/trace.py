"""Persistent trace format: a complete recording in one binary file.

The paper's workflow splits *record* (user machine) from *replay search*
(developer machine): the user site ships a compact bug report — the branch
bitvector, the selected syscall results, the crash site and the structural
shape of the inputs — and the developer reproduces the crash against their own
copy of the binary.  This module gives our recordings that second life: a
:class:`Trace` bundles everything the replay engine needs, and
:func:`save_trace` / :func:`load_trace` move it through a versioned binary
file so record and replay can run in different processes (or on different
machines).

Binary identity.  The paper assumes the user and the developer run *matched
binaries*: the bitvector is meaningless against a differently instrumented
build.  The file therefore stores the full instrumentation plan, and
:func:`load_trace` compares its :meth:`~repro.instrument.plan.
InstrumentationPlan.fingerprint` against the plan the developer supplies —
a mismatch raises :class:`TraceFingerprintMismatch` instead of silently
searching with a useless log.

Privacy.  By default :func:`trace_from_recording` stores the *scaffold* of the
recording environment (argument/file/request lengths with user data blanked
out, see :meth:`~repro.environment.Environment.scaffold`), matching the
paper's stance that input contents never leave the user machine.

File layout (version 1, little-endian)::

    magic "REPROTRC" | u32 version | u64 payload length | u32 crc32(payload)
    payload := sections, each: 4-byte tag | u64 body length | body

Sections: ``META`` (names), ``PLAN`` (method + branch sets), ``BITV``
(packed bitvector), ``SYSC`` (per-kind result lists), ``CRSH`` (crash site),
``ENVS`` (environment scaffold).  Every read is bounds-checked; truncation,
bit rot (CRC) and unknown versions raise :class:`TraceFormatError`.

Durable files.  :func:`write_atomic` is the one way the repo writes a file
that is read back later — trace files, spool files, the inbox's snapshot
``inbox.json``, checkpoints, supervisor results, the plan ledger and the
``serve --port-file`` handshake: the bytes go to ``<path>.part``, are
flushed and fsynced, and the temp file is renamed onto *path*.  A reader
sees the previous file or the new one, never a torn mix, and a ``*.part``
file left behind is a write that was interrupted before it committed.  The
one exception is the inbox's operation log ``inbox.log``, which is appended
to and fsynced record by record; its reader ignores a torn last record (see
:mod:`repro.service.inbox`).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.environment import Environment
from repro.instrument.logger import BitvectorLog, SyscallResultLog
from repro.instrument.plan import InstrumentationPlan
from repro.interp.interpreter import CrashSite

TRACE_MAGIC = b"REPROTRC"
TRACE_VERSION = 1

#: Suffix of the temp file :func:`write_atomic` renames onto its target.
PART_SUFFIX = ".part"


def write_atomic(path: str, data: bytes,
                 before_replace: Optional[Callable[[], None]] = None) -> str:
    """Write *data* to *path* so that a crash never leaves a torn file.

    The bytes land in ``path + PART_SUFFIX``, which is flushed, fsynced and
    then atomically renamed onto *path*.  *before_replace* runs between the
    fsync and the rename (the crash harness kills the process there).  If
    the write raises, *path* keeps its previous contents.  Returns *path*.
    """

    tmp = path + PART_SUFFIX
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if before_replace is not None:
        before_replace()
    os.replace(tmp, path)
    return path


class TraceError(Exception):
    """Base class for trace persistence failures."""


class TraceFormatError(TraceError):
    """The file is not a readable trace (bad magic/version, truncated, corrupt)."""


class TraceFingerprintMismatch(TraceError):
    """The trace was recorded under a differently instrumented binary."""


# ---------------------------------------------------------------------------
# The trace bundle
# ---------------------------------------------------------------------------


@dataclass
class Trace:
    """One complete recording, ready to persist or to replay elsewhere."""

    plan: InstrumentationPlan
    bitvector: BitvectorLog
    syscall_log: Optional[SyscallResultLog]
    crash_site: Optional[CrashSite]
    environment: Environment
    program_name: str = "program"
    scenario: str = ""

    def fingerprint(self) -> tuple:
        return self.plan.fingerprint()

    def describe(self) -> Dict[str, object]:
        """Human-readable summary (the ``trace_tool.py info`` payload)."""

        return {
            "program": self.program_name,
            "scenario": self.scenario,
            "method": self.plan.method,
            "instrumented_locations": len(self.plan.instrumented),
            "total_locations": len(self.plan.all_locations),
            "log_syscalls": self.plan.log_syscalls,
            "bits": len(self.bitvector),
            "bitvector_bytes": self.bitvector.storage_bytes(),
            "syscall_results": self.syscall_log.count() if self.syscall_log else 0,
            "crash_site": (f"{self.crash_site.function}:{self.crash_site.line}"
                           if self.crash_site else None),
            "argv": list(self.environment.argv),
            "files": [path for path, _, _, _ in self.environment.files],
            "connections": len(self.environment.connections),
        }


def trace_from_recording(recording, scaffold: bool = True,
                         program_name: str = "program") -> Trace:
    """Package a :class:`~repro.core.results.RecordingResult` as a trace.

    ``scaffold=True`` (the default, and the paper's privacy stance) stores the
    blanked-out structural environment; ``scaffold=False`` keeps the real
    input data, which is occasionally useful for debugging the tooling itself.
    """

    environment = recording.environment.scaffold() if scaffold else recording.environment
    return Trace(plan=recording.plan,
                 bitvector=recording.bitvector,
                 syscall_log=recording.syscall_log if recording.plan.log_syscalls else None,
                 crash_site=recording.crash_site,
                 environment=environment,
                 program_name=program_name,
                 scenario=recording.environment.name)


def verify_fingerprint(trace: Trace, plan: InstrumentationPlan) -> None:
    """Raise :class:`TraceFingerprintMismatch` unless *plan* matches the trace."""

    recorded = trace.fingerprint()
    expected = plan.fingerprint()
    if recorded == expected:
        return
    only_recorded = sorted(set(recorded) - set(expected))[:3]
    only_expected = sorted(set(expected) - set(recorded))[:3]
    raise TraceFingerprintMismatch(
        "trace was recorded under a differently instrumented binary: "
        f"recorded plan has {len(recorded)} instrumented locations, "
        f"this plan has {len(expected)} "
        f"(e.g. only in trace: {only_recorded}, only here: {only_expected}). "
        "Record and replay must use matched binaries (same program, same "
        "instrumentation plan).")


# ---------------------------------------------------------------------------
# Binary encoding primitives
# ---------------------------------------------------------------------------


class _Writer:
    def __init__(self) -> None:
        self._chunks: List[bytes] = []

    def u8(self, value: int) -> None:
        self._chunks.append(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self._chunks.append(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._chunks.append(struct.pack("<Q", value))

    def i64(self, value: int) -> None:
        self._chunks.append(struct.pack("<q", value))

    def raw(self, data: bytes) -> None:
        self._chunks.append(data)

    def blob(self, data: bytes) -> None:
        self.u64(len(data))
        self.raw(data)

    def string(self, text: str) -> None:
        self.blob(text.encode("utf-8"))

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class _Reader:
    def __init__(self, data: bytes, what: str = "trace") -> None:
        self._data = data
        self._pos = 0
        self._what = what

    def _take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise TraceFormatError(
                f"truncated {self._what}: wanted {count} bytes at offset "
                f"{self._pos}, only {len(self._data) - self._pos} left")
        piece = self._data[self._pos:self._pos + count]
        self._pos += count
        return piece

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self._take(8))[0]

    def blob(self) -> bytes:
        return self._take(self.u64())

    def string(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"corrupt string in {self._what}: {exc}")

    def exhausted(self) -> bool:
        return self._pos >= len(self._data)

    def expect_end(self, where: str) -> None:
        if not self.exhausted():
            raise TraceFormatError(
                f"{len(self._data) - self._pos} unexpected trailing bytes in {where}")


# ---------------------------------------------------------------------------
# Section encoders/decoders
# ---------------------------------------------------------------------------


def _encode_meta(trace: Trace) -> bytes:
    writer = _Writer()
    writer.string(trace.program_name)
    writer.string(trace.scenario)
    return writer.getvalue()


def _encode_plan(plan: InstrumentationPlan) -> bytes:
    writer = _Writer()
    # plan.method is normally the InstrumentationMethod *value* string, but a
    # hand-built plan may carry the enum itself; serialize its value so the
    # decoded method always compares equal to the enum's value.
    method = plan.method
    writer.string(method if isinstance(method, str)
                  else getattr(method, "value", str(method)))
    writer.u8(1 if plan.log_syscalls else 0)
    rows = plan.location_tuples()
    for key in ("instrumented", "all_locations"):
        locations = rows[key]
        writer.u32(len(locations))
        for function, node_id, line, kind in locations:
            writer.string(function)
            writer.u32(node_id)
            writer.u32(line)
            writer.string(kind)
    return writer.getvalue()


def _decode_plan(body: bytes) -> InstrumentationPlan:
    reader = _Reader(body, "PLAN section")
    method = reader.string()
    log_syscalls = bool(reader.u8())
    sets = []
    for _ in range(2):
        count = reader.u32()
        sets.append([(reader.string(), reader.u32(), reader.u32(), reader.string())
                     for _ in range(count)])
    reader.expect_end("PLAN section")
    return InstrumentationPlan.from_location_tuples(
        method=method, instrumented=sets[0], all_locations=sets[1],
        log_syscalls=log_syscalls)


def _encode_bitvector(bitvector: BitvectorLog) -> bytes:
    writer = _Writer()
    writer.u64(len(bitvector))
    writer.u32(bitvector.flushes)
    writer.blob(bitvector.to_bytes())
    return writer.getvalue()


def _decode_bitvector(body: bytes) -> BitvectorLog:
    reader = _Reader(body, "BITV section")
    bit_count = reader.u64()
    flushes = reader.u32()
    packed = reader.blob()
    reader.expect_end("BITV section")
    try:
        log = BitvectorLog.from_bytes(packed, bit_count)
    except ValueError as exc:
        raise TraceFormatError(str(exc))
    log.flushes = flushes
    return log


def _encode_syscalls(log: Optional[SyscallResultLog]) -> bytes:
    writer = _Writer()
    writer.u8(1 if log is not None else 0)
    if log is None:
        return writer.getvalue()
    logged = sorted(kind.value for kind in log.logged_kinds)
    writer.u32(len(logged))
    for name in logged:
        writer.string(name)
    payload = log.to_payload()
    writer.u32(len(payload))
    for name in sorted(payload):
        writer.string(name)
        values = payload[name]
        writer.u32(len(values))
        for value in values:
            writer.i64(value)
    return writer.getvalue()


def _decode_syscalls(body: bytes) -> Optional[SyscallResultLog]:
    reader = _Reader(body, "SYSC section")
    if not reader.u8():
        reader.expect_end("SYSC section")
        return None
    logged = [reader.string() for _ in range(reader.u32())]
    payload: Dict[str, List[int]] = {}
    for _ in range(reader.u32()):
        name = reader.string()
        payload[name] = [reader.i64() for _ in range(reader.u32())]
    reader.expect_end("SYSC section")
    try:
        return SyscallResultLog.from_payload(payload, logged_kinds=logged)
    except ValueError as exc:
        raise TraceFormatError(f"unknown syscall kind in trace: {exc}")


def _encode_crash(crash: Optional[CrashSite]) -> bytes:
    writer = _Writer()
    writer.u8(1 if crash is not None else 0)
    if crash is not None:
        writer.string(crash.function)
        writer.u32(crash.line)
        writer.string(crash.message)
    return writer.getvalue()


def _decode_crash(body: bytes) -> Optional[CrashSite]:
    reader = _Reader(body, "CRSH section")
    if not reader.u8():
        reader.expect_end("CRSH section")
        return None
    crash = CrashSite(function=reader.string(), line=reader.u32(),
                      message=reader.string())
    reader.expect_end("CRSH section")
    return crash


def _encode_environment(environment: Environment) -> bytes:
    writer = _Writer()
    writer.u32(len(environment.argv))
    for arg in environment.argv:
        writer.string(arg)
    writer.string(environment.name)
    writer.blob(environment.stdin)
    writer.u32(environment.read_chunk_limit)
    writer.u32(environment.max_idle_selects)
    writer.u32(len(environment.files))
    for path, data, kind, mode in environment.files:
        writer.string(path)
        writer.blob(data)
        writer.string(kind)
        writer.u32(mode)
    writer.u32(len(environment.connections))
    for request, arrival_step, chunks in environment.connections:
        writer.blob(request)
        writer.u32(arrival_step)
        writer.u32(len(chunks))
        for chunk in chunks:
            writer.u32(chunk)
    return writer.getvalue()


def _decode_environment(body: bytes) -> Environment:
    reader = _Reader(body, "ENVS section")
    argv = tuple(reader.string() for _ in range(reader.u32()))
    name = reader.string()
    stdin = reader.blob()
    read_chunk_limit = reader.u32()
    max_idle_selects = reader.u32()
    files = tuple((reader.string(), reader.blob(), reader.string(), reader.u32())
                  for _ in range(reader.u32()))
    connections = tuple(
        (reader.blob(), reader.u32(),
         tuple(reader.u32() for _ in range(reader.u32())))
        for _ in range(reader.u32()))
    reader.expect_end("ENVS section")
    return Environment(argv=argv, name=name, stdin=stdin,
                       read_chunk_limit=read_chunk_limit,
                       max_idle_selects=max_idle_selects,
                       files=files, connections=connections)


# ---------------------------------------------------------------------------
# Whole-file encode / decode
# ---------------------------------------------------------------------------

_SECTION_ORDER = (b"META", b"PLAN", b"BITV", b"SYSC", b"CRSH", b"ENVS")


def encode_envelope(magic: bytes, version: int,
                    sections: Dict[bytes, bytes],
                    order: Sequence[bytes]) -> bytes:
    """Frame *sections* in the shared section-file envelope.

    The grammar every on-disk artifact of this project uses — trace files
    (``REPROTRC``) and search checkpoints (``REPROCKP``) alike::

        magic | u32 version | u64 payload length | u32 crc32(payload)
        payload := sections, each: 4-byte tag | u64 body length | body
    """

    payload_writer = _Writer()
    for tag in order:
        if len(tag) != 4:
            raise ValueError(f"section tag must be 4 bytes, got {tag!r}")
        payload_writer.raw(tag)
        payload_writer.blob(sections[tag])
    payload = payload_writer.getvalue()
    header = _Writer()
    header.raw(magic)
    header.u32(version)
    header.u64(len(payload))
    header.u32(zlib.crc32(payload) & 0xFFFFFFFF)
    return header.getvalue() + payload


def decode_envelope(data: bytes, magic: bytes, version: int,
                    what: str = "trace",
                    require: Sequence[bytes] = ()) -> Dict[bytes, bytes]:
    """Parse and verify a section-file envelope; returns ``{tag: body}``.

    Raises :class:`TraceFormatError` on bad magic, unknown version,
    truncation, checksum mismatch, trailing bytes, or any section from
    *require* missing — the single bounds-checked entry point both the
    trace reader and the checkpoint reader funnel through.
    """

    reader = _Reader(data, f"{what} header")
    found = reader._take(len(magic))
    if found != magic:
        raise TraceFormatError(
            f"not a {what} file: bad magic {found!r} (expected {magic!r})")
    got_version = reader.u32()
    if got_version != version:
        raise TraceFormatError(
            f"unsupported {what} version {got_version} (this build reads "
            f"version {version})")
    payload_len = reader.u64()
    crc_expected = reader.u32()
    payload = reader._take(payload_len)
    reader.expect_end(f"{what} file")
    crc_actual = zlib.crc32(payload) & 0xFFFFFFFF
    if crc_actual != crc_expected:
        raise TraceFormatError(
            f"{what} payload checksum mismatch: file says {crc_expected:#010x}, "
            f"payload hashes to {crc_actual:#010x} (corrupted file?)")
    sections: Dict[bytes, bytes] = {}
    body_reader = _Reader(payload, f"{what} payload")
    while not body_reader.exhausted():
        tag = body_reader._take(4)
        sections[tag] = body_reader.blob()
    missing = [tag.decode() for tag in require if tag not in sections]
    if missing:
        raise TraceFormatError(f"{what} is missing sections: {missing}")
    return sections


def dump_trace_bytes(trace: Trace) -> bytes:
    """Serialize *trace* into the version-1 binary form."""

    sections = {
        b"META": _encode_meta(trace),
        b"PLAN": _encode_plan(trace.plan),
        b"BITV": _encode_bitvector(trace.bitvector),
        b"SYSC": _encode_syscalls(trace.syscall_log),
        b"CRSH": _encode_crash(trace.crash_site),
        b"ENVS": _encode_environment(trace.environment),
    }
    return encode_envelope(TRACE_MAGIC, TRACE_VERSION, sections, _SECTION_ORDER)


def load_trace_bytes(data: bytes,
                     expect_plan: Optional[InstrumentationPlan] = None) -> Trace:
    """Decode a trace from *data*, optionally enforcing binary identity.

    Raises :class:`TraceFormatError` on any structural problem and
    :class:`TraceFingerprintMismatch` when *expect_plan* does not match the
    recorded plan.
    """

    sections = decode_envelope(data, TRACE_MAGIC, TRACE_VERSION,
                               what="trace", require=_SECTION_ORDER)

    meta_reader = _Reader(sections[b"META"], "META section")
    program_name = meta_reader.string()
    scenario = meta_reader.string()
    meta_reader.expect_end("META section")

    trace = Trace(plan=_decode_plan(sections[b"PLAN"]),
                  bitvector=_decode_bitvector(sections[b"BITV"]),
                  syscall_log=_decode_syscalls(sections[b"SYSC"]),
                  crash_site=_decode_crash(sections[b"CRSH"]),
                  environment=_decode_environment(sections[b"ENVS"]),
                  program_name=program_name,
                  scenario=scenario)
    if expect_plan is not None:
        verify_fingerprint(trace, expect_plan)
    return trace


def describe_sections(data: bytes) -> Dict[str, object]:
    """Per-section byte sizes and checksum of an encoded trace.

    The ``info --telemetry`` observability surface: where the bytes of a bug
    report go (bitvector vs syscall results vs input scaffold), plus the
    header facts a transport would care about.  Parses only the envelope —
    section bodies are *not* decoded, so this works on traces whose payload
    a newer writer extended, as long as the envelope grammar held.
    """

    reader = _Reader(data, "trace header")
    magic = reader._take(len(TRACE_MAGIC))
    if magic != TRACE_MAGIC:
        raise TraceFormatError(
            f"not a trace file: bad magic {magic!r} (expected {TRACE_MAGIC!r})")
    version = reader.u32()
    payload_len = reader.u64()
    crc_expected = reader.u32()
    payload = reader._take(payload_len)
    reader.expect_end("trace file")
    crc_actual = zlib.crc32(payload) & 0xFFFFFFFF
    sections = []
    body_reader = _Reader(payload, "trace payload")
    while not body_reader.exhausted():
        tag = body_reader._take(4)
        body = body_reader.blob()
        sections.append({"tag": tag.decode("ascii", "replace"),
                         "bytes": len(body)})
    header_bytes = len(data) - payload_len
    return {
        "version": version,
        "total_bytes": len(data),
        "header_bytes": header_bytes,
        "payload_bytes": payload_len,
        "crc32": f"{crc_expected:#010x}",
        "crc_ok": crc_actual == crc_expected,
        "sections": sections,
    }


def save_trace(path: str, trace: Trace) -> str:
    """Write *trace* to *path* (see :func:`write_atomic`); returns the path."""

    return write_atomic(path, dump_trace_bytes(trace))


def load_trace(path: str,
               expect_plan: Optional[InstrumentationPlan] = None) -> Trace:
    """Read a trace file; see :func:`load_trace_bytes` for the checks applied."""

    with open(path, "rb") as handle:
        data = handle.read()
    return load_trace_bytes(data, expect_plan=expect_plan)
