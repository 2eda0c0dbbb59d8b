"""Builtin functions available to MiniC programs.

Three groups:

* a small libc subset (string/memory/ctype helpers, ``printf``, ``malloc``),
* program-control helpers (``assert``, ``crash``, ``abort``, ``exit``),
* syscall wrappers backed by the simulated kernel (``open``, ``read``,
  ``select``, ``accept``, ``recv``, ``mkdir``, ...).

The syscall wrappers are where input becomes symbolic: bytes read from argv,
stdin, files and sockets are bound through the interpreter's
:class:`~repro.interp.inputs.InputBinder`, and in ``ANALYZE``/``REPLAY`` mode
the syscall *return values* of input-returning calls are bound as well (unless
a replay syscall log forces them).

Every builtin that acts on the concrete part of a symbolic value — a count, a
descriptor, a path byte, a character test — appends ``(kind, expression,
observed value)`` to ``interp.guards`` when the executing backend keeps a
guard log (a serial replay run on the VM, which the replay engine may repair
in place; ``None`` everywhere else).  A replay run repaired in place onto a
new input must leave every such guard's value unchanged.  That includes the
output sinks (``printf``, ``puts``, ``putchar``, ``fprintf_err``, ``send``,
``send_str``): what they write reaches only the output, but their return
value (a length, a byte, -1) reaches the program, so they pin every value
they format, every byte of a string they write, the descriptor they send to
and ``send``'s count.  A value used only as the run ends (``crash``'s
message, ``exit``'s status) needs no guard: no repair can follow it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.interp.values import (
    ArrayObject,
    ConcolicValue,
    Pointer,
    Value,
    ZERO,
    array_to_bytes,
    array_to_string,
    as_int,
    binary_int_op,
    concrete,
)
from repro.lang.errors import ExitProgram, ProgramCrash
from repro.osmodel.syscalls import SyscallKind
from repro.symbolic.expr import SymBinOp, SymExpr, as_condition, sym_const

BuiltinFn = Callable[["Interpreter", List[Value], object], Value]  # noqa: F821

_REGISTRY: Dict[str, BuiltinFn] = {}

#: Builtins whose return value (or output buffer) carries program input.  The
#: static analysis treats calls to these as sources of symbolic data.
INPUT_RETURNING_BUILTINS = frozenset({
    "getchar",
    "read_option",
    "read",
    "recv",
    "accept",
    "select_fd",
    "net_select",
    "read_line",
})


def builtin(name: str) -> Callable[[BuiltinFn], BuiltinFn]:
    def register(fn: BuiltinFn) -> BuiltinFn:
        _REGISTRY[name] = fn
        return fn
    return register


def lookup_builtin(name: str) -> Optional[BuiltinFn]:
    return _REGISTRY.get(name)


BUILTIN_NAMES = _REGISTRY.keys()


def _int_arg(args: List[Value], index: int, default: int = 0) -> ConcolicValue:
    if index >= len(args):
        return concrete(default)
    return as_int(args[index])


def _pointer_arg(args: List[Value], index: int, node, what: str) -> Pointer:
    if index >= len(args) or not isinstance(args[index], Pointer):
        line = getattr(node, "line", 0)
        raise ProgramCrash(f"{what}: expected a pointer argument", line)
    return args[index]


def _pin(interp, kind: str, value: ConcolicValue) -> int:
    """``value.concrete``, logged as a replay guard when *value* is symbolic."""

    guards = interp.guards
    if guards is not None and value.symbolic is not None:
        guards.append((kind, value.symbolic, value.concrete))
    return value.concrete


def _decide(guards, kind: str, value: ConcolicValue, outcome: bool,
            build: Callable[..., SymExpr], *operands: int) -> bool:
    """Return *outcome*, logging the decision when *value* is symbolic.

    ``build(value.symbolic, *operands)`` is the decision's expression, built
    only when it is logged.
    """

    if guards is not None and value.symbolic is not None:
        guards.append((kind, build(value.symbolic, *operands),
                       1 if outcome else 0))
    return outcome


def _nonzero(guards, value: ConcolicValue) -> bool:
    """The NUL test of a string walk (``value != 0``), logged when symbolic."""

    if guards is None:
        return value.concrete != 0
    return _decide(guards, "libc", value, value.concrete != 0, as_condition)


def _equals(expr: SymExpr, value: int) -> SymExpr:
    return SymBinOp("==", expr, sym_const(value))


def _below(expr: SymExpr, value: int) -> SymExpr:
    return SymBinOp("<", expr, sym_const(value))


def _in_range(expr: SymExpr, lo: int, hi: int) -> SymExpr:
    return SymBinOp("&&", SymBinOp(">=", expr, sym_const(lo)),
                    SymBinOp("<=", expr, sym_const(hi)))


def _path_arg(interp, args: List[Value], node, what: str) -> str:
    """The string argument 0, every symbolic byte it reads pinned."""

    pointer = _pointer_arg(args, 0, node, what)
    _pin_string(interp, "path", pointer)
    return array_to_string(pointer)


def _pin_string(interp, kind: str, pointer: Pointer) -> None:
    """Pin each cell :func:`array_to_string` reads from *pointer*."""

    if interp.guards is None:
        return
    block, offset = pointer.block, pointer.offset
    for index in range(offset, min(len(block), offset + (1 << 16))):
        cell = as_int(block.get(index))
        _pin(interp, kind, cell)
        if cell.concrete == 0:
            break


# ---------------------------------------------------------------------------
# libc subset: strings and memory
# ---------------------------------------------------------------------------


@builtin("strlen")
def _strlen(interp, args, node) -> Value:
    pointer = _pointer_arg(args, 0, node, "strlen")
    guards = interp.guards
    length = 0
    index = pointer.offset
    block = pointer.block
    while index < len(block) and _nonzero(guards, as_int(block.get(index))):
        length += 1
        index += 1
    return concrete(length)


@builtin("strcmp")
def _strcmp(interp, args, node) -> Value:
    a = _pointer_arg(args, 0, node, "strcmp")
    b = _pointer_arg(args, 1, node, "strcmp")
    _pin_string(interp, "libc", a)
    _pin_string(interp, "libc", b)
    text_a = array_to_string(a)
    text_b = array_to_string(b)
    if text_a == text_b:
        return concrete(0)
    return concrete(-1 if text_a < text_b else 1)


@builtin("strncmp")
def _strncmp(interp, args, node) -> Value:
    a = _pointer_arg(args, 0, node, "strncmp")
    b = _pointer_arg(args, 1, node, "strncmp")
    n = _pin(interp, "libc", _int_arg(args, 2))
    _pin_string(interp, "libc", a)
    _pin_string(interp, "libc", b)
    text_a = array_to_string(a)[:n]
    text_b = array_to_string(b)[:n]
    if text_a == text_b:
        return concrete(0)
    return concrete(-1 if text_a < text_b else 1)


@builtin("strcpy")
def _strcpy(interp, args, node) -> Value:
    dest = _pointer_arg(args, 0, node, "strcpy")
    src = _pointer_arg(args, 1, node, "strcpy")
    guards = interp.guards
    index = 0
    while True:
        cell = src.block.get(src.offset + index) if src.block.in_bounds(src.offset + index) else ZERO
        target = dest.offset + index
        if not dest.block.in_bounds(target):
            raise ProgramCrash("strcpy: destination overflow", getattr(node, "line", 0))
        dest.block.set(target, cell)
        if not _nonzero(guards, as_int(cell)):
            break
        index += 1
    return dest


@builtin("strcat")
def _strcat(interp, args, node) -> Value:
    dest = _pointer_arg(args, 0, node, "strcat")
    length = as_int(_strlen(interp, [dest], node)).concrete
    shifted = Pointer(dest.block, dest.offset + length)
    _strcpy(interp, [shifted, args[1]], node)
    return dest


@builtin("strchr")
def _strchr(interp, args, node) -> Value:
    pointer = _pointer_arg(args, 0, node, "strchr")
    wanted = _int_arg(args, 1)
    target = wanted.concrete
    guards = interp.guards
    index = pointer.offset
    block = pointer.block
    while block.in_bounds(index):
        cell = as_int(block.get(index))
        code = cell.concrete
        if guards is not None and (cell.symbolic is not None
                                   or wanted.symbolic is not None):
            guards.append(("libc", SymBinOp("==", cell.expr(), wanted.expr()),
                           1 if code == target else 0))
        if code == target:
            return Pointer(block, index)
        if not _nonzero(guards, cell):
            break
        index += 1
    return ZERO


@builtin("atoi")
def _atoi(interp, args, node) -> Value:
    pointer = _pointer_arg(args, 0, node, "atoi")
    guards = interp.guards
    block, index = pointer.block, pointer.offset
    result: Value = concrete(0)
    sign = 1
    if block.in_bounds(index):
        cell = as_int(block.get(index))
        if _decide(guards, "libc", cell, cell.concrete == ord("-"),
                   _equals, ord("-")):
            sign = -1
            index += 1
    seen_digit = False
    while block.in_bounds(index):
        cell = as_int(block.get(index))
        code = cell.concrete
        if not _decide(guards, "libc", cell, ord("0") <= code <= ord("9"),
                       _in_range, ord("0"), ord("9")):
            break
        seen_digit = True
        digit = binary_int_op("-", cell, concrete(ord("0")))
        result = binary_int_op("+", binary_int_op("*", as_int(result), concrete(10)), digit)
        index += 1
    if not seen_digit:
        return concrete(0)
    if sign < 0:
        result = binary_int_op("*", as_int(result), concrete(-1))
    return result


@builtin("memcpy")
def _memcpy(interp, args, node) -> Value:
    dest = _pointer_arg(args, 0, node, "memcpy")
    src = _pointer_arg(args, 1, node, "memcpy")
    count = _pin(interp, "count", _int_arg(args, 2))
    for index in range(count):
        if not dest.block.in_bounds(dest.offset + index):
            raise ProgramCrash("memcpy: destination overflow", getattr(node, "line", 0))
        cell = src.block.get(src.offset + index) if src.block.in_bounds(src.offset + index) else ZERO
        dest.block.set(dest.offset + index, cell)
    return dest


@builtin("memset")
def _memset(interp, args, node) -> Value:
    dest = _pointer_arg(args, 0, node, "memset")
    value = _int_arg(args, 1)
    count = _pin(interp, "count", _int_arg(args, 2))
    for index in range(count):
        if not dest.block.in_bounds(dest.offset + index):
            raise ProgramCrash("memset: destination overflow", getattr(node, "line", 0))
        dest.block.set(dest.offset + index, ConcolicValue(value.concrete, value.symbolic))
    return dest


@builtin("malloc")
def _malloc(interp, args, node) -> Value:
    size = max(1, _pin(interp, "count", _int_arg(args, 0, 1)))
    return Pointer(ArrayObject(size, label="malloc"), 0)


@builtin("free")
def _free(interp, args, node) -> Value:
    return ZERO


# ---------------------------------------------------------------------------
# ctype helpers
# ---------------------------------------------------------------------------


def _ctype(predicate):
    def fn(interp, args, node) -> Value:
        value = _int_arg(args, 0)
        result = int(predicate(value.concrete))
        if value.symbolic is None:
            return concrete(result)
        # Keep the dependence on input: express the common predicates as
        # comparisons so the result stays symbolic and solvable.
        return ConcolicValue(result, value.symbolic and _symbolic_ctype(value, predicate))
    return fn


def _symbolic_ctype(value: ConcolicValue, predicate):
    expr = value.expr()
    if predicate is _IS_DIGIT:
        return _in_range(expr, ord("0"), ord("9"))
    if predicate is _IS_SPACE:
        return SymBinOp("||", _equals(expr, ord(" ")),
                        SymBinOp("||", _equals(expr, ord("\t")),
                                 SymBinOp("||", _equals(expr, ord("\n")),
                                          _equals(expr, ord("\r")))))
    if predicate is _IS_ALPHA:
        return SymBinOp("||", _in_range(expr, ord("a"), ord("z")),
                        _in_range(expr, ord("A"), ord("Z")))
    return None


def _IS_DIGIT(code: int) -> bool:
    return ord("0") <= code <= ord("9")


def _IS_ALPHA(code: int) -> bool:
    return (ord("a") <= code <= ord("z")) or (ord("A") <= code <= ord("Z"))


def _IS_SPACE(code: int) -> bool:
    return code in (ord(" "), ord("\t"), ord("\n"), ord("\r"))


_REGISTRY["isdigit"] = _ctype(_IS_DIGIT)
_REGISTRY["isalpha"] = _ctype(_IS_ALPHA)
_REGISTRY["isspace"] = _ctype(_IS_SPACE)


@builtin("toupper")
def _toupper(interp, args, node) -> Value:
    value = _int_arg(args, 0)
    code = value.concrete
    if _decide(interp.guards, "libc", value, ord("a") <= code <= ord("z"),
               _in_range, ord("a"), ord("z")):
        return binary_int_op("-", value, concrete(32))
    return value


@builtin("tolower")
def _tolower(interp, args, node) -> Value:
    value = _int_arg(args, 0)
    code = value.concrete
    if _decide(interp.guards, "libc", value, ord("A") <= code <= ord("Z"),
               _in_range, ord("A"), ord("Z")):
        return binary_int_op("+", value, concrete(32))
    return value


@builtin("abs")
def _abs(interp, args, node) -> Value:
    value = _int_arg(args, 0)
    if _decide(interp.guards, "libc", value, value.concrete < 0, _below, 0):
        return binary_int_op("*", value, concrete(-1))
    return value


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _format_printf(interp, args: List[Value], node) -> str:
    """The text ``printf`` writes, every symbolic byte or value it reads pinned.

    Its length is the sink's return value: the format's bytes, the formatted
    values and the bytes of ``%s`` strings all decide it.
    """

    pointer = _pointer_arg(args, 0, node, "printf")
    _pin_string(interp, "output", pointer)
    fmt = array_to_string(pointer)
    out: List[str] = []
    arg_index = 1
    position = 0
    while position < len(fmt):
        ch = fmt[position]
        if ch != "%" or position + 1 >= len(fmt):
            out.append(ch)
            position += 1
            continue
        spec = fmt[position + 1]
        position += 2
        if spec == "%":
            out.append("%")
        elif spec in ("d", "i", "u", "x"):
            value = _pin(interp, "output", as_int(args[arg_index])) \
                if arg_index < len(args) else 0
            out.append(format(value, "x") if spec == "x" else str(value))
            arg_index += 1
        elif spec == "c":
            value = _pin(interp, "output", as_int(args[arg_index])) \
                if arg_index < len(args) else 0
            out.append(chr(value & 0xFF))
            arg_index += 1
        elif spec == "s":
            if arg_index < len(args) and isinstance(args[arg_index], Pointer):
                _pin_string(interp, "output", args[arg_index])
                out.append(array_to_string(args[arg_index]))
            arg_index += 1
        else:
            out.append("%" + spec)
    return "".join(out)


@builtin("printf")
def _printf(interp, args, node) -> Value:
    text = _format_printf(interp, args, node)
    interp.kernel.sys_write(1, text.encode("utf-8"))
    return concrete(len(text))


@builtin("puts")
def _puts(interp, args, node) -> Value:
    pointer = _pointer_arg(args, 0, node, "puts")
    _pin_string(interp, "output", pointer)
    text = array_to_string(pointer)
    interp.kernel.sys_write(1, (text + "\n").encode("utf-8"))
    return concrete(len(text) + 1)


@builtin("putchar")
def _putchar(interp, args, node) -> Value:
    code = _pin(interp, "output", _int_arg(args, 0)) & 0xFF
    interp.kernel.sys_write(1, bytes([code]))
    return concrete(code)


@builtin("fprintf_err")
def _fprintf_err(interp, args, node) -> Value:
    text = _format_printf(interp, args, node)
    interp.kernel.sys_write(2, text.encode("utf-8"))
    return concrete(len(text))


# ---------------------------------------------------------------------------
# Program control
# ---------------------------------------------------------------------------


@builtin("assert")
def _assert(interp, args, node) -> Value:
    value = _int_arg(args, 0)
    if not _nonzero(interp.guards, value):
        raise ProgramCrash("assertion failure", getattr(node, "line", 0),
                           interp.current_function_name())
    return concrete(1)


@builtin("crash")
def _crash(interp, args, node) -> Value:
    message = "explicit crash"
    if args and isinstance(args[0], Pointer):
        message = array_to_string(args[0]) or message
    raise ProgramCrash(message, getattr(node, "line", 0), interp.current_function_name())


@builtin("abort")
def _abort(interp, args, node) -> Value:
    raise ProgramCrash("abort()", getattr(node, "line", 0), interp.current_function_name())


@builtin("exit")
def _exit(interp, args, node) -> Value:
    raise ExitProgram(_int_arg(args, 0).concrete)


# ---------------------------------------------------------------------------
# Input and syscalls
# ---------------------------------------------------------------------------


def _channel_for_fd(interp, fd: int) -> str:
    descriptor = interp.kernel.descriptor(fd)
    if descriptor is None:
        return f"fd{fd}"
    if descriptor.kind == "stdin":
        return "stdin"
    if descriptor.kind == "conn" and descriptor.connection is not None:
        return f"conn{descriptor.connection.conn_id}"
    if descriptor.kind == "file":
        return "file_" + descriptor.path.replace("/", "_")
    return f"fd{fd}"


def _bind_count(interp, kind: SyscallKind, channel: str, env_count: int,
                requested: int) -> ConcolicValue:
    """Bind a syscall return value, honouring the replay syscall log."""

    forced = interp.forced_syscall_result(kind)
    if forced is not None:
        return concrete(forced)
    name = f"ret_{kind.value}_{channel}_{interp.binder.next_index('ret_' + kind.value + '_' + channel)}"
    upper = max(requested, 0)
    return interp.binder.bind_int(name, env_count, lo=-1, hi=max(upper, 1),
                                  default=min(upper, max(upper, 1)))


def _fill_buffer(interp, buffer: Pointer, channel: str, data: bytes, count: int,
                 node) -> None:
    """Copy *count* input bytes into the guest buffer, binding each one."""

    for index in range(count):
        env_value = data[index] if index < len(data) else None
        name = f"{channel}_{interp.binder.next_index(channel)}"
        value = interp.binder.bind_byte(name, env_value)
        target = buffer.offset + index
        if not buffer.block.in_bounds(target):
            raise ProgramCrash("read: buffer overflow", getattr(node, "line", 0),
                               interp.current_function_name())
        buffer.block.set(target, value)


@builtin("getchar")
def _getchar(interp, args, node) -> Value:
    result = interp.kernel.sys_getchar()
    interp.notify_syscall()
    if result < 0:
        return concrete(-1)
    name = f"stdin_{interp.binder.next_index('stdin')}"
    return interp.binder.bind_byte(name, result)


@builtin("read_option")
def _read_option(interp, args, node) -> Value:
    """Listing 1's ``read_option(input)``: one option character from stdin."""

    return _getchar(interp, args, node)


@builtin("open")
def _open(interp, args, node) -> Value:
    path = _path_arg(interp, args, node, "open")
    flags = _pin(interp, "path", _int_arg(args, 1))
    fd = interp.kernel.sys_open(path, flags)
    interp.notify_syscall()
    return concrete(fd)


@builtin("read")
def _read(interp, args, node) -> Value:
    fd = _pin(interp, "fd", _int_arg(args, 0))
    buffer = _pointer_arg(args, 1, node, "read")
    requested = _pin(interp, "count", _int_arg(args, 2))
    channel = _channel_for_fd(interp, fd)
    env_count, data = interp.kernel.sys_read(fd, requested)
    interp.notify_syscall()
    count_value = _bind_count(interp, SyscallKind.READ, channel, env_count, requested)
    count = _pin(interp, "count", count_value)
    if count > 0:
        _fill_buffer(interp, buffer, channel, data, min(count, requested), node)
    return count_value


@builtin("read_line")
def _read_line(interp, args, node) -> Value:
    """Read one LF-terminated line from a file descriptor into a buffer.

    Returns the number of bytes stored (excluding the terminating NUL), or -1
    at end of input.  Used by the diff workload.
    """

    fd = _pin(interp, "fd", _int_arg(args, 0))
    buffer = _pointer_arg(args, 1, node, "read_line")
    capacity = _pin(interp, "count", _int_arg(args, 2))
    channel = _channel_for_fd(interp, fd)
    guards = interp.guards
    stored = 0
    while stored < capacity - 1:
        env_count, data = interp.kernel.sys_read(fd, 1)
        interp.notify_syscall()
        if env_count <= 0:
            break
        name = f"{channel}_{interp.binder.next_index(channel)}"
        value = interp.binder.bind_byte(name, data[0])
        buffer.block.set(buffer.offset + stored, value)
        stored += 1
        if _decide(guards, "newline", value, value.concrete == ord("\n"),
                   _equals, ord("\n")):
            break
    buffer.block.set(buffer.offset + stored, ZERO)
    if stored == 0:
        return concrete(-1)
    return concrete(stored)


@builtin("write")
def _write(interp, args, node) -> Value:
    fd = _pin(interp, "fd", _int_arg(args, 0))
    buffer = _pointer_arg(args, 1, node, "write")
    count = _pin(interp, "count", _int_arg(args, 2))
    data = array_to_bytes(buffer, count)
    result = interp.kernel.sys_write(fd, data)
    interp.notify_syscall()
    return concrete(result)


@builtin("close")
def _close(interp, args, node) -> Value:
    result = interp.kernel.sys_close(_pin(interp, "fd", _int_arg(args, 0)))
    interp.notify_syscall()
    return concrete(result)


@builtin("mkdir")
def _mkdir(interp, args, node) -> Value:
    path = _path_arg(interp, args, node, "mkdir")
    mode = _pin(interp, "path", _int_arg(args, 1, 0o755))
    result = interp.kernel.sys_mkdir(path, mode)
    interp.notify_syscall()
    return concrete(result)


@builtin("mknod")
def _mknod(interp, args, node) -> Value:
    path = _path_arg(interp, args, node, "mknod")
    mode = _pin(interp, "path", _int_arg(args, 1, 0o644))
    result = interp.kernel.sys_mknod(path, mode)
    interp.notify_syscall()
    return concrete(result)


@builtin("mkfifo")
def _mkfifo(interp, args, node) -> Value:
    path = _path_arg(interp, args, node, "mkfifo")
    mode = _pin(interp, "path", _int_arg(args, 1, 0o644))
    result = interp.kernel.sys_mkfifo(path, mode)
    interp.notify_syscall()
    return concrete(result)


@builtin("unlink")
def _unlink(interp, args, node) -> Value:
    path = _path_arg(interp, args, node, "unlink")
    result = interp.kernel.sys_unlink(path)
    interp.notify_syscall()
    return concrete(result)


@builtin("file_exists")
def _file_exists(interp, args, node) -> Value:
    path = _path_arg(interp, args, node, "file_exists")
    result = interp.kernel.sys_stat(path)
    interp.notify_syscall()
    return concrete(1 if result == 0 else 0)


# ---------------------------------------------------------------------------
# Network syscalls (the uServer substrate)
# ---------------------------------------------------------------------------


@builtin("net_listen")
def _net_listen(interp, args, node) -> Value:
    fd = interp.kernel.sys_listen()
    interp.notify_syscall()
    return concrete(fd)


@builtin("net_select")
def _net_select(interp, args, node) -> Value:
    """Return one ready descriptor or -1; the select() analogue."""

    env_fd = interp.kernel.sys_select()
    interp.notify_syscall()
    forced = interp.forced_syscall_result(SyscallKind.SELECT)
    if forced is not None:
        return concrete(forced)
    if interp.binder.mode.symbolic_inputs:
        name = f"ret_select_{interp.binder.next_index('ret_select')}"
        return interp.binder.bind_int(name, env_fd, lo=-1, hi=64, default=env_fd if env_fd >= 0 else -1)
    return concrete(env_fd)


# Alias kept because the paper's text talks about select() directly.
_REGISTRY["select_fd"] = _REGISTRY["net_select"]


@builtin("workload_done")
def _workload_done(interp, args, node) -> Value:
    """True when the scripted client workload has been fully served."""

    return concrete(1 if interp.kernel.workload_finished() else 0)


@builtin("accept")
def _accept(interp, args, node) -> Value:
    listen_fd = _pin(interp, "fd", _int_arg(args, 0))
    env_fd = interp.kernel.sys_accept(listen_fd)
    interp.notify_syscall()
    forced = interp.forced_syscall_result(SyscallKind.ACCEPT)
    if forced is not None:
        return concrete(forced)
    return concrete(env_fd)


@builtin("recv")
def _recv(interp, args, node) -> Value:
    fd = _pin(interp, "fd", _int_arg(args, 0))
    buffer = _pointer_arg(args, 1, node, "recv")
    requested = _pin(interp, "count", _int_arg(args, 2))
    channel = _channel_for_fd(interp, fd)
    env_count, data = interp.kernel.sys_recv(fd, requested)
    interp.notify_syscall()
    count_value = _bind_count(interp, SyscallKind.RECV, channel, env_count, requested)
    count = _pin(interp, "count", count_value)
    if count > 0:
        _fill_buffer(interp, buffer, channel, data, min(count, requested), node)
    return count_value


@builtin("send")
def _send(interp, args, node) -> Value:
    fd = _pin(interp, "fd", _int_arg(args, 0))
    buffer = _pointer_arg(args, 1, node, "send")
    count = _pin(interp, "count", _int_arg(args, 2))
    data = array_to_bytes(buffer, count)
    result = interp.kernel.sys_send(fd, data)
    interp.notify_syscall()
    return concrete(result)


@builtin("send_str")
def _send_str(interp, args, node) -> Value:
    fd = _pin(interp, "fd", _int_arg(args, 0))
    pointer = _pointer_arg(args, 1, node, "send_str")
    _pin_string(interp, "output", pointer)
    text = array_to_string(pointer)
    result = interp.kernel.sys_send(fd, text.encode("utf-8"))
    interp.notify_syscall()
    return concrete(result)
