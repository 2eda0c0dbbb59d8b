"""Variable environments (scopes and call frames) for the interpreter."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.interp.values import Value, ZERO
from repro.lang.errors import RuntimeMiniCError


class Scope:
    """A single lexical scope mapping names to values."""

    __slots__ = ("bindings",)

    def __init__(self) -> None:
        self.bindings: Dict[str, Value] = {}

    def declare(self, name: str, value: Value) -> None:
        self.bindings[name] = value

    def has(self, name: str) -> bool:
        return name in self.bindings


class Frame:
    """One function invocation: a stack of scopes plus bookkeeping."""

    def __init__(self, function_name: str) -> None:
        self.function_name = function_name
        self.scopes: List[Scope] = [Scope()]
        self.return_value: Value = ZERO

    def push_scope(self) -> None:
        self.scopes.append(Scope())

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, value: Value) -> None:
        self.scopes[-1].declare(name, value)

    def lookup_scope(self, name: str) -> Optional[Scope]:
        for scope in reversed(self.scopes):
            if scope.has(name):
                return scope
        return None


class Environment:
    """Global variables plus the call stack."""

    def __init__(self) -> None:
        self.globals: Dict[str, Value] = {}
        self.frames: List[Frame] = []

    # -- frames ------------------------------------------------------------------

    @property
    def current_frame(self) -> Frame:
        return self.frames[-1]

    def push_frame(self, function_name: str) -> Frame:
        frame = Frame(function_name)
        self.frames.append(frame)
        return frame

    def pop_frame(self) -> Frame:
        return self.frames.pop()

    @property
    def call_depth(self) -> int:
        return len(self.frames)

    # -- variables ----------------------------------------------------------------

    def declare_local(self, name: str, value: Value) -> None:
        self.current_frame.declare(name, value)

    def declare_global(self, name: str, value: Value) -> None:
        self.globals[name] = value

    def get(self, name: str, line: int = 0) -> Value:
        if self.frames:
            scope = self.current_frame.lookup_scope(name)
            if scope is not None:
                return scope.bindings[name]
        if name in self.globals:
            return self.globals[name]
        raise RuntimeMiniCError(f"undefined variable '{name}'", line)

    def set(self, name: str, value: Value, line: int = 0) -> None:
        if self.frames:
            scope = self.current_frame.lookup_scope(name)
            if scope is not None:
                scope.bindings[name] = value
                return
        if name in self.globals:
            self.globals[name] = value
            return
        raise RuntimeMiniCError(f"assignment to undefined variable '{name}'", line)

    def is_defined(self, name: str) -> bool:
        if self.frames and self.current_frame.lookup_scope(name) is not None:
            return True
        return name in self.globals
