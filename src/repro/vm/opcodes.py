"""Opcode definitions for the MiniC bytecode VM.

The instruction stream is a flat list of 4-tuples::

    (opcode, arg, charge, line)

* ``opcode`` — one of the integer constants below;
* ``arg`` — the operand (a slot index, a global's name, a prebuilt
  :class:`ConcolicValue`, a jump target, a ``(location, target, slot)``
  triple for branches, ...), or ``None``;
* ``charge`` — how many tree-walker *steps* this instruction accounts for.
  The compiler distributes AST-node visit counts over the instruction stream
  (pre-order, so ancestors are charged before their first descendant executes)
  which makes ``ExecutionResult.steps`` — and therefore the instrumentation
  overhead model and the step-budget cutoff — agree exactly with the
  tree-walking interpreter;
* ``line`` — the source line used for crash sites and error messages.

The machine is a straight stack machine: expression operands are pushed
left-to-right in the interpreter's evaluation order, so hook events (branches,
syscalls) fire in exactly the same order as in the tree-walker.  The
superinstructions below are fused by the compiler as it emits, and no run
rewrites an instruction: every run of one ``(program, plan)`` pair dispatches
the same stream.

Every variable access is a numbered frame slot or a global: the compiler only
takes programs the static scope resolution (:mod:`repro.lang.resolve`)
resolves completely, so there is no by-name local, no scope push/pop and no
declaration opcode.
"""

from __future__ import annotations

# Control / bookkeeping -------------------------------------------------------
NOP = 0            # absorb a step charge at a control-flow join (loop headers)
JUMP = 1           # arg: target pc
POP = 2            # discard TOS
DUP = 3            # duplicate TOS
RET = 4            # return TOS from the current function

# Literals --------------------------------------------------------------------
CONST = 5          # arg: prebuilt (immutable) ConcolicValue
STRING = 6         # arg: (cache_key, text) — per-run cached NUL-terminated array
NEW_ARRAY = 11     # arg: (label, has_size) — optionally pop size, push pointer

# Memory ----------------------------------------------------------------------
LOAD_INDEX = 12    # pop index, base; push element
STORE_INDEX = 13   # pop index, base, value; store element
LOAD_DEREF = 14    # pop pointer; push pointed-to cell
STORE_DEREF = 15   # pop pointer, value; store through pointer
ADDR_GLOBAL = 16   # arg: name — address of a global (boxes scalars)
ADDR_INDEX = 17    # pop index, base; push pointer to the element
ADDR_INVALID = 18  # runtime error: operand cannot be addressed

# Operators -------------------------------------------------------------------
UNARY = 19         # arg: operator string
BINARY = 20        # arg: operator string (non-short-circuit)
AND_JUMP = 21      # arg: target — short-circuit the && when TOS is falsy
AND_END = 22       # combine the two operands of a fully evaluated &&
OR_JUMP = 23       # arg: target — short-circuit the || when TOS is truthy
OR_END = 24        # combine the two operands of a fully evaluated ||
TERN_FALSE = 25    # arg: target — ternary selector (no branch event)

# Control flow with events ----------------------------------------------------
# Every branch opcode carries ``slot`` right after its ``(location, target)``
# pair: the branch's bitvector slot when the plan the stream was compiled for
# logs it, ``None`` otherwise (always ``None`` in a plan-free stream).  A
# logged branch appends its bit inline (record) or walks the replay cursor
# (replay); what an unlogged one does depends on the run, not on the stream
# (see repro.vm.machine).
BRANCH = 26        # arg: (BranchLocation, else_target, slot) — pop cond

# Calls -----------------------------------------------------------------------
CALL = 27          # arg: (CodeObject, argc) — call a user-defined function
CALL_BUILTIN = 28  # arg: (builtin_fn, argc, call_node)
CALL_UNDEF = 29    # arg: name — runtime "call to undefined function" error
INVALID_TARGET = 30  # runtime "invalid assignment target" error

# Variables -------------------------------------------------------------------
# The static resolution pass (repro.lang.resolve) proves which variable each
# identifier denotes on every execution: a local lives in a numbered frame
# slot (a flat Python list), a global in the globals dict.  Slot loads can
# never fail: resolution guarantees the slot was written on every path
# reaching the load.
LOAD_FAST = 40       # arg: slot — push frame.slots[slot]
STORE_FAST = 41      # arg: slot — pop into frame.slots[slot] (also declares)
LOAD_FAST_RET = 42   # arg: slot — fused LOAD_FAST;RET (the `return x;` shape)
LOAD_GLOBAL = 43     # arg: name — resolved-global read (one dict probe)
STORE_GLOBAL = 44    # arg: name — resolved-global write
ADDR_FAST = 45       # arg: (slot, name) — address of a local (boxes scalars)
BINOP_FC = 46        # arg: (op, slot, const) — fused LOAD_FAST;CONST;BINARY
BINOP_FF = 47        # arg: (op, slot1, slot2) — fused LOAD_FAST;LOAD_FAST;BINARY
BINOP_FC_STORE = 48  # arg: (op, slot, const, target_slot) — ...;STORE_FAST
BINOP_FF_STORE = 49  # arg: (op, slot1, slot2, target_slot) — ...;STORE_FAST

# Compare-and-branch superinstructions -----------------------------------------
# A comparison fused with the branch it feeds, one dispatch for the hot loop
# and parser shapes.  Only comparison operators fuse (a fully concrete result
# is the branch decision directly, so no intermediate ConcolicValue is
# built); symbolic or pointer operands take the exact slow path of the
# unfused sequence inline.  FF fuses ``BINOP_FF;BRANCH`` (``while (i < n)``),
# FC ``BINOP_FC;BRANCH`` (``while (i < 100)``, ``if (c == 0)``), SC
# ``CONST;BINARY;BRANCH`` (the ``ch == 'X'`` parser shape) and
# BINARY_BRANCH ``BINARY;BRANCH`` (two stack operands).
BINOP_FF_BRANCH = 50   # arg: (op, slot1, slot2, location, else_target, slot)
BINOP_FC_BRANCH = 68   # arg: (op, var_slot, const, location, target, slot)
BINOP_SC_BRANCH = 74   # arg: (op, const, location, target, slot)
BINARY_BRANCH = 77     # arg: (op, location, target, slot)

OPCODE_NAMES = {
    value: name
    for name, value in sorted(globals().items())
    if isinstance(value, int) and name.isupper() and not name.startswith("_")
}

#: The branch shapes: each carries ``(..., location, target, slot)`` as the
#: tail of its arg.
BRANCH_OPCODES = frozenset((BRANCH, BINOP_FF_BRANCH, BINOP_FC_BRANCH,
                            BINOP_SC_BRANCH, BINARY_BRANCH))
