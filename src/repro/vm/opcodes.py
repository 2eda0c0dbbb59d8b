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
syscalls) fire in exactly the same order as in the tree-walker.

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
# Fused ``BINOP_FF;BRANCH`` for the ``while (i < n)`` hot shape: compare two
# slots and branch in one dispatch.  Only comparison operators fuse (their
# fully concrete result is the branch decision directly — no intermediate
# ConcolicValue is built); symbolic or pointer operands fall back to the exact
# slow path of the unfused pair.
BINOP_FF_BRANCH = 50   # arg: (op, slot1, slot2, location, else_target, slot)

# Unboxed integer slots --------------------------------------------------------
# Emitted when the resolver's int-slot lattice proves every operand slot only
# ever holds integers.  The arms operate on raw Python ints — slot reads
# accept both raw ints and fully concrete ConcolicValues, the ``*_STORE``
# forms write raw ints back — and every form carries its generic origin
# instruction as the last element of ``arg``: a type-guard violation
# (symbolic value, pointer, string cell) rewrites the instruction back to that
# generic form in place and re-dispatches it, so the observable behaviour is
# the generic path's by construction.
BINOP_II = 53          # arg: (op, slot1, slot2, generic)
BINOP_IC = 54          # arg: (op, slot, raw_const, generic)
BINOP_II_STORE = 55    # arg: (op, slot1, slot2, target_slot, generic)
BINOP_IC_STORE = 56    # arg: (op, slot, raw_const, target_slot, generic)
BINOP_II_BRANCH = 57   # arg: (op, s1, s2, location, target, slot, generic)

# Slot-vs-const compare-and-branch (the ``while (i < 100)`` / ``if (c == 0)``
# hot shape).  The generic BINOP_FC_BRANCH is unboxed into BINOP_IC_BRANCH
# where the lattice proves the slot int, and serves as its deopt target.
BINOP_FC_BRANCH = 68   # arg: (op, var_slot, const, location, target, slot)
BINOP_IC_BRANCH = 71   # arg: (op, var_slot, raw_const, location, target,
                       #       slot, generic)

# Stack-condition compare-and-branch.  SC fuses ``CONST;BINARY;BRANCH`` —
# the ``ch == 'X'`` parser shape, one dispatch instead of three;
# BINARY_BRANCH fuses ``BINARY;BRANCH`` for comparisons of two stack
# operands.  Both operate on boxed stack values, so there is no unboxed
# variant and no deopt path.
BINOP_SC_BRANCH = 74   # arg: (op, const, location, target, slot)
BINARY_BRANCH = 77     # arg: (op, location, target, slot)

# Second-round fusions: the first member is itself a fusion product (the
# pair peephole runs twice), collapsing an all-slot array access into one
# dispatch — ``buf[i]`` is LOAD_FAST;LOAD_FAST;LOAD_INDEX generically.
LOAD_INDEX_FF = 80   # arg: (base_slot, index_slot) — fused LOAD2_FAST;LOAD_INDEX
STORE_INDEX_FF = 81  # arg: (base_slot, index_slot) — fused LOAD2_FAST;STORE_INDEX

# Fused pairs ------------------------------------------------------------------
# The compiler's fixed pair peephole (``repro.vm.compiler.PAIR_CATALOG``)
# fuses these adjacent opcode pairs wherever no jump lands between them.
LOAD2_FAST = 62        # arg: (slot1, slot2) — fused LOAD_FAST;LOAD_FAST
CONST_RET = 63         # arg: prebuilt value — fused CONST;RET
LOAD_INDEX_FAST = 64   # arg: index slot — fused LOAD_FAST;LOAD_INDEX
BINOP_FC_CALL = 65     # arg: (op, slot, const, callee, argc, fc_line)
BINARY_RET = 66        # arg: operator — fused BINARY;RET
STORE_INDEX_FAST = 67  # arg: index slot — fused LOAD_FAST;STORE_INDEX

OPCODE_NAMES = {
    value: name
    for name, value in sorted(globals().items())
    if isinstance(value, int) and name.isupper() and not name.startswith("_")
}

#: The branch shapes: each carries ``(..., location, target, slot)`` as the
#: tail of its arg (the unboxed forms add their ``generic`` origin after it).
BRANCH_OPCODES = frozenset((BRANCH, BINOP_FF_BRANCH, BINOP_FC_BRANCH,
                            BINOP_SC_BRANCH, BINARY_BRANCH, BINOP_II_BRANCH,
                            BINOP_IC_BRANCH))
