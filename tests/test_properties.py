"""Property-based tests (hypothesis) for the core data structures."""

import functools

from hypothesis import given, settings, strategies as st

from repro.instrument.logger import BitvectorLog
from repro.symbolic.constraints import ConstraintSet
from repro.symbolic.expr import SymBinOp, SymConst, SymExpr, SymUnOp, SymVar
from repro.symbolic.simplify import evaluate, simplify, variables
from repro.symbolic.solver import solve
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program
from repro.trace import (
    TRACE_MAGIC,
    TRACE_VERSION,
    TraceError,
    decode_envelope,
    dump_trace_bytes,
    encode_envelope,
    load_trace_bytes,
)

# ---------------------------------------------------------------------------
# Symbolic expression generators
# ---------------------------------------------------------------------------

VAR_NAMES = ("a", "b", "c")

constants = st.integers(min_value=-64, max_value=64).map(SymConst)
variables_strategy = st.sampled_from(VAR_NAMES).map(lambda n: SymVar(n, 0, 255))
leaves = st.one_of(constants, variables_strategy)

ARITH = ("+", "-", "*")
COMPARE = ("==", "!=", "<", "<=", ">", ">=")
LOGIC = ("&&", "||")


def expressions(depth=3):
    if depth == 0:
        return leaves
    sub = expressions(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(st.sampled_from(ARITH + COMPARE + LOGIC), sub, sub)
          .map(lambda t: SymBinOp(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(("-", "!")), sub)
          .map(lambda t: SymUnOp(t[0], t[1])),
    )


assignments = st.fixed_dictionaries({name: st.integers(0, 255) for name in VAR_NAMES})


class TestSimplifierProperties:
    @given(expressions(), assignments)
    @settings(max_examples=200, deadline=None)
    def test_simplify_preserves_value(self, expr, assignment):
        original = evaluate(expr, assignment)
        simplified = simplify(expr)
        assert evaluate(simplified, assignment) == original

    @given(expressions())
    @settings(max_examples=100, deadline=None)
    def test_simplify_is_idempotent(self, expr):
        once = simplify(expr)
        assert simplify(once) == once

    @given(expressions())
    @settings(max_examples=100, deadline=None)
    def test_simplify_never_introduces_variables(self, expr):
        before = {v.name for v in variables(expr)}
        after = {v.name for v in variables(simplify(expr))}
        assert after <= before

    @given(expressions(2), assignments)
    @settings(max_examples=200, deadline=None)
    def test_negation_flips_truth_value(self, expr, assignment):
        value = evaluate(expr, assignment)
        negated = evaluate(expr.negated(), assignment)
        assert bool(value) != bool(negated)


class TestSolverProperties:
    comparison_constraints = st.lists(
        st.tuples(st.sampled_from(VAR_NAMES), st.sampled_from(COMPARE),
                  st.integers(0, 255)),
        min_size=1, max_size=4)

    @given(comparison_constraints)
    @settings(max_examples=100, deadline=None)
    def test_solver_solutions_satisfy_constraints(self, triples):
        cs = ConstraintSet()
        for name, op, value in triples:
            cs.add_expr(SymBinOp(op, SymVar(name, 0, 255), SymConst(value)))
        result = solve(cs)
        if result.satisfiable:
            assert cs.satisfied_by(result.assignment)

    @given(st.fixed_dictionaries({name: st.integers(0, 255) for name in VAR_NAMES}))
    @settings(max_examples=100, deadline=None)
    def test_equality_pinning_is_always_recovered(self, target):
        # The solver must recover any concrete byte assignment pinned by
        # equalities — this is exactly the replay engine's workload.
        cs = ConstraintSet()
        for name, value in target.items():
            cs.add_expr(SymBinOp("==", SymVar(name, 0, 255), SymConst(value)))
        result = solve(cs)
        assert result.satisfiable
        assert result.assignment == target


class TestBitvectorProperties:
    @given(st.lists(st.booleans(), max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_through_bytes(self, bits):
        log = BitvectorLog.from_bits(bits)
        packed = log.to_bytes()
        assert len(packed) == (len(bits) + 7) // 8
        unpacked = [bool(packed[i // 8] >> (i % 8) & 1) for i in range(len(bits))]
        assert unpacked == list(bits)

    @given(st.lists(st.booleans(), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_storage_is_monotone(self, bits):
        log = BitvectorLog.from_bits(bits)
        assert log.storage_bytes() <= log.storage_bytes() + 1
        assert len(log) == len(bits)


class TestLexerParserProperties:
    identifiers = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True).filter(
        lambda s: s not in ("int", "char", "void", "if", "else", "while", "for",
                            "return", "break", "continue", "long", "unsigned",
                            "struct", "sizeof"))

    @given(st.lists(st.integers(0, 9999), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_integer_literals_roundtrip(self, numbers):
        source = " ".join(str(n) for n in numbers)
        tokens = tokenize(source)
        assert [t.value for t in tokens[:-1]] == numbers

    @given(identifiers, st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_generated_programs_parse(self, name, value):
        source = f"int main() {{ int {name} = {value}; return {name}; }}"
        unit = parse_program(source)
        assert unit.functions[0].name == "main"


# ---------------------------------------------------------------------------
# The trace codec behind a valid CRC
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _recorded_sections():
    """The sections of one real bug report, in file order."""

    from repro.instrument.methods import InstrumentationMethod
    from repro.service import workload_pipeline
    from repro.trace import trace_from_recording

    pipeline, environment = workload_pipeline("mkdir-bug")
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    trace = trace_from_recording(pipeline.record(plan, environment),
                                 program_name="mkdir-bug")
    return decode_envelope(dump_trace_bytes(trace), TRACE_MAGIC,
                           TRACE_VERSION)


def _mutate(body, mutation):
    kind, position, data = mutation
    position = position % (len(body) + 1)
    if kind == "replace":
        return data
    if kind == "overwrite":
        return body[:position] + data + body[position + len(data):]
    if kind == "insert":
        return body[:position] + data + body[position:]
    return body[:position]  # truncate


class TestTraceCodecProperties:
    """An uploader can forge a correct CRC, so the section decoders see
    arbitrary bodies: each must raise ``TraceError`` or decode to a trace
    that re-encodes canonically."""

    mutations = st.tuples(
        st.sampled_from(("replace", "overwrite", "insert", "truncate")),
        st.integers(0, 1 << 16), st.binary(min_size=1, max_size=12))

    @given(st.integers(0, 5), mutations)
    @settings(max_examples=300, deadline=None)
    def test_mutated_section_is_rejected_or_canonical(self, index, mutation):
        sections = dict(_recorded_sections())
        tag = list(sections)[index]
        sections[tag] = _mutate(sections[tag], mutation)
        data = encode_envelope(TRACE_MAGIC, TRACE_VERSION, sections,
                               list(sections))
        try:
            trace = load_trace_bytes(data)
        except TraceError:
            return
        encoded = dump_trace_bytes(trace)
        assert dump_trace_bytes(load_trace_bytes(encoded)) == encoded
