"""Property-based tests (hypothesis) for the core data structures."""

import copy
import functools
import json
import os
import random

import pytest
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


# ---------------------------------------------------------------------------
# The service's inbox state read back from disk
# ---------------------------------------------------------------------------

#: One value of each JSON type: a mutation swaps a value for one of another.
_JSON_VALUES = (None, True, 7, 0.5, "x", [], {})


def _paths(document, prefix=()):
    """The path of every value inside *document*, the document excluded."""

    if isinstance(document, dict):
        items = document.items()
    elif isinstance(document, list):
        items = enumerate(document)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutate_json(document, rng):
    """A copy of *document* with one value replaced by a value of another
    JSON type, or one object key deleted."""

    document = copy.deepcopy(document)
    path = rng.choice(list(_paths(document)))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if isinstance(parent, dict) and rng.random() < 0.5:
        del parent[key]
    else:
        kind = type(parent[key])
        parent[key] = copy.deepcopy(rng.choice(
            [value for value in _JSON_VALUES if type(value) is not kind]))
    return document


@pytest.fixture(scope="module")
def processed_root(tmp_path_factory):
    """A service root holding two processed bugs.  The snapshot covers the
    first; the log holds one record of each kind after it: the second
    bug's ingest, a rejection and the second bug's commit."""

    from repro.instrument.methods import InstrumentationMethod
    from repro.service import ReproService, workload_pipeline
    from repro.service.inbox import TraceTooLargeError
    from repro.trace import trace_from_recording

    def recorded(workload):
        pipeline, environment = workload_pipeline(workload)
        plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                                  environment=environment)
        return dump_trace_bytes(trace_from_recording(
            pipeline.record(plan, environment), scaffold=True,
            program_name=workload))

    root = str(tmp_path_factory.mktemp("processed") / "inbox")
    service = ReproService(root)
    service.ingest_bytes(recorded("mkdir-bug"))
    service.process()
    service.inbox._compact()
    service.ingest_bytes(recorded("mkfifo-bug"))
    service.inbox.reject("net:u1", TraceTooLargeError("too big"))
    service.process()
    with open(os.path.join(root, "inbox.json")) as handle:
        snapshot = json.load(handle)
    with open(os.path.join(root, "inbox.log")) as handle:
        records = [json.loads(line) for line in handle]
    assert [record["op"] for record in records] == ["ingest", "reject",
                                                    "done"]
    return root, snapshot, records


class TestInboxStateProperties:
    """The inbox's snapshot and log are read back after a restart: a
    mutated value of the wrong JSON type, or a deleted key, must load
    to a service that works or raise ``TraceError`` — never leak a
    ``KeyError``, ``TypeError`` or ``AttributeError`` from a later read."""

    MUTATIONS = 480

    def test_mutated_state_is_rejected_or_served(self, processed_root):
        from repro.service import ReproService

        root, snapshot, records = processed_root
        targets = [None] + list(range(len(records)))
        rng = random.Random(2028)
        outcomes = {"served": 0, "typed": 0}
        escapes = []
        for index in range(self.MUTATIONS):
            target = targets[index % len(targets)]
            state, log = snapshot, list(records)
            if target is None:
                state = _mutate_json(snapshot, rng)
            else:
                log[target] = _mutate_json(records[target], rng)
            with open(os.path.join(root, "inbox.json"), "w") as handle:
                json.dump(state, handle)
            with open(os.path.join(root, "inbox.log"), "w") as handle:
                handle.writelines(json.dumps(record) + "\n"
                                  for record in log)
            try:
                service = ReproService(root)
                service.stats()
                service.process()
                for trace_id in list(service.inbox.traces):
                    service.report(trace_id)
            except TraceError:
                outcomes["typed"] += 1
            except Exception as exc:  # noqa: BLE001 - what the test hunts
                escapes.append((target, state if target is None
                                else log[target], repr(exc)))
            else:
                outcomes["served"] += 1
        assert not escapes, escapes[:3]
        assert outcomes["served"] and outcomes["typed"], outcomes
