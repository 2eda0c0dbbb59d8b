"""Tests for the small-domain constraint solver."""

import itertools
import random

import pytest

from repro.symbolic.constraints import ConstraintSet
from repro.symbolic.expr import SymBinOp, SymConst, SymUnOp, sym_bin, sym_const, sym_var
from repro.symbolic.simplify import simplify, try_evaluate, variables
from repro.symbolic.solver import SAT, UNKNOWN, UNSAT, solve


def make_set(*exprs):
    cs = ConstraintSet()
    for expr in exprs:
        cs.add_expr(expr)
    return cs


A = sym_var("a")
B = sym_var("b")
C = sym_var("c")


class TestBasicSolving:
    def test_empty_set_is_satisfiable(self):
        result = solve(make_set())
        assert result.satisfiable

    def test_single_equality(self):
        result = solve(make_set(sym_bin("==", A, sym_const(ord("G")))))
        assert result.satisfiable
        assert result.assignment["a"] == ord("G")

    def test_conjunction_of_equalities(self):
        cs = make_set(sym_bin("==", A, sym_const(10)),
                      sym_bin("==", B, sym_const(20)))
        result = solve(cs)
        assert result.assignment == {"a": 10, "b": 20}

    def test_inequality_chain(self):
        cs = make_set(sym_bin(">", A, sym_const(250)),
                      sym_bin("!=", A, sym_const(255)))
        result = solve(cs)
        assert result.satisfiable
        assert result.assignment["a"] in (251, 252, 253, 254)

    def test_unsatisfiable_equalities(self):
        cs = make_set(sym_bin("==", A, sym_const(1)),
                      sym_bin("==", A, sym_const(2)))
        result = solve(cs)
        assert not result.satisfiable
        assert result.assignment is None

    def test_trivially_false_constant(self):
        cs = make_set(sym_bin("==", sym_const(0), sym_const(1)))
        assert not solve(cs).satisfiable

    def test_out_of_domain_is_unsat(self):
        cs = make_set(sym_bin("==", A, sym_const(300)))
        assert not solve(cs).satisfiable


class TestMultiVariable:
    def test_relation_between_variables(self):
        cs = make_set(sym_bin("<", A, B), sym_bin("==", B, sym_const(3)))
        result = solve(cs)
        assert result.satisfiable
        assert result.assignment["a"] < 3

    def test_arithmetic_relation(self):
        cs = make_set(sym_bin("==", sym_bin("+", A, B), sym_const(10)),
                      sym_bin("==", A, sym_const(4)))
        result = solve(cs)
        assert result.assignment["b"] == 6

    def test_three_variables(self):
        cs = make_set(sym_bin("==", A, sym_const(ord("G"))),
                      sym_bin("==", B, sym_const(ord("E"))),
                      sym_bin("==", C, sym_const(ord("T"))))
        result = solve(cs)
        assert bytes([result.assignment["a"], result.assignment["b"],
                      result.assignment["c"]]) == b"GET"

    def test_negated_prefix_path(self):
        # The concolic "flip": same prefix, negated last constraint.
        cs = make_set(sym_bin("==", A, sym_const(ord("a"))),
                      sym_bin("!=", B, sym_const(ord("b"))))
        result = solve(cs)
        assert result.assignment["a"] == ord("a")
        assert result.assignment["b"] != ord("b")


class TestHintsAndExtras:
    def test_hint_is_preferred_when_consistent(self):
        cs = make_set(sym_bin(">", A, sym_const(10)))
        result = solve(cs, hint={"a": 42})
        assert result.assignment["a"] == 42

    def test_hint_is_overridden_when_inconsistent(self):
        cs = make_set(sym_bin("==", A, sym_const(7)))
        result = solve(cs, hint={"a": 42})
        assert result.assignment["a"] == 7

    def test_extra_variables_receive_values(self):
        cs = make_set(sym_bin("==", A, sym_const(1)))
        result = solve(cs, extra_variables=[sym_var("z")])
        assert "z" in result.assignment

    def test_signed_domain_variable(self):
        ret = sym_var("ret", -1, 64)
        cs = make_set(sym_bin("<", ret, sym_const(0)))
        result = solve(cs)
        assert result.assignment["ret"] == -1

    def test_node_budget_reported(self):
        # An adversarial instance that cannot be satisfied, with a tiny budget.
        cs = make_set(sym_bin("==", sym_bin("+", A, sym_bin("+", B, C)),
                              sym_const(1000)))
        result = solve(cs, node_budget=10)
        assert not result.satisfiable
        assert result.stats.budget_exhausted or result.stats.nodes <= 10

    def test_wide_domain_give_up_is_unknown(self):
        # 3 * n == 15003 has the solution 5001, but n's domain is wider than
        # the solver enumerates: it tries a few probe values and gives up.
        n = sym_var("n", -1, 10000)
        result = solve(make_set(sym_bin("==", sym_bin("*", sym_const(3), n),
                                        sym_const(15003))))
        assert result.status == UNKNOWN and not result.satisfiable
        assert result.assignment is None
        assert not result.stats.budget_exhausted

    def test_tight_node_budget_is_unknown(self):
        cs = make_set(sym_bin("==", sym_bin("+", A, sym_bin("+", B, C)),
                              sym_const(300)))
        assert solve(cs).status == SAT
        tight = solve(cs, node_budget=3)
        assert tight.status == UNKNOWN and tight.stats.budget_exhausted

    def test_proven_answers(self):
        assert solve(make_set(sym_bin("==", A, sym_const(5)))).status == SAT
        assert solve(make_set(sym_bin("==", A, sym_const(300)))).status == UNSAT
        assert solve(make_set(sym_bin("<", A, sym_const(0)))).status == UNSAT
        # Unconstrained wide variables do not make a failure unknown.
        wide = sym_var("w", 0, 100000)
        cs = make_set(sym_bin("==", sym_bin("+", A, B), sym_const(600)),
                      sym_bin("==", wide, wide))
        assert solve(cs, extra_variables=[wide]).status == UNSAT

    def test_stats_populated(self):
        cs = make_set(sym_bin("==", A, sym_const(5)))
        result = solve(cs)
        assert result.stats.wall_seconds >= 0.0

    def test_search_deeper_than_the_recursion_limit(self):
        # One search frame per variable: 1500 chained variables must not hit
        # Python's recursion limit (a no-syscall-log diff of a big file
        # searches over ~1000 of them).
        chain = [sym_var(f"v{i}", 0, 3) for i in range(1500)]
        cs = make_set(*(sym_bin("<=", a, b) for a, b in zip(chain, chain[1:])))
        result = solve(cs)
        assert result.satisfiable
        assert set(result.assignment.values()) == {0}
        assert result.stats.nodes == 1500
        assert result.stats.backtracks == 0


# ---------------------------------------------------------------------------
# Brute-force oracle on small domains
# ---------------------------------------------------------------------------


def _holds(exprs, assignment) -> bool:
    return all(try_evaluate(expr, assignment) for expr in exprs)


def _constant_neighbours(expr):
    values = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, SymConst):
            values.update((node.value - 1, node.value, node.value + 1))
        elif isinstance(node, SymUnOp):
            stack.append(node.operand)
        elif isinstance(node, SymBinOp):
            stack.extend((node.left, node.right))
    return values


def brute_force_order(cs, hint):
    """Every assignment, in the order the solver's search visits them.

    Variables sort by the size of their domain after the single-variable
    constraints filter it, then by how many constraints mention them (more
    first), ties in order of first appearance.  Values come hint first, then
    each mentioning constraint's constants and their neighbours, then the
    rest of the domain ascending.
    """

    exprs = [e for e in (simplify(c.expr) for c in cs) if e != sym_const(1)]
    domains = {}
    for constraint in cs:
        for var in variables(constraint.expr):
            domains.setdefault(var.name, var)
    mentions = {name: [e for e in exprs
                       if name in {v.name for v in variables(e)}]
                for name in domains}
    sizes = {}
    for name, var in domains.items():
        unary = [e for e in mentions[name] if len(variables(e)) == 1]
        sizes[name] = sum(1 for value in range(var.lo, var.hi + 1)
                          if _holds(unary, {name: value}))
    order = sorted(domains, key=lambda n: (sizes[n], -len(mentions[n])))
    candidates = []
    for name in order:
        var = domains[name]
        preferred = [hint[name]] if name in hint else []
        for expr in mentions[name]:
            preferred.extend(sorted(_constant_neighbours(expr)))
        preferred.extend(range(var.lo, var.hi + 1))
        values = [v for v in dict.fromkeys(preferred) if var.lo <= v <= var.hi]
        candidates.append(values)
    for combo in itertools.product(*candidates):
        yield dict(zip(order, combo))


def _random_term(rng, chosen, hi, depth=0):
    if depth < 2 and rng.random() < 0.3:
        return SymBinOp(rng.choice(["+", "-", "*", "%", "/", "&"]),
                        _random_term(rng, chosen, hi, depth + 1),
                        _random_term(rng, chosen, hi, depth + 1))
    if rng.random() < 0.65:
        return rng.choice(chosen)
    return SymConst(rng.randint(0, hi))


def test_solve_matches_brute_force_on_small_domains():
    """``solve`` returns exactly the first satisfying assignment in its own
    search order, reports unsat only when none exists, and flags
    ``budget_exhausted`` whenever a tight budget makes it give up."""

    rng = random.Random(20261017)
    outcomes = {"sat": 0, "unsat": 0, "gave_up": 0}
    for _ in range(400):
        hi = rng.choice([1, 3, 7, 15])
        count = rng.randint(1, {1: 6, 3: 4, 7: 3, 15: 2}[hi])
        chosen = [sym_var(f"v{i}", 0, hi) for i in range(count)]
        cs = ConstraintSet()
        for origin in range(rng.randint(1, 4)):
            cs.add_expr(SymBinOp(rng.choice(["==", "!=", "<", "<=", ">", ">="]),
                                 _random_term(rng, chosen, hi),
                                 _random_term(rng, chosen, hi)), origin=origin)
        hint = {var.name: rng.randint(0, hi) for var in chosen
                if rng.random() < 0.6}
        exprs = [constraint.expr for constraint in cs]
        first = next((a for a in brute_force_order(cs, hint)
                      if _holds(exprs, a)), None)

        result = solve(cs, hint=hint)
        assert not result.stats.budget_exhausted
        if first is None:
            assert not result.satisfiable, str(cs)
            outcomes["unsat"] += 1
        else:
            assert result.satisfiable, str(cs)
            assert result.assignment == first, (str(cs), hint)
            outcomes["sat"] += 1
        # Small domains are enumerated in full: every answer is a proof.
        assert result.status == (UNSAT if first is None else SAT), str(cs)

        tight = solve(cs, hint=hint, node_budget=rng.randint(1, 12))
        if tight.satisfiable:
            assert tight.assignment == first, (str(cs), hint)
        elif first is not None:
            assert tight.stats.budget_exhausted, (str(cs), hint)
            outcomes["gave_up"] += 1
        # Unknown exactly when the budget made it give up.
        assert tight.status == (
            SAT if tight.satisfiable
            else UNKNOWN if tight.stats.budget_exhausted else UNSAT), str(cs)
        if tight.status == UNSAT:
            assert first is None, (str(cs), hint)
    assert min(outcomes.values()) >= 10, outcomes
