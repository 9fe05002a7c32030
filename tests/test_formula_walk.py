"""Every reading of a formula on a chain deeper than the recursion limit,
and the precedence of the errors that the walk raises."""

import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from hafs import (And, Assignment, EvaluationError, Formula, GODEL, Implies, L3, LUKASIEWICZ,
                  Not, Or, PRODUCT, Var, argument, compile_evaluator, evaluate,
                  formula_to_json_obj, formula_to_text, variables)
from hafs.equations import _exact_ops
from hafs.logic import _fold, formula_to_json_text

from helpers import exact_fractions, exact_leaf, reference_formula_to_json_obj

A, B, C = argument("a"), argument("b"), argument("c")
LOGICS = (L3, GODEL, PRODUCT, LUKASIEWICZ)
FUZZY = (GODEL, PRODUCT, LUKASIEWICZ)


class TestDeepFormulas:
    """A chain of mixed Not, And and Implies nodes three times deeper than
    the recursion limit, through every reading."""

    DEPTH = 3 * sys.getrecursionlimit() + 7

    @classmethod
    def chain(cls, depth=DEPTH):
        """The chain and its text, whose pieces left and right of the leaf
        are collected level by level and joined once."""
        f, left, right = Var(A), [], []
        for i in range(depth):
            if i % 3 == 0:
                f = Not(f)
                left.append("~")
            elif i % 3 == 1:
                f = And((f, Var(B)))
                left.append("(")
                right.append(" & b)")
            else:
                f = Implies(Var(B), f)
                left.append("(b -> ")
                right.append(")")
        return f, "".join(reversed(left)) + "a" + "".join(right)

    @staticmethod
    def godel_value(a, b, depth):
        """The chain's Gödel value, step by step from the leaf."""
        value = a
        for i in range(depth):
            if i % 3 == 0:
                value = 1 - value
            elif i % 3 == 1:
                value = min(value, b)
            else:
                value = 1 if b <= value else value
        return value

    def test_every_reading_walks_a_deep_chain(self):
        f, text = self.chain()
        a, b = Fraction(1, 4), Fraction(3, 4)
        expected = self.godel_value(a, b, self.DEPTH)

        assert variables(f) == {A, B}
        assert formula_to_text(f) == text
        assert evaluate(f, Assignment({A: a, B: b}), GODEL) == expected
        values = compile_evaluator(f, GODEL)({A: np.full(2, float(a)), B: np.full(2, float(b))})
        assert values.tolist() == [float(expected)] * 2
        one = np.ones(2, dtype=np.int64)
        value = _fold(f, {A: exact_leaf(GODEL, one), B: exact_leaf(GODEL, 3 * one)}.__getitem__,
                      _exact_ops(GODEL, one))
        assert exact_fractions(GODEL, value, 2) == [expected] * 2

        # walked here without recursion: == on nested dicts recurses in C
        node, ops = formula_to_json_obj(f), []
        while node["op"] != "var":
            ops.append(node["op"])
            node = {"not": lambda: node["child"], "and": lambda: node["children"][0],
                    "implies": lambda: node["rhs"]}[node["op"]]()
        assert node == {"op": "var", "id": "arg:a"}
        assert ops == [("not", "and", "implies")[i % 3] for i in reversed(range(self.DEPTH))]

    @staticmethod
    def not_chain(depth):
        """``depth`` negations of a, and the lines of their JSON document."""
        f, pad = Var(A), "  ".__mul__
        for _ in range(depth):
            f = Not(f)
        lines = ["{", pad(1) + '"formula": {']
        lines += [pad(j + 2) + '"child": {' for j in range(depth)]
        lines += [pad(depth + 2) + '"id": "arg:a",', pad(depth + 2) + '"op": "var"']
        for j in reversed(range(depth)):
            lines += [pad(j + 2) + "},", pad(j + 2) + '"op": "not"']
        return f, "\n".join(lines + [pad(1) + "}", "}"])

    @staticmethod
    def and_nesting(depth):
        """``depth`` conjunctions, each of the last and b, around a; and the
        lines of their JSON document."""
        f, pad = Var(A), "  ".__mul__
        for _ in range(depth):
            f = And((f, Var(B)))
        lines = ["{", pad(1) + '"formula": {']
        for j in range(depth):
            lines += [pad(2 * j + 2) + '"children": [', pad(2 * j + 3) + "{"]
        lines += [pad(2 * depth + 2) + '"id": "arg:a",', pad(2 * depth + 2) + '"op": "var"']
        for j in reversed(range(depth)):
            lines += [pad(2 * j + 3) + "},", pad(2 * j + 3) + "{",
                      pad(2 * j + 4) + '"id": "arg:b",', pad(2 * j + 4) + '"op": "var"',
                      pad(2 * j + 3) + "}", pad(2 * j + 2) + "],", pad(2 * j + 2) + '"op": "and"']
        return f, "\n".join(lines + [pad(1) + "}", "}"])

    def test_json_text_of_deep_nestings(self):
        # the expected lines are what json.dumps writes, as it does at a small depth
        for make in (self.not_chain, self.and_nesting):
            for depth in (1, 2, 7):
                f, text = make(depth)
                assert text == json.dumps({"formula": reference_formula_to_json_obj(f)},
                                          indent=2, sort_keys=True)
                assert formula_to_json_text(f) == text
        # past the recursion limit; the text of an n-deep nesting has on the
        # order of n^2 bytes (18 MB for this And nesting), so it stays near
        for make in (self.not_chain, self.and_nesting):
            f, text = make(sys.getrecursionlimit() + 7)
            assert formula_to_json_text(f) == text

    def test_text_of_a_much_deeper_chain_takes_linear_time(self):
        # 200 000 levels, 933 332 characters: copying each level's text into
        # its parent's is quadratic (30 s on a 2-core x86-64 under Python
        # 3.11), joining the pieces once is linear (0.7 s)
        f, text = self.chain(200_000)
        start = time.perf_counter()
        assert formula_to_text(f) == text
        assert time.perf_counter() - start < 10.0


@dataclass(frozen=True)
class Xor(Formula):
    """A node class that no reading knows."""

    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Negation(Not):
    pass


@dataclass(frozen=True)
class Disjunction(Or):
    pass


class TestErrorPrecedence:
    """Each check fires as soon as the walk reaches its node, left to right."""

    @staticmethod
    def readings(logic, point):
        """The value readings under ``logic`` at ``point``, which maps each
        assigned element to 1/2."""
        one = np.ones(2, dtype=np.int64)
        floats = {x: np.full(2, 0.5) for x in point}
        calls = [lambda f: evaluate(f, point, logic),
                 lambda f: compile_evaluator(f, logic)(floats)]
        if logic is not L3:
            exact = {x: exact_leaf(logic, 2 * one) for x in point}
            calls.append(lambda f: _fold(f, exact.__getitem__, _exact_ops(logic, one)))
        return calls

    @pytest.mark.parametrize("logic", FUZZY, ids=lambda x: x.name)
    def test_disjunction_raises_before_its_leaves_are_read(self, logic):
        message = f"disjunction is not interpreted in the {logic.name} logic"
        for call in self.readings(logic, {A: Fraction(1, 2)}):
            for f in (And((Var(A), Or((Var(B),)))), Not(Disjunction((Var(B), Var(C))))):
                with pytest.raises(EvaluationError) as info:
                    call(f)
                assert str(info.value) == message
        # a leaf left of the disjunction is read first
        with pytest.raises(EvaluationError, match="variable arg:b is unassigned"):
            evaluate(And((Var(B), Or((Var(A),)))), {A: Fraction(1, 2)}, logic)

    @pytest.mark.parametrize("logic", LOGICS, ids=lambda x: x.name)
    def test_unknown_node_raises_evaluation_error(self, logic):
        for call in self.readings(logic, {A: Fraction(1, 2)}):
            with pytest.raises(EvaluationError) as info:
                call(And((Var(A), Xor(Var(B), Var(C)))))
            assert str(info.value) == "unknown formula node Xor"
        with pytest.raises(EvaluationError, match="variable arg:b is unassigned"):
            evaluate(And((Var(B), Xor(Var(A), Var(A)))), {A: Fraction(1, 2)}, logic)

    def test_unknown_node_raises_value_error_from_the_renderers(self):
        for render in (formula_to_text, formula_to_json_obj, formula_to_json_text):
            with pytest.raises(ValueError) as info:
                render(Not(Xor(Var(A), Var(B))))
            assert type(info.value) is ValueError
            assert str(info.value) == "unknown formula node Xor"

    def test_subclass_reads_as_its_node_class(self):
        f = Disjunction((Negation(Var(A)), Var(B)))
        assert formula_to_text(f) == "(~a | b)"
        assert formula_to_json_obj(f) == {"op": "or", "children": [
            {"op": "not", "child": {"op": "var", "id": "arg:a"}}, {"op": "var", "id": "arg:b"}]}
        assert variables(f) == {A, B}
        assert evaluate(f, {A: Fraction(1), B: Fraction(1, 2)}, L3) == Fraction(1, 2)
        assert evaluate(Negation(Var(A)), {A: Fraction(1, 4)}, GODEL) == Fraction(3, 4)
