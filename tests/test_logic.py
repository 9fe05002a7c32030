import gc
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import numpy as np

from hafs import (And, Assignment, BUILTIN_LOGICS, Bottom, EvaluationError, GODEL,
                  Iff, Implies, L3, LUKASIEWICZ, LogicSystem, Not, Or, PRODUCT, Top,
                  ValidationError, Var, argument, attack_id, compile_evaluator, encode_normal,
                  evaluate, formula_to_json_obj, formula_to_text, get_logic, is_model, parse,
                  serialize, support_id, variables)
from hafs.equations import _exact_ops, _impl_product_q, _neg_q, _tnorm_product_q
from hafs.logic import (_IMPLICATIONS_F, _TNORMS_F, _fold, _impl_godel, _lookup, _tnorm_min,
                        formula_to_json_text)

from helpers import (ReferenceOps, corpus, exact_fractions, exact_leaf, pair_fractions,
                     reference_fold, reference_formula_to_json_obj, reference_formula_to_text,
                     reference_impl_godel_q, reference_impl_lukasiewicz_q,
                     reference_tnorm_lukasiewicz_q, reference_tnorm_min_q, reference_variables)

V0, VH, V1 = Fraction(0), Fraction(1, 2), Fraction(1)
THREE = (V0, VH, V1)

A, B = argument("a"), argument("b")

rationals01 = st.fractions(min_value=0, max_value=1, max_denominator=64)
floats01 = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
fuzzy_logics = st.sampled_from([GODEL, PRODUCT, LUKASIEWICZ])


def ev2(f, logic, a, b):
    return evaluate(f, Assignment({A: a, B: b}), logic)


class TestThreeValuedTables:
    # rows indexed by (lhs, rhs) in value order 0, 1/2, 1
    IMP_TABLE = {
        (V0, V0): V1, (V0, VH): V1, (V0, V1): V1,
        (VH, V0): VH, (VH, VH): V1, (VH, V1): V1,
        (V1, V0): V0, (V1, VH): VH, (V1, V1): V1,
    }
    IFF_TABLE = {
        (V0, V0): V1, (V0, VH): VH, (V0, V1): V0,
        (VH, V0): VH, (VH, VH): V1, (VH, V1): VH,
        (V1, V0): V0, (V1, VH): VH, (V1, V1): V1,
    }

    @pytest.mark.parametrize("pair,expected", sorted(IMP_TABLE.items()))
    def test_implication_table(self, pair, expected):
        assert ev2(Implies(Var(A), Var(B)), L3, *pair) == expected

    @pytest.mark.parametrize("pair,expected", sorted(IFF_TABLE.items()))
    def test_biconditional_table(self, pair, expected):
        assert ev2(Iff(Var(A), Var(B)), L3, *pair) == expected

    def test_negation_conjunction_disjunction(self):
        for m in THREE:
            assert evaluate(Not(Var(A)), Assignment({A: m}), L3) == 1 - m
            for n in THREE:
                assert ev2(And((Var(A), Var(B))), L3, m, n) == min(m, n)
                assert ev2(Or((Var(A), Var(B))), L3, m, n) == max(m, n)

    def test_non_ternary_value_rejected(self):
        with pytest.raises(EvaluationError, match="not three-valued"):
            evaluate(Var(A), Assignment({A: Fraction(1, 3)}), L3)


class TestFuzzyOperators:
    def test_godel_biconditional_detects_equality(self):
        assert ev2(Iff(Var(A), Var(B)), GODEL, Fraction(3, 10), Fraction(3, 10)) == 1
        assert ev2(Iff(Var(A), Var(B)), GODEL, Fraction(3, 10), Fraction(4, 10)) != 1

    @given(logic=fuzzy_logics, m=rationals01, n=rationals01)
    def test_residuation(self, logic, m, n):
        value = logic.implication(m, n)
        assert (value == 1) == (m <= n)

    @given(m=st.sampled_from(THREE), n=st.sampled_from(THREE))
    def test_residuation_three_valued(self, m, n):
        assert (L3.implication(m, n) == 1) == (m <= n)

    @given(logic=fuzzy_logics, m=rationals01, n=rationals01, k=rationals01)
    def test_tnorm_axioms(self, logic, m, n, k):
        T = logic.tnorm
        assert T(m, n) == T(n, m)
        assert T(T(m, n), k) == T(m, T(n, k))
        assert T(m, 1) == m
        if n <= k:
            assert T(m, n) <= T(m, k)

    def test_flag_witnesses(self):
        # zero divisors and 1/2-idempotence are decided by these points
        assert LUKASIEWICZ.tnorm(VH, VH) == 0 and not LUKASIEWICZ.zero_divisor_free
        assert PRODUCT.tnorm(VH, VH) == Fraction(1, 4) and not PRODUCT.half_idempotent
        assert GODEL.tnorm(VH, VH) == VH
        assert GODEL.zero_divisor_free and GODEL.half_idempotent

    @given(logic=fuzzy_logics, m=rationals01, n=rationals01)
    def test_zero_divisor_freedom_matches_flag(self, logic, m, n):
        if logic.zero_divisor_free and logic.tnorm(m, n) == 0:
            assert m == 0 or n == 0

    def test_get_logic(self):
        assert get_logic("godel") is GODEL
        assert set(BUILTIN_LOGICS) == {"l3", "godel", "product", "lukasiewicz"}
        with pytest.raises(ValidationError):
            get_logic("boolean")


class TestEvaluate:
    def test_constants_in_every_logic(self):
        empty = Assignment({})
        for logic in BUILTIN_LOGICS.values():
            assert evaluate(Top(), empty, logic) == 1
            assert evaluate(Bottom(), empty, logic) == 0
            assert evaluate(And(()), empty, logic) == 1

    def test_empty_or_three_valued(self):
        assert evaluate(Or(()), Assignment({}), L3) == 0

    def test_or_under_fuzzy_rejected(self):
        f = Or((Var(A), Var(B)))
        v = Assignment({A: Fraction(1, 4), B: Fraction(1, 2)})
        for logic in (GODEL, PRODUCT, LUKASIEWICZ):
            with pytest.raises(EvaluationError, match="disjunction"):
                evaluate(f, v, logic)

    def test_unassigned_variable(self):
        with pytest.raises(EvaluationError, match="unassigned"):
            evaluate(Var(A), Assignment({}), L3)

    def test_every_conjunct_is_checked(self):
        # the first conjunct is 0, which fixes the value of the conjunction
        # but does not excuse the leaves after it
        f = And((Iff(Var(A), Top()), Iff(Var(B), Top())))
        for logic in BUILTIN_LOGICS.values():
            with pytest.raises(EvaluationError, match="arg:b is unassigned"):
                evaluate(f, Assignment({A: 0}), logic)
        with pytest.raises(EvaluationError, match="not three-valued"):
            evaluate(f, Assignment({A: 0.0, B: Fraction(1, 3)}), L3)

    @given(logic=fuzzy_logics, m=rationals01, n=rationals01)
    def test_iff_equals_two_implications(self, logic, m, n):
        derived = And((Implies(Var(A), Var(B)), Implies(Var(B), Var(A))))
        v = Assignment({A: m, B: n})
        assert evaluate(Iff(Var(A), Var(B)), v, logic) == evaluate(derived, v, logic)

    @given(m=rationals01, n=rationals01)
    def test_rational_evaluation_stays_exact(self, m, n):
        f = Iff(Not(Var(A)), And((Var(A), Var(B))))
        for logic in BUILTIN_LOGICS.values():
            if logic.value_domain == "three_valued":
                continue
            value = evaluate(f, Assignment({A: m, B: n}), logic)
            assert not isinstance(value, float)


class TestEncodeNormal:
    def test_single_argument(self, single_arg):
        f = encode_normal(single_arg)
        assert f == Iff(Var(A), Top())
        assert formula_to_text(f) == "(a <-> T)"

    def test_single_attack_structure(self, f3):
        text = formula_to_text(encode_normal(f3))
        assert text == "((a <-> T) & (b <-> ~(r1 & a)) & (r1 <-> T))"

    def test_self_support_structure(self, example3):
        text = formula_to_text(encode_normal(example3))
        assert text == "((a <-> ~(t1 & ~a)) & (t1 <-> T))"

    def test_variables_are_exactly_the_universe(self):
        for h, _ in corpus(30, seed_base=7000):
            assert variables(encode_normal(h)) == frozenset(h.universe)

    def test_each_element_once_on_the_left(self):
        for h, _ in corpus(30, seed_base=7400):
            f = encode_normal(h)
            conjuncts = f.children if isinstance(f, And) else (f,)
            lhs = [c.lhs.element for c in conjuncts]
            assert lhs == list(h.universe)

    def test_json_ast_shape(self, single_arg):
        obj = formula_to_json_obj(encode_normal(single_arg))
        assert obj == {"op": "iff", "lhs": {"op": "var", "id": "arg:a"},
                       "rhs": {"op": "top"}}


class TestIsModel:
    def test_single_attack_models(self, f3):
        good = Assignment({A: 1, B: 0, attack_id("r1"): 1})
        bad = Assignment({A: 1, B: 1, attack_id("r1"): 1})
        assert is_model(f3, good, L3)
        assert not is_model(f3, bad, L3)

    def test_godel_intermediate_model(self, example3):
        v = Assignment({A: 0.4, support_id("t1"): 1})
        assert is_model(example3, v, GODEL)

    def test_non_total_assignment_rejected(self, f3):
        with pytest.raises(EvaluationError, match="not total"):
            is_model(f3, Assignment({A: 1}), L3)


class TestCompiledEvaluator:
    @given(seed=st.integers(0, 80))
    def test_matches_interpreter_on_encodings(self, seed):
        # one float point at a time; exact values are evaluate's alone
        import random
        h, _ = corpus(1, seed_base=7800 + seed * 13)[0]
        f = encode_normal(h)
        rng = random.Random(seed)
        floats = {x: rng.random() for x in h.universe}
        for logic in (GODEL, PRODUCT, LUKASIEWICZ):
            compiled = compile_evaluator(f, logic)
            assert compiled(floats) == evaluate(f, Assignment(floats), logic)
        ternary = {x: (V0, VH, V1)[rng.randrange(3)] for x in h.universe}
        compiled = compile_evaluator(f, L3)
        assert compiled({x: float(v) for x, v in ternary.items()}) == \
            evaluate(f, Assignment(ternary), L3)

    def test_handwritten_connectives(self):
        f = Or((Implies(Var(A), Bottom()), Not(And((Var(A), Var(B))))))
        compiled = compile_evaluator(f, L3)
        for m in THREE:
            for n in THREE:
                assert compiled({A: float(m), B: float(n)}) == ev2(f, L3, m, n)


class TestFoldTables:
    """The float64-array and exact operator tables against scalar evaluate."""

    SAMPLES = 64
    FRAMEWORKS = [parse("")] + [h for h, _ in corpus(30, seed_base=16_000)]

    @staticmethod
    def _floats(rng, count):
        # random floats, with the endpoints and 1/2 mixed in for the ties
        return np.where(rng.random(count) < 0.3, rng.choice([0.0, 0.5, 1.0], count),
                        rng.random(count))

    def test_float_arrays_equal_scalar_evaluate(self):
        rng = np.random.default_rng(5)
        for h in self.FRAMEWORKS:
            f = encode_normal(h)
            columns = {x: self._floats(rng, self.SAMPLES) for x in h.universe}
            for logic in (GODEL, PRODUCT, LUKASIEWICZ):
                with np.errstate(all="raise"):
                    values = compile_evaluator(f, logic)(columns)
                values = np.broadcast_to(values, self.SAMPLES)
                for i, value in enumerate(values.tolist()):
                    point = Assignment({x: float(c[i]) for x, c in columns.items()})
                    assert value == evaluate(f, point, logic), (serialize(h), logic.name, i)

    def test_l3_on_three_floats_equals_scalar_evaluate(self):
        rng = np.random.default_rng(6)
        for h in self.FRAMEWORKS:
            f = encode_normal(h)
            codes = {x: rng.integers(0, 3, self.SAMPLES) for x in h.universe}
            columns = {x: np.array([0.0, 0.5, 1.0])[c] for x, c in codes.items()}
            values = np.broadcast_to(compile_evaluator(f, L3)(columns), self.SAMPLES)
            for i, value in enumerate(values.tolist()):
                point = Assignment({x: THREE[c[i]] for x, c in codes.items()})
                assert value == evaluate(f, point, L3), (serialize(h), i)

    def test_fold_leaves_no_reference_cycles(self):
        # a cycle would keep each grid chunk's columns alive until the
        # collector runs, which raised the peak memory of the EQ_* sweeps
        h = self.FRAMEWORKS[5]
        f = encode_normal(h)
        one = np.ones(4, dtype=np.int64)
        gc.collect()
        gc.disable()
        try:
            evaluate(f, Assignment({x: VH for x in h.universe}), PRODUCT)
            compile_evaluator(f, PRODUCT)({x: np.full(4, 0.5) for x in h.universe})
            _fold(f, {x: (one, 2 * one) for x in h.universe}.__getitem__,
                  _exact_ops(PRODUCT, one))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_or_raises_the_same_error_from_every_table(self):
        f = And((Var(A), Or((Var(A), Var(B)))))
        one = np.ones(3, dtype=np.int64)
        for logic in (GODEL, PRODUCT, LUKASIEWICZ):
            quarters = {A: exact_leaf(logic, np.array([1, 2, 0])), B: exact_leaf(logic, 4 * one)}
            messages = []
            calls = (
                lambda: evaluate(f, Assignment({A: VH, B: V1}), logic),
                lambda: compile_evaluator(f, logic)({A: np.full(3, 0.5), B: np.ones(3)}),
                lambda: _fold(f, quarters.__getitem__, _exact_ops(logic, one)),
            )
            for call in calls:
                with pytest.raises(EvaluationError) as info:
                    call()
                messages.append(str(info.value))
            assert messages == [f"disjunction is not interpreted in the {logic.name} logic"] * 3


# -- every reading against the recursive reference walkers ----------------------

C = argument("c")
LOGICS = (L3, GODEL, PRODUCT, LUKASIEWICZ)


def _outcome(call):
    """("value", v) or ("error", class, message), so that both sides compare."""
    try:
        return ("value", call())
    except (EvaluationError, ValueError) as exc:
        return ("error", type(exc), str(exc))


def _scalar_ops(logic):
    join = max if logic is L3 else None
    return ReferenceOps(logic.name, 1, 0, logic.negation, logic.tnorm, join, logic.implication)


def _float_ops(logic):
    join = np.maximum if logic is L3 else None
    return ReferenceOps(logic.name, 1.0, 0.0, logic.negation, _TNORMS_F[logic.tnorm], join,
                        _IMPLICATIONS_F[logic.implication])


# the (numerator, denominator) kernels of each fuzzy logic: Product's own, and
# the reference kernels of the two logics that run on quarter numerators
_PAIR_KERNELS = {GODEL: (reference_tnorm_min_q, reference_impl_godel_q),
                 PRODUCT: (_tnorm_product_q, _impl_product_q),
                 LUKASIEWICZ: (reference_tnorm_lukasiewicz_q, reference_impl_lukasiewicz_q)}


def _pair_ops(logic, one):
    tnorm, impl = _PAIR_KERNELS[logic]
    return ReferenceOps(logic.name, (one, one), (np.zeros_like(one), one), _neg_q, tnorm, None,
                        impl)


def _compositions(children):
    many = st.lists(children, max_size=3).map(tuple)
    return st.one_of(
        children.map(Not),
        many.map(And),
        many.map(Or),
        st.tuples(children, children).map(lambda pair: Implies(*pair)),
        st.tuples(children, children).map(lambda pair: Iff(*pair)),
    )


# all eight node kinds, with empty conjunctions and disjunctions
formulas = st.recursive(
    st.one_of(st.sampled_from([A, B, C]).map(Var), st.just(Top()), st.just(Bottom())),
    _compositions, max_leaves=16)

# a value per element, None for unassigned; 1/4 is outside the three values
point_values = st.one_of(
    st.sampled_from([None, 0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1]), floats01)


class TestAgainstReferenceWalkers:
    @given(f=formulas)
    def test_renderings_and_variables(self, f):
        assert formula_to_text(f) == reference_formula_to_text(f)
        assert formula_to_json_obj(f) == reference_formula_to_json_obj(f)
        assert variables(f) == reference_variables(f)

    @given(f=formulas, values=st.tuples(point_values, point_values, point_values))
    def test_evaluate(self, f, values):
        point = {x: v for x, v in zip((A, B, C), values) if v is not None}
        for logic in LOGICS:
            expected = _outcome(lambda: reference_fold(
                f, lambda e: _lookup(point, e, logic), _scalar_ops(logic)))
            assert _outcome(lambda: evaluate(f, point, logic)) == expected, logic.name

    @given(f=formulas, seed=st.integers(0, 2 ** 32 - 1))
    def test_compile_evaluator_and_exact_grid(self, f, seed):
        rng = np.random.default_rng(seed)
        floats = {x: TestFoldTables._floats(rng, 8) for x in (A, B, C)}
        one = np.ones(8, dtype=np.int64)
        quarters = {x: rng.integers(0, 5, 8) for x in (A, B, C)}

        def same(got, expected):
            if got[0] == "error" or expected[0] == "error":
                return got == expected
            return np.array_equal(np.broadcast_to(got[1], 8), np.broadcast_to(expected[1], 8))

        for logic in LOGICS:
            got = _outcome(lambda: compile_evaluator(f, logic)(floats))
            expected = _outcome(lambda: reference_fold(f, floats.__getitem__, _float_ops(logic)))
            assert same(got, expected), logic.name
        # each logic in its own format, against (numerator, denominator) kernels
        for logic in (GODEL, PRODUCT, LUKASIEWICZ):
            got = _outcome(lambda: _fold(f, lambda x: exact_leaf(logic, quarters[x]),
                                         _exact_ops(logic, one)))
            expected = _outcome(lambda: reference_fold(f, lambda x: (quarters[x], 4 * one),
                                                       _pair_ops(logic, one)))
            if got[0] == expected[0] == "value":
                assert exact_fractions(logic, got[1], 8) == pair_fractions(expected[1], 8), \
                    logic.name
            else:
                assert got == expected, logic.name


# -- exact L3, Gödel and Łukasiewicz values on int numerators ---------------------

# primes, so that the common denominator of a point is the product of its
# values' denominators, up to 2^89 - 1 each
PRIMES = (2, 3, 7, 97, 101, 1009, 65_537, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 89 - 1)

unit_values = st.one_of(
    st.sampled_from([0, 1]), rationals01,
    st.builds(lambda p, k: Fraction(k % (p + 1), p), st.sampled_from(PRIMES),
              st.integers(0, 2 ** 90)))
three_values = st.sampled_from([0, 1, Fraction(0), Fraction(1, 2), Fraction(1)])
# None for unassigned, then values outside each logic's domain
bad_values = st.sampled_from([None, Fraction(1, 4), Fraction(5, 4), 2, -1, Fraction(-1, 3)])


def _fraction_ops(logic):
    join = max if logic is L3 else None
    return ReferenceOps(logic.name, Fraction(1), Fraction(0), logic.negation, logic.tnorm, join,
                        logic.implication)


class TestIntegerFold:
    """Exact L3, Gödel and Łukasiewicz values, folded on int numerators over
    one common denominator, against the fold of the logic's own operators on
    Fractions."""

    @staticmethod
    def check(f, point, logic):
        got = _outcome(lambda: evaluate(f, point, logic))
        expected = _outcome(lambda: reference_fold(
            f, lambda e: Fraction(_lookup(point, e, logic)), _fraction_ops(logic)))
        assert got == expected, logic.name
        if got[0] == "value":
            assert type(got[1]) is Fraction and str(got[1]) == str(expected[1]), logic.name
        return got

    @given(f=formulas, values=st.tuples(unit_values, unit_values, unit_values),
           three=st.tuples(three_values, three_values, three_values))
    def test_values_equal_the_fold_on_fractions(self, f, values, three):
        for logic, point in ((L3, three), (GODEL, values), (LUKASIEWICZ, values)):
            self.check(f, dict(zip((A, B, C), point)), logic)

    @given(f=formulas, values=st.tuples(unit_values, unit_values, unit_values),
           bad=st.tuples(bad_values, bad_values, bad_values), where=st.sets(st.sampled_from("abc")))
    def test_errors_equal_the_fold_on_fractions(self, f, values, bad, where):
        for logic in (L3, GODEL, LUKASIEWICZ):
            point = dict(zip((A, B, C), values if logic is not L3 else (Fraction(1, 2),) * 3))
            for x, value in zip((A, B, C), bad):
                if x.name in where:
                    point[x] = value
            self.check(f, {x: v for x, v in point.items() if v is not None}, logic)

    def test_large_coprime_denominators(self):
        h = parse("arg(a). arg(b). att(r,a,b). supp(t,b,a).")
        f = encode_normal(h)
        values = dict(zip(h.universe, (Fraction(1, 2 ** 89 - 1), Fraction(3, 65_537),
                                       Fraction(5, 2 ** 61 - 1), 1)))
        for logic in (GODEL, LUKASIEWICZ):
            self.check(f, values, logic)
            self.check(f, Assignment(values), logic)

    def test_first_bad_leaf_in_walk_order_raises(self):
        f = And((Var(A), Iff(Var(B), Not(Var(C)))))
        cases = [
            (GODEL, {A: Fraction(1, 3), C: Fraction(5, 4)}, "variable arg:b is unassigned"),
            (LUKASIEWICZ, {A: Fraction(1, 3), B: Fraction(7, 4), C: 2},
             "value Fraction(7, 4) of arg:b is outside [0, 1]"),
            (GODEL, {A: 1, B: Fraction(1, 2), C: -1}, "value -1 of arg:c is outside [0, 1]"),
            (L3, {A: Fraction(1, 2), B: Fraction(1, 4)}, "value Fraction(1, 4) of arg:b is "
                                                         "not three-valued"),
            (L3, {A: Fraction(1, 2), B: 1, C: 2}, "value 2 of arg:c is not three-valued"),
        ]
        for logic, point, message in cases:
            assert self.check(f, point, logic) == ("error", EvaluationError, message)

    def test_bad_value_outside_the_formula_raises_nothing(self):
        assert evaluate(Not(Var(A)), {A: Fraction(1, 3), B: Fraction(5, 4), C: 7},
                        GODEL) == Fraction(2, 3)
        assert evaluate(Not(Var(A)), {A: Fraction(1, 2), B: Fraction(1, 3)}, L3) == Fraction(1, 2)
        # the value outside the domain does not enter the common denominator
        assert evaluate(Top(), {A: Fraction(1, 3)}, L3) == 1

    def test_not_three_valued_still_raises_under_l3(self):
        for value in (Fraction(1, 4), Fraction(2, 3), 2):
            with pytest.raises(EvaluationError, match="is not three-valued"):
                evaluate(Or((Var(B), Var(A))), {A: value, B: 1}, L3)

    def test_float_bool_and_mixed_points_keep_their_values(self):
        # on the fold of the logic's operators, the values keep their types
        assert type(evaluate(And((Var(A), Var(B))), {A: 0.25, B: 0.5}, GODEL)) is float
        assert evaluate(And((Var(A), Var(B))), {A: 0.25, B: Fraction(1, 2)}, GODEL) == 0.25
        assert evaluate(And((Var(A), Var(B))), {A: 0.75, B: Fraction(1, 2)},
                        LUKASIEWICZ) == 0.25
        assert type(evaluate(And((Var(A), Var(B))), {A: 0.75, B: Fraction(1, 2)},
                             LUKASIEWICZ)) is float
        assert evaluate(Var(A), {A: True}, L3) is True
        assert type(evaluate(Not(Var(A)), {A: False, B: Fraction(1, 2)}, GODEL)) is int
        assert type(evaluate(Not(Var(A)), {A: 0}, PRODUCT)) is int
        custom = LogicSystem("custom", "unit_interval", lambda x: 1 - x, _tnorm_min, _impl_godel)
        assert type(evaluate(Not(Var(A)), {A: 0}, custom)) is int
        assert type(evaluate(Not(Var(A)), {A: 0}, GODEL)) is Fraction


# -- encode's JSON text ----------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "cli_golden.jsonl"


def _json_document(f) -> str:
    return json.dumps({"formula": reference_formula_to_json_obj(f)}, indent=2, sort_keys=True)


class TestJsonText:
    @given(f=formulas)
    def test_generated_formulas(self, f):
        assert formula_to_json_text(f) == _json_document(f)

    def test_constants_and_empty_connectives(self):
        for f in (Top(), Bottom(), And(()), Or(()), Not(And(())), Iff(Or(()), Top()),
                  And((Or(()), Bottom(), Var(A))), Implies(Var(A), And((Top(),)))):
            assert formula_to_json_text(f) == _json_document(f)

    def test_encodings_of_the_golden_corpus(self):
        texts = dict.fromkeys(json.loads(line)["stdin"]
                              for line in GOLDEN.read_text(encoding="utf-8").splitlines())
        assert len(texts) == 14
        for text in texts:
            f = encode_normal(parse(text))
            assert formula_to_json_text(f) == _json_document(f)


class TestAssignment:
    def test_exact_flag(self):
        assert Assignment({A: Fraction(1, 3)}).exact
        assert Assignment({A: "2/3"}).exact
        assert not Assignment({A: 0.5}).exact

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            Assignment({A: Fraction(3, 2)})
        with pytest.raises(ValidationError):
            Assignment({A: -0.1})

    def test_json_rendering(self):
        obj = Assignment({A: Fraction(1, 2), B: 0.123456789012345}).to_json_obj()
        assert obj == {"arg:a": "1/2", "arg:b": 0.123456789012}
