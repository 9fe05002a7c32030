import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hafs
from hafs import (Assignment, GODEL, LUKASIEWICZ, PRODUCT, PreconditionError,
                  THEOREM_IDS, ValidationError, argument, build_equations, embed,
                  encode_normal, enumerate_pl3_models, evaluate, framework_digest,
                  is_model, support_id, ternarize, verify)
from hafs import bridge, equations, extensions, labellings
from hafs.bridge import FLOAT_RESIDUAL_TOL, VerificationReport
from hafs.cli import run
from hafs.equations import (_IMPLICATIONS_4, _TNORMS_4, EquationSystem, _TooWide, _exact_ops,
                           _neg_4, _quarter_columns, _reduced, _solution_mask, grid_codes)
from hafs.labellings import HALF, ONE, THREE_VALUES, ZERO
from hafs.logic import And, Bottom, Iff, Implies, Not, Or, Top, Var, _CHILDREN, _fold

from helpers import (corpus, equation_equivalence_report, exact_fractions, pl3_models,
                     reference_reduced)

A, B = argument("a"), argument("b")
T1 = support_id("t1")


def _nodes(f):
    """Every node of ``f``, parents before children."""
    todo = [f]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(_CHILDREN[type(node)](node))


class TestTernarize:
    def test_fixes_endpoints(self):
        out = ternarize({A: Fraction(1), B: Fraction(0)})
        assert out[A] == ONE and out[B] == ZERO

    def test_collapses_interior(self):
        out = ternarize({A: Fraction(2, 5), T1: Fraction(1)})
        assert out[A] == HALF and out[T1] == ONE

    def test_float_tolerance_rule(self):
        out = ternarize({A: 0.5, B: 0.999999999})
        assert out[A] == HALF and out[B] == ONE
        out = ternarize({A: 1e-9, B: 0.001})
        assert out[A] == ZERO and out[B] == HALF

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            ternarize({A: Fraction(3, 2)})
        with pytest.raises(ValidationError):
            ternarize({A: -0.25})

    @given(values=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=16),
                           min_size=1, max_size=5))
    def test_idempotent(self, values):
        keys = [argument(f"x{i}") for i in range(len(values))]
        first = ternarize(dict(zip(keys, values)))
        assert ternarize(embed(first)) == first

    @given(values=st.lists(st.sampled_from(THREE_VALUES), min_size=1, max_size=5))
    def test_fixes_three_valued_assignments(self, values):
        keys = [argument(f"x{i}") for i in range(len(values))]
        labelling = hafs.Labelling3(dict(zip(keys, values)))
        assert ternarize(embed(labelling)) == labelling


class TestPl3ModelEnumeration:
    def test_matches_scalar_is_model(self):
        # the unpruned scalar sweep, in the same order
        for h, _ in corpus(30, max_u=6, seed_base=12_000):
            assert enumerate_pl3_models(h) == pl3_models(h), hafs.serialize(h)

    def test_example3_models_are_the_labellings(self, example3):
        models = enumerate_pl3_models(example3)
        assert len(models) == 3
        assert set(models) == set(hafs.enumerate_adjacent_complete(example3))

    @given(nargs=st.integers(1, 3), natts=st.integers(0, 2), nsupps=st.integers(0, 1),
           seed=st.integers(0, 10_000), acyclic=st.booleans(),
           hop=st.sampled_from([0.0, 0.3, 0.6]))
    def test_matches_unpruned_sweep_on_generated(self, nargs, natts, nsupps, seed,
                                                 acyclic, hop):
        try:
            h = hafs.generate_random(nargs, natts, nsupps, seed=seed,
                                     support_acyclic=acyclic, higher_order_prob=hop)
        except hafs.InfeasibleParametersError:
            return
        assert enumerate_pl3_models(h) == pl3_models(h), hafs.serialize(h)

    def test_empty_framework_has_one_model(self):
        assert enumerate_pl3_models(hafs.parse("")) == (hafs.Labelling3({}),)

    def test_formulas_of_every_node_kind_match_the_full_grid(self):
        # given formulas of every node kind (empty and singleton conjunctions
        # and disjunctions too), at the top and nested: the models are the
        # rows of the full grid, in grid order, on which evaluate gives 1
        # under L3, so disjunction is read as max
        def formula(rng, elements, depth):
            if depth == 0 or rng.random() < 0.2:
                return rng.choice([Top(), Bottom()] + [Var(e) for e in elements] * 3)
            kind = rng.choice([Not, And, Or, Implies, Iff])
            if kind is Not:
                return Not(formula(rng, elements, depth - 1))
            if kind in (And, Or):
                return kind(tuple(formula(rng, elements, depth - 1)
                                  for _ in range(rng.randint(0, 3))))
            return kind(formula(rng, elements, depth - 1), formula(rng, elements, depth - 1))

        seen, counts = set(), []
        for i, (h, _) in enumerate(corpus(20, max_u=5, seed_base=19_000)):
            rng = random.Random(i)
            for _ in range(6):
                f = formula(rng, h.universe, 4)
                if rng.random() < 0.5:  # a conjunction of several at the top
                    f = And((f, formula(rng, h.universe, 3), Or((formula(rng, h.universe, 2),
                                                                  Var(h.universe[-1])))))
                seen |= {type(node) for node in _nodes(f)}
                points = [dict(zip(h.universe, combo))
                          for combo in itertools.product(THREE_VALUES, repeat=len(h))]
                expected = tuple(hafs.Labelling3(point) for point in points
                                 if evaluate(f, point, hafs.L3) == 1)
                assert enumerate_pl3_models(h, formula=f) == expected, (hafs.serialize(h), f)
                counts.append(len(expected))
        assert seen == {Var, Top, Bottom, Not, And, Or, Implies, Iff}
        assert 0 in counts and max(counts) > 3 ** 4
        a, b = hafs.argument("a"), hafs.argument("b")
        h = hafs.parse("arg(a). arg(b).")
        assert [(m[a], m[b]) for m in enumerate_pl3_models(h, formula=Or((Var(a), Var(b))))] \
            == [(v, ONE) for v in THREE_VALUES[:2]] + [(ONE, v) for v in THREE_VALUES]


class TestVerifyExamples:
    def test_t1_passes_on_self_support(self, example3):
        report = verify(example3, "T1")
        assert report.passed and report.counterexample is None

    def test_t2_requires_acyclic_supports(self, example3):
        with pytest.raises(PreconditionError, match="support graph has a cycle"):
            verify(example3, "T2")

    def test_t2_passes_on_acyclic(self, f6):
        assert verify(f6, "T2").passed

    def test_t_pl3(self, example3, f3, f6, mutual_attack):
        for h in (example3, f3, f6, mutual_attack):
            assert verify(h, "T_PL3").passed

    def test_equation_equivalence_ids(self, self_attack):
        for theorem_id in ("EQ_G", "EQ_P", "EQ_L"):
            report = verify(self_attack, theorem_id, float_samples=50)
            assert report.passed
            assert report.notes["grid"] == "exhaustive"

    def test_t16_with_godel_and_product(self, example3):
        for logic in ("godel", "product"):
            report = verify(example3, "T16", logic=logic)
            assert report.passed
            assert report.notes["logic"] == logic

    def test_t16_rejects_lukasiewicz(self, example3):
        with pytest.raises(PreconditionError, match="zero divisors"):
            verify(example3, "T16", logic="lukasiewicz")

    def test_idem_with_godel(self, example3):
        assert verify(example3, "IDEM", logic="godel").passed

    def test_idem_rejects_product(self, example3):
        with pytest.raises(PreconditionError, match="does not fix 1/2"):
            verify(example3, "IDEM", logic="product")

    def test_corr_g_documents_coverage(self, example3):
        report = verify(example3, "CORR_G")
        assert report.passed
        assert "exhaustive" in report.notes["backward"]
        assert "sampled" in report.notes["forward"]

    def test_t16_and_corr_g_on_the_empty_framework(self):
        h = hafs.parse("")
        assert verify(h, "T16").passed
        assert verify(h, "T16", logic="product").passed
        assert verify(h, "CORR_G").passed

    @pytest.mark.parametrize("sizes", [{"grid_cap": -5}, {"float_samples": -3}])
    def test_negative_eq_sizes_rejected(self, self_attack, sizes):
        with pytest.raises(PreconditionError, match=">= 0"):
            verify(self_attack, "EQ_G", **sizes)

    def test_unknown_theorem(self, example3):
        with pytest.raises(ValidationError, match="unknown theorem"):
            verify(example3, "T99")

    def test_bound_enforced(self):
        h = hafs.generate_random(4, 3, 2, seed=3, support_acyclic=True,
                                 higher_order_prob=0.4)
        with pytest.raises(hafs.SizeBoundError):
            verify(h, "T_PL3", bound=4)


class TestVerifyCorpus:
    # acceptance reruns this at the full corpus sizes; keep the unit runs light
    FRAMEWORKS = corpus(60, seed_base=13_000)

    @pytest.mark.parametrize("theorem_id", ["T1", "T_PL3"])
    def test_exhaustive_theorems(self, theorem_id):
        for h, _ in self.FRAMEWORKS:
            report = verify(h, theorem_id)
            assert report.passed, (theorem_id, hafs.serialize(h), report.counterexample)

    def test_t2_on_acyclic_subset(self):
        for h, flagged in self.FRAMEWORKS:
            if flagged:
                report = verify(h, "T2")
                assert report.passed, (hafs.serialize(h), report.counterexample)

    def test_equation_equivalence(self):
        for h, _ in self.FRAMEWORKS[:20]:
            for theorem_id in ("EQ_G", "EQ_P", "EQ_L"):
                report = verify(h, theorem_id, grid_cap=2000, float_samples=30)
                assert report.passed, (theorem_id, hafs.serialize(h),
                                       report.counterexample)

    def test_transfer_theorems(self):
        for h, _ in self.FRAMEWORKS[:20]:
            for logic in ("godel", "product"):
                report = verify(h, "T16", logic=logic, seed=7)
                assert report.passed, (logic, hafs.serialize(h), report.counterexample)
            assert verify(h, "IDEM").passed
            assert verify(h, "CORR_G", seed=7).passed


class TestExactGrid:
    """The EQ_* quarter-grid sweep against the scalar logic definitions."""

    FRAMEWORKS = corpus(12, max_u=5, seed_base=14_000)

    @pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "pyint"])
    @pytest.mark.parametrize("logic", [GODEL, PRODUCT, LUKASIEWICZ], ids=lambda x: x.name)
    def test_kernels_match_logic_definitions(self, logic, dtype):
        for h, _ in self.FRAMEWORKS:
            formula = encode_normal(h)
            system = build_equations(h, logic)
            codes = grid_codes(len(h), 5)
            view = h.incidence
            columns = _quarter_columns(range(len(h)), codes, logic, dtype)
            one = np.ones(len(codes), dtype=dtype)
            values = exact_fractions(logic, _fold(formula, lambda e: columns[view.position[e]],
                                                  _exact_ops(logic, one)), len(codes))
            mask = _solution_mask(view, range(len(h)), logic, columns, one)
            for row, ks in enumerate(codes):
                point = {e: Fraction(int(k), 4) for e, k in zip(h.universe, ks)}
                assert values[row] == evaluate(formula, point, logic), (hafs.serialize(h), point)
                assert bool(mask[row]) == system.is_exact_solution(point), \
                    (hafs.serialize(h), point)

    def test_reduced_passes_empty_chunks(self):
        for dtype in (np.int64, object):
            num, den = _reduced(np.zeros(0, dtype=dtype), np.zeros(0, dtype=dtype))
            assert num.shape == den.shape == (0,) and den.dtype == dtype

    @pytest.mark.parametrize("logic", [GODEL, LUKASIEWICZ], ids=lambda x: x.name)
    def test_quarter_kernels_match_scalar_operators(self, logic):
        # every unary and binary point of the quarter grid, on int8 numerators
        k = np.arange(5, dtype=np.int8)
        m, n = np.repeat(k, 5), np.tile(k, 5)
        quarter = [Fraction(int(v), 4) for v in k]
        pairs = [(quarter[i], quarter[j]) for i, j in zip(m, n)]
        ops = _exact_ops(logic, np.ones(25, dtype=np.int64))
        assert (ops[Top](), ops[Bottom]()) == (4, 0)
        for got, expected in (
                (_neg_4(k), [logic.negation(x) for x in quarter]),
                (_TNORMS_4[logic.tnorm](m, n), [logic.tnorm(x, y) for x, y in pairs]),
                (_IMPLICATIONS_4[logic.implication](m, n),
                 [logic.implication(x, y) for x, y in pairs])):
            assert got.dtype == np.int8
            assert [Fraction(int(v), 4) for v in got] == expected

    def test_lazy_reduction_matches_eager(self):
        # denominators below, at and above the int64-safe 2^31, with and
        # without a common factor that brings them below it again
        def outcome(reduction, num, den):
            try:
                return [Fraction(int(a), int(b)) for a, b in zip(*reduction(num, den))]
            except _TooWide:
                return _TooWide

        rng = np.random.default_rng(17)
        safe = 2 ** 31
        chunks = [([1], [safe]), ([2], [safe]), ([1, 3], [safe - 1, 4]), ([0], [safe])]
        for trial in range(400):
            size = int(rng.integers(1, 6))
            den = rng.choice([rng.integers(1, 64, size), rng.integers(safe - 40, safe, size),
                              rng.integers(safe, safe + 40, size),
                              rng.integers(1, 2 ** 20, size) * rng.integers(1, 2 ** 16, size)])
            den = np.maximum(den, 1)
            num = rng.integers(0, den + 1)
            if trial % 2:  # a common factor on the whole chunk
                factor = int(rng.integers(2, 2 ** 12))
                num, den = num * factor, den * factor
            chunks.append((num, den))
        for num, den in chunks:
            num, den = np.array(num, dtype=np.int64), np.array(den, dtype=np.int64)
            assert outcome(_reduced, num, den) == outcome(reference_reduced, num, den), (num, den)
        for dtype in (np.int64, object):  # Python ints are reduced at every step
            num, den = np.array([2, 6], dtype=dtype), np.array([4, 8], dtype=dtype)
            expected = (np.array([1, 3]), np.array([2, 4])) if dtype is object else (num, den)
            assert all(np.array_equal(a, b) for a, b in zip(_reduced(num, den), expected))

    def test_quarter_logics_never_reduce(self, monkeypatch):
        # the exhaustive and the sampled grid, and the exact ternary solutions
        def reduced(num, den):
            raise AssertionError("a quarter-numerator logic reached _reduced")

        monkeypatch.setattr(equations, "_reduced", reduced)
        for h, _ in self.FRAMEWORKS:
            for logic, theorem_id in ((GODEL, "EQ_G"), (LUKASIEWICZ, "EQ_L")):
                for grid_cap in (5 ** len(h), 100):
                    assert verify(h, theorem_id, grid_cap=grid_cap, float_samples=0).passed
                equations.enumerate_ternary_solutions(build_equations(h, logic))
        with pytest.raises(AssertionError, match="reached _reduced"):
            verify(self.FRAMEWORKS[0][0], "EQ_P", float_samples=0)

    def test_wide_product_chunks_use_python_ints(self, monkeypatch):
        # the Product fold over ten attacks on one argument has denominators
        # up to 16^10, past the int64-safe 2^31; the attacks from a on the
        # ten attackers and attacks come last in the order, so no row is
        # pruned before the level of a's equation
        text = " ".join(f"arg(b{i}). att(r{i},b{i},a). att(s{i},a,b{i}). att(t{i},a,r{i})."
                        for i in range(10))
        h = hafs.parse("arg(a). " + text)
        calls = []
        verdicts = equations._grid_verdicts

        def spy(*args):
            calls.append((args[-1], args[-2]))
            return verdicts(*args)

        monkeypatch.setattr(equations, "_grid_verdicts", spy)
        report = verify(h, "EQ_P", grid_cap=2000)
        assert report.passed, report.counterexample
        assert report.notes == {"grid": "sampled(2000)", "float_samples": 200}
        dtypes = [dtype for dtype, _ in calls]
        assert object in dtypes
        # each Python-int call redoes the int64 call before it, on the same rows
        for (before, rows_before), (dtype, rows) in zip(calls, calls[1:]):
            if dtype is object:
                assert before is np.int64 and rows is rows_before

    @staticmethod
    def _flip_solution_rows(monkeypatch, h, logic, points):
        """Invert the solution verdict of the grid rows with code tuples
        ``points``.

        Every full-width call of ``_grid_verdicts`` reports the inverted
        verdict of the whole row on them, so the verdicts of the several
        calls a row tested level by level gets do not compound.  A frontier
        sweep (the exhaustive grid, and the whole-grid sweep that lets a
        sampled grid skip its drawn rows) makes its one full-width call only
        on rows on which a side still holds after the partial ones, so the
        points should be such rows: solutions, or models.
        """
        system = build_equations(h, logic)
        targets = np.array(points, dtype=np.int8)
        inverted = np.array([not system.is_exact_solution(
            {e: Fraction(k, 4) for e, k in zip(h.universe, point)}) for point in points])
        verdicts = equations._grid_verdicts

        def flipped(formulas, elements, logic, ops, view, positions, codes, dtype):
            model, solution = verdicts(formulas, elements, logic, ops, view, positions, codes,
                                       dtype)
            if codes.shape[1] == len(h):
                hits = (codes[:, None, :] == targets).all(axis=2)
                solution = np.where(hits.any(axis=1), (hits & inverted).any(axis=1), solution)
            return model, solution

        monkeypatch.setattr(equations, "_grid_verdicts", flipped)

    @staticmethod
    def _expected_explanation(h, point):
        if is_model(h, Assignment(point), PRODUCT):
            return "exact grid point is a model but not a solution"
        return "exact grid point is not a model but a solution"

    def test_disagreement_names_first_exhaustive_row(self, monkeypatch, f3):
        # codes over (a, b, r1), rows 107 and 112; a = 1 as its equation
        # demands, so the pruned sweep completes them
        self._flip_solution_rows(monkeypatch, f3, PRODUCT, [(4, 1, 2), (4, 2, 2)])
        report = verify(f3, "EQ_P", float_samples=0)
        assert not report.passed
        point = {argument("a"): Fraction(1), argument("b"): Fraction(1, 4),
                 hafs.attack_id("r1"): Fraction(1, 2)}
        assert report.counterexample == {
            "framework": hafs.serialize(f3),
            "explanation": self._expected_explanation(f3, point),
            "assignment": {"arg:a": "1", "arg:b": "1/4", "att:r1": "1/2"},
        }

    def test_disagreement_names_first_sampled_row(self, monkeypatch, f3):
        rng = random.Random(5)
        draws = [tuple(rng.randrange(5) for _ in f3.universe) for _ in range(10)]
        self._flip_solution_rows(monkeypatch, f3, PRODUCT, [draws[3], draws[6]])
        report = verify(f3, "EQ_P", grid_cap=10, float_samples=0, seed=5)
        assert not report.passed
        first = next(d for d in draws if d in (draws[3], draws[6]))
        point = {e: Fraction(k, 4) for e, k in zip(f3.universe, first)}
        assert report.counterexample == {
            "framework": hafs.serialize(f3),
            "explanation": self._expected_explanation(f3, point),
            "assignment": {e.qualified: str(v) for e, v in point.items()},
        }


class TestEquationOracle:
    """EQ_* reports against the unpruned scalar sweep of ``tests/helpers.py``."""

    LOGICS = {"EQ_G": GODEL, "EQ_P": PRODUCT, "EQ_L": LUKASIEWICZ}

    @pytest.mark.parametrize("theorem_id", ["EQ_G", "EQ_P", "EQ_L"])
    def test_exhaustive_grid(self, theorem_id):
        for h, _ in corpus(12, max_u=4, seed_base=16_000):
            expected = equation_equivalence_report(theorem_id, h, self.LOGICS[theorem_id],
                                                   float_samples=20, seed=3)
            report = verify(h, theorem_id, float_samples=20, seed=3)
            assert report.to_json_obj() == expected, hafs.serialize(h)

    @pytest.mark.parametrize("theorem_id", ["EQ_G", "EQ_P", "EQ_L"])
    def test_sampled_grid(self, theorem_id):
        for i, (h, _) in enumerate(corpus(12, max_u=7, seed_base=16_100)):
            if 5 ** len(h) <= 150:
                continue
            expected = equation_equivalence_report(theorem_id, h, self.LOGICS[theorem_id],
                                                   grid_cap=150, float_samples=20, seed=i)
            report = verify(h, theorem_id, grid_cap=150, float_samples=20, seed=i)
            assert report.to_json_obj() == expected, hafs.serialize(h)

    @pytest.mark.parametrize("theorem_id", ["EQ_G", "EQ_P", "EQ_L"])
    def test_first_flipped_row(self, monkeypatch, theorem_id):
        logic = self.LOGICS[theorem_id]
        for i, (h, _) in enumerate(corpus(8, max_u=5, seed_base=16_200)):
            # models are completed by the pruned sweep; the last two flip first
            models = [tuple(THREE_VALUES.index(v) * 2 for v in m.values())
                      for m in pl3_models(h)]
            rng = random.Random(i)
            sampled = [tuple(rng.randrange(5) for _ in h.universe) for _ in range(40)]
            for grid_cap, points in ((5 ** len(h), models[-2:]), (40, sampled[7:9])):
                expected = equation_equivalence_report(theorem_id, h, logic, grid_cap=grid_cap,
                                                       float_samples=0, seed=i,
                                                       flipped=frozenset(points))
                with monkeypatch.context() as patch:
                    TestExactGrid._flip_solution_rows(patch, h, logic, points)
                    report = verify(h, theorem_id, grid_cap=grid_cap, float_samples=0, seed=i)
                assert not report.passed
                assert report.to_json_obj() == expected, (hafs.serialize(h), grid_cap)


    @pytest.mark.parametrize("theorem_id", ["EQ_G", "EQ_P", "EQ_L"])
    def test_sampled_grid_on_eight_and_nine_elements(self, monkeypatch, theorem_id):
        # two support-acyclic and two support-cyclic frameworks; most drawn
        # rows are pruned early
        logic = self.LOGICS[theorem_id]
        frameworks = [h for h, _ in corpus(60, max_u=9, max_args=5, seed_base=16_300)
                      if len(h) >= 8]
        for i, h in enumerate([frameworks[j] for j in (0, 1, 11, 15)]):
            expected = equation_equivalence_report(theorem_id, h, logic, grid_cap=2500,
                                                   float_samples=20, seed=i)
            report = verify(h, theorem_id, grid_cap=2500, float_samples=20, seed=i)
            assert report.to_json_obj() == expected, hafs.serialize(h)
        # no drawn row of those solves the equations, so the flipped rows come
        # from four self-supported arguments, on which 1 row in 625 does: two
        # drawn solutions deep in the draw, in two of its three 1000-row
        # chunks, flipped under the whole-grid sweep's own budget (which runs
        # out), a budget of 0 and one that the whole grid fits, where the
        # sweep must see the flipped rows
        monkeypatch.setattr(bridge, "_EQ_CHUNK_ROWS", 1000)
        h = hafs.parse(" ".join(f"arg(a{k}). supp(t{k},a{k},a{k})." for k in range(4)))
        system = build_equations(h, logic)
        for seed in (2, 3):
            rng = random.Random(seed)
            sampled = [tuple(rng.randrange(5) for _ in h.universe) for _ in range(2500)]
            deep = [j for j, codes in enumerate(sampled) if j >= 1200 and system.is_exact_solution(
                {e: Fraction(k, 4) for e, k in zip(h.universe, codes)})][:2]
            assert [j // 1000 for j in deep] == [1, 2]
            points = [sampled[j] for j in deep]
            expected = equation_equivalence_report(theorem_id, h, logic, grid_cap=2500,
                                                   float_samples=0, seed=seed,
                                                   flipped=frozenset(points))
            for budget in (None, 0, 5 ** len(h)):
                with monkeypatch.context() as patch:
                    TestExactGrid._flip_solution_rows(patch, h, logic, points)
                    agrees = _frontier_budget(patch, budget)
                    report = verify(h, theorem_id, grid_cap=2500, float_samples=0, seed=seed)
                assert agrees == [False]
                assert not report.passed
                assert report.to_json_obj() == expected, (seed, budget)

    @pytest.mark.parametrize("theorem_id", ["EQ_G", "EQ_P", "EQ_L"])
    def test_sampled_rows_are_the_drawn_models_and_solutions(self, monkeypatch, theorem_id):
        # every drawn row on which a side holds comes out, in the order
        # drawn, with both verdicts; chunks of 256 rows, so that several
        # chunks are drawn, and the generator ends where the per-row draw does
        monkeypatch.setattr(bridge, "_EQ_CHUNK_ROWS", 256)
        logic = self.LOGICS[theorem_id]
        for i, (h, _) in enumerate(corpus(10, max_u=8, seed_base=16_500)):
            formula, system = encode_normal(h), build_equations(h, logic)
            reference = random.Random(i)
            expected = []
            for _ in range(700):
                codes = tuple(reference.randrange(5) for _ in h.universe)
                point = {e: Fraction(k, 4) for e, k in zip(h.universe, codes)}
                model = evaluate(formula, point, logic) == 1
                solution = system.is_exact_solution(point)
                if model or solution:
                    expected.append((codes, model, solution))
            rng = random.Random(i)
            levels, check = equations._level_check(h.incidence, {theorem_id: system.logic},
                                                   formula, equations=True)
            rows = [(tuple(codes), model, solution)
                    for drawn in bridge._drawn_chunks(bridge._draw_codes, rng, len(h), 700)
                    for codes, (model, solution) in zip(*(
                        a.tolist() for a in bridge._sampled_verdicts(drawn, 2, levels, check)))]
            assert rows == expected, hafs.serialize(h)
            assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("theorem_id", ["EQ_G", "EQ_P", "EQ_L"])
    def test_first_flipped_float_sample(self, monkeypatch, theorem_id):
        flipped = frozenset({4, 9})
        residuals = EquationSystem.residuals

        def inverted(system, points):
            gaps = residuals(system, points)
            rows = sorted(r for r in flipped if r < len(gaps))
            gaps[rows] = np.where(gaps[rows] <= FLOAT_RESIDUAL_TOL, 1.0, 0.0)
            return gaps

        monkeypatch.setattr(EquationSystem, "residuals", inverted)
        logic = self.LOGICS[theorem_id]
        for i, (h, _) in enumerate(corpus(8, max_u=5, seed_base=16_400)):
            expected = equation_equivalence_report(theorem_id, h, logic, grid_cap=50,
                                                   float_samples=12, seed=i,
                                                   flipped_samples=flipped)
            report = verify(h, theorem_id, grid_cap=50, float_samples=12, seed=i)
            assert not report.passed
            assert report.to_json_obj() == expected, hafs.serialize(h)


def _frontier_budget(monkeypatch, budget):
    """Make the whole-grid sweep of a sampled EQ_* grid grow at most
    ``budget`` rows, not ``grid_cap`` (None keeps ``grid_cap``): 0 forces
    the level-by-level pass over each drawn chunk.  Returns the list to
    which each sweep appends whether it cleared every drawn row."""
    grid_agrees, agrees = bridge._grid_agrees, []

    def budgeted(width, sides, levels, check, grid_cap):
        agrees.append(grid_agrees(width, sides, levels, check,
                                  grid_cap if budget is None else budget))
        return agrees[-1]

    monkeypatch.setattr(bridge, "_grid_agrees", budgeted)
    return agrees


class TestSampledPaths:
    """A sampled grid that skips its drawn rows, once the whole-grid sweep
    finds that every logic's two sides agree, against the level-by-level
    pass over each drawn chunk."""

    # planted kernel faults, each with the EQ_* id it shows on
    FAULTS = {
        "godel_tnorm_is_max": ("EQ_G", lambda patch: patch.setitem(
            equations._TNORMS_4, hafs.logic._tnorm_min, np.maximum)),
        "lukasiewicz_implication_capped_at_5": ("EQ_L", lambda patch: patch.setitem(
            equations._IMPLICATIONS_4, hafs.logic._impl_lukasiewicz,
            lambda m, n: np.minimum(4 - m + n, 5))),
        "godel_implication_is_strict": ("EQ_G", lambda patch: patch.setitem(
            equations._IMPLICATIONS_4, hafs.logic._impl_godel,
            lambda m, n: np.where(m < n, 4, n))),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_both_paths_agree_under_kernel_faults(self, monkeypatch, fault):
        # with a kernel fault planted, the reports of one call for all three
        # ids, verdicts and counterexamples, are the same under the sweep's
        # own budget, a budget of 0 (the level-by-level pass) and one that
        # the whole grid fits, where the sweep must catch every framework
        # that fails under any of the logics (the strict Gödel implication
        # leaves some alone, and those skip their drawn rows); 64-row chunks,
        # so that a counterexample can lie past the first
        theorem_id, plant = self.FAULTS[fault]
        ids = list(TestEquationOracle.LOGICS)
        monkeypatch.setattr(bridge, "_EQ_CHUNK_ROWS", 64)
        plant(monkeypatch)
        failed = 0
        for i, (h, _) in enumerate(corpus(40, max_u=7, seed_base=18_000)):
            for grid_cap in (20, 300):
                if 5 ** len(h) <= grid_cap:
                    continue
                reports, agrees = [], []
                for budget in (None, 0, 2 * 5 ** len(h)):
                    inputs = bridge._Inputs(h, ids)
                    with monkeypatch.context() as patch:
                        swept = _frontier_budget(patch, budget)
                        reports.append({t: verify(h, t, grid_cap=grid_cap, float_samples=0,
                                                  seed=i, inputs=inputs).to_json_obj()
                                        for t in ids})
                    agrees += swept
                assert agrees[1] is False
                assert reports[1:] == reports[:1] * 2, (hafs.serialize(h), grid_cap)
                assert all(r["passed"] for r in reports[0].values()) or not agrees[2]
                failed += not reports[0][theorem_id]["passed"]
        assert failed >= 5

    def test_budget_runs_out_on_disjoint_mutual_attack_pairs(self, monkeypatch):
        # the whole-grid sweep of k disjoint mutual-attack pairs tests nothing
        # until every argument column is assigned, so it outgrows grid_cap
        # rows at once, and the level-by-level pass gives the oracle's report;
        # with a budget that the whole grid fits, it skips the drawn rows
        for k, grid_cap in ((2, 1000), (3, 300)):
            h = hafs.parse(" ".join(f"arg(a{j}). arg(b{j}). att(r{j},a{j},b{j}). "
                                    f"att(s{j},b{j},a{j})." for j in range(k)))
            for budget, skips in ((None, False), (2 * 5 ** len(h), True)):
                inputs = bridge._Inputs(h, ["EQ_G", "EQ_P", "EQ_L"])
                with monkeypatch.context() as patch:
                    agrees = _frontier_budget(patch, budget)
                    reports = {t: verify(h, t, grid_cap=grid_cap, float_samples=20, seed=k,
                                         inputs=inputs) for t in TestEquationOracle.LOGICS}
                assert agrees == [skips]
                for theorem_id, logic in TestEquationOracle.LOGICS.items():
                    assert reports[theorem_id].passed
                    assert reports[theorem_id].to_json_obj() == equation_equivalence_report(
                        theorem_id, h, logic, grid_cap=grid_cap, float_samples=20, seed=k)


class TestDrawCodes:
    """The bulk draw against the ``randrange`` loop it replaces."""

    class _Counting(random.Random):
        def getrandbits(self, k):
            self.calls.append(k)
            return super().getrandbits(k)

    @pytest.mark.parametrize("seed, count", [
        (0, 0), (7, 1), (123, bridge._EQ_CHUNK_ROWS * 8), (1, 1000)])
    def test_matches_randrange_and_end_state(self, seed, count):
        reference = self._Counting(seed)
        reference.calls = []
        expected = [reference.randrange(5) for _ in range(count)]
        bulk = self._Counting(seed)
        bulk.calls = []
        codes = bridge._draw_codes(bulk, count)
        assert codes.tolist() == expected
        assert bulk.getstate() == reference.getstate()
        assert bulk.random() == reference.random()
        # each 32-bit word drawn is one the loop consumed: none is drawn twice
        assert sum(bulk.calls) // 32 == len(reference.calls)


class TestDrawFloats:
    """The bulk float draw against the ``random()`` loop it replaces."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("count", [0, 1, 1600])
    def test_matches_random_and_end_state(self, seed, count):
        reference = random.Random(seed)
        expected = [reference.random() for _ in range(count)]
        bulk = random.Random(seed)
        values = bridge._draw_floats(bulk, count)
        assert values.dtype == np.float64 and values.tolist() == expected
        assert bulk.getstate() == reference.getstate()
        assert bulk.random() == reference.random()


def _cli(argv, text):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(text), stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def _single_id_calls(ids, text, options):
    """What one ``hafs verify`` call with ``ids`` should give, put together
    from one call per id: every report in order, or the exit code and
    message of the first id whose call fails with an error."""
    reports = []
    for theorem_id in ids:
        code, out, err = _cli(["verify", "-", "--theorem", theorem_id] + options, text)
        if err:
            return code, out, err
        reports += json.loads(out)["reports"]
    out = json.dumps({"reports": reports}, indent=2, sort_keys=True) + "\n"
    return (0 if all(r["passed"] for r in reports) else 1), out, ""


def _one_call(ids, text, options):
    return _cli(["verify", "-"] + [a for t in ids for a in ("--theorem", t)] + options, text)


def _applicable(h, logic):
    rejected = {"T2"} if not hafs.is_support_acyclic(h) else set()
    rejected |= {"lukasiewicz": {"T16", "IDEM"}, "product": {"IDEM"}}.get(logic, set())
    return [t for t in THEOREM_IDS if t not in rejected]


class TestSharedInputs:
    """One ``verify`` invocation computes each input its checks share once,
    and gives the same reports, exit code and errors as one call per id."""

    # |U| <= 8; with --grid-cap 300 and 64-row chunks, |U| <= 3 sweeps the
    # whole grid and larger frameworks draw several chunks
    FRAMEWORKS = corpus(10, max_u=8, seed_base=17_000)
    OPTIONS = ["--grid-cap", "300", "--float-samples", "20"]

    @pytest.mark.parametrize("logic", ["godel", "product", "lukasiewicz"])
    def test_one_call_equals_the_single_id_calls(self, monkeypatch, logic):
        monkeypatch.setattr(bridge, "_EQ_CHUNK_ROWS", 64)
        rng = random.Random(17)
        for i, (h, _) in enumerate(self.FRAMEWORKS):
            text = hafs.serialize(h)
            options = self.OPTIONS + ["--logic", logic, "--seed", str(i)]
            applicable = _applicable(h, logic)
            repeated = applicable + [rng.choice(applicable), "EQ_P", "CORR_G"]
            rng.shuffle(repeated)
            # every id, so that an id this framework or logic rejects raises
            # from a drawn place in the order
            every = list(THEOREM_IDS)
            rng.shuffle(every)
            for ids in (applicable, repeated, every):
                expected = _single_id_calls(ids, text, options)
                assert _one_call(ids, text, options) == expected, (text, ids)

    def test_first_raising_id_wins(self, example3):
        # example3 has a support cycle, so T2 raises; under product IDEM
        # raises too, under lukasiewicz T16
        text = hafs.serialize(example3)
        for ids, logic, message in (
                (["EQ_G", "T2", "IDEM"], "product", "cycle"),
                (["EQ_G", "CORR_G", "IDEM", "T2"], "product", "does not fix 1/2"),
                (["T16", "EQ_L", "T2"], "lukasiewicz", "zero divisors")):
            options = self.OPTIONS + ["--logic", logic]
            code, out, err = _one_call(ids, text, options)
            assert (code, out, err) == _single_id_calls(ids, text, options)
            assert code == 1 and out == "" and message in err

    @staticmethod
    def _invert(monkeypatch, rows_by_logic, sample_by_logic):
        """Invert, per logic, the solution verdict of the grid rows given as
        (codes, whether they solve the equations) in every full-width call
        of ``_grid_verdicts`` (as ``TestExactGrid`` does), and the residual
        verdict of the float sample numbered in ``sample_by_logic``."""
        verdicts, residuals = equations._grid_verdicts, EquationSystem.residuals

        def flipped(formulas, elements, logic, ops, view, positions, codes, dtype):
            model, solution = verdicts(formulas, elements, logic, ops, view, positions, codes,
                                       dtype)
            for target, truth in rows_by_logic.get(logic, ()):
                if codes.shape[1] == len(target):
                    solution = np.where((codes == target).all(axis=1), not truth, solution)
            return model, solution

        def inverted(system, points):
            gaps = residuals(system, points)
            row = sample_by_logic.get(system.logic)
            if row is not None and row < len(gaps):
                gaps[row] = 1.0 if gaps[row] <= FLOAT_RESIDUAL_TOL else 0.0
            return gaps

        monkeypatch.setattr(equations, "_grid_verdicts", flipped)
        monkeypatch.setattr(EquationSystem, "residuals", inverted)

    def test_early_failure_of_one_eq_logic_leaves_the_others_alone(self, monkeypatch):
        # EQ_G fails on a drawn solution of the first chunk (and would again
        # on the last one drawn), EQ_P on the last drawn solution, in the last
        # chunk, and EQ_L on a float sample, so EQ_P and EQ_L must still test
        # every chunk, and draw the float samples where the grid left off;
        # each report is also checked against the unpruned scalar sweep.  The
        # flipped rows are solutions, which the whole-grid sweep keeps to full
        # width, so that it sees them wherever it fits its budget
        monkeypatch.setattr(bridge, "_EQ_CHUNK_ROWS", 64)
        for text, seed in (("arg(a). arg(b). supp(t1,a,a). supp(t2,b,b).", 0),
                           ("arg(a). arg(b). att(r1,a,b). att(r2,b,a).", 0),
                           ("arg(a). arg(b). arg(c). supp(t1,a,a). supp(t2,b,b). "
                            "supp(t3,c,c).", 2)):
            h = hafs.parse(text)
            drawn = random.Random(seed)
            rows = [np.array([drawn.randrange(5) for _ in h.universe], dtype=np.int8)
                    for _ in range(300)]

            def solutions(logic, h=h, rows=rows):
                system = build_equations(h, logic)
                return [j for j, row in enumerate(rows) if system.is_exact_solution(
                    {e: Fraction(int(k), 4) for e, k in zip(h.universe, row)})]
            godel, product = solutions(GODEL), solutions(PRODUCT)
            assert godel[0] < 64 <= godel[-1] and product[-1] >= 256, text
            flips = {GODEL: [godel[0], godel[-1]], PRODUCT: [product[-1]]}

            ids = ["EQ_G", "T1", "EQ_P", "EQ_L"]
            options = self.OPTIONS + ["--seed", str(seed)]
            with monkeypatch.context() as patch:
                self._invert(patch, {logic: [(rows[j], True) for j in picked]
                                     for logic, picked in flips.items()}, {LUKASIEWICZ: 4})
                code, out, err = _one_call(ids, text, options)
                assert (code, out, err) == _single_id_calls(ids, text, options), text
            reports = json.loads(out)["reports"]
            assert [r["passed"] for r in reports] == [False, True, False, False]
            oracle = {"grid_cap": 300, "float_samples": 20, "seed": seed}
            codes = {logic: frozenset(tuple(rows[j].tolist()) for j in picked)
                     for logic, picked in flips.items()}
            assert [reports[0], reports[2], reports[3]] == [
                equation_equivalence_report("EQ_G", h, GODEL, **oracle, flipped=codes[GODEL]),
                equation_equivalence_report("EQ_P", h, PRODUCT, **oracle,
                                            flipped=codes[PRODUCT]),
                equation_equivalence_report("EQ_L", h, LUKASIEWICZ, **oracle,
                                            flipped_samples=frozenset([4]))], text

    def test_early_failure_of_one_eq_logic_leaves_the_others_alone_on_the_whole_grid(
            self, monkeypatch):
        # the exhaustive twin of the test above: EQ_G fails on its first
        # ternary solution in grid order (and would again on a second, where
        # there is one), EQ_L on a float sample; the attack cycles keep many
        # rows alive past that solution, so with 4-row chunks the one sweep
        # of the grid goes on after EQ_G's failing row, for EQ_P and EQ_L only
        monkeypatch.setattr(equations, "_FRONTIER_ROWS", 4)
        for i, text in enumerate([
                "arg(a). arg(b). att(r1,a,b). att(r2,b,a).",
                "arg(a). arg(b). att(r1,a,b). att(r2,b,a). supp(t1,a,b).",
                "arg(a). arg(b). arg(c). att(r1,a,b). att(r2,b,c). att(r3,c,a)."]):
            h = hafs.parse(text)
            solutions = equations.enumerate_ternary_solutions(build_equations(h, GODEL))
            rows = [np.array([int(v * 4) for v in s.values()], dtype=np.int8)
                    for s in solutions[:2]]
            ids = ["EQ_G", "T1", "EQ_P", "EQ_L"]
            options = ["--float-samples", "20", "--seed", str(i)]
            calls = []
            with monkeypatch.context() as patch:
                self._invert(patch, {GODEL: [(row, True) for row in rows]}, {LUKASIEWICZ: 4})
                expected = _single_id_calls(ids, text, options)
                flipped = equations._grid_verdicts

                def spy(formulas, elements, logic, ops, view, positions, codes, dtype):
                    calls.append((logic, codes))
                    return flipped(formulas, elements, logic, ops, view, positions, codes,
                                   dtype)

                patch.setattr(equations, "_grid_verdicts", spy)
                code, out, err = _one_call(ids, text, options)
            assert (code, out, err) == expected, text
            reports = json.loads(out)["reports"]
            assert [r["passed"] for r in reports] == [False, True, True, False]
            assert all(r["notes"].get("grid") in (None, "exhaustive") for r in reports)
            oracle = {"float_samples": 20, "seed": i}
            assert [reports[0], reports[2], reports[3]] == [
                equation_equivalence_report("EQ_G", h, GODEL, **oracle, flipped=frozenset(
                    tuple(row.tolist()) for row in rows)),
                equation_equivalence_report("EQ_P", h, PRODUCT, **oracle),
                equation_equivalence_report("EQ_L", h, LUKASIEWICZ, **oracle,
                                            flipped_samples=frozenset([4]))], text
            # one sweep: each chunk is tested under the three logics in turn
            # up to the full-width chunk of EQ_G's failing row, and after it
            # under EQ_P and EQ_L only
            names = [logic.name for logic, _ in calls]
            hit = next(j for j, (logic, codes) in enumerate(calls) if logic == GODEL
                       and codes.shape[1] == len(h) and (codes == rows[0]).all(axis=1).any())
            assert names[:hit + 3] == ["godel", "product", "lukasiewicz"] * (hit // 3 + 1), text
            assert set(names[hit + 3:]) == {"product", "lukasiewicz"}, text

    def test_float_samples_are_drawn_and_tested_in_chunks(self, monkeypatch):
        # with 3-row chunks, EQ_G fails on float sample 1 (first chunk), EQ_P
        # on sample 7 (third chunk) and EQ_L on sample 4 (second chunk) or
        # not at all: the reports equal the unchunked ones and the scalar
        # oracle's, and no chunk is drawn once every logic has failed
        residuals, draw_floats = EquationSystem.residuals, bridge._draw_floats
        flipped, draws = {}, []

        def inverted(system, points):
            gaps = residuals(system, points)
            if system.logic in flipped:
                rows = (points == flipped[system.logic]).all(axis=1)
                gaps[rows] = np.where(gaps[rows] <= FLOAT_RESIDUAL_TOL, 1.0, 0.0)
            return gaps

        def counted(rng, count):
            draws.append(count)
            return draw_floats(rng, count)

        monkeypatch.setattr(EquationSystem, "residuals", inverted)
        monkeypatch.setattr(bridge, "_draw_floats", counted)
        ids = ["EQ_G", "EQ_P", "EQ_L"]
        for i, (h, _) in enumerate(corpus(6, max_u=5, seed_base=16_400)):
            text, n = hafs.serialize(h), len(h)
            reference = random.Random(i)
            if 5 ** n > 50:
                [reference.randrange(5) for _ in range(50 * n)]
            samples = np.array([[reference.random() for _ in range(n)] for _ in range(12)])
            options = ["--grid-cap", "50", "--float-samples", "12", "--seed", str(i)]
            for lukasiewicz in (None, 4):
                flipped.clear()
                flipped.update({GODEL: samples[1], PRODUCT: samples[7]})
                if lukasiewicz is not None:
                    flipped[LUKASIEWICZ] = samples[lukasiewicz]
                whole = _one_call(ids, text, options)
                with monkeypatch.context() as patch:
                    patch.setattr(bridge, "_EQ_CHUNK_ROWS", 3)
                    draws.clear()
                    assert _one_call(ids, text, options) == whole, text
                    assert draws == [3 * n] * (4 if lukasiewicz is None else 3)
                reports = json.loads(whole[1])["reports"]
                assert [r["passed"] for r in reports] == [False, False, lukasiewicz is None]
                failing = {"EQ_G": {1}, "EQ_P": {7}, "EQ_L": {lukasiewicz} - {None}}
                assert reports == [
                    equation_equivalence_report(t, h, bridge._EQ_LOGICS[t], grid_cap=50,
                                                float_samples=12, seed=i,
                                                flipped_samples=frozenset(failing[t]))
                    for t in ids], text

    @pytest.mark.parametrize("logic", ["godel", "product"])
    def test_each_shared_input_is_made_once(self, monkeypatch, logic):
        # an 8-element framework whose grid is sampled: every shared producer
        # runs once per view, and the codes and float samples are drawn once
        # for all three EQ_* ids; T16 shares CORR_G's solve under Gödel only
        h = next(h for h, acyclic in corpus(40, max_u=8, seed_base=17_100)
                 if acyclic and len(h) == 8)
        calls = {}

        def spy(name):
            original = getattr(bridge, name)

            def counted(*args, **kwargs):
                calls.setdefault(name, []).append(args)
                return original(*args, **kwargs)
            monkeypatch.setattr(bridge, name, counted)

        for name in ("enumerate_adjacent_complete", "enumerate_extensions", "encode_normal",
                     "build_equations", "solve_fixed_point", "enumerate_ternary_solutions",
                     "framework_digest", "_draw_codes", "_draw_floats"):
            spy(name)
        ids = [t for t in THEOREM_IDS if t != "IDEM" or logic == "godel"]
        code, out, _ = _one_call(ids, hafs.serialize(h),
                                 ["--grid-cap", "2000", "--float-samples", "30",
                                  "--logic", logic])
        assert code == 0 and len(json.loads(out)["reports"]) == len(ids)
        solves = 1 if logic == "godel" else 2
        counts = {name: len(args) for name, args in calls.items()}
        assert counts == {"enumerate_adjacent_complete": 1, "enumerate_extensions": 1,
                          "encode_normal": 1, "build_equations": 3, "solve_fixed_point": solves,
                          "enumerate_ternary_solutions": solves, "framework_digest": 1,
                          "_draw_codes": 1, "_draw_floats": 1}
        assert [args[1] for args in calls["build_equations"]] == [GODEL, PRODUCT, LUKASIEWICZ]
        expected = [GODEL] if logic == "godel" else [PRODUCT, GODEL]  # T16, then CORR_G
        for name in ("solve_fixed_point", "enumerate_ternary_solutions"):
            assert [args[0].logic for args in calls[name]] == expected
        assert [args[1] for args in calls["_draw_codes"]] == [2000 * len(h)]
        assert [args[1] for args in calls["_draw_floats"]] == [30 * len(h)]

    def test_reports_are_the_same_with_or_without_shared_inputs(self, monkeypatch, example3,
                                                                 f3, f6):
        # float sample 3 is inverted, so that each EQ_* report names a
        # sample drawn from its own seed; one object read under two seeds
        # and two bounds gives each call's own report or error
        self._invert(monkeypatch, {}, {GODEL: 3, PRODUCT: 3, LUKASIEWICZ: 3})

        def outcome(h, theorem_id, **options):
            try:
                return verify(h, theorem_id, grid_cap=50, float_samples=10,
                              **options).to_json_obj()
            except hafs.SizeBoundError as exc:
                return str(exc)

        for h in (example3, f3, f6):
            shared = bridge._Inputs(h, THEOREM_IDS)
            for seed, bound in ((0, 8), (1, 8), (1, 2)):
                for theorem_id in _applicable(h, "godel"):
                    assert outcome(h, theorem_id, seed=seed, bound=bound, inputs=shared) == \
                        outcome(h, theorem_id, seed=seed, bound=bound), \
                        (hafs.serialize(h), theorem_id, seed, bound)

    def test_inputs_of_another_framework_are_rejected(self, example3, f3):
        with pytest.raises(ValueError):
            verify(f3, "T1", inputs=bridge._Inputs(example3))


class TestReports:
    def test_failed_report_requires_counterexample(self):
        with pytest.raises(ValueError):
            VerificationReport("T1", "digest", passed=False)

    def test_digest_is_deterministic_and_content_bound(self, example3, f3):
        assert framework_digest(example3) == framework_digest(
            hafs.parse(hafs.serialize(example3)))
        assert framework_digest(example3) != framework_digest(f3)

    def test_theorem_registry(self):
        assert THEOREM_IDS == ("T1", "T2", "T_PL3", "EQ_G", "EQ_P", "EQ_L",
                               "T16", "IDEM", "CORR_G")

    def test_report_json_shape(self, example3):
        obj = verify(example3, "T1").to_json_obj()
        assert set(obj) == {"theorem", "framework_digest", "passed",
                            "counterexample", "notes"}

    # a failed T2, T_PL3 or CORR_G names the first labelling of the labelling
    # family that the other side lacks, in grid order, else the first item of
    # the other side that the family lacks, in that side's order; the other
    # side (or the family) is forced empty
    MUTUAL = "arg(a0). arg(b0). att(r0,a0,b0). att(s0,b0,a0). " \
             "arg(a1). arg(b1). att(r1,a1,b1). att(s1,b1,a1)."

    @pytest.mark.parametrize("theorem_id, emptied, key, side", [
        ("T2", "enumerate_extensions", "labelling", "adjacent only"),
        ("T_PL3", "enumerate_pl3_models", "assignment", "labelling only"),
        ("T_PL3", "enumerate_adjacent_complete", "assignment", "model only"),
        ("CORR_G", "enumerate_ternary_solutions", "labelling", "labelling only"),
    ])
    def test_failure_report_is_independent_of_hash_seed(self, theorem_id, emptied, key,
                                                        side):
        script = (f"import sys; from hafs import bridge, cli; "
                  f"bridge.{emptied} = lambda *args, **kwargs: (); "
                  f"sys.exit(cli.run(['verify', '-', '--theorem', '{theorem_id}']))")
        src = os.path.dirname(os.path.dirname(hafs.__file__))
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", script], input=self.MUTUAL.encode(),
                                  capture_output=True, env=env, timeout=120)
            assert done.returncode == 1, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        (report,) = json.loads(outputs[0])["reports"]
        first = hafs.enumerate_adjacent_complete(hafs.parse(self.MUTUAL))[0]
        assert side in report["counterexample"]["explanation"]
        assert report["counterexample"][key] == first.to_json_obj()


class TestPl3KernelFaults:
    # T_PL3 compares the labelling search with the models of the encoding,
    # which are read through the L3 quarter kernels: a fault planted in any
    # of them shows as a failed T_PL3 on most of a fixed corpus
    FAULTS = {
        "negation_is_max_3_minus_x": lambda patch: patch.setattr(
            equations, "_neg_4", lambda x: np.maximum(3 - x, 0)),
        "min_tnorm_is_max": lambda patch: patch.setitem(
            equations._TNORMS_4, hafs.logic._tnorm_min, np.maximum),
        "lukasiewicz_implication_capped_at_3": lambda patch: patch.setitem(
            equations._IMPLICATIONS_4, hafs.logic._impl_lukasiewicz,
            lambda m, n: np.minimum(4 - m + n, 3)),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_t_pl3_fails(self, monkeypatch, fault):
        frameworks = [h for h, _ in corpus(40, max_u=6, seed_base=18_000)]
        assert all(verify(h, "T_PL3").passed for h in frameworks)
        self.FAULTS[fault](monkeypatch)
        failed = sum(not verify(h, "T_PL3").passed for h in frameworks)
        assert failed >= len(frameworks) // 2, failed


class TestLabellingSearchFaults:
    # a fault planted in the labelling search shows in each check that compares
    # the labelling family with a view of its own: the extension-derived
    # labellings (T2), the models of the encoding (T_PL3) and the exact Gödel
    # solutions (CORR_G); all frameworks have acyclic supports, so T2 applies
    CORPUS = ("arg(a).",
              "arg(a). arg(b). att(r1,a,b).",
              "arg(a). arg(b). att(r1,a,b). att(r2,b,a).",
              "arg(a). att(r1,a,a).",
              "arg(a). arg(b). arg(c). supp(t1,c,a). att(r1,b,c).",
              "arg(a). arg(b). arg(c). att(r1,a,b). att(r2,c,r1). supp(t1,a,c).")
    SIDES = {"drop": {"T2": "extension-derived only", "T_PL3": "model only",
                      "CORR_G": "ternary solution only"},
             "add": {"T2": "adjacent only", "T_PL3": "labelling only",
                     "CORR_G": "labelling only"}}

    @pytest.mark.parametrize("fault", ["drop", "add"])
    def test_each_cross_check_fails(self, monkeypatch, fault):
        search = labellings._complete_codes
        added = []

        def planted(view):
            found = search(view)
            if fault == "drop":  # the last labelling in grid order
                return found[:-1]
            extra = next(list(codes) for codes in itertools.product(range(3), repeat=len(found[0]))
                         if list(codes) not in found)
            added.append(extra)
            return sorted(found + [extra])

        frameworks = [hafs.parse(text) for text in self.CORPUS]
        for h in frameworks:
            assert all(verify(h, t).passed for t in self.SIDES[fault]), hafs.serialize(h)
        monkeypatch.setattr(labellings, "_complete_codes", planted)
        for h in frameworks:
            for theorem_id, side in self.SIDES[fault].items():
                report = verify(h, theorem_id)
                assert not report.passed, (hafs.serialize(h), theorem_id)
                assert side in report.counterexample["explanation"], report.counterexample
        if fault == "add":
            assert len(added) == 3 * len(frameworks)
            for h, codes in zip(frameworks, added[::3]):
                labelling = hafs.Labelling3(zip(h.universe, [THREE_VALUES[k] for k in codes]))
                assert not hafs.is_adjacent_complete(h, labelling), hafs.serialize(h)


class TestExtensionSearchFaults:
    # T1 and T2 read the complete extensions through the mask kernel of
    # hafs.extensions, which shares no code with the labelling search: a fault
    # planted in the kernel or its search shows as a failed cross-check
    ACYCLIC = TestLabellingSearchFaults.CORPUS

    def test_dropped_extension_fails_t2(self, monkeypatch):
        search = extensions._complete_masks
        frameworks = [hafs.parse(text) for text in self.ACYCLIC]
        assert all(verify(h, "T2").passed for h in frameworks)
        # the last complete extension in size-then-lexicographic order
        monkeypatch.setattr(extensions, "_complete_masks", lambda masks: search(masks)[:-1])
        for h in frameworks:
            report = verify(h, "T2")
            assert not report.passed, hafs.serialize(h)
            assert "adjacent only" in report.counterexample["explanation"], report.counterexample

    def test_skipped_support_closure_fails_t1_or_t2(self, monkeypatch):
        class WithoutClosure(extensions._Masks):
            def __init__(self, view):
                super().__init__(view)
                self.sources = 0  # no defeated supporter passes its defeat on

        frameworks = [h for h, _ in corpus(40, max_u=6, seed_base=19_000)]
        frameworks.append(hafs.parse(self.ACYCLIC[4]))  # b defeats a through c's support
        theorems = [(h, t) for h in frameworks for t in ("T1", "T2")
                    if t == "T1" or hafs.is_support_acyclic(h)]
        assert all(verify(h, t).passed for h, t in theorems)
        monkeypatch.setattr(extensions, "_Masks", WithoutClosure)
        failed = {hafs.serialize(h) for h, t in theorems if not verify(h, t).passed}
        assert hafs.serialize(frameworks[-1]) in failed
        assert len(failed) >= 2, failed
