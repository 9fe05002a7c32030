import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hafs
from hafs import (Assignment, GODEL, L3, LUKASIEWICZ, PRODUCT, PreconditionError,
                  THEOREM_IDS, ValidationError, argument, build_equations, embed,
                  encode_normal, enumerate_pl3_models, evaluate, framework_digest,
                  is_model, support_id, ternarize, verify)
from hafs import bridge
from hafs.bridge import VerificationReport
from hafs.labellings import HALF, ONE, THREE_VALUES, ZERO, grid_codes

from helpers import corpus

A, B = argument("a"), argument("b")
T1 = support_id("t1")


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
        for h, _ in corpus(30, max_u=5, seed_base=12_000):
            scalar = {
                hafs.Labelling3(dict(zip(h.universe, combo)))
                for combo in itertools.product(THREE_VALUES, repeat=len(h))
                if is_model(h, Assignment(dict(zip(h.universe, combo))), L3)
            }
            assert set(enumerate_pl3_models(h)) == scalar, hafs.serialize(h)

    def test_example3_models_are_the_labellings(self, example3):
        models = enumerate_pl3_models(example3)
        assert len(models) == 3
        assert set(models) == set(hafs.enumerate_adjacent_complete(example3))


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
            codes = grid_codes(len(h), 5, 0, 5 ** len(h))
            columns = bridge._quarter_columns(h.universe, codes, dtype)
            one = np.ones(len(codes), dtype=dtype)
            num, den = bridge._eval_grid_exact(formula, columns, one, logic)
            mask = bridge._solution_mask(system, columns, one)
            for row, ks in enumerate(codes):
                point = {e: Fraction(int(k), 4) for e, k in zip(h.universe, ks)}
                value = Fraction(int(num[row]), int(den[row]))
                assert value == evaluate(formula, point, logic), (hafs.serialize(h), point)
                assert bool(mask[row]) == system.is_exact_solution(point), \
                    (hafs.serialize(h), point)

    def test_wide_product_chunks_use_python_ints(self, monkeypatch):
        h = hafs.generate_random(6, 5, 5, seed=1, higher_order_prob=0.3)
        assert len(h) >= 16
        dtypes = []
        verdicts = bridge._grid_verdicts

        def spy(formula, system, codes, dtype):
            dtypes.append(dtype)
            return verdicts(formula, system, codes, dtype)

        monkeypatch.setattr(bridge, "_grid_verdicts", spy)
        report = verify(h, "EQ_P", grid_cap=2000)
        assert report.passed, report.counterexample
        assert report.notes == {"grid": "sampled(2000)", "float_samples": 200}
        assert dtypes == [np.int64, object]

    @staticmethod
    def _flip_solution_rows(monkeypatch, rows):
        mask_of = bridge._solution_mask

        def flipped(system, columns, one):
            mask = mask_of(system, columns, one)
            mask[rows] = ~mask[rows]
            return mask

        monkeypatch.setattr(bridge, "_solution_mask", flipped)

    @staticmethod
    def _expected_explanation(h, point):
        if is_model(h, Assignment(point), PRODUCT):
            return "exact grid point is a model but not a solution"
        return "exact grid point is not a model but a solution"

    def test_disagreement_names_first_exhaustive_row(self, monkeypatch, f3):
        self._flip_solution_rows(monkeypatch, [7, 12])
        report = verify(f3, "EQ_P", float_samples=0)
        assert not report.passed
        # row 7 in base 5 over (a, b, r1) is (0, 1, 2)
        point = {argument("a"): Fraction(0), argument("b"): Fraction(1, 4),
                 hafs.attack_id("r1"): Fraction(1, 2)}
        assert report.counterexample == {
            "framework": hafs.serialize(f3),
            "explanation": self._expected_explanation(f3, point),
            "assignment": {"arg:a": "0", "arg:b": "1/4", "att:r1": "1/2"},
        }

    def test_disagreement_names_first_sampled_row(self, monkeypatch, f3):
        self._flip_solution_rows(monkeypatch, [3, 6])
        report = verify(f3, "EQ_P", grid_cap=10, float_samples=0, seed=5)
        assert not report.passed
        rng = random.Random(5)
        draws = [[rng.randrange(5) for _ in f3.universe] for _ in range(4)]
        point = {e: Fraction(k, 4) for e, k in zip(f3.universe, draws[3])}
        assert report.counterexample == {
            "framework": hafs.serialize(f3),
            "explanation": self._expected_explanation(f3, point),
            "assignment": {e.qualified: str(v) for e, v in point.items()},
        }


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
