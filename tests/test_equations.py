import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hafs
from hafs import (GODEL, L3, LUKASIEWICZ, PRODUCT, PreconditionError,
                  SizeBoundError, argument, attack_id, build_equations,
                  enumerate_ternary_solutions, h_function, solve_fixed_point,
                  support_id)
from hafs.bridge import ternarize
from hafs.cli import run
import hafs.equations as equations
from hafs.equations import _compile_apply, _layered_apply, _least_squares
from hafs.labellings import is_adjacent_complete
from hafs.logic import LogicSystem

from helpers import corpus, godel_rhs, product_rhs, ternary_solutions

V0, VH, V1 = Fraction(0), Fraction(1, 2), Fraction(1)
A, R1, T1 = argument("a"), attack_id("r1"), support_id("t1")

# Product systems with degenerate fixed points, where the damped step decays
# like 1/k: every damped start stalls on the first; on the second the all-0
# start used to stop 4.5e-5 from the exact 0/1 values at residual 1e-9.
DEGENERATE = "arg(a1). att(r1,a1,a1). supp(t1,a1,r1). supp(t2,a1,a1)."
TERNARIZE = ("arg(a0). arg(a1). arg(a2). arg(a3). arg(a4). arg(a5). arg(a6). arg(a7). "
             "att(r0,a2,a4). att(r1,t0,a0). att(r2,a7,t1). att(r3,a7,t2). att(r4,a4,a6). "
             "att(r5,t2,a1). supp(t0,r0,a1). supp(t1,a3,a7). supp(t2,a1,t0). supp(t3,t1,a3). "
             "supp(t4,a3,a6). supp(t5,t2,r1).")

rationals01 = st.fractions(min_value=0, max_value=1, max_denominator=32)
fuzzy_logics = st.sampled_from([GODEL, PRODUCT, LUKASIEWICZ])
# min as a t-norm that no array or exact kernel recognises
MIN_WRAPPED = LogicSystem(name="min-wrapped", value_domain="unit_interval",
                          negation=GODEL.negation, tnorm=lambda x, y: min(x, y),
                          implication=GODEL.implication)


def grid_points(h, rng, count):
    for _ in range(count):
        yield {x: Fraction(rng.randrange(5), 4) for x in h.universe}


class TestBuild:
    def test_isolated_argument_equation_is_one(self, single_arg):
        system = build_equations(single_arg, GODEL)
        assert system.universe == (A,)
        assert not single_arg.attackers_of(A) and not single_arg.supporters_of(A)
        assert system.rhs(A, {A: V0}) == 1

    def test_self_attack_godel_instances(self, self_attack):
        system = build_equations(self_attack, GODEL)
        # a = max(1-a, 1-r1), r1 = 1
        assert system.residual({A: VH, R1: V1}) == 0
        assert system.residual({A: V1, R1: V1}) == 1

    def test_self_support_godel_is_identity_in_a(self, example3):
        system = build_equations(example3, GODEL)
        for value in (V0, Fraction(2, 5), VH, V1):
            assert system.residual({A: value, T1: V1}) == 0

    def test_one_equation_per_element(self):
        for h, _ in corpus(20, seed_base=8200):
            system = build_equations(h, PRODUCT)
            assert system.universe == h.universe
            # at all-1 an attack pair gives 0 and a support pair 1
            ones = dict.fromkeys(h.universe, V1)
            assert [system.rhs(x, ones) for x in system.universe] == \
                [0 if h.attackers_of(x) else 1 for x in h.universe]


class TestClosedForms:
    def test_godel_rhs_matches_closed_form(self):
        rng = random.Random(1)
        for h, _ in corpus(25, max_u=6, seed_base=8600):
            system = build_equations(h, GODEL)
            for values in grid_points(h, rng, 8):
                for x in system.universe:
                    assert system.rhs(x, values) == godel_rhs(h, x, values)

    def test_product_rhs_matches_closed_form(self):
        rng = random.Random(2)
        for h, _ in corpus(25, max_u=6, seed_base=9000):
            system = build_equations(h, PRODUCT)
            for values in grid_points(h, rng, 8):
                for x in system.universe:
                    assert system.rhs(x, values) == product_rhs(h, x, values)

    def test_compiled_apply_matches_generic_h(self):
        rng = random.Random(3)
        for h, _ in corpus(15, max_u=6, seed_base=9400):
            order = h.universe
            for logic in (GODEL, PRODUCT, LUKASIEWICZ):
                system = build_equations(h, logic)
                fast = _compile_apply(logic, h.incidence)
                for _ in range(5):
                    x = [rng.random() for _ in order]
                    values = dict(zip(order, x))
                    expected = [system.rhs(e, values) for e in order]
                    assert fast(x) == expected

    def test_layered_apply_matches_generic_h(self):
        # (rows x n) arrays with exact 0, 1/2 and 1 among the draws, on the
        # corpus above and on frameworks with in-degrees up to about ten
        rng = random.Random(3)
        frameworks = [h for h, _ in corpus(15, max_u=6, seed_base=9400)]
        frameworks += [hafs.generate_random(30, 40, 30, seed=s, support_acyclic=bool(s % 2),
                                            higher_order_prob=0.6) for s in range(3)]
        for h in frameworks:
            order = h.universe
            for logic in (GODEL, PRODUCT, LUKASIEWICZ):
                system = build_equations(h, logic)
                layered = _layered_apply(logic, h.incidence)
                scalar = _compile_apply(logic, h.incidence)
                x = np.array([[rng.choice((0.0, 0.5, 1.0, rng.random())) for _ in order]
                              for _ in range(5)])
                rows = x.tolist()
                expected = [[system.rhs(e, dict(zip(order, row))) for e in order]
                            for row in rows]
                assert layered(x).tolist() == expected
                # same floats, signed zeros included
                assert repr(layered(x).tolist()) == repr([scalar(row) for row in rows])

    def test_layered_apply_declines_other_logics(self, self_attack):
        assert _layered_apply(MIN_WRAPPED, self_attack.incidence) is None

    def test_generic_fold_matches_inlined_min(self):
        # a t-norm the kernels do not recognise takes the h_function fold
        rng = random.Random(5)
        for h, _ in corpus(15, max_u=6, seed_base=9400):
            generic = _compile_apply(MIN_WRAPPED, h.incidence)
            inlined = _compile_apply(GODEL, h.incidence)
            for _ in range(5):
                x = [rng.random() for _ in h.universe]
                assert generic(x) == inlined(x)


class TestResidual:
    def test_max_norm(self, f3):
        system = build_equations(f3, GODEL)
        values = {argument("a"): V0, argument("b"): V0, attack_id("r1"): V1}
        # a off by 1, b solves (b = max(1-0,1-1)... = 1) -> off by 1, r1 off by 0
        gaps = [abs(values[x] - system.rhs(x, values)) for x in system.universe]
        assert system.residual(values) == max(gaps)

    def test_exact_solution_shortcut_agrees(self):
        rng = random.Random(4)
        for h, _ in corpus(20, max_u=6, seed_base=9800):
            for logic in (GODEL, PRODUCT):
                system = build_equations(h, logic)
                for values in grid_points(h, rng, 6):
                    assert system.is_exact_solution(values) == (system.residual(values) == 0)

    def test_residuals_match_the_per_point_residual(self, self_attack):
        # random points with exact 0, 1/2 and 1 among the draws, exact
        # solutions, the empty framework and elements with no incoming pairs
        rng = random.Random(6)
        frameworks = [h for h, _ in corpus(100, seed_base=9900)]
        frameworks += [hafs.parse(""), hafs.parse("arg(a). arg(b). att(r1,a,b).")]
        for h in frameworks:
            order = h.universe
            rows = [[rng.choice((0.0, 0.5, 1.0, rng.random())) for _ in order]
                    for _ in range(6)]
            for logic in (GODEL, PRODUCT, LUKASIEWICZ):
                system = build_equations(h, logic)
                points = rows + [[float(v) for v in s.values()]
                                 for s in enumerate_ternary_solutions(system)]
                x = np.array(points).reshape(len(points), len(order))
                expected = [system.residual(dict(zip(order, p))) for p in points]
                assert system.residuals(x).tolist() == expected, hafs.serialize(h)
        with pytest.raises(PreconditionError, match="no array kernel"):
            build_equations(self_attack, MIN_WRAPPED).residuals(np.zeros((1, 2)))

    def test_non_total_rejected(self, f3):
        system = build_equations(f3, GODEL)
        with pytest.raises(hafs.ValidationError):
            system.residual({argument("a"): V1})


class TestHFunction:
    @given(logic=fuzzy_logics,
           att=st.lists(st.tuples(rationals01, rationals01), max_size=4),
           supp=st.lists(st.tuples(rationals01, rationals01), max_size=4))
    def test_boundary_one(self, logic, att, supp):
        att = [(V0 if i % 2 else x, xp if i % 2 else V0) for i, (x, xp) in enumerate(att)]
        supp = [(V1, yp) if i % 2 else (y, V0) for i, (y, yp) in enumerate(supp)]
        assert h_function(logic, att, supp) == 1

    @given(logic=fuzzy_logics,
           att=st.lists(st.tuples(rationals01, rationals01), max_size=3),
           supp=st.lists(st.tuples(rationals01, rationals01), max_size=3))
    def test_boundary_zero(self, logic, att, supp):
        assert h_function(logic, att + [(V1, V1)], supp) == 0
        assert h_function(logic, att, supp + [(V0, V1)]) == 0

    @given(logic=fuzzy_logics,
           att=st.lists(st.tuples(rationals01, rationals01), max_size=4),
           supp=st.lists(st.tuples(rationals01, rationals01), max_size=4),
           seed=st.integers(0, 1000))
    def test_symmetry(self, logic, att, supp, seed):
        rng = random.Random(seed)
        att2, supp2 = list(att), list(supp)
        rng.shuffle(att2)
        rng.shuffle(supp2)
        assert h_function(logic, att, supp) == h_function(logic, att2, supp2)

    @given(logic=fuzzy_logics,
           att=st.lists(st.tuples(rationals01, rationals01), min_size=1, max_size=3),
           supp=st.lists(st.tuples(rationals01, rationals01), min_size=1, max_size=3),
           bump=rationals01)
    def test_monotonicity(self, logic, att, supp, bump):
        base = h_function(logic, att, supp)

        def bumped(pairs, i, j):
            out = [list(p) for p in pairs]
            out[i][j] = min(V1, out[i][j] + bump)
            return [tuple(p) for p in out]

        # raising attacker, attack or support values never raises h
        for i in range(len(att)):
            for j in (0, 1):
                assert h_function(logic, bumped(att, i, j), supp) <= base
        for i in range(len(supp)):
            assert h_function(logic, att, bumped(supp, i, 1)) <= base
            # raising a supporter value never lowers h
            assert h_function(logic, att, bumped(supp, i, 0)) >= base

    def test_empty_fold_is_one(self):
        for logic in (L3, GODEL, PRODUCT, LUKASIEWICZ):
            assert h_function(logic, [], []) == 1


class TestSolve:
    def test_self_attack_godel_unique_fixed_point(self, self_attack):
        system = build_equations(self_attack, GODEL)
        reports = solve_fixed_point(system)
        assert any(r.converged for r in reports)
        for r in reports:
            assert r.converged
            assert r.residual <= 1e-9
            assert abs(r.solution[A] - 0.5) <= 1e-6
            assert abs(r.solution[R1] - 1.0) <= 1e-6

    def test_self_attack_product(self, self_attack):
        system = build_equations(self_attack, PRODUCT)
        reports = solve_fixed_point(system)
        assert reports[0].converged
        assert abs(reports[0].solution[A] - 0.5) <= 1e-6

    def test_self_support_godel_continuum(self, example3):
        system = build_equations(example3, GODEL)
        reports = solve_fixed_point(system, restarts=4, seed=11)
        assert all(r.converged and r.residual <= 1e-9 for r in reports)
        # distinct starts land on distinct representatives of the continuum
        values = sorted(r.solution[A] for r in reports)
        assert len(values) >= 3

    def test_mutual_attack_damping_converges(self, mutual_attack):
        system = build_equations(mutual_attack, GODEL)
        reports = solve_fixed_point(system)
        assert all(r.converged for r in reports)

    def test_converged_implies_residual_within_tolerance(self):
        for h, _ in corpus(15, max_u=6, seed_base=10_200):
            for logic in (GODEL, PRODUCT, LUKASIEWICZ):
                system = build_equations(h, logic)
                for r in solve_fixed_point(system, seed=21):
                    if r.converged:
                        assert r.residual <= 1e-9
                        assert system.residual(r.solution) <= 1e-8

    def test_non_continuous_logic_rejected(self, self_attack):
        def drastic(x, y):
            return x if y == 1 else y if x == 1 else 0

        logic = LogicSystem(name="drastic", value_domain="unit_interval",
                            negation=lambda x: 1 - x, tnorm=drastic,
                            implication=lambda m, n: 1 if m <= n else n,
                            continuous=False, zero_divisor_free=False,
                            half_idempotent=False)
        system = build_equations(self_attack, logic)
        with pytest.raises(PreconditionError, match="not continuous"):
            solve_fixed_point(system)

    def test_bad_damping_rejected(self, self_attack):
        system = build_equations(self_attack, GODEL)
        with pytest.raises(PreconditionError):
            solve_fixed_point(system, damping=0.0)

    def test_degenerate_product_point_is_reached_exactly(self):
        system = build_equations(hafs.parse(DEGENERATE), PRODUCT)
        reports = solve_fixed_point(system, restarts=0)
        # the all-1 and all-1/2 starts converge too, to duplicates of the first
        assert [(r.restart_index, r.converged) for r in reports] == [(0, True)]
        solution = reports[0].solution
        assert solution[argument("a1")] == 0.0 and solution[attack_id("r1")] == 0.0
        assert system.residual(solution) <= 1e-9
        code = run(["solve", "-", "--logic", "product"], stdin=io.StringIO(DEGENERATE),
                   stdout=io.StringIO(), stderr=io.StringIO())
        assert code == 0

    def test_converged_product_reports_ternarize_to_labellings(self):
        h = hafs.parse(TERNARIZE)
        reports = solve_fixed_point(build_equations(h, PRODUCT))
        assert any(r.converged for r in reports)
        for r in reports:
            if r.converged:
                assert is_adjacent_complete(h, ternarize(r.solution)), r.restart_index

    @pytest.mark.parametrize("damping", [0.05, 1.0])
    def test_accelerated_phase_converges_under_every_logic(self, damping):
        # damping 0.05 makes the stall test fire under all three t-norm folds;
        # undamped runs oscillate, and there some Anderson steps raise the
        # residual and the damped step has to take over
        for h, _ in corpus(15, max_u=6, seed_base=10_200):
            for logic in (GODEL, PRODUCT, LUKASIEWICZ):
                system = build_equations(h, logic)
                for r in solve_fixed_point(system, damping=damping):
                    assert r.converged and r.residual <= 1e-9, (logic.name, r)
                    assert system.residual(r.solution) <= 1e-9

    def test_every_acceptance_corpus_run_converges(self):
        for h in [h for h, _ in corpus(200, max_u=6, max_args=3, seed_base=10_000)]:
            for logic in (GODEL, PRODUCT, LUKASIEWICZ):
                for r in solve_fixed_point(build_equations(h, logic), seed=1):
                    assert r.stop_reason == "tolerance" and r.residual <= 1e-9, (logic.name, r)

    def test_run_that_cannot_move_stops_as_stalled(self, self_attack):
        # 1 - 1e-300 rounds to 1, so from all-1 every damped step repeats x
        system = build_equations(self_attack, PRODUCT)
        reports = solve_fixed_point(system, damping=1e-300, max_iter=1000, restarts=0)
        (stuck,) = [r for r in reports if r.restart_index == 1]
        assert stuck.stop_reason == "stalled" and not stuck.converged
        assert stuck.iterations == 201  # the first step after the stall test fired

    def test_budget_exhausted_stops_at_max_iter(self, self_attack):
        system = build_equations(self_attack, GODEL)
        reports = solve_fixed_point(system, max_iter=0, restarts=0)
        assert [(r.stop_reason, r.iterations) for r in reports] == [("max_iter", 0)] * 3

    def test_empty_system_has_one_converged_report(self):
        reports = solve_fixed_point(build_equations(hafs.parse(""), GODEL))
        assert [(r.restart_index, r.iterations, r.converged, r.residual) for r in reports] == [
            (0, 0, True, 0.0)]
        assert reports[0].solution.to_json_obj() == {}

    @pytest.mark.parametrize("kwargs", [{"max_iter": -3}, {"tolerance": float("nan")},
                                        {"tolerance": -1e-9}, {"restarts": -1}])
    def test_unusable_budget_or_tolerance_rejected(self, self_attack, kwargs):
        system = build_equations(self_attack, GODEL)
        with pytest.raises(PreconditionError):
            solve_fixed_point(system, **kwargs)

    def test_least_squares_matches_numpy(self):
        import numpy as np
        rng = random.Random(6)
        for n, m in ((1, 1), (3, 2), (6, 5), (40, 5)):
            for _ in range(5):
                cols = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(m)]
                if m > 1:
                    cols[0] = [2.0 * t for t in cols[-1]]  # dependent on a newer column
                b = [rng.uniform(-1, 1) for _ in range(n)]
                coef = _least_squares(cols, b)
                a = np.array(cols).T
                best = np.linalg.lstsq(a, np.array(b), rcond=None)[0]
                gap = np.linalg.norm(a @ np.array(coef) - b)
                assert gap <= np.linalg.norm(a @ best - b) + 1e-9
                if m > 1:
                    assert coef[0] == 0.0

    def test_report_json_shape(self, self_attack):
        system = build_equations(self_attack, GODEL)
        obj = solve_fixed_point(system)[0].to_json_obj()
        assert set(obj) == {"solution", "residual", "iterations",
                            "restart_index", "converged"}


def both_paths(monkeypatch, system, **kwargs):
    """Reports of the per-start and of the batched driver, each forced."""
    monkeypatch.setattr(equations, "_BATCH_MIN_WORK", math.inf)
    scalar = solve_fixed_point(system, **kwargs)
    monkeypatch.setattr(equations, "_BATCH_MIN_WORK", 0)
    batched = solve_fixed_point(system, **kwargs)
    return scalar, batched


class TestBatchedStarts:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_large_systems_match_per_start_runs(self, monkeypatch, seed):
        h = hafs.generate_random(120, 120, 60, seed=seed, support_acyclic=bool(seed),
                                 higher_order_prob=0.3)
        assert len(h) * 11 >= equations._BATCH_MIN_WORK
        for logic in (GODEL, PRODUCT, LUKASIEWICZ):
            scalar, batched = both_paths(monkeypatch, build_equations(h, logic), seed=seed)
            assert repr(batched) == repr(scalar)

    def test_rows_leave_on_their_own_schedules(self, monkeypatch):
        # at damping 0.05 some rows stall at iteration 200 and continue in
        # _accelerate while the others go on converging in the array
        h = hafs.generate_random(40, 40, 20, seed=0, higher_order_prob=0.3)
        for logic in (GODEL, PRODUCT, LUKASIEWICZ):
            scalar, batched = both_paths(monkeypatch, build_equations(h, logic),
                                         damping=0.05)
            assert repr(batched) == repr(scalar)
        for kwargs in ({"max_iter": 0}, {"max_iter": 30}, {"tolerance": 1e-3}):
            scalar, batched = both_paths(monkeypatch, build_equations(h, PRODUCT), **kwargs)
            assert repr(batched) == repr(scalar)

    def test_stalled_product_run_reaches_anderson_from_the_array(self, monkeypatch):
        h = hafs.parse(TERNARIZE)
        assert len(h) * 11 >= equations._BATCH_MIN_WORK
        system = build_equations(h, PRODUCT)
        stalled_at = []
        accelerate = equations._accelerate

        def spy(apply, x, fx, gap, iterations, *rest):
            assert type(x) is list and type(x[0]) is float and type(gap) is float
            stalled_at.append(iterations)
            return accelerate(apply, x, fx, gap, iterations, *rest)

        monkeypatch.setattr(equations, "_accelerate", spy)
        batched = solve_fixed_point(system)
        assert stalled_at == [200] * 11
        monkeypatch.setattr(equations, "_BATCH_MIN_WORK", math.inf)
        assert repr(solve_fixed_point(system)) == repr(batched)

    def test_elements_times_starts_picks_the_driver(self, monkeypatch):
        # 20 elements: 3 starts (60) run one by one, 11 starts (220) as one array
        h = hafs.generate_random(10, 5, 5, seed=3, support_acyclic=False, higher_order_prob=0.3)
        assert len(h) == 20
        batched_runs = []
        run_batched = equations._run_batched

        def spy(*args):
            batched_runs.append(len(args[2]))
            return run_batched(*args)

        monkeypatch.setattr(equations, "_run_batched", spy)
        for logic in (GODEL, PRODUCT, LUKASIEWICZ):
            system = build_equations(h, logic)
            for restarts, expected in ((0, []), (8, [11])):
                batched_runs.clear()
                chosen = repr(solve_fixed_point(system, restarts=restarts))
                assert batched_runs == expected
                with monkeypatch.context() as patch:
                    scalar, batched = both_paths(patch, system, restarts=restarts)
                assert chosen == repr(scalar) == repr(batched)

    def test_run_that_cannot_move_stalls_in_the_array_too(self, monkeypatch, self_attack):
        scalar, batched = both_paths(monkeypatch, build_equations(self_attack, PRODUCT),
                                     damping=1e-300, max_iter=1000, restarts=0)
        assert repr(batched) == repr(scalar)
        (stuck,) = [r for r in batched if r.restart_index == 1]
        assert stuck.stop_reason == "stalled" and stuck.iterations == 201


class TestTernaryEnumeration:
    def test_self_attack_godel(self, self_attack):
        system = build_equations(self_attack, GODEL)
        assert [s.to_json_obj() for s in enumerate_ternary_solutions(system)] == [
            {"arg:a": "1/2", "att:r1": "1"},
        ]

    def test_self_attack_product(self, self_attack):
        system = build_equations(self_attack, PRODUCT)
        assert [s.to_json_obj() for s in enumerate_ternary_solutions(system)] == [
            {"arg:a": "1/2", "att:r1": "1"},
        ]

    def test_self_support_godel_three_solutions(self, example3):
        system = build_equations(example3, GODEL)
        assert [s.to_json_obj() for s in enumerate_ternary_solutions(system)] == [
            {"arg:a": "0", "supp:t1": "1"},
            {"arg:a": "1/2", "supp:t1": "1"},
            {"arg:a": "1", "supp:t1": "1"},
        ]

    def test_matches_unpruned_scan(self):
        for h, _ in corpus(15, max_u=5, seed_base=10_600):
            for logic in (GODEL, PRODUCT, LUKASIEWICZ):
                system = build_equations(h, logic)
                assert enumerate_ternary_solutions(system) == ternary_solutions(system)

    @given(nargs=st.integers(1, 3), natts=st.integers(0, 2), nsupps=st.integers(0, 1),
           seed=st.integers(0, 10_000), acyclic=st.booleans(),
           hop=st.sampled_from([0.0, 0.3, 0.6]),
           logic=st.sampled_from([GODEL, PRODUCT, LUKASIEWICZ, L3]))
    def test_matches_unpruned_scan_on_generated(self, nargs, natts, nsupps, seed, acyclic,
                                                hop, logic):
        try:
            h = hafs.generate_random(nargs, natts, nsupps, seed=seed,
                                     support_acyclic=acyclic, higher_order_prob=hop)
        except hafs.InfeasibleParametersError:
            return
        system = build_equations(h, logic)
        assert enumerate_ternary_solutions(system) == ternary_solutions(system), \
            (logic.name, hafs.serialize(h))

    def test_logic_without_exact_kernel_rejected(self, self_attack):
        other_negation = LogicSystem(name="godel-negation", value_domain="unit_interval",
                                     negation=lambda x: 1 - x, tnorm=GODEL.tnorm,
                                     implication=GODEL.implication)
        for logic in (MIN_WRAPPED, other_negation):
            with pytest.raises(PreconditionError, match="no exact kernel"):
                enumerate_ternary_solutions(build_equations(self_attack, logic))

    def test_size_bound(self, example3):
        system = build_equations(example3, GODEL)
        with pytest.raises(SizeBoundError):
            enumerate_ternary_solutions(system, bound=1)


class TestContinuity:
    def test_small_input_changes_give_small_output_changes(self):
        rng = random.Random(8)
        for h, _ in corpus(10, max_u=6, seed_base=11_000):
            for logic in (GODEL, PRODUCT, LUKASIEWICZ):
                system = build_equations(h, logic)
                for _ in range(5):
                    x = {e: rng.random() for e in h.universe}
                    y = {e: min(1.0, v + 1e-9) for e, v in x.items()}
                    for e in system.universe:
                        assert abs(system.rhs(e, x) - system.rhs(e, y)) < 1e-6
