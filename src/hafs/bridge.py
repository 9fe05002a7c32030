"""Ternarization and empirical checks of the semantic correspondences.

Each checker exercises one claimed relationship between the semantics on
small instances: labelling families against extension families, the
three-valued model set of the encoded formula, model/solution
equivalence of the equation systems, and the transfer results between
fuzzy solutions and three-valued labellings.  Failures always carry a
replayable counterexample.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Mapping
from fractions import Fraction
import numpy as np

from .equations import (Equation, EquationSystem, _equation_variables, _exact, _le,
                        _neg_q, _quarter_columns, _reduced, _solution_mask, _TNORMS_Q,
                        build_equations, enumerate_ternary_solutions, solve_fixed_point)
from .errors import PreconditionError, ValidationError
from .extensions import enumerate_extensions, extension_derived_labelling
from .framework import HAFS, is_support_acyclic, serialize
from .labellings import HALF, ONE, THREE_VALUES, ZERO, Labelling3, _by_level, _frontier, \
    _survivors, _three_valued, enumerate_adjacent_complete, is_adjacent_complete
from .limits import DEFAULT_LABELLING_BOUND, check_universe
from .logic import And, Assignment, Formula, GODEL, L3, LogicSystem, LUKASIEWICZ, PRODUCT, \
    _Ops, _fold, _impl_godel, _impl_lukasiewicz, _impl_product, compile_evaluator, \
    encode_normal, get_logic, variables

FLOAT_TERNARIZE_TOL = 1e-6
FLOAT_RESIDUAL_TOL = 1e-12

THEOREM_IDS = ("T1", "T2", "T_PL3", "EQ_G", "EQ_P", "EQ_L", "T16", "IDEM", "CORR_G")
_EQ_LOGICS = {"EQ_G": GODEL, "EQ_P": PRODUCT, "EQ_L": LUKASIEWICZ}


# -- ternarization -----------------------------------------------------------


def ternarize(values: Mapping, tolerance: float = FLOAT_TERNARIZE_TOL) -> Labelling3:
    """Collapse a [0,1] assignment to {0, 1/2, 1}.

    Exact values map by equality; floats within ``tolerance`` of an
    endpoint snap to it, everything else becomes 1/2.
    """
    out = {}
    for key, value in values.items():
        if isinstance(value, float):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"value {value!r} for {key} is outside [0, 1]")
            if abs(value - 1.0) <= tolerance:
                out[key] = ONE
            elif abs(value) <= tolerance:
                out[key] = ZERO
            else:
                out[key] = HALF
        else:
            exact = Fraction(value)
            if not 0 <= exact <= 1:
                raise ValidationError(f"value {value!r} for {key} is outside [0, 1]")
            out[key] = ONE if exact == 1 else ZERO if exact == 0 else HALF
    return Labelling3(out)


def embed(labelling: Labelling3) -> Assignment:
    """Read a three-valued labelling as an exact [0,1] assignment."""
    return Assignment(dict(labelling))


# -- three-valued model enumeration ------------------------------------------


def _conjuncts(formula: Formula) -> tuple[Formula, ...]:
    return formula.children if isinstance(formula, And) else (formula,)


_THREE_FLOATS = np.array([float(v) for v in THREE_VALUES])


def enumerate_pl3_models(h: HAFS, bound: int | None = None) -> tuple[Labelling3, ...]:
    """All three-valued assignments satisfying the encoded formula.

    Frontier sweep over the 3^|U| grid: elements are assigned in universe
    order, and a partial assignment is dropped as soon as a conjunct of
    the formula whose variables are all assigned is not 1 under the
    three-valued connectives, evaluated by :func:`compile_evaluator` on
    the floats 0, 0.5 and 1, on which every L3 operation is exact.
    Models come out in the order of the full grid.  Only the formula is
    read, never the labelling conditions, so set comparisons with the
    labelling enumeration are a real cross-check.
    """
    order = h.universe
    check_universe(len(order), bound, DEFAULT_LABELLING_BOUND)

    levels = [[compile_evaluator(c, L3) for c in level]
              for level in _by_level(order, _conjuncts(encode_normal(h)), variables)]

    def check(codes, conjuncts):
        values = _THREE_FLOATS[codes]
        columns = {e: values[:, j] for j, e in enumerate(order[:codes.shape[1]])}
        holds = np.ones(len(codes), dtype=bool)
        for conjunct in conjuncts:
            holds &= conjunct(columns) == 1.0
        return holds[:, None]
    return _three_valued(Labelling3, order, levels, check)


# -- verification reports ------------------------------------------------------


class VerificationReport:
    """Outcome of one theorem check on one framework."""

    __slots__ = ("theorem_id", "framework_digest", "passed", "counterexample", "notes")

    def __init__(self, theorem_id: str, framework_digest: str, passed: bool,
                 counterexample: dict | None = None, notes: dict | None = None):
        if not passed and counterexample is None:
            raise ValueError("failed reports must carry a counterexample")
        self.theorem_id = theorem_id
        self.framework_digest = framework_digest
        self.passed = passed
        self.counterexample = counterexample
        self.notes = notes or {}

    def to_json_obj(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "framework_digest": self.framework_digest,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "notes": self.notes,
        }

    def __repr__(self) -> str:
        status = "passed" if self.passed else "FAILED"
        return f"VerificationReport({self.theorem_id}, {status})"


def framework_digest(h: HAFS) -> str:
    return hashlib.sha256(serialize(h).encode()).hexdigest()[:16]


def _counterexample(h: HAFS, explanation: str, **payload) -> dict:
    out = {"framework": serialize(h), "explanation": explanation}
    out.update(payload)
    return out


# -- individual checkers -------------------------------------------------------


def _check_derived_is_adjacent(h: HAFS, bound: int) -> VerificationReport:
    digest = framework_digest(h)
    for extension in enumerate_extensions(h, "complete", bound=bound):
        labelling = extension_derived_labelling(h, extension)
        if not is_adjacent_complete(h, labelling):
            return VerificationReport("T1", digest, False, _counterexample(
                h, "labelling derived from a complete extension fails the "
                   "per-element conditions",
                extension=sorted(x.qualified for x in extension),
                labelling=labelling.to_json_obj(),
            ))
    return VerificationReport("T1", digest, True)


def _check_families_coincide(h: HAFS, bound: int) -> VerificationReport:
    digest = framework_digest(h)
    if not is_support_acyclic(h):
        raise PreconditionError("the support graph has a cycle; this check "
                                "applies to support-acyclic frameworks only")
    derived = {
        extension_derived_labelling(h, E)
        for E in enumerate_extensions(h, "complete", bound=bound)
    }
    adjacent = set(enumerate_adjacent_complete(h, bound=bound))
    if derived != adjacent:
        sample = next(iter(derived.symmetric_difference(adjacent)))
        side = "extension-derived only" if sample in derived else "adjacent only"
        return VerificationReport("T2", digest, False, _counterexample(
            h, f"labelling found on one side only ({side})",
            labelling=sample.to_json_obj(),
        ))
    return VerificationReport("T2", digest, True,
                              notes={"labellings": len(adjacent)})


def _check_pl3_models(h: HAFS, bound: int) -> VerificationReport:
    digest = framework_digest(h)
    adjacent = set(enumerate_adjacent_complete(h, bound=bound))
    models = set(enumerate_pl3_models(h, bound=bound))
    if adjacent != models:
        sample = next(iter(adjacent.symmetric_difference(models)))
        side = "labelling only" if sample in adjacent else "model only"
        return VerificationReport("T_PL3", digest, False, _counterexample(
            h, f"three-valued assignment found on one side only ({side})",
            assignment=sample.to_json_obj(),
        ))
    return VerificationReport("T_PL3", digest, True, notes={"models": len(models)})


# -- exact quarter-grid sweep ---------------------------------------------------

_EQ_CHUNK_ROWS = 2 ** 14


def _impl_godel_q(m, n):
    le = _le(m, n)
    return np.where(le, 1, n[0]), np.where(le, 1, n[1])


def _impl_product_q(m, n):
    le = _le(m, n)  # where it fails, m > n >= 0, so m's numerator is positive
    return _reduced(np.where(le, 1, n[0] * m[1]), np.where(le, 1, n[1] * m[0]))


def _impl_lukasiewicz_q(m, n):
    # 1 - m + n capped at 1; the uncapped numerator is at most 2 * den < 2^63
    num = (m[1] - m[0]) * n[1] + n[0] * m[1]
    den = m[1] * n[1]
    cap = num >= den
    return _reduced(np.where(cap, 1, num), np.where(cap, 1, den))


# keyed by the built-in implications
_IMPLICATIONS_Q = {_impl_godel: _impl_godel_q, _impl_product: _impl_product_q,
                   _impl_lukasiewicz: _impl_lukasiewicz_q}


def _exact_ops(logic: LogicSystem, one: np.ndarray) -> _Ops:
    """The exact (numerator, denominator) connectives of a fuzzy ``logic``
    on chunks of ``len(one)`` rows; disjunction is not interpreted."""
    return _Ops(logic.name, (one, one), (np.zeros_like(one), one), _neg_q,
                _TNORMS_Q[logic.tnorm], None, _IMPLICATIONS_Q[logic.implication])


def _grid_verdicts(formulas, equations, logic: LogicSystem, positions,
                   codes: np.ndarray, dtype):
    """Model and solution masks of a chunk of quarter-grid rows: whether
    every formula is 1, and whether every equation holds."""
    columns = _quarter_columns(positions, codes, dtype)
    one = np.ones(len(codes), dtype=dtype)
    ops = _exact_ops(logic, one)
    model = np.ones(len(codes), dtype=bool)
    for f in formulas:
        num, den = _fold(f, columns.__getitem__, ops)
        model &= num == den
    return model, _solution_mask(equations, logic, columns, one)


def _level_check(formula: Formula, system: EquationSystem):
    """(levels, check) for :func:`_frontier`: the conjuncts and the
    equations by level, each grouped by its own variables and paired with
    its level, and their (rows, 2) model and solution verdicts, read from
    the columns up to the highest level tested."""
    order = system.universe
    levels = _by_level(order, _conjuncts(formula) + system.equations,
                       lambda x: _equation_variables(x) if isinstance(x, Equation)
                       else variables(x))
    levels = [[(k, x) for x in level] for k, level in enumerate(levels)]

    def check(codes, items):
        fs = [x for _, x in items if not isinstance(x, Equation)]
        eqs = [x for _, x in items if isinstance(x, Equation)]
        positions = list(enumerate(order[:max(k for k, _ in items)]))
        return np.column_stack(_exact(_grid_verdicts, fs, eqs, system.logic, positions,
                                      codes))
    return levels, check


def _exhaustive_verdicts(formula: Formula, system: EquationSystem):
    """(codes, model, solution) chunks of the quarter-grid rows that are a
    model or a solution, in grid order.

    The formula side is tested conjunct by conjunct and the equation side
    equation by equation; a partial row is dropped only once both sides
    have failed on it, so every row on which the two disagree comes out.
    """
    levels, check = _level_check(formula, system)
    for codes, alive in _frontier(len(system.universe), 5, 2, levels, check):
        yield codes, alive[:, 0], alive[:, 1]


def _draw_codes(rng: random.Random, count: int) -> np.ndarray:
    """``[rng.randrange(5) for _ in range(count)]`` as an int8 array, leaving
    ``rng`` in the same state as that list would.

    CPython's ``randrange(5)`` takes the top 3 bits of one 32-bit
    Mersenne Twister output and draws again while they read 5 or more.
    Here the outputs are drawn in batches with ``getrandbits``, whose first
    output is the least significant word.  Each batch draws one output per
    code still missing; an output gives at most one code, so the list
    would consume every output drawn, and none is drawn twice.
    """
    batches, missing = [np.zeros(0, dtype=np.int8)], count
    while missing:
        raw = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        top = (np.frombuffer(raw, dtype="<u4") >> 29).astype(np.int8)
        batches.append(top[top < 5])
        missing -= len(batches[-1])
    return np.concatenate(batches)


def _sampled_verdicts(formula: Formula, system: EquationSystem, rng: random.Random,
                      rows: int):
    """(codes, model, solution) chunks of ``rows`` quarter-grid rows drawn
    point-major from ``rng``, less the rows on which both sides fail.

    Each drawn chunk is tested level by level, as the exhaustive sweep
    tests its partial rows, and a row is dropped once both sides have
    failed on it; the rows kept stay in the order drawn.
    """
    levels, check = _level_check(formula, system)
    n = len(system.universe)
    for start in range(0, rows, _EQ_CHUNK_ROWS):
        count = min(_EQ_CHUNK_ROWS, rows - start)
        codes = _draw_codes(rng, count * n).reshape(count, n)
        alive = np.ones((count, 2), dtype=bool)
        for k in range(n + 1):
            if not len(codes):
                break
            codes, alive = _survivors(check, codes, alive, levels[k])
        yield codes, alive[:, 0], alive[:, 1]


def _check_equation_equivalence(theorem_id: str, h: HAFS, logic: LogicSystem,
                                grid_cap: int, float_samples: int,
                                seed: int) -> VerificationReport:
    digest = framework_digest(h)
    system = build_equations(h, logic)
    formula = encode_normal(h)
    evaluator = compile_evaluator(formula, logic)
    order = h.universe

    exhaustive = 5 ** len(order) <= grid_cap
    rng = random.Random(seed)
    notes = {"grid": "exhaustive" if exhaustive else f"sampled({grid_cap})",
             "float_samples": float_samples}

    # the float samples continue from the rng state the sampled grid leaves
    chunks = (_exhaustive_verdicts(formula, system) if exhaustive
              else _sampled_verdicts(formula, system, rng, grid_cap))
    for codes, model, solution in chunks:
        disagree = np.flatnonzero(model != solution)
        if disagree.size:
            row = disagree[0]
            model, solution = bool(model[row]), bool(solution[row])
            return VerificationReport(theorem_id, digest, False, _counterexample(
                h, f"exact grid point is {'a model' if model else 'not a model'} "
                   f"but {'a solution' if solution else 'not a solution'}",
                assignment={e.qualified: str(Fraction(int(k), 4))
                            for e, k in zip(order, codes[row])},
            ))

    # drawn point-major, as a per-point loop would; each side in one array pass
    draws = np.array([rng.random() for _ in range(float_samples * len(order))])
    draws = draws.reshape(float_samples, len(order))
    models = evaluator({e: draws[:, j] for j, e in enumerate(order)}) == 1.0
    near_solutions = system.residuals(draws) <= FLOAT_RESIDUAL_TOL
    disagree = np.flatnonzero(models != near_solutions)
    if disagree.size:
        point = draws[disagree[0]].tolist()
        return VerificationReport(theorem_id, digest, False, _counterexample(
            h, "float assignment verdicts disagree between the encoded "
               "formula and the equation residual",
            assignment={e.qualified: float(f"{v:.12g}") for e, v in zip(order, point)},
        ))
    return VerificationReport(theorem_id, digest, True, notes=notes)


def _check_ternarized_solutions(h: HAFS, logic: LogicSystem, seed: int,
                                bound: int) -> VerificationReport:
    digest = framework_digest(h)
    if not logic.zero_divisor_free:
        raise PreconditionError(
            f"logic {logic.name} has zero divisors; solution ternarization "
            "is only guaranteed without them"
        )
    system = build_equations(h, logic)
    candidates: list[tuple[str, Assignment]] = []
    for report in solve_fixed_point(system, seed=seed):
        if report.converged:
            candidates.append(("fixed-point", report.solution))
    for solution in enumerate_ternary_solutions(system, bound=bound):
        candidates.append(("ternary-grid", solution))
    for origin, solution in candidates:
        labelling = ternarize(solution)
        if not is_adjacent_complete(h, labelling):
            return VerificationReport("T16", digest, False, _counterexample(
                h, f"{origin} solution ternarizes to a non-complete labelling "
                   f"under {logic.name}",
                assignment=solution.to_json_obj(),
                labelling=labelling.to_json_obj(),
            ))
    return VerificationReport("T16", digest, True,
                              notes={"logic": logic.name,
                                     "solutions_checked": len(candidates)})


def _check_labellings_solve(h: HAFS, logic: LogicSystem, bound: int) -> VerificationReport:
    digest = framework_digest(h)
    if not logic.half_idempotent:
        raise PreconditionError(
            f"the {logic.name} t-norm does not fix 1/2; labellings need not "
            "solve its equations"
        )
    system = build_equations(h, logic)
    for labelling in enumerate_adjacent_complete(h, bound=bound):
        if not system.is_exact_solution(embed(labelling)):
            return VerificationReport("IDEM", digest, False, _counterexample(
                h, f"labelling is not an exact solution under {logic.name}",
                labelling=labelling.to_json_obj(),
                residual=str(Fraction(system.residual(embed(labelling)))),
            ))
    return VerificationReport("IDEM", digest, True, notes={"logic": logic.name})


def _check_godel_correspondence(h: HAFS, seed: int, bound: int) -> VerificationReport:
    digest = framework_digest(h)
    system = build_equations(h, GODEL)
    adjacent = set(enumerate_adjacent_complete(h, bound=bound))
    ternary = {ternarize(v) for v in enumerate_ternary_solutions(system, bound=bound)}
    notes = {
        "backward": "exhaustive over the {0,1/2,1} grid",
        "forward": "sampled from fixed-point runs",
    }
    if adjacent != ternary:
        sample = next(iter(adjacent.symmetric_difference(ternary)))
        side = "labelling only" if sample in adjacent else "ternary solution only"
        return VerificationReport("CORR_G", digest, False, _counterexample(
            h, f"three-valued map found on one side only ({side})",
            labelling=sample.to_json_obj(),
        ), notes=notes)
    for report in solve_fixed_point(system, seed=seed):
        if not report.converged:
            continue
        labelling = ternarize(report.solution)
        if labelling not in adjacent:
            return VerificationReport("CORR_G", digest, False, _counterexample(
                h, "fixed-point solution ternarizes outside the labelling family",
                assignment=report.solution.to_json_obj(),
                labelling=labelling.to_json_obj(),
            ), notes=notes)
    return VerificationReport("CORR_G", digest, True, notes=notes)


# -- dispatch -------------------------------------------------------------------


def verify(h: HAFS, theorem_id: str, logic: LogicSystem | str | None = None,
           seed: int = 0, bound: int = 8, grid_cap: int = 100_000,
           float_samples: int = 200) -> VerificationReport:
    """Run one theorem check; see THEOREM_IDS for the available ids.

    ``bound`` caps the universe size for the exhaustive enumerations.
    ``logic`` selects the fuzzy system for T16/IDEM (default Gödel); the
    EQ_G/EQ_P/EQ_L and CORR_G ids fix their own logic.  ``grid_cap`` and
    ``float_samples``, the quarter-grid rows and float points of the EQ_*
    checks, must be >= 0.
    """
    if grid_cap < 0 or float_samples < 0:
        raise PreconditionError("grid_cap and float_samples must be >= 0")
    if isinstance(logic, str):
        logic = get_logic(logic)
    if theorem_id == "T1":
        return _check_derived_is_adjacent(h, bound)
    if theorem_id == "T2":
        return _check_families_coincide(h, bound)
    if theorem_id == "T_PL3":
        return _check_pl3_models(h, bound)
    if theorem_id in _EQ_LOGICS:
        return _check_equation_equivalence(theorem_id, h, _EQ_LOGICS[theorem_id], grid_cap,
                                           float_samples, seed)
    if theorem_id == "T16":
        return _check_ternarized_solutions(h, logic or GODEL, seed, bound)
    if theorem_id == "IDEM":
        return _check_labellings_solve(h, logic or GODEL, bound)
    if theorem_id == "CORR_G":
        return _check_godel_correspondence(h, seed, bound)
    known = ", ".join(THEOREM_IDS)
    raise ValidationError(f"unknown theorem id {theorem_id!r} (known: {known})")
