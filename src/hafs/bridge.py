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

from .equations import (EquationSystem, _exact, _model_mask, _quarter_columns, _solution_mask,
                        build_equations, enumerate_ternary_solutions, solve_fixed_point)
from .errors import PreconditionError, ValidationError
from .extensions import enumerate_extensions, extension_derived_labelling
from .framework import HAFS, Incidence, is_support_acyclic, serialize
from .labellings import HALF, ONE, THREE_VALUES, ZERO, Labelling3, _by_level, _frontier, \
    _survivors, _three_valued, enumerate_adjacent_complete, is_adjacent_complete
from .limits import DEFAULT_LABELLING_BOUND, check_universe
from .logic import And, Assignment, Formula, GODEL, L3, LogicSystem, LUKASIEWICZ, PRODUCT, \
    compile_evaluator, encode_normal, get_logic, variables

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


def enumerate_pl3_models(h: HAFS, bound: int | None = None, *,
                         formula: Formula | None = None) -> tuple[Labelling3, ...]:
    """All three-valued assignments satisfying the encoded formula
    (``formula``, ``encode_normal(h)`` unless the caller already has it).

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

    if formula is None:
        formula = encode_normal(h)
    levels = [[compile_evaluator(c, L3) for c in level]
              for level in _by_level(order, _conjuncts(formula), variables)]

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


# -- inputs shared by the checks of one invocation -----------------------------


class _Inputs:
    """What several checks of one ``verify`` invocation on ``h`` read from
    the same view, each computed when a check first reads it.

    Shared: the digest, the complete labellings (T2, T_PL3, IDEM,
    CORR_G), the complete extensions (T1, T2), the encoded formula
    (T_PL3, EQ_*), the equation system per logic, and per logic its
    fixed-point reports and exact ternary solutions (T16 and CORR_G under
    Gödel).  The EQ_* ids in ``theorem_ids`` share one sweep of their
    grid: the first of them to run tests every row, exhaustive or drawn,
    and the float samples, under all of them, and drops a row once every
    side of each logic still running has failed on it
    (:func:`_check_equation_equivalence`).  Only an input
    that both checks read from the same view is shared, never one side of
    a cross-check for the other: extensions against labellings, PL3
    models against labellings, the formula against the equations and
    ternary solutions against labellings still come from different code
    paths.  Each input is keyed by the parameters it depends on, so the
    reports are the same with or without sharing; a fresh object shares
    nothing, and one lives for one invocation only.
    """

    __slots__ = ("h", "eq_ids", "_made")

    def __init__(self, h: HAFS, theorem_ids=()):
        self.h = h
        self.eq_ids = tuple(t for t in dict.fromkeys(theorem_ids) if t in _EQ_LOGICS)
        self._made: dict = {}

    def _once(self, key, make, *args, **kwargs):
        if key not in self._made:  # a producer that raises leaves nothing behind
            self._made[key] = make(*args, **kwargs)
        return self._made[key]

    def digest(self) -> str:
        return self._once("digest", framework_digest, self.h)

    def formula(self) -> Formula:
        return self._once("formula", encode_normal, self.h)

    def labellings(self, bound: int) -> tuple[Labelling3, ...]:
        return self._once(("labellings", bound), enumerate_adjacent_complete, self.h,
                          bound=bound)

    def extensions(self, bound: int) -> tuple:
        return self._once(("extensions", bound), enumerate_extensions, self.h, "complete",
                          bound=bound)

    # systems are keyed by the logic's identity, since logics compare by name
    # and flags only; each system holds its logic, so the id stays unique
    def system(self, logic: LogicSystem) -> EquationSystem:
        return self._once(("system", id(logic)), build_equations, self.h, logic)

    def fixed_points(self, logic: LogicSystem, seed: int) -> list:
        return self._once(("fixed_points", id(logic), seed), solve_fixed_point,
                          self.system(logic), seed=seed)

    def ternary_solutions(self, logic: LogicSystem, bound: int) -> tuple[Assignment, ...]:
        return self._once(("ternary", id(logic), bound), enumerate_ternary_solutions,
                          self.system(logic), bound=bound)

    def eq_report(self, theorem_id: str, grid_cap: int, float_samples: int,
                  seed: int) -> VerificationReport:
        reports = self._made.setdefault(("eq", grid_cap, float_samples, seed), {})
        if theorem_id not in reports:
            ids = self.eq_ids if theorem_id in self.eq_ids else (theorem_id,)
            reports.update(_check_equation_equivalence(self, ids, grid_cap, float_samples,
                                                       seed))
        return reports[theorem_id]


# -- individual checkers -------------------------------------------------------


def _one_side_only(family, other):
    """(x, True) for the first x of ``family`` that ``other`` lacks, else
    (x, False) for the first x of ``other`` that ``family`` lacks, else
    (None, False): the sides' own orders choose, never a set's hash order."""
    in_family, in_other = set(family), set(other)
    return next(((x, True) for x in family if x not in in_other),
                next(((x, False) for x in other if x not in in_family), (None, False)))


def _check_derived_is_adjacent(inputs: _Inputs, bound: int) -> VerificationReport:
    h = inputs.h
    for extension in inputs.extensions(bound):
        labelling = extension_derived_labelling(h, extension)
        if not is_adjacent_complete(h, labelling):
            return VerificationReport("T1", inputs.digest(), False, _counterexample(
                h, "labelling derived from a complete extension fails the "
                   "per-element conditions",
                extension=sorted(x.qualified for x in extension),
                labelling=labelling.to_json_obj(),
            ))
    return VerificationReport("T1", inputs.digest(), True)


def _check_families_coincide(inputs: _Inputs, bound: int) -> VerificationReport:
    h = inputs.h
    if not is_support_acyclic(h):
        raise PreconditionError("the support graph has a cycle; this check "
                                "applies to support-acyclic frameworks only")
    adjacent = inputs.labellings(bound)
    derived = [extension_derived_labelling(h, E) for E in inputs.extensions(bound)]
    sample, in_adjacent = _one_side_only(adjacent, derived)
    if sample is not None:
        side = "adjacent only" if in_adjacent else "extension-derived only"
        return VerificationReport("T2", inputs.digest(), False, _counterexample(
            h, f"labelling found on one side only ({side})",
            labelling=sample.to_json_obj(),
        ))
    return VerificationReport("T2", inputs.digest(), True,
                              notes={"labellings": len(adjacent)})


def _check_pl3_models(inputs: _Inputs, bound: int) -> VerificationReport:
    adjacent = inputs.labellings(bound)
    models = enumerate_pl3_models(inputs.h, bound=bound, formula=inputs.formula())
    sample, in_adjacent = _one_side_only(adjacent, models)
    if sample is not None:
        side = "labelling only" if in_adjacent else "model only"
        return VerificationReport("T_PL3", inputs.digest(), False, _counterexample(
            inputs.h, f"three-valued assignment found on one side only ({side})",
            assignment=sample.to_json_obj(),
        ))
    return VerificationReport("T_PL3", inputs.digest(), True, notes={"models": len(models)})


# -- exact quarter-grid sweep ---------------------------------------------------

_EQ_CHUNK_ROWS = 2 ** 14


def _grid_verdicts(formulas, elements, logic: LogicSystem, view: Incidence, positions,
                   codes: np.ndarray, dtype):
    """Model and solution masks of a chunk of quarter-grid rows: whether
    every formula is 1, and whether the equation of each element at ``elements`` holds."""
    columns = _quarter_columns(positions, codes, logic, dtype)
    one = np.ones(len(codes), dtype=dtype)
    return (_model_mask(formulas, lambda e: columns[view.position[e]], logic, one),
            _solution_mask(view, elements, logic, columns, one))


def _level_check(formula: Formula, view: Incidence, logics: dict, stopped):
    """(levels, check) for :func:`_frontier`: the conjuncts and the element
    positions by level, each with the positions it reads and its side (0 for
    a conjunct, 1 for an equation), and their (rows, 2 * len(logics))
    verdicts, the model and the solution column of each logic of ``logics``
    (id to logic) in turn.  A logic whose id is in ``stopped`` when a check
    runs is not evaluated: both its columns read False.

    A check gathers only the columns that the items it tests read, so a
    sampled chunk, tested level by level, pays about one gather per
    element and two per relation, not one per column up to each level.
    """
    items = [({view.position[e] for e in variables(f)}, 0, f) for f in _conjuncts(formula)]
    items += [({a}.union(*attacks, *supports), 1, a)
              for a, (attacks, supports) in enumerate(view.incoming)]
    levels = _by_level(range(len(view.incoming)), items, lambda item: item[0])

    def check(codes, items):
        fs = [x for _, side, x in items if side == 0]
        elements = [x for _, side, x in items if side == 1]
        positions = sorted(set().union(*(cols for cols, _, _ in items)))
        verdicts = np.zeros((len(codes), 2 * len(logics)), dtype=bool)
        for i, (t, logic) in enumerate(logics.items()):
            if t not in stopped:
                verdicts[:, 2 * i], verdicts[:, 2 * i + 1] = _exact(
                    _grid_verdicts, fs, elements, logic, view, positions, codes)
        return verdicts
    return levels, check


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
        top = (np.frombuffer(rng.getrandbits(32 * missing).to_bytes(4 * missing, "little"),
                             dtype="<u4") >> 29).astype(np.int8)
        batches.append(np.compress(top < 5, top))
        missing -= len(batches[-1])
    return np.concatenate(batches)


def _draw_floats(rng: random.Random, count: int) -> np.ndarray:
    """``[rng.random() for _ in range(count)]`` as a float64 array, leaving
    ``rng`` in the same state as that list would.

    CPython's ``random()`` takes two 32-bit Mersenne Twister outputs a
    and b and returns ((a >> 5) * 2^26 + (b >> 6)) / 2^53, which is exact
    in float64.  One ``getrandbits(64 * count)`` draws the same outputs in
    order, the first as its least significant word.
    """
    raw = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    words = np.frombuffer(raw, dtype="<u4").reshape(count, 2)
    return ((words[:, 0] >> 5) * 67108864.0 + (words[:, 1] >> 6)) / 9007199254740992.0


def _drawn_chunks(rng: random.Random, width: int, rows: int):
    """``rows`` quarter-grid rows over ``width`` columns, drawn point-major
    from ``rng`` as code chunks of at most ``_EQ_CHUNK_ROWS`` rows."""
    for start in range(0, rows, _EQ_CHUNK_ROWS):
        count = min(_EQ_CHUNK_ROWS, rows - start)
        yield _draw_codes(rng, count * width).reshape(count, width)


def _sampled_verdicts(codes: np.ndarray, sides: int, levels, check):
    """(codes, alive) of the rows of a drawn chunk on which one of ``sides``
    still holds, in the order drawn, for the ``levels`` and ``check`` of
    :func:`_level_check`.

    The chunk is tested level by level, as the exhaustive sweep tests its
    partial rows, and a row is dropped once every side has failed on it.
    """
    alive = np.ones((len(codes), sides), dtype=bool)
    for items in levels:
        if not len(codes):
            break
        codes, alive = _survivors(check, codes, alive, items)
    return codes, alive


def _check_equation_equivalence(inputs: _Inputs, theorem_ids, grid_cap: int,
                                float_samples: int, seed: int) -> dict:
    """The report of each of the distinct EQ_* ``theorem_ids``, as each
    would be alone.

    Every id tests the same rows: the whole quarter grid when it has at
    most ``grid_cap`` rows, else ``grid_cap`` rows drawn from
    ``random.Random(seed)``, and then ``float_samples`` float points drawn
    from the same generator.  One sweep of the rows serves every id: each
    row, partial or drawn, is tested under every logic that has not failed
    yet, and is dropped once every side of each of them has failed on it.
    A logic stops at its first disagreement and is not evaluated again;
    the others go on.
    """
    h = inputs.h
    order = h.universe
    formula = inputs.formula()
    systems = {t: inputs.system(_EQ_LOGICS[t]) for t in theorem_ids}
    reports = {}
    levels, check = _level_check(formula, h.incidence,
                                 {t: system.logic for t, system in systems.items()}, reports)
    sides = 2 * len(systems)

    def failed(t, explanation, assignment):
        reports[t] = VerificationReport(t, inputs.digest(), False, _counterexample(
            h, explanation, assignment=assignment))

    def test_grid(t, codes, model, solution):
        disagree = np.flatnonzero(model != solution)
        if disagree.size:
            row = disagree[0]
            model, solution = bool(model[row]), bool(solution[row])
            failed(t, f"exact grid point is {'a model' if model else 'not a model'} "
                      f"but {'a solution' if solution else 'not a solution'}",
                   {e.qualified: str(Fraction(int(k), 4)) for e, k in zip(order, codes[row])})

    exhaustive = 5 ** len(order) <= grid_cap
    rng = random.Random(seed)
    if exhaustive:
        chunks = _frontier(len(order), 5, sides, levels, check)
    else:
        chunks = (_sampled_verdicts(codes, sides, levels, check)
                  for codes in _drawn_chunks(rng, len(order), grid_cap))
    for codes, alive in chunks:
        for i, t in enumerate(systems):
            if t not in reports:
                test_grid(t, codes, alive[:, 2 * i], alive[:, 2 * i + 1])
        if len(reports) == len(systems):
            break

    left = [t for t in theorem_ids if t not in reports]
    if not left:
        return reports
    # drawn point-major, as a per-point loop would, continuing from the
    # generator state the sampled grid leaves; each side in one array pass
    draws = _draw_floats(rng, float_samples * len(order)).reshape(float_samples, len(order))
    columns = {e: draws[:, j] for j, e in enumerate(order)}
    for t in left:
        models = compile_evaluator(formula, systems[t].logic)(columns) == 1.0
        near_solutions = systems[t].residuals(draws) <= FLOAT_RESIDUAL_TOL
        disagree = np.flatnonzero(models != near_solutions)
        if disagree.size:
            point = draws[disagree[0]].tolist()
            failed(t, "float assignment verdicts disagree between the encoded "
                      "formula and the equation residual",
                   {e.qualified: float(f"{v:.12g}") for e, v in zip(order, point)})
        else:
            reports[t] = VerificationReport(t, inputs.digest(), True, notes={
                "grid": "exhaustive" if exhaustive else f"sampled({grid_cap})",
                "float_samples": float_samples})
    return reports


def _check_ternarized_solutions(inputs: _Inputs, logic: LogicSystem, seed: int,
                                bound: int) -> VerificationReport:
    if not logic.zero_divisor_free:
        raise PreconditionError(
            f"logic {logic.name} has zero divisors; solution ternarization "
            "is only guaranteed without them"
        )
    h = inputs.h
    candidates: list[tuple[str, Assignment]] = []
    for report in inputs.fixed_points(logic, seed):
        if report.converged:
            candidates.append(("fixed-point", report.solution))
    for solution in inputs.ternary_solutions(logic, bound):
        candidates.append(("ternary-grid", solution))
    for origin, solution in candidates:
        labelling = ternarize(solution)
        if not is_adjacent_complete(h, labelling):
            return VerificationReport("T16", inputs.digest(), False, _counterexample(
                h, f"{origin} solution ternarizes to a non-complete labelling "
                   f"under {logic.name}",
                assignment=solution.to_json_obj(),
                labelling=labelling.to_json_obj(),
            ))
    return VerificationReport("T16", inputs.digest(), True,
                              notes={"logic": logic.name,
                                     "solutions_checked": len(candidates)})


def _check_labellings_solve(inputs: _Inputs, logic: LogicSystem,
                            bound: int) -> VerificationReport:
    if not logic.half_idempotent:
        raise PreconditionError(
            f"the {logic.name} t-norm does not fix 1/2; labellings need not "
            "solve its equations"
        )
    system = inputs.system(logic)
    for labelling in inputs.labellings(bound):
        if not system.is_exact_solution(embed(labelling)):
            return VerificationReport("IDEM", inputs.digest(), False, _counterexample(
                inputs.h, f"labelling is not an exact solution under {logic.name}",
                labelling=labelling.to_json_obj(),
                residual=str(Fraction(system.residual(embed(labelling)))),
            ))
    return VerificationReport("IDEM", inputs.digest(), True, notes={"logic": logic.name})


def _check_godel_correspondence(inputs: _Inputs, seed: int, bound: int) -> VerificationReport:
    h = inputs.h
    labellings = inputs.labellings(bound)
    ternary = [ternarize(v) for v in inputs.ternary_solutions(GODEL, bound)]
    notes = {
        "backward": "exhaustive over the {0,1/2,1} grid",
        "forward": "sampled from fixed-point runs",
    }
    sample, in_labellings = _one_side_only(labellings, ternary)
    if sample is not None:
        side = "labelling only" if in_labellings else "ternary solution only"
        return VerificationReport("CORR_G", inputs.digest(), False, _counterexample(
            h, f"three-valued map found on one side only ({side})",
            labelling=sample.to_json_obj(),
        ), notes=notes)
    adjacent = set(labellings)
    for report in inputs.fixed_points(GODEL, seed):
        if not report.converged:
            continue
        labelling = ternarize(report.solution)
        if labelling not in adjacent:
            return VerificationReport("CORR_G", inputs.digest(), False, _counterexample(
                h, "fixed-point solution ternarizes outside the labelling family",
                assignment=report.solution.to_json_obj(),
                labelling=labelling.to_json_obj(),
            ), notes=notes)
    return VerificationReport("CORR_G", inputs.digest(), True, notes=notes)


# -- dispatch -------------------------------------------------------------------


def verify(h: HAFS, theorem_id: str, logic: LogicSystem | str | None = None,
           seed: int = 0, bound: int = 8, grid_cap: int = 100_000,
           float_samples: int = 200, *, inputs: _Inputs | None = None) -> VerificationReport:
    """Run one theorem check; see THEOREM_IDS for the available ids.

    ``bound`` caps the universe size for the exhaustive enumerations.
    ``logic`` selects the fuzzy system for T16/IDEM (default Gödel); the
    EQ_G/EQ_P/EQ_L and CORR_G ids fix their own logic.  ``grid_cap`` and
    ``float_samples``, the quarter-grid rows and float points of the EQ_*
    checks, must be >= 0.

    ``inputs`` (a :class:`_Inputs` of ``h``) lets the checks of one
    invocation compute what they share once; it selects no behaviour, and
    the report is the same with it or without.  By default the check
    gets a fresh one and does no work beyond its own.
    """
    if grid_cap < 0 or float_samples < 0:
        raise PreconditionError("grid_cap and float_samples must be >= 0")
    if inputs is None:
        inputs = _Inputs(h)
    elif inputs.h is not h:
        raise ValueError("inputs belong to another framework")
    if isinstance(logic, str):
        logic = get_logic(logic)
    if theorem_id == "T1":
        return _check_derived_is_adjacent(inputs, bound)
    if theorem_id == "T2":
        return _check_families_coincide(inputs, bound)
    if theorem_id == "T_PL3":
        return _check_pl3_models(inputs, bound)
    if theorem_id in _EQ_LOGICS:
        return inputs.eq_report(theorem_id, grid_cap, float_samples, seed)
    if theorem_id == "T16":
        return _check_ternarized_solutions(inputs, logic or GODEL, seed, bound)
    if theorem_id == "IDEM":
        return _check_labellings_solve(inputs, logic or GODEL, bound)
    if theorem_id == "CORR_G":
        return _check_godel_correspondence(inputs, seed, bound)
    known = ", ".join(THEOREM_IDS)
    raise ValidationError(f"unknown theorem id {theorem_id!r} (known: {known})")
