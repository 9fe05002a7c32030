"""Per-element fixed-point equations induced by the encoded formula.

Under a fuzzy logic the encoded formula is satisfied exactly when every
element's value equals a fold of its incoming edges: the t-norm of the
negated attack products N(b * r) and the negated inverted-support
products N(N(c) * t).  This module builds that system for any logic,
measures residuals, searches for solutions by damped iteration from
multiple starts, and enumerates the exact three-valued solutions.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

from .errors import PreconditionError, SizeBoundError, ValidationError
from .framework import HAFS, ElementId, Incidence
from .labellings import ONE, THREE_VALUES
from .limits import DEFAULT_TERNARY_BOUND, universe_bound
from .logic import (Assignment, LogicSystem, _standard_negation, _tnorm_lukasiewicz,
                    _tnorm_min, _tnorm_product)


def h_function(logic: LogicSystem,
               attacker_pairs: Sequence[tuple[object, object]],
               supporter_pairs: Sequence[tuple[object, object]]) -> object:
    """Right-hand side of one equation, as a function of incoming values.

    ``attacker_pairs`` carries (attacker, attack) values, ``supporter_pairs``
    carries (supporter, support) values; the empty fold is 1.
    """
    neg, tnorm = logic.negation, logic.tnorm
    acc = 1
    for x, xp in attacker_pairs:
        if acc == 0:
            return acc
        acc = tnorm(acc, neg(tnorm(x, xp)))
    for y, yp in supporter_pairs:
        if acc == 0:
            return acc
        acc = tnorm(acc, neg(tnorm(neg(y), yp)))
    return acc


@dataclass(frozen=True)
class Equation:
    """One element's equation: value = fold of its incoming pairs."""

    element: ElementId
    attacker_pairs: tuple[tuple[ElementId, ElementId], ...]
    supporter_pairs: tuple[tuple[ElementId, ElementId], ...]


class EquationSystem:
    """One equation per universe element, under a fixed logic."""

    __slots__ = ("framework", "logic", "equations")

    def __init__(self, framework: HAFS, logic: LogicSystem):
        self.framework = framework
        self.logic = logic
        self.equations = tuple(
            Equation(a, framework.attackers_of(a), framework.supporters_of(a))
            for a in framework.universe
        )

    @property
    def universe(self) -> tuple[ElementId, ...]:
        return self.framework.universe

    def rhs(self, equation: Equation, values: Mapping) -> object:
        return h_function(
            self.logic,
            [(values[b], values[r]) for b, r in equation.attacker_pairs],
            [(values[c], values[t]) for c, t in equation.supporter_pairs],
        )

    def residual(self, values: Mapping) -> object:
        """Max-norm deviation between the values and the equation sides."""
        missing = [x for x in self.universe if x not in values]
        if missing:
            raise ValidationError(f"assignment is not total: missing {missing[0].qualified}")
        worst = 0
        for eq in self.equations:
            gap = abs(values[eq.element] - self.rhs(eq, values))
            if gap > worst:
                worst = gap
        return worst

    def is_exact_solution(self, values: Mapping) -> bool:
        """Equivalent to ``residual(values) == 0`` with early exit."""
        return all(values[eq.element] == self.rhs(eq, values) for eq in self.equations)


def build_equations(h: HAFS, logic: LogicSystem) -> EquationSystem:
    if logic.value_domain not in ("three_valued", "unit_interval"):
        raise PreconditionError(f"logic {logic.name} has no numeric value domain")
    return EquationSystem(h, logic)


def residual(system: EquationSystem, values: Mapping) -> object:
    return system.residual(values)


# -- fixed-point search -------------------------------------------------------


def _compile_apply(logic: LogicSystem, view: Incidence):
    """Whole-system update function x -> F(x) over position vectors.

    The built-in operator combinations get hand-inlined loops (identical
    formulas and operation order, so identical floats); anything else
    folds through :func:`h_function`.
    """
    incoming = view.incoming
    std = logic.negation is _standard_negation

    if std and logic.tnorm is _tnorm_min:
        def apply_min(x):
            out = []
            for att, supp in incoming:
                acc = 1.0
                for ib, ir in att:
                    low = x[ib] if x[ib] < x[ir] else x[ir]
                    v = 1.0 - low
                    if v < acc:
                        acc = v
                for ic, it in supp:
                    nc = 1.0 - x[ic]
                    low = nc if nc < x[it] else x[it]
                    v = 1.0 - low
                    if v < acc:
                        acc = v
                out.append(acc)
            return out
        return apply_min

    if std and logic.tnorm is _tnorm_product:
        def apply_product(x):
            out = []
            for att, supp in incoming:
                acc = 1.0
                for ib, ir in att:
                    acc = acc * (1.0 - x[ib] * x[ir])
                for ic, it in supp:
                    acc = acc * (1.0 - (1.0 - x[ic]) * x[it])
                out.append(acc)
            return out
        return apply_product

    if std and logic.tnorm is _tnorm_lukasiewicz:
        def apply_luk(x):
            out = []
            for att, supp in incoming:
                acc = 1.0
                for ib, ir in att:
                    z = x[ib] + x[ir] - 1.0
                    v = 1.0 - (z if z > 0.0 else 0.0)
                    z = acc + v - 1.0
                    acc = z if z > 0.0 else 0.0
                for ic, it in supp:
                    z = (1.0 - x[ic]) + x[it] - 1.0
                    v = 1.0 - (z if z > 0.0 else 0.0)
                    z = acc + v - 1.0
                    acc = z if z > 0.0 else 0.0
                out.append(acc)
            return out
        return apply_luk

    def apply_generic(x):
        return [h_function(logic, [(x[b], x[r]) for b, r in att],
                           [(x[c], x[t]) for c, t in supp])
                for att, supp in incoming]
    return apply_generic


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one damped-iteration run."""

    solution: Assignment
    residual: float
    iterations: int
    restart_index: int
    converged: bool

    def to_json_obj(self) -> dict:
        return {
            "solution": self.solution.to_json_obj(),
            "residual": float(f"{self.residual:.12g}"),
            "iterations": self.iterations,
            "restart_index": self.restart_index,
            "converged": self.converged,
        }


def solve_fixed_point(system: EquationSystem, damping: float = 0.5,
                      tolerance: float = 1e-9, max_iter: int = 100_000,
                      restarts: int = 8, seed: int = 0) -> list[SolveReport]:
    """Damped iteration x <- (1-a)x + aF(x) from several starts.

    Starts are all-0, all-1, all-1/2 and ``restarts`` seeded random
    vectors.  Damping suppresses the period-two oscillation the plain
    iteration exhibits on mutual attacks.  Converged duplicates (within
    ten tolerances in max norm) of an earlier solution are dropped;
    non-converged runs are reported as such, never hidden.
    """
    if not system.logic.continuous:
        raise PreconditionError(
            f"logic {system.logic.name} is not continuous; no solution is guaranteed"
        )
    if not 0 < damping <= 1:
        raise PreconditionError("damping must lie in (0, 1]")
    order = system.universe
    n = len(order)
    rng = random.Random(seed)
    starts: list[list[float]] = [[0.0] * n, [1.0] * n, [0.5] * n]
    starts += [[rng.random() for _ in range(n)] for _ in range(restarts)]

    apply = _compile_apply(system.logic, system.framework.incidence)

    reports: list[SolveReport] = []
    kept: list[list[float]] = []
    keep = 1.0 - damping
    for start_index, x in enumerate(starts):
        x = list(x)
        converged = False
        iterations = 0
        gap = 0.0
        for iterations in range(max_iter + 1):
            fx = apply(x)
            gap = 0.0
            for j in range(n):
                d = x[j] - fx[j]
                if d < 0.0:
                    d = -d
                if d > gap:
                    gap = d
            if gap <= tolerance:
                converged = True
                break
            if iterations == max_iter:
                break
            for j in range(n):
                x[j] = keep * x[j] + damping * fx[j]
        if converged and any(
            max(abs(a - b) for a, b in zip(x, prev)) <= 10 * tolerance for prev in kept
        ):
            continue
        if converged:
            kept.append(x)
        reports.append(SolveReport(
            solution=Assignment({e: x[i] for i, e in enumerate(order)}),
            residual=gap,
            iterations=iterations,
            restart_index=start_index,
            converged=converged,
        ))
    return reports


def enumerate_ternary_solutions(system: EquationSystem,
                                bound: int | None = None) -> tuple[Assignment, ...]:
    """All exact solutions over the {0, 1/2, 1} grid, in rational arithmetic.

    Elements with no incoming edges have right-hand side 1 and are forced
    to 1 up front; the rest are enumerated lexicographically with value
    order 0 < 1/2 < 1.
    """
    limit = bound if bound is not None else universe_bound(DEFAULT_TERNARY_BOUND)
    order = system.universe
    n = len(order)
    if n > limit:
        raise SizeBoundError(f"universe has {n} elements, bound is {limit}")

    free = [order[i] for i in system.framework.incidence.free]
    found = []
    for combo in itertools.product(THREE_VALUES, repeat=len(free)):
        values = dict.fromkeys(order, ONE)
        values.update(zip(free, combo))
        if system.is_exact_solution(values):
            found.append(Assignment(values))
    return tuple(found)
