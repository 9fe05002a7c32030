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
from functools import cache, reduce
from typing import Sequence

import numpy as np

from .errors import PreconditionError, ValidationError
from .framework import HAFS, ElementId, Incidence
from .limits import DEFAULT_TERNARY_BOUND, check_universe
from .logic import (_TNORMS_F, THREE_VALUES, And, Assignment, Formula, LogicSystem,
                    _connectives, _fold, _impl_godel, _impl_lukasiewicz, _standard_negation,
                    _tnorm_lukasiewicz, _tnorm_min, _tnorm_product, value_to_json_obj,
                    variables)


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


class EquationSystem:
    """One equation per universe element, under a fixed logic."""

    __slots__ = ("framework", "logic")

    def __init__(self, framework: HAFS, logic: LogicSystem):
        self.framework = framework
        self.logic = logic

    @property
    def universe(self) -> tuple[ElementId, ...]:
        return self.framework.universe

    def rhs(self, element: ElementId, values: Mapping) -> object:
        """:func:`h_function` of ``element``'s incoming pairs under ``values``."""
        return h_function(
            self.logic,
            [(values[b], values[r]) for b, r in self.framework.attackers_of(element)],
            [(values[c], values[t]) for c, t in self.framework.supporters_of(element)],
        )

    def residual(self, values: Mapping) -> object:
        """Max-norm deviation between the values and the equation sides."""
        missing = [x for x in self.universe if x not in values]
        if missing:
            raise ValidationError(f"assignment is not total: missing {missing[0].qualified}")
        worst = 0
        for x in self.universe:
            gap = abs(values[x] - self.rhs(x, values))
            if gap > worst:
                worst = gap
        return worst

    def residuals(self, points: np.ndarray) -> np.ndarray:
        """:meth:`residual` of each row of a (points x n) float64 array,
        whose columns follow the universe order, in one array pass.

        The right-hand sides come from :func:`_layered_apply`, so each
        row's value equals the per-point method's; only the built-in
        t-norms have that kernel.
        """
        apply = _layered_apply(self.logic, self.framework.incidence)
        if apply is None:
            raise PreconditionError(f"logic {self.logic.name} has no array kernel")
        return np.abs(points - apply(points)).max(axis=1, initial=0.0)

    def is_exact_solution(self, values: Mapping) -> bool:
        """Equivalent to ``residual(values) == 0`` with early exit."""
        return all(values[x] == self.rhs(x, values) for x in self.universe)


def build_equations(h: HAFS, logic: LogicSystem) -> EquationSystem:
    if logic.value_domain not in ("three_valued", "unit_interval"):
        raise PreconditionError(f"logic {logic.name} has no numeric value domain")
    return EquationSystem(h, logic)


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


def _layered_apply(logic: LogicSystem, view: Incidence):
    """Whole-system update X -> F(X) over (rows x n) float64 arrays, one
    start per row, for the built-in operator combinations; else ``None``.

    Every incoming pair's factor is computed in one pass; a support pair
    gathers ``1.0 - x[c]`` from the columns past n where an attack pair
    gathers ``x[b]``.  The factors are then folded by pair rank: layer k
    updates only the accumulators of the elements that have a k-th pair,
    in the attacks-then-supports order of :func:`h_function`.  The
    accumulators are kept in descending in-degree order, so each layer is
    a leading slice and no element is padded with the identity (under
    Łukasiewicz, ``(1.0 + v) - 1.0`` can round away from ``v``).  Both
    steps apply the t-norm's numpy version from ``logic._TNORMS_F``, with
    the formulas and operation order of :func:`_compile_apply`; the floats
    are identical on NaN-free input, and no start or iterate holds a NaN.
    """
    tnorm = _TNORMS_F.get(logic.tnorm)
    if logic.negation is not _standard_negation or tnorm is None:
        return None
    pairs = [att + supp for att, supp in view.incoming]
    n = len(pairs)
    rank = sorted(range(n), key=lambda i: -len(pairs[i]))
    first, second, layers = [], [], []
    width = n
    for k in itertools.count():
        while width and len(pairs[rank[width - 1]]) <= k:
            width -= 1
        if not width:
            break
        layers.append((len(first), width))
        for i in rank[:width]:
            a, b = pairs[i][k]
            first.append(a if k < len(view.incoming[i][0]) else n + a)
            second.append(b)
    first = np.array(first, dtype=np.intp)
    second = np.array(second, dtype=np.intp)
    back = np.empty(n, dtype=np.intp)
    back[rank] = np.arange(n)

    def apply(x):
        v = 1.0 - tnorm(np.hstack((x, 1.0 - x))[:, first], x[:, second])
        acc = np.ones((len(x), n))
        for lo, m in layers:
            acc[:, :m] = tnorm(acc[:, :m], v[:, lo:lo + m])
        return acc[:, back]
    return apply


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one iteration run.

    ``stop_reason`` is ``"tolerance"`` (converged), ``"max_iter"`` (the
    budget ran out) or ``"stalled"`` (the iterate stopped changing with
    the residual above tolerance, so every further step would repeat).
    """

    solution: Assignment
    residual: float
    iterations: int
    restart_index: int
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerance"

    def to_json_obj(self) -> dict:
        return {
            "solution": self.solution.to_json_obj(),
            "residual": value_to_json_obj(self.residual),
            "iterations": self.iterations,
            "restart_index": self.restart_index,
            "converged": self.converged,
        }


# A damped run has stalled when, at an iteration from _STALL_START on that
# is a multiple of _STALL_EVERY, its residual did not halve over the last
# _STALL_EVERY iterations.  Near a degenerate fixed point (Product) the
# damped step decays like 1/k; healthy runs converge long before.
_STALL_START = 200
_STALL_EVERY = 50
_ANDERSON_DEPTH = 5
_SNAP = 1e-3

# A solve whose elements times starts reach this iterates all its starts
# together as one (starts x n) array (_run_batched); a smaller one runs each
# start in Python (_run).  Mean process time per solve on random
# Gödel/Product/Łukasiewicz systems (generate_random seeds 0-3; 10-13 at
# |U| = 30 and 40, where seeds 0-3 hold a stalling Product solve), 2-core
# x86-64, numpy 2.4, best of 5; each cell is elements x starts, then the
# array's ms against the per-start loop's:
#
#   |U|   3 starts               5 starts               11 starts
#    8    24:  2.01 vs 0.52      40:  1.14 vs 0.57      88:  1.25 vs 1.23
#   12    36:  1.16 vs 0.46      60:  1.22 vs 0.78     132:  1.35 vs 1.80
#   15    45:  1.46 vs 0.73      75:  1.56 vs 1.22     165:  1.78 vs 2.76
#   20    60:  1.19 vs 0.72     100:  1.27 vs 1.26     220:  1.54 vs 2.68
#   30    90:  1.87 vs 1.56     150:  2.18 vs 2.62     330:  2.93 vs 5.68
#   40   120:  1.31 vs 1.28     200:  1.44 vs 2.16     440:  1.72 vs 4.76
#   50   150:  1.56 vs 1.95     250:  1.67 vs 3.25     550:  1.97 vs 7.19
#  100   300:  2.23 vs 4.66     500:  2.42 vs 7.80    1100:  2.83 vs 17.24
#
# The two are about even from 88 to 120, and the array wins from 132 on.
_BATCH_MIN_WORK = 12 * 11


def solve_fixed_point(system: EquationSystem, damping: float = 0.5,
                      tolerance: float = 1e-9, max_iter: int = 100_000,
                      restarts: int = 8, seed: int = 0) -> list[SolveReport]:
    """Damped iteration x <- (1-a)x + aF(x) from several starts.

    Starts are all-0, all-1, all-1/2 and ``restarts`` seeded random
    vectors.  Damping suppresses the period-two oscillation the plain
    iteration exhibits on mutual attacks.  A run whose residual stops
    halving (see ``_STALL_START``) continues with Anderson acceleration,
    and when it converges there, coordinates within 1e-3 of 0 or 1 are
    snapped to them if the snapped vector is verified to be within
    tolerance too.  Every step counts against ``max_iter``.  Under the
    built-in t-norms, when elements times starts reach ``_BATCH_MIN_WORK``,
    the starts take their damped steps all at once as one (starts x n)
    array, with each start keeping its own schedule and the same floats.
    Converged duplicates (within ten tolerances in max norm) of an earlier
    solution are dropped; non-converged runs are reported as such, never
    hidden.
    """
    if not system.logic.continuous:
        raise PreconditionError(
            f"logic {system.logic.name} is not continuous; no solution is guaranteed"
        )
    if not 0 < damping <= 1:
        raise PreconditionError("damping must lie in (0, 1]")
    if not tolerance >= 0:
        raise PreconditionError("tolerance must be a number >= 0")
    if max_iter < 0:
        raise PreconditionError("max_iter must be >= 0")
    if restarts < 0:
        raise PreconditionError("restarts must be >= 0")
    order = system.universe
    n = len(order)
    rng = random.Random(seed)
    starts: list[list[float]] = [[0.0] * n, [1.0] * n, [0.5] * n]
    starts += [[rng.random() for _ in range(n)] for _ in range(restarts)]

    view = system.framework.incidence
    apply = _compile_apply(system.logic, view)
    batched = _layered_apply(system.logic, view) if n * len(starts) >= _BATCH_MIN_WORK \
        else None
    if batched is None:
        runs = [_run(apply, list(x), damping, tolerance, max_iter) for x in starts]
    else:
        runs = _run_batched(batched, apply, starts, damping, tolerance, max_iter)

    # a converged run within ten tolerances (max norm) of an earlier kept one
    # is dropped: each kept row, in start order, drops the later rows near it
    converged = [i for i, run in enumerate(runs) if run[3] == "tolerance"]
    rows = np.array([runs[i][0] for i in converged], dtype=float).reshape(len(converged), n)
    dropped = np.zeros(len(converged), dtype=bool)
    for k in range(len(converged)):
        if not dropped[k]:
            # 0 when n = 0, so an empty framework keeps its first run only
            dropped[k + 1:] |= np.abs(rows[k + 1:] - rows[k]).max(axis=1, initial=0.0) \
                <= 10 * tolerance
    skip = {converged[k] for k in np.flatnonzero(dropped).tolist()}
    reports: list[SolveReport] = []
    for start_index, (x, gap, iterations, stop_reason) in enumerate(runs):
        if start_index in skip:
            continue
        reports.append(SolveReport(
            solution=Assignment({e: x[i] for i, e in enumerate(order)}),
            residual=gap,
            iterations=iterations,
            restart_index=start_index,
            stop_reason=stop_reason,
        ))
    return reports


def _run(apply, x: list[float], damping: float, tolerance: float,
         max_iter: int) -> tuple[list[float], float, int, str]:
    """One damped run from ``x``: final point, residual, iterations and
    stop reason."""
    n = len(x)
    keep = 1.0 - damping
    mark = 0.0
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
            return x, gap, iterations, "tolerance"
        if iterations == max_iter:
            break
        if iterations % _STALL_EVERY == 0:
            if iterations >= _STALL_START and gap > 0.5 * mark:
                return _accelerate(apply, x, fx, gap, iterations, damping, tolerance,
                                   max_iter)
            mark = gap
        for j in range(n):
            x[j] = keep * x[j] + damping * fx[j]
    return x, gap, iterations, "max_iter"


def _run_batched(batched, apply, starts: list[list[float]], damping: float,
                 tolerance: float, max_iter: int) -> list[tuple[list[float], float, int, str]]:
    """:func:`_run` for every start at once, one start per row of ``x``.

    All rows take their damped steps in lockstep, so they share the
    iteration count; a row leaves when it stops, and a stalled row
    continues alone in the scalar :func:`_accelerate` on ``apply``.
    """
    keep = 1.0 - damping
    runs: list = [None] * len(starts)
    rows = list(range(len(starts)))  # start index of each row of x
    x = np.array(starts)
    mark = np.zeros(len(starts))
    for iterations in range(max_iter + 1):
        fx = batched(x)
        gap = np.abs(x - fx).max(axis=1)
        done = gap <= tolerance
        for r in np.flatnonzero(done).tolist():
            runs[rows[r]] = (x[r].tolist(), float(gap[r]), iterations, "tolerance")
        if iterations == max_iter:
            for r in np.flatnonzero(~done).tolist():
                runs[rows[r]] = (x[r].tolist(), float(gap[r]), iterations, "max_iter")
            break
        if iterations % _STALL_EVERY == 0:
            if iterations >= _STALL_START:
                stalled = ~done & (gap > 0.5 * mark)
                for r in np.flatnonzero(stalled).tolist():
                    runs[rows[r]] = _accelerate(apply, x[r].tolist(), fx[r].tolist(),
                                                float(gap[r]), iterations, damping,
                                                tolerance, max_iter)
                done |= stalled
            mark = gap
        if done.any():
            stay = ~done
            if not stay.any():
                break
            rows = [rows[r] for r in np.flatnonzero(stay).tolist()]
            x, fx, mark = x[stay], fx[stay], mark[stay]
        x = keep * x + damping * fx
    return runs


def _max_gap(x: list[float], fx: list[float]) -> float:
    return max((abs(a - b) for a, b in zip(x, fx)), default=0.0)


def _accelerate(apply, x: list[float], fx: list[float], gap: float, iterations: int,
                damping: float, tolerance: float,
                max_iter: int) -> tuple[list[float], float, int, str]:
    """Continue a stalled damped run with Anderson acceleration.

    Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 2011) on
    G(x) = F(x) - x with depth ``_ANDERSON_DEPTH``: each step takes the
    damped step from the combination of the last few iterates whose
    linearised G is smallest, projected onto [0, 1].  A step that does
    not lower the max residual is replaced by the plain damped step from
    the same point.  Returns the final point, its residual, the
    iteration count and the stop reason.
    """
    n = len(x)
    keep = 1.0 - damping
    g = [fx[j] - x[j] for j in range(n)]
    dxs: list[list[float]] = []  # differences of consecutive accepted iterates
    dgs: list[list[float]] = []  # ... and of their G values
    damped = True
    while iterations < max_iter:
        if damped:
            y = [keep * x[j] + damping * fx[j] for j in range(n)]
        else:
            gamma = _least_squares(dgs, g)
            y = []
            for j in range(n):
                v = x[j] + damping * g[j]
                for c, dx, dg in zip(gamma, dxs, dgs):
                    v -= c * (dx[j] + damping * dg[j])
                y.append(v if 0.0 <= v <= 1.0 else 1.0 if v > 1.0 else 0.0)  # NaN -> 0
        iterations += 1
        fy = apply(y)
        gy = _max_gap(y, fy)
        if gy <= tolerance:
            y, gy = _snap(apply, y, gy, tolerance)
            return y, gy, iterations, "tolerance"
        if not damped and gy >= gap:
            damped = True
            continue
        if y == x:
            return x, gap, iterations, "stalled"
        gy_vec = [fy[j] - y[j] for j in range(n)]
        dxs.append([y[j] - x[j] for j in range(n)])
        dgs.append([gy_vec[j] - g[j] for j in range(n)])
        if len(dxs) > _ANDERSON_DEPTH:
            del dxs[0], dgs[0]
        x, fx, g, gap = y, fy, gy_vec, gy
        damped = False
    return x, gap, iterations, "max_iter"


def _least_squares(columns: list[list[float]], b: list[float]) -> list[float]:
    """Coefficients c minimising ||b - sum(c_i * columns[i])||_2.

    QR by modified Gram-Schmidt from the newest column back; a column
    nearly dependent on newer ones gets coefficient 0.
    """
    m = len(columns)
    basis: list[tuple[int, list[float]]] = []  # (column index, unit vector)
    r = [[0.0] * m for _ in range(m)]          # r[k][i]: basis k's part of column i
    for i in reversed(range(m)):
        v = columns[i]
        size = sum(t * t for t in v) ** 0.5
        for k, (_, q) in enumerate(basis):
            r[k][i] = part = sum(a * c for a, c in zip(q, v))
            v = [a - part * c for a, c in zip(v, q)]
        norm = sum(t * t for t in v) ** 0.5
        if norm > 1e-10 * size:
            r[len(basis)][i] = norm
            basis.append((i, [t / norm for t in v]))
    coef = [0.0] * m
    for k in reversed(range(len(basis))):
        i, q = basis[k]
        s = sum(a * c for a, c in zip(q, b))
        for p, _ in basis[k + 1:]:
            s -= r[k][p] * coef[p]
        coef[i] = s / r[k][i]
    return coef


def _snap(apply, x: list[float], gap: float, tolerance: float) -> tuple[list[float], float]:
    """``x`` with near-0/1 coordinates set to exactly 0/1, if that is
    verified to be within tolerance too; else ``x`` unchanged."""
    snapped = [0.0 if v <= _SNAP else 1.0 if v >= 1.0 - _SNAP else v for v in x]
    if snapped != x:
        snapped_gap = _max_gap(snapped, apply(snapped))
        if snapped_gap <= tolerance:
            return snapped, snapped_gap
    return x, gap


# -- exact kernels ---------------------------------------------------------------
#
# Grid values are k/4 for codes k = 0..4.  Each built-in logic holds the
# values of a chunk of grid rows in one exact format:
# - Gödel, Łukasiewicz and L3 hold k/4 as its quarter numerator k, in the
#   codes' own int8 arrays.  The quarter grid is closed under 1 - x, min, max,
#   max(0, x + y - 1), the Gödel implication and min(1, 1 - m + n), so every
#   value is a quarter and every intermediate lies in [0, 8].
# - Product holds a value as a pair of integer arrays (numerator,
#   denominator) with positive denominators, since 1/2 * 1/2 = 1/4 and its
#   implication divides.  Values lie in [0, 1], so while every denominator
#   stays below 2^31 the product of any two numerators or denominators fits
#   in int64.  Only a result with a denominator of 2^31 or more is reduced by
#   its gcd, and a chunk still that wide is recomputed on Python ints
#   (dtype=object) through the same kernels, where every result is reduced.
# The equations (_solution_mask) and the formulas (_grid_verdicts) read values
# in these formats through these kernels only.

_INT64_SAFE = 2 ** 31
_QUARTER_NUM = np.array([0, 1, 1, 3, 1], dtype=np.int64)
_QUARTER_DEN = np.array([1, 4, 2, 4, 1], dtype=np.int64)


class _TooWide(Exception):
    """An int64 chunk produced a value whose reduced denominator is 2^31 or more."""


def _exact(kernel, *args):
    """``kernel(*args, dtype)`` on int64, or on Python ints where that is too narrow."""
    try:
        return kernel(*args, np.int64)
    except _TooWide:
        return kernel(*args, object)


def _neg_4(x):
    return 4 - x


def _tnorm_lukasiewicz_4(x, y):
    return np.maximum(x + y - 4, 0)


def _impl_godel_4(m, n):
    return np.where(m <= n, 4, n)


def _impl_lukasiewicz_4(m, n):
    return np.minimum(4 - m + n, 4)


# keyed by the built-in t-norms and implications under which the quarter
# grid is closed (L3 reads min and the Łukasiewicz implication); every
# built-in negation is 1 - x
_TNORMS_4 = {_tnorm_min: np.minimum, _tnorm_lukasiewicz: _tnorm_lukasiewicz_4}
_IMPLICATIONS_4 = {_impl_godel: _impl_godel_4, _impl_lukasiewicz: _impl_lukasiewicz_4}


def _reduced(num, den):
    """``(num, den)``, reduced by their gcd on Python ints, and on int64
    only once a denominator reaches 2^31; :class:`_TooWide` if one still does."""
    if not den.size or den.dtype != object and int(den.max()) < _INT64_SAFE:
        return num, den
    g = np.gcd(num, den)
    num, den = num // g, den // g
    if den.dtype != object and int(den.max()) >= _INT64_SAFE:
        raise _TooWide
    return num, den


def _neg_q(x):
    return x[1] - x[0], x[1]


def _tnorm_product_q(x, y):
    return _reduced(x[0] * y[0], x[1] * y[1])


def _impl_product_q(m, n):
    le = m[0] * n[1] <= n[0] * m[1]  # where it fails, m > n >= 0, so m's numerator is positive
    return _reduced(np.where(le, 1, n[0] * m[1]), np.where(le, 1, n[1] * m[0]))


def _quarters(logic: LogicSystem) -> bool:
    """Whether ``logic`` holds exact values as quarter numerators, not as
    (numerator, denominator) pairs."""
    return logic.tnorm in _TNORMS_4


def _exact_ops(logic: LogicSystem, one: np.ndarray) -> dict:
    """The exact connectives of ``logic`` in its format, on chunks of
    ``len(one)`` rows, or of any length for a ``one`` of length 1, which
    broadcasts; disjunction is max under a three-valued logic and is not
    interpreted under a fuzzy one."""
    if _quarters(logic):
        join = np.maximum if logic.value_domain == "three_valued" else None
        return _connectives(logic.name, 4, 0, _neg_4, _TNORMS_4[logic.tnorm], join,
                            _IMPLICATIONS_4[logic.implication])
    return _connectives(logic.name, (one, one), (np.zeros_like(one), one), _neg_q,
                        _tnorm_product_q, None, _impl_product_q)


def _quarter_columns(positions, codes: np.ndarray, logic: LogicSystem, dtype) -> dict:
    """Exact values of the columns ``positions`` of ``codes``, by position,
    in ``logic``'s format."""
    if _quarters(logic):
        return {j: codes[:, j] for j in positions}
    num, den = _QUARTER_NUM.astype(dtype), _QUARTER_DEN.astype(dtype)
    return {j: (num.take(codes[:, j]), den.take(codes[:, j])) for j in positions}


def _solution_mask(view: Incidence, elements, logic: LogicSystem, columns: dict,
                   one: np.ndarray):
    """Rows of a chunk on which the equation of each element at
    ``elements`` holds: its value equals the fold of its incoming pairs;
    True, for every row, when there is none."""
    quarters = _quarters(logic)
    if quarters:
        neg, tnorm, unit = _neg_4, _TNORMS_4[logic.tnorm], 4
    else:
        neg, tnorm, unit = _neg_q, _tnorm_product_q, (one, one)
    mask = True
    for a in elements:
        attacks, supports = view.incoming[a]
        terms = [neg(tnorm(columns[b], columns[r])) for b, r in attacks]
        terms += [neg(tnorm(neg(columns[c]), columns[t])) for c, t in supports]
        fold = reduce(tnorm, terms) if terms else unit
        value = columns[a]
        mask = mask & (value == fold if quarters else value[0] * fold[1] == fold[0] * value[1])
    return mask


_ONE = np.ones(1, dtype=np.int64)  # Product's 1, a pair part that broadcasts over any chunk


def _grid_verdicts(formulas, elements, logic: LogicSystem, ops: dict, view: Incidence,
                   positions, codes: np.ndarray, dtype):
    """Model and solution verdicts of a chunk of quarter-grid rows under
    ``logic``, with ``ops`` its :func:`_exact_ops` table: whether every
    formula of ``formulas`` is 1, and whether the equation of each element
    at ``elements`` holds; each is True, for every row, when there is none."""
    columns = _quarter_columns(positions, codes, logic, dtype)
    quarters = _quarters(logic)
    model = True
    for f in formulas:
        value = _fold(f, lambda e: columns[view.position[e]], ops)
        model = model & (value == 4 if quarters else value[0] == value[1])
    return model, _solution_mask(view, elements, logic, columns, _ONE)


# -- frontier sweep --------------------------------------------------------------
#
# A solution of an equation system is a row on which each element's equation
# holds.  The encoded formula is a conjunction, which takes the top value
# exactly when every conjunct does: under min, and under every built-in
# t-norm, which lies below min.  So the three grid sweeps (the PL3 models, the
# exact ternary solutions and the EQ_* quarter grid) assign the universe in
# order, a few elements at a time, and test each equation or conjunct once
# its last variable is assigned; a partial row that fails is dropped with
# every row that extends it.  Rows extend in lexicographic order, so the
# survivors come out in the order of the full grid.  All three read one level
# plan (_level_check) and the exact kernels above.  The complete labellings
# are not swept: they come from the search of labellings._complete_codes,
# which shares no code with these sweeps, so T_PL3 and CORR_G still compare
# two code paths.

_FRONTIER_STEP = 2 ** 8  # a step adds columns while the chunk stays this small
_FRONTIER_ROWS = 2 ** 14  # partial rows held per chunk


class _FrontierOverBudget(Exception):
    """A budgeted :func:`_frontier` would grow more rows than its budget."""


def grid_codes(width: int, base: int) -> np.ndarray:
    """Base-``base`` digits of all ``base ** width`` grid rows in order,
    first column most significant; column-major, so each column is
    contiguous.  Three-valued grids use base 3, code k standing for
    ``THREE_VALUES[k]``."""
    return np.indices((base,) * width, dtype=np.int8).reshape(width, base ** width).T


# the block of each step of _frontier, made once; it is only ever read
_step_block = cache(grid_codes)


def _by_level(order, items, variables_of) -> list[list]:
    """``items`` by level: level k holds those whose last variable in
    ``order`` is the k-th, level 0 those without variables."""
    position = {e: j for j, e in enumerate(order)}
    levels: list[list] = [[] for _ in range(len(order) + 1)]
    for item in items:
        levels[max((position[e] + 1 for e in variables_of(item)), default=0)].append(item)
    return levels


def _survivors(check, codes, alive, items):
    """``codes`` and ``alive`` after ``check(codes, items)``, unless there
    are no ``items``: ``alive`` is and-ed with what it returns, and the rows
    on which no side holds any more are dropped."""
    if not items:
        return codes, alive
    alive = alive & check(codes, items)
    keep = alive.any(axis=1)
    return codes[keep], alive[keep]


def _frontier(width: int, base: int, sides: int, levels, check, budget=None):
    """Rows of the base-``base`` grid over ``width`` columns on which some
    side still holds, in grid order, as (codes, alive) chunks: the PL3
    models, the exact ternary solutions and the EQ_* quarter grid.

    Each step extends a chunk of at most ``_FRONTIER_ROWS`` partial rows,
    depth-first so that memory stays bounded, by one column, or by more
    while the result stays within ``_FRONTIER_STEP`` rows.  Then
    ``check(codes, items)`` tests the rows against the items of the
    ``levels`` just completed (see :func:`_level_check`), per row and side,
    in an array that broadcasts to (rows, sides); ``alive`` is the
    conjunction of these over all levels so far.  A row is dropped once
    no side holds.

    With a ``budget``, raises :class:`_FrontierOverBudget` before the rows
    grown, summed over the steps, would exceed it.
    """
    stack = [_survivors(check, np.zeros((1, 0), dtype=np.int8),
                        np.ones((1, sides), dtype=bool), levels[0])]
    while stack:
        codes, alive = stack.pop()
        rows, k = codes.shape
        if not rows:
            continue
        if k == width:
            yield codes, alive
            continue
        step = 1
        while k + step < width and rows * base ** (step + 1) <= _FRONTIER_STEP:
            step += 1
        block = _step_block(step, base)
        if budget is not None:
            budget -= rows * len(block)
            if budget < 0:
                raise _FrontierOverBudget
        grown = np.empty((rows * len(block), k + step), dtype=np.int8, order="F")
        grown[:, :k] = np.repeat(codes, len(block), axis=0)
        grown[:, k:] = np.tile(block, (rows, 1))
        codes, alive = _survivors(check, grown, np.repeat(alive, len(block), axis=0),
                                  [x for level in levels[k + 1:k + step + 1] for x in level])
        stack.extend((codes[s:s + _FRONTIER_ROWS], alive[s:s + _FRONTIER_ROWS])
                     for s in reversed(range(0, len(codes), _FRONTIER_ROWS)))


def _three_valued(kind, order, levels, check) -> tuple:
    """Each row of the {0, 1/2, 1} grid over ``order`` that :func:`_frontier`
    keeps, as an assignment of type ``kind`` (``Assignment`` or a subclass),
    in grid order."""
    return tuple(kind._trusted(order, [THREE_VALUES[k] for k in row])
                 for codes, _ in _frontier(len(order), 3, 1, levels, check)
                 for row in codes.tolist())


def _level_check(view: Incidence, logics: dict, formula: Formula | None = None,
                 equations: bool = False, scale: int = 1, stopped=()):
    """(levels, check) for :func:`_frontier` on codes that stand for the
    quarter numerators ``scale * code`` (2 on the {0, 1/2, 1} grid, 1 on
    the quarter grid), with each logic's fold table made once per plan.

    The items are the conjuncts of ``formula`` unless it is None (the model
    side) and, if ``equations``, each element's equation (the solution
    side), each at the level of the last position it reads.  A check
    returns the verdicts of its rows on the items it is given as a (rows,
    sides * len(logics)) array: for each logic of ``logics`` (id to logic)
    in turn, the columns of the sides tested, model first.  A logic whose
    id is in ``stopped`` when a check runs is not evaluated: its columns
    read False.  A check gathers only the columns that its items read, so a
    sampled chunk, tested level by level, pays about one gather per element
    and two per relation, not one per column up to each level.
    """
    conjuncts = () if formula is None else \
        formula.children if isinstance(formula, And) else (formula,)
    items = [({view.position[e] for e in variables(f)}, 0, f) for f in conjuncts]
    if equations:
        items += [({a}.union(*attacks, *supports), 1, a)
                  for a, (attacks, supports) in enumerate(view.incoming)]
    levels = _by_level(range(len(view.incoming)), items, lambda item: item[0])
    kept = slice(int(formula is None), 1 + equations)  # the sides tested, of (model, solution)
    sides = kept.stop - kept.start
    plans = [(t, logic, None if formula is None else _exact_ops(logic, _ONE))
             for t, logic in logics.items()]

    def check(codes, items):
        formulas = [x for _, side, x in items if side == 0]
        elements = [x for _, side, x in items if side == 1]
        positions = set().union(*(cols for cols, _, _ in items))
        if scale != 1:
            codes = scale * codes
        verdicts = np.zeros((len(codes), sides * len(plans)), dtype=bool)
        for i, (t, logic, ops) in enumerate(plans):
            if t not in stopped:
                pair = _exact(_grid_verdicts, formulas, elements, logic, ops, view, positions,
                              codes)
                for j, verdict in enumerate(pair[kept]):
                    verdicts[:, sides * i + j] = verdict
        return verdicts
    return levels, check


def enumerate_ternary_solutions(system: EquationSystem,
                                bound: int | None = None) -> tuple[Assignment, ...]:
    """All exact solutions over the {0, 1/2, 1} grid, in grid order.

    Frontier sweep (:func:`_frontier`) on the solution side of
    :func:`_level_check`: each equation is tested with the exact kernels
    on quarter numerators 0, 2 and 4; the order is lexicographic with value
    order 0 < 1/2 < 1.  Only the built-in t-norms under the negation 1 - x
    have these kernels; any other logic raises :class:`PreconditionError`.
    """
    logic, order = system.logic, system.universe
    check_universe(len(order), bound, DEFAULT_TERNARY_BOUND)
    exact = _quarters(logic) or logic.tnorm is _tnorm_product
    if not exact or logic.negation is not _standard_negation:
        raise PreconditionError(f"logic {logic.name} has no exact kernel")
    levels, check = _level_check(system.framework.incidence, {logic.name: logic},
                                 equations=True, scale=2)
    return _three_valued(Assignment, order, levels, check)
