"""Three-valued labelling semantics driven by direct neighbours.

An element is labelled 1 exactly when every incoming attack is disarmed
(attacker or attack valued 0) and every incoming support is satisfied
(supporter valued 1 or support valued 0); it is labelled 0 exactly when
some attack fires (attacker and attack both 1) or some support fails
(supporter 0 with the support itself 1); it is 1/2 otherwise.  Elements
without incoming edges are therefore 1 in every such labelling.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import Iterable, Literal

import numpy as np

from .errors import ValidationError
from .framework import HAFS, ElementId
from .limits import DEFAULT_LABELLING_BOUND, check_universe
from .logic import THREE_VALUES, Assignment

ZERO, HALF, ONE = THREE_VALUES

Semantics = Literal["grounded", "preferred", "stable"]


def grid_codes(width: int, base: int) -> np.ndarray:
    """Base-``base`` digits of all ``base ** width`` grid rows in order,
    first column most significant; column-major, so each column is
    contiguous.  Three-valued grids use base 3, code k standing for
    ``THREE_VALUES[k]``."""
    return np.indices((base,) * width, dtype=np.int8).reshape(width, base ** width).T


# -- frontier sweep --------------------------------------------------------------
#
# A labelling, like a solution of an equation system, is a row on which each
# element's condition holds.  The encoded formula is a conjunction, which takes
# the top value exactly when every conjunct does: under min, and under every
# built-in t-norm, which lies below min.  So all four grid sweeps assign the
# universe in order, a few elements at a time, and test each condition,
# equation or conjunct once its last variable is assigned; a partial row that
# fails is dropped with every row that extends it.  Rows extend in
# lexicographic order, so the survivors come out in the order of the full
# grid.  A sampled EQ_* grid skips its drawn rows when the whole grid's
# frontier, within a budget, finds no row on which a model and a solution
# verdict differ, and otherwise tests them level by level.

_FRONTIER_STEP = 2 ** 8  # a step adds columns while the chunk stays this small
_FRONTIER_ROWS = 2 ** 14  # partial rows held per chunk


class _FrontierOverBudget(Exception):
    """A budgeted :func:`_frontier` would grow more rows than its budget."""


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
    side still holds, in grid order, as (codes, alive) chunks.

    Each step extends a chunk of at most ``_FRONTIER_ROWS`` partial rows,
    depth-first so that memory stays bounded, by one column, or by more
    while the result stays within ``_FRONTIER_STEP`` rows.  Then
    ``check(codes, items)`` tests the rows against the items of the
    ``levels`` just completed (see :func:`_by_level`), per row and side,
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
        block = grid_codes(step, base)
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


def _three_valued(make, order, levels, check) -> tuple:
    """``make`` of each row of the {0, 1/2, 1} grid over ``order`` that
    :func:`_frontier` keeps, read as (element, value) pairs, in grid order."""
    return tuple(make(zip(order, [THREE_VALUES[k] for k in row]))
                 for codes, _ in _frontier(len(order), 3, 1, levels, check)
                 for row in codes.tolist())


class Labelling3(Assignment):
    """Immutable total map from elements to {0, 1/2, 1}."""

    __slots__ = ()

    @staticmethod
    def _coerce(key: ElementId, raw) -> Fraction:
        if raw is ZERO or raw is HALF or raw is ONE:
            return raw
        value = Fraction(raw)
        if value not in THREE_VALUES:
            raise ValidationError(f"value {raw!r} for {key} is not one of 0, 1/2, 1")
        return value

    @property
    def core(self) -> frozenset[ElementId]:
        """Elements labelled 1."""
        return frozenset(k for k, v in self._values.items() if v == ONE)


def _require_total(h: HAFS, labelling: Mapping[ElementId, Fraction]):
    missing = [x for x in h.universe if x not in labelling]
    if missing:
        raise ValidationError(f"labelling is not total: missing {missing[0].qualified}")
    extra = [x for x in labelling if x not in h]
    if extra:
        raise ValidationError(f"labelling assigns {extra[0].qualified} outside the universe")


def is_adjacent_complete(h: HAFS, labelling: Labelling3) -> bool:
    """Check one labelling against the per-element conditions, literally."""
    _require_total(h, labelling)
    for a in h.universe:
        attackers = h.attackers_of(a)
        supporters = h.supporters_of(a)
        must_be_one = (
            all(labelling[b] == ZERO or labelling[r] == ZERO for b, r in attackers)
            and all(labelling[c] == ONE or labelling[t] == ZERO for c, t in supporters)
        )
        must_be_zero = (
            any(labelling[b] == ONE and labelling[r] == ONE for b, r in attackers)
            or any(labelling[c] == ZERO and labelling[t] == ONE for c, t in supporters)
        )
        value = labelling[a]
        if must_be_one:
            if value != ONE:
                return False
        elif must_be_zero:
            if value != ZERO:
                return False
        elif value != HALF:
            return False
    return True


def enumerate_adjacent_complete(h: HAFS, bound: int | None = None) -> tuple[Labelling3, ...]:
    """All labellings satisfying the per-element conditions.

    Frontier sweep over the 3^|U| grid (:func:`_frontier`): a partial
    labelling is dropped once an element whose incoming pairs are all
    assigned breaks its condition.  Output order is lexicographic over
    elements sorted by id with value order 0 < 1/2 < 1.
    """
    n = len(h.universe)
    check_universe(n, bound, DEFAULT_LABELLING_BOUND)

    incoming = h.incidence.incoming
    levels = _by_level(range(n), range(n),
                       lambda i: {i}.union(*incoming[i][0], *incoming[i][1]))

    def check(codes, elements):
        valid = np.ones(len(codes), dtype=bool)
        for ia in elements:
            att, supp = incoming[ia]
            cond_one, cond_zero = True, False
            for ib, ir in att:
                cond_one &= (codes[:, ib] == 0) | (codes[:, ir] == 0)
                cond_zero |= (codes[:, ib] == 2) & (codes[:, ir] == 2)
            for ic, it in supp:
                cond_one &= (codes[:, ic] == 2) | (codes[:, it] == 0)
                cond_zero |= (codes[:, ic] == 0) & (codes[:, it] == 2)
            expected = np.where(cond_one, 2, np.where(cond_zero, 0, 1))
            valid &= codes[:, ia] == expected
        return valid[:, None]
    return _three_valued(Labelling3, h.universe, levels, check)


def select_labellings(h: HAFS, labellings: Iterable[Labelling3],
                      semantics: Semantics) -> tuple[Labelling3, ...]:
    """Refine the full family of labellings by core comparison.

    grounded: labellings whose core is contained in every other core;
    preferred: core is maximal; stable: preferred with every non-core
    element labelled 0.

    On the full family the grounded selection is never empty.  The
    labellings are the fixpoints of the map Γ that labels each element by
    its conditions, Γ(x)_a = the Kleene min over its attack pairs of
    1 − min(b, r) and over its support pairs of 1 − min(1 − c, t).  Kleene
    min and 1 − x are monotone in the information order (1/2 below 0 and
    1), so Γ is, and iterating it from all-1/2 reaches its least fixpoint
    F.  Every labelling lies above F, so keeps the 1s of F: the core of F
    is the least core.  Only a caller that passes part of the family can
    get ``()``.
    """
    pool = tuple(labellings)
    cores = [lab.core for lab in pool]
    if semantics == "grounded":
        for least in cores:
            if all(least <= c for c in cores):
                return tuple(lab for lab, c in zip(pool, cores) if c == least)
        return ()
    if semantics in ("preferred", "stable"):
        chosen = tuple(
            lab for lab, c in zip(pool, cores)
            if not any(c < other for other in cores)
        )
        if semantics == "preferred":
            return chosen
        return tuple(
            lab for lab in chosen
            if all(lab[x] == ZERO for x in h.universe if x not in lab.core)
        )
    raise ValueError(f"unknown semantics {semantics!r}")


def labellings_to_json_obj(labellings: Iterable[Labelling3]) -> dict:
    return {"labellings": [lab.to_json_obj() for lab in labellings]}
