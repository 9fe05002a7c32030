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

from .errors import ValidationError
from .framework import HAFS, ElementId, Incidence
from .limits import DEFAULT_LABELLING_BOUND, check_universe
from .logic import THREE_VALUES, Assignment

ZERO, HALF, ONE = THREE_VALUES

Semantics = Literal["grounded", "preferred", "stable"]


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


# -- labelling search ------------------------------------------------------------
#
# Labels are held in halves: codes 0, 1 and 2 stand for 0, 1/2 and 1, and _FREE
# marks an undecided position, which ranges over [0, 2].  An element's label is
# the min of its terms, 2 - min(b, r) for each attack pair (b, r) and
# 2 - min(2 - c, t) for each support pair (c, t), and 2 when it has no pairs.
# Each term is monotone in each input, so its lowest and highest value over the
# undecided inputs are taken at the ends of their ranges: _TERM_BOUNDS holds
# them by 16 * kind + 4 * first input + second input, kind 0 for an attack pair
# and 1 for a support pair.  The min of the terms' lowest values is the lowest
# label; the min of their highest values bounds the label from above, exactly
# once every input is decided.  The search shares no code with the grid sweeps
# of hafs.equations, so T_PL3 and CORR_G compare two code paths.

_FREE = 3
_LOWEST = (0, 1, 2, 0)
_HIGHEST = (0, 1, 2, 2)
_TERM_BOUNDS = tuple(
    (2 - min(_HIGHEST[x], _HIGHEST[y]), 2 - min(_LOWEST[x], _LOWEST[y])) if kind == 0
    else (2 - min(2 - _LOWEST[x], _HIGHEST[y]), 2 - min(2 - _HIGHEST[x], _LOWEST[y]))
    for kind in range(2) for x in range(4) for y in range(4))


def _bounds(terms, labels) -> tuple[int, int]:
    """Lowest and highest label the (kind, i, j) ``terms`` of one element
    can give under ``labels``."""
    low = high = 2
    for kind, i, j in terms:
        term_low, term_high = _TERM_BOUNDS[kind + 4 * labels[i] + labels[j]]
        if term_low < low:
            low = term_low
        if term_high < high:
            high = term_high
    return low, high


def _propagate(terms, readers, labels: list[int], queue: list[int]) -> bool:
    """Examine the elements in ``queue`` until none is left: an undecided
    element whose lowest and highest label meet is decided, and its
    readers are queued; False once a decided label falls outside its
    bounds, when no complete labelling extends ``labels``."""
    while queue:
        a = queue.pop()
        low, high = _bounds(terms[a], labels)
        label = labels[a]
        if label == _FREE:
            if low == high:
                labels[a] = low
                queue.extend(readers[a])
        elif not low <= label <= high:
            return False
    return True


def _complete_codes(view: Incidence) -> list[list[int]]:
    """Every complete labelling, as codes by position, in grid order.

    Depth-first over an explicit stack from the all-undecided labelling
    with every element queued.  A node that survives :func:`_propagate`
    branches on its first undecided position, over the labels within its
    bounds in the order 0, 1/2, 1, and each child queues the readers of
    that position.  Children differ only there, so the labellings come out
    in grid order.  A fully decided node is complete: each element was
    examined after its last input was decided, when its bounds meet at
    the label its conditions give.
    """
    n = len(view.incoming)
    terms = [tuple((0, b, r) for b, r in attacks) + tuple((16, c, t) for c, t in supports)
             for attacks, supports in view.incoming]
    readers: list[list[int]] = [[] for _ in range(n)]
    for a, pairs in enumerate(terms):
        for p in sorted({x for _, i, j in pairs for x in (i, j)}):
            readers[p].append(a)
    found = []
    stack = [([_FREE] * n, list(range(n)))]
    while stack:
        labels, queue = stack.pop()
        if not _propagate(terms, readers, labels, queue):
            continue
        if _FREE not in labels:
            found.append(labels)
            continue
        p = labels.index(_FREE)
        low, high = _bounds(terms[p], labels)
        for label in range(high, low - 1, -1):
            child = labels.copy()
            child[p] = label
            stack.append((child, readers[p].copy()))
    return found


def enumerate_adjacent_complete(h: HAFS, bound: int | None = None) -> tuple[Labelling3, ...]:
    """All labellings satisfying the per-element conditions.

    Found by the propagation search of :func:`_complete_codes` on the
    framework's incidence.  Output order is lexicographic over elements
    sorted by id with value order 0 < 1/2 < 1, the order of the full grid.
    """
    check_universe(len(h.universe), bound, DEFAULT_LABELLING_BOUND)
    return tuple(Labelling3._trusted(h.universe, [THREE_VALUES[k] for k in codes])
                 for codes in _complete_codes(h.incidence))


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
