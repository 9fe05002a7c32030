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

from .errors import SizeBoundError, ValidationError
from .framework import HAFS, ElementId
from .limits import DEFAULT_LABELLING_BOUND, universe_bound
from .logic import THREE_VALUES, Assignment

ZERO, HALF, ONE = THREE_VALUES

Semantics = Literal["grounded", "preferred", "stable"]

# rows of the enumeration grids are swept this many at a time
CHUNK_ROWS = 3 ** 12


def grid_codes(width: int, base: int, start: int, stop: int) -> np.ndarray:
    """Base-``base`` digits of grid rows ``start..stop``, first column most
    significant; column-major, so each column is contiguous.  Three-valued
    grids use base 3, code k standing for ``THREE_VALUES[k]``."""
    rows = np.arange(start, stop, dtype=np.int64)
    codes = np.empty((stop - start, width), dtype=np.int8, order="F")
    for j in reversed(range(width)):
        codes[:, j] = rows % base
        rows //= base
    return codes


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

    Exhaustive search over the 3^|U| grid with one sound pruning step:
    elements without incoming edges are pre-forced to 1.  Output order is
    lexicographic over elements sorted by id with value order 0 < 1/2 < 1.
    """
    limit = bound if bound is not None else universe_bound(DEFAULT_LABELLING_BOUND)
    n = len(h.universe)
    if n > limit:
        raise SizeBoundError(f"universe has {n} elements, bound is {limit}")

    view = h.incidence
    # only elements with incoming edges vary; the rest must be 1
    free = view.free
    total = 3 ** len(free)
    found: list[Labelling3] = []
    for start in range(0, total, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, total)
        grid = np.full((stop - start, n), 2, dtype=np.int8, order="F")
        grid[:, free] = grid_codes(len(free), 3, start, stop)

        valid = np.ones(stop - start, dtype=bool)
        for ia in free:
            att, supp = view.incoming[ia]
            cond_one = np.ones(stop - start, dtype=bool)
            cond_zero = np.zeros(stop - start, dtype=bool)
            for ib, ir in att:
                cond_one &= (grid[:, ib] == 0) | (grid[:, ir] == 0)
                cond_zero |= (grid[:, ib] == 2) & (grid[:, ir] == 2)
            for ic, it in supp:
                cond_one &= (grid[:, ic] == 2) | (grid[:, it] == 0)
                cond_zero |= (grid[:, ic] == 0) & (grid[:, it] == 2)
            expected = np.where(cond_one, 2, np.where(cond_zero, 0, 1))
            valid &= grid[:, ia] == expected
            if not valid.any():
                break

        for row in grid[valid].tolist():
            found.append(Labelling3(zip(h.universe, [THREE_VALUES[k] for k in row])))
    return tuple(found)


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
