"""Extension semantics built on defeats through support chains.

A candidate set defeats an element either directly (it contains an
attacker together with the attack itself) or indirectly (it contains an
attack on the head of an acyclic chain of supports, all inside the set,
leading to the element).  Defence, conflict-freeness and the usual
complete / grounded / preferred / stable families are derived from
those two notions.

The defence function D(B) (everything ``B`` defends, given what ``B``
defeats) is monotone, so its least fixpoint L is reached by iterating D
from the empty set.  L is conflict-free, hence the grounded extension
and contained in every complete extension; the complete family is found
by an in/out propagation search that starts from L.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from .errors import PreconditionError, ValidationError
from .framework import HAFS, ElementId, Incidence
from .labellings import HALF, ONE, ZERO, Labelling3
from .limits import DEFAULT_EXTENSION_BOUND, check_universe

ElementSet = frozenset[ElementId]

ExtensionSemantics = Literal["complete", "grounded", "preferred", "stable"]


def _check_members(h: HAFS, B: Iterable[ElementId]) -> ElementSet:
    members = frozenset(B)
    for x in members:
        if x not in h:
            raise ValidationError(f"{x.qualified} is not in the universe")
    return members


def _attacked_by(h: HAFS, b: ElementId, x: ElementId, members: ElementSet) -> bool:
    return any(src == b and rel in members for src, rel in h.attackers_of(x))


def directly_defeats(h: HAFS, b: ElementId, a: ElementId, B: Iterable[ElementId]) -> bool:
    """True iff ``b`` and an attack from ``b`` to ``a`` are both in ``B``."""
    members = _check_members(h, B)
    _check_members(h, (a, b))
    return b in members and _attacked_by(h, b, a, members)


def indirectly_defeats(h: HAFS, b: ElementId, a: ElementId, B: Iterable[ElementId]) -> bool:
    """True iff some acyclic support chain inside ``B`` leads from an
    element attacked by ``b`` (attack also in ``B``) down to ``a``.

    Searches backwards from ``a`` over supports whose relation object is
    in ``B``.  Any support walk from some c != a to ``a`` contains an
    acyclic chain from c to ``a``, so reaching an element attacked by
    ``b`` is enough.
    """
    members = _check_members(h, B)
    _check_members(h, (a, b))
    if b not in members:
        return False
    seen, stack = {a}, [a]
    while stack:
        for c, t in h.supporters_of(stack.pop()):
            if t in members and c not in seen:
                if _attacked_by(h, b, c, members):
                    return True
                seen.add(c)
                stack.append(c)
    return False


def defeats(h: HAFS, b: ElementId, a: ElementId, B: Iterable[ElementId]) -> bool:
    return directly_defeats(h, b, a, B) or indirectly_defeats(h, b, a, B)


# The set-level notions run on positions of the framework's incidence view.

def _defeated(view: Incidence, inset: set[int]) -> set[int]:
    queue = [a for a, (att, _) in enumerate(view.incoming)
             if any(b in inset and r in inset for b, r in att)]
    defeated = set(queue)
    while queue:
        for target, support in view.outgoing_supports[queue.pop()]:
            if support in inset and target not in defeated:
                defeated.add(target)
                queue.append(target)
    return defeated


def _defended(view: Incidence, inset: set[int], defeated: set[int]) -> set[int]:
    return {a for a, (att, supp) in enumerate(view.incoming)
            if all(b in defeated or r in defeated for b, r in att)
            and all(c in inset or t in defeated for c, t in supp)}


def _positions(h: HAFS, B: Iterable[ElementId]) -> set[int]:
    position = h.incidence.position
    return {position[x] for x in _check_members(h, B)}


def _elements(h: HAFS, positions: Iterable[int]) -> ElementSet:
    return frozenset(h.universe[i] for i in positions)


def dft(h: HAFS, B: Iterable[ElementId]) -> ElementSet:
    """Everything defeated by ``B``: direct victims, then propagation of
    a defeated supporter through each in-set support to its target."""
    inset = _positions(h, B)
    return _elements(h, _defeated(h.incidence, inset))


def dfd(h: HAFS, B: Iterable[ElementId]) -> ElementSet:
    """Everything defended by ``B``: every incoming attack is countered
    (attacker or attack defeated) and every incoming support is honoured
    (supporter in ``B`` or the support defeated)."""
    inset = _positions(h, B)
    view = h.incidence
    return _elements(h, _defended(view, inset, _defeated(view, inset)))


@dataclass(eq=False, slots=True)
class SetFlags:
    """Classification of a candidate set."""

    conflict_free: bool
    admissible: bool
    complete: bool
    stable_eligible: bool


def _flags(h: HAFS, inset: set[int], defeated: set[int]) -> SetFlags:
    conflict_free = inset.isdisjoint(defeated)
    defended = _defended(h.incidence, inset, defeated)
    return SetFlags(
        conflict_free=conflict_free,
        admissible=conflict_free and inset <= defended,
        complete=conflict_free and inset == defended,
        stable_eligible=len(inset | defeated) == len(h),
    )


def classify_set(h: HAFS, E: Iterable[ElementId]) -> SetFlags:
    inset = _positions(h, E)
    return _flags(h, inset, _defeated(h.incidence, inset))


def _defence(view: Incidence, inset: set[int]) -> set[int]:
    """D(B): what ``inset`` defends, given what it defeats."""
    return _defended(view, inset, _defeated(view, inset))


def _least_fixpoint(view: Incidence) -> set[int]:
    """L, the least fixpoint of D, by iteration from the empty set.

    D is monotone: ``_defeated`` only grows with the set, and so every
    condition of ``_defended`` only gets easier to meet.  Hence the
    iterates B0 = {} <= B1 = D(B0) <= ... increase to L, and L is below
    every fixpoint, in particular below every complete extension.

    L is also conflict-free, so it is itself the least complete
    extension.  Let B be conflict-free with B <= D(B).
    (1) D(B) meets nothing B defeats: a y defeated by B is either attacked
        through a pair (b, r) inside B, and defending y needs b or r
        defeated by B; or it has a support (c, t) with t in B and c
        defeated by B, and defending y needs c in B or t defeated by B.
        Either way B would defeat one of its own members.
    (2) D(B) is conflict-free: take y in D(B) defeated by D(B), entered
        as early as possible in the closure ``_defeated`` computes.  If a
        pair (b, r) inside D(B) attacks y, defending y puts b or r among
        the elements defeated by B, against (1).  Otherwise a support
        (c, t) with t in D(B) and c defeated by D(B) earlier carries the
        defeat to y; defending y needs t defeated by B, against (1), or
        c in B <= D(B), which makes c an earlier such element than y.
    B0 = {} meets the hypothesis, and by (2) and monotonicity so does
    every later iterate, hence L.
    """
    least: set[int] = set()
    while (step := _defence(view, least)) != least:
        least = step
    return least


def _propagate(view: Incidence, everything: set[int], inset: set[int],
               outset: set[int]) -> tuple[set[int], set[int]] | None:
    """Grow (IN, OUT) by moves every complete extension E with IN <= E
    and E disjoint from OUT must follow; None when no such E exists.

    E = D(E) >= D(IN) forces D(IN) in; conflict-freeness forces what IN
    defeats out; E = D(E) <= D(U - OUT) forces the rest of U out.
    """
    while True:
        rest = everything - outset
        defeated = _defeated(view, inset)
        grown_in = inset | _defended(view, inset, defeated)
        grown_out = outset | defeated | (everything - _defence(view, rest))
        if not grown_in.isdisjoint(grown_out):
            return None
        if len(grown_in) == len(inset) and len(grown_out) == len(outset):
            return inset, outset
        inset, outset = grown_in, grown_out


def _complete_positions(view: Incidence) -> list[list[int]]:
    """Every complete extension, as sorted positions, ordered by size then
    lexicographically (the order of a subset scan by size).

    Depth-first over an explicit stack from (L, {}), branching on the
    smallest undecided position.  A fully decided node that survives
    propagation is complete: D(IN) <= IN was forced, IN <= D(U - OUT) =
    D(IN) was checked, and IN defeats nothing in IN.
    """
    everything = set(range(len(view.incoming)))
    found = []
    stack = [(_least_fixpoint(view), set())]
    while stack:
        node = _propagate(view, everything, *stack.pop())
        if node is None:
            continue
        inset, outset = node
        undecided = everything - inset - outset
        if not undecided:
            found.append(sorted(inset))
            continue
        x = min(undecided)
        stack.append((inset, outset | {x}))
        stack.append((inset | {x}, outset))
    found.sort(key=lambda positions: (len(positions), positions))
    return found


def enumerate_extensions(h: HAFS, semantics: ExtensionSemantics,
                         bound: int | None = None) -> tuple[ElementSet, ...]:
    """Extensions of ``h``, ordered by size then lexicographically by
    universe position.

    grounded is the least fixpoint L of the defence function, found
    without search.  L is always conflict-free (see ``_least_fixpoint``),
    so a complete extension always exists and L is the least one.
    complete comes from the propagation search of ``_complete_positions``;
    preferred keeps its maximal members and stable those that, with what
    they defeat, cover the universe.
    """
    check_universe(len(h.universe), bound, DEFAULT_EXTENSION_BOUND)

    view = h.incidence
    if semantics == "grounded":
        return (_elements(h, _least_fixpoint(view)),)
    complete = [_elements(h, positions) for positions in _complete_positions(view)]
    if semantics == "complete":
        return tuple(complete)
    preferred = tuple(
        E for E in complete if not any(E < other for other in complete)
    )
    if semantics == "preferred":
        return preferred
    if semantics == "stable":
        full = set(h.universe)
        return tuple(E for E in preferred if (E | dft(h, E)) == full)
    raise ValueError(f"unknown semantics {semantics!r}")


def extension_derived_labelling(h: HAFS, E: Iterable[ElementId]) -> Labelling3:
    """Labelling read off a complete extension: members 1, defeated 0,
    everything else 1/2."""
    inset = _positions(h, E)
    defeated = _defeated(h.incidence, inset)
    if not _flags(h, inset, defeated).complete:
        raise PreconditionError("the given set is not a complete extension")
    return Labelling3(
        (x, ONE if i in inset else ZERO if i in defeated else HALF)
        for i, x in enumerate(h.universe)
    )


def extensions_to_json_obj(extensions: Iterable[ElementSet]) -> dict:
    return {"extensions": [sorted(x.qualified for x in E) for E in extensions]}
