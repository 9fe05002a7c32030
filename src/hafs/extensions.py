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
by an in/out propagation search that starts from L.  The search and the
set-level notions run on int bitmasks, one bit per universe position.
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


# The set-level notions run on int bitmasks over universe positions: bit i of a
# mask stands for universe[i].  Each public function compiles the framework's
# incidence into one _Masks and reads every notion through it.  The kernel
# shares no code with hafs.labellings or hafs.equations, so T1 and T2 compare
# two code paths.


class _Masks:
    """The incidence of a framework as bitmasks, one bit per position.

    ``attacks`` holds, for each attack relation, the mask of its attacker
    and the attack itself, and the bit of its target.  ``targeted`` holds,
    for each element with incoming edges, its bit, its attack-pair masks
    and its (supporter bit, support bit) pairs; ``free`` is the mask of
    the other elements, which are always defended.  ``outgoing[i]`` lists
    the (target bit, support bit) of the supports leaving position i, and
    ``sources`` is the mask of the positions that have any.
    """

    __slots__ = ("everything", "attacks", "targeted", "free", "outgoing", "sources")

    def __init__(self, view: Incidence):
        incoming = view.incoming
        self.everything = (1 << len(incoming)) - 1
        self.attacks = [(1 << b | 1 << r, 1 << a)
                        for a, (attacks, _) in enumerate(incoming) for b, r in attacks]
        self.targeted = [(1 << a, [1 << b | 1 << r for b, r in attacks],
                          [(1 << c, 1 << t) for c, t in supports])
                         for a, (attacks, supports) in enumerate(incoming) if attacks or supports]
        self.free = sum(1 << a for a, (attacks, supports) in enumerate(incoming)
                        if not attacks and not supports)
        self.outgoing = [[(1 << x, 1 << t) for x, t in out] for out in view.outgoing_supports]
        self.sources = sum(1 << i for i, out in enumerate(view.outgoing_supports) if out)

    def defeated(self, inset: int) -> int:
        """Everything ``inset`` defeats: the target of each attack pair
        inside it, then, through each support inside it, the target of a
        defeated supporter."""
        defeated = 0
        for pair, target in self.attacks:
            if inset & pair == pair:
                defeated |= target
        outgoing, sources = self.outgoing, self.sources
        todo = defeated & sources
        while todo:
            low = todo & -todo
            todo ^= low
            for target, support in outgoing[low.bit_length() - 1]:
                if inset & support and not defeated & target:
                    defeated |= target
                    todo |= target & sources
        return defeated

    def defended(self, inset: int, defeated: int) -> int:
        """Everything ``inset`` defends, given that it defeats ``defeated``:
        every incoming attack pair has a defeated member, and every incoming
        support has its supporter in ``inset`` or is defeated itself."""
        defended = self.free
        for bit, pairs, supports in self.targeted:
            for pair in pairs:
                if not pair & defeated:
                    break
            else:
                for supporter, support in supports:
                    if not (inset & supporter or defeated & support):
                        break
                else:
                    defended |= bit
        return defended

    def defence(self, inset: int) -> int:
        """D(B): what ``inset`` defends, given what it defeats."""
        return self.defended(inset, self.defeated(inset))


def _positions(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _mask(h: HAFS, B: Iterable[ElementId]) -> int:
    position = h.incidence.position
    mask = 0
    for x in _check_members(h, B):
        mask |= 1 << position[x]
    return mask


def _elements(h: HAFS, mask: int) -> ElementSet:
    universe = h.universe
    return frozenset(universe[i] for i in _positions(mask))


def dft(h: HAFS, B: Iterable[ElementId]) -> ElementSet:
    """Everything defeated by ``B``: direct victims, then propagation of
    a defeated supporter through each in-set support to its target."""
    return _elements(h, _Masks(h.incidence).defeated(_mask(h, B)))


def dfd(h: HAFS, B: Iterable[ElementId]) -> ElementSet:
    """Everything defended by ``B``: every incoming attack is countered
    (attacker or attack defeated) and every incoming support is honoured
    (supporter in ``B`` or the support defeated)."""
    return _elements(h, _Masks(h.incidence).defence(_mask(h, B)))


@dataclass(eq=False, slots=True)
class SetFlags:
    """Classification of a candidate set."""

    conflict_free: bool
    admissible: bool
    complete: bool
    stable_eligible: bool


def _flags(masks: _Masks, inset: int, defeated: int) -> SetFlags:
    conflict_free = not inset & defeated
    defended = masks.defended(inset, defeated)
    return SetFlags(
        conflict_free=conflict_free,
        admissible=conflict_free and inset & defended == inset,
        complete=conflict_free and inset == defended,
        stable_eligible=inset | defeated == masks.everything,
    )


def classify_set(h: HAFS, E: Iterable[ElementId]) -> SetFlags:
    masks, inset = _Masks(h.incidence), _mask(h, E)
    return _flags(masks, inset, masks.defeated(inset))


def _least_fixpoint(masks: _Masks) -> int:
    """L, the least fixpoint of D, by iteration from the empty set.

    D is monotone: ``defeated`` only grows with the set, and so every
    condition of ``defended`` only gets easier to meet.  Hence the
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
        as early as possible in the closure ``defeated`` computes.  If a
        pair (b, r) inside D(B) attacks y, defending y puts b or r among
        the elements defeated by B, against (1).  Otherwise a support
        (c, t) with t in D(B) and c defeated by D(B) earlier carries the
        defeat to y; defending y needs t defeated by B, against (1), or
        c in B <= D(B), which makes c an earlier such element than y.
    B0 = {} meets the hypothesis, and by (2) and monotonicity so does
    every later iterate, hence L.
    """
    least = 0
    while (step := masks.defence(least)) != least:
        least = step
    return least


def _propagate(masks: _Masks, inset: int, outset: int) -> tuple[int, int] | None:
    """Grow (IN, OUT) by moves every complete extension E with IN <= E
    and E disjoint from OUT must follow; None when no such E exists.

    E = D(E) >= D(IN) forces D(IN) in; conflict-freeness forces what IN
    defeats out; E = D(E) <= D(U - OUT) forces the rest of U out.
    """
    everything = masks.everything
    while True:
        defeated = masks.defeated(inset)
        grown_in = inset | masks.defended(inset, defeated)
        grown_out = outset | defeated | (everything ^ masks.defence(everything ^ outset))
        if grown_in & grown_out:
            return None
        if grown_in == inset and grown_out == outset:
            return inset, outset
        inset, outset = grown_in, grown_out


def _complete_masks(masks: _Masks) -> list[int]:
    """Every complete extension, as a mask, ordered by size then
    lexicographically by position (the order of a subset scan by size).

    Depth-first over an explicit stack from (L, {}), branching on the
    lowest undecided bit.  A fully decided node that survives propagation
    is complete: D(IN) <= IN was forced, IN <= D(U - OUT) = D(IN) was
    checked, and IN defeats nothing in IN.
    """
    everything = masks.everything
    found = []
    stack = [(_least_fixpoint(masks), 0)]
    while stack:
        node = _propagate(masks, *stack.pop())
        if node is None:
            continue
        inset, outset = node
        undecided = everything ^ (inset | outset)
        if not undecided:
            found.append(inset)
            continue
        x = undecided & -undecided
        stack.append((inset, outset | x))
        stack.append((inset | x, outset))
    found.sort(key=lambda mask: (mask.bit_count(), _positions(mask)))
    return found


def enumerate_extensions(h: HAFS, semantics: ExtensionSemantics,
                         bound: int | None = None) -> tuple[ElementSet, ...]:
    """Extensions of ``h``, ordered by size then lexicographically by
    universe position.

    grounded is the least fixpoint L of the defence function, found
    without search.  L is always conflict-free (see ``_least_fixpoint``),
    so a complete extension always exists and L is the least one.
    complete comes from the propagation search of ``_complete_masks``;
    preferred keeps its maximal members and stable those that, with what
    they defeat, cover the universe.
    """
    check_universe(len(h.universe), bound, DEFAULT_EXTENSION_BOUND)

    masks = _Masks(h.incidence)
    if semantics == "grounded":
        family = [_least_fixpoint(masks)]
    elif semantics in ("complete", "preferred", "stable"):
        family = _complete_masks(masks)
        if semantics != "complete":
            # largest first: a member with a strict superset lies below some
            # maximal member, which is kept before it; two masks of one size
            # are never nested
            maximal: list[int] = []
            for mask in reversed(family):
                if not any(mask & other == mask for other in maximal):
                    maximal.append(mask)
            family = maximal[::-1]
        if semantics == "stable":
            family = [mask for mask in family
                      if mask | masks.defeated(mask) == masks.everything]
    else:
        raise ValueError(f"unknown semantics {semantics!r}")
    return tuple(_elements(h, mask) for mask in family)


def extension_derived_labelling(h: HAFS, E: Iterable[ElementId]) -> Labelling3:
    """Labelling read off a complete extension: members 1, defeated 0,
    everything else 1/2."""
    masks, inset = _Masks(h.incidence), _mask(h, E)
    defeated = masks.defeated(inset)
    if not _flags(masks, inset, defeated).complete:
        raise PreconditionError("the given set is not a complete extension")
    values = [HALF] * len(h.universe)
    for i in _positions(defeated):
        values[i] = ZERO
    for i in _positions(inset):
        values[i] = ONE
    return Labelling3._trusted(h.universe, values)


def extensions_to_json_obj(extensions: Iterable[ElementSet]) -> dict:
    return {"extensions": [sorted(x.qualified for x in E) for E in extensions]}
