r"""Framework definition, parsing, validation and random generation.

A framework is a finite universe of arguments, attacks and supports in
which attacks and supports are first-class elements: they can themselves
be attacked and supported, and they can be the source of further attacks
and supports.

Text format (UTF-8, ``%`` starts a line comment, whitespace insignificant
between tokens)::

    stmt := "arg(" NAME ")." | "att(" NAME "," REF "," REF ")."
          | "supp(" NAME "," REF "," REF ")."
    REF  := NAME
    NAME := [a-zA-Z_][a-zA-Z0-9_]*

``att``/``supp`` arguments are ``(id, source, target)``.  References may
point forward; they are resolved once the whole text has been read.

``parse`` reads the text one statement at a time with one compiled
pattern.  Whitespace is Unicode whitespace (what ``str.isspace`` accepts),
and a comment runs to its newline or to the end of the text.  Positions
stay character offsets until an error is raised; the error's line counts
``\n`` only, and its column is the offset minus that of the last ``\n``.
Errors come in this order: the first character that starts no token,
anywhere in the text; then the first token that breaks a statement (or
the end of the text, placed just after the last token); then duplicate
names; then dangling and self references.  The last two are found in
statement order and placed at the statement's head.

A framework is built on one path, with each rule checked once.
``HAFS(...)`` checks the ids it is given (kinds, unique names, declared
endpoints); ``parse`` checks the names of a text instead, with positions,
and builds its ids and relations without re-checking what the statement
pattern has matched.  Both hand the sorted universe and the endpoint
positions to ``HAFS._link``, which checks duplicate pairs and definitional
cycles and builds the incidence.

Every semantics reads the same structure: each element's incoming attacks
(attacker, attack) and supports (supporter, support).  ``HAFS.incidence``
holds it once per framework as integer positions into ``universe``; the
encoding, the equations, the labelling sweep, the extension search, the
fixed-point solver and the support-cycle check all read that one view.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from enum import Enum
from functools import total_ordering
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import InfeasibleParametersError, ParseError, ValidationError

_NAME = r"[a-zA-Z_][a-zA-Z0-9_]*"
_NAME_RE = re.compile(_NAME)


class Kind(Enum):
    """Element kind; also the prefix used in qualified ids like ``att:r1``."""

    ARGUMENT = "arg"
    ATTACK = "att"
    SUPPORT = "supp"


_KIND_ORDER = {Kind.ARGUMENT: 0, Kind.ATTACK: 1, Kind.SUPPORT: 2}
_ID_KEY = attrgetter("_key")
_RELATION_KEY = attrgetter("id._key")


@total_ordering
@dataclass(frozen=True)
class ElementId:
    """Reference to a universe member: an argument, attack or support.
    ``qualified`` is its id with the kind prefix, like ``att:r1``."""

    kind: Kind
    name: str

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name):
            raise ValidationError(f"invalid element name {self.name!r}")
        # the hash, the sort key and the qualified id, computed once: ids key
        # every map and set, every sort of a framework reads the key, and
        # every formula leaf and report prints the qualified id; the hash is
        # the key's, which equal ids share
        key = (_KIND_ORDER[self.kind], self.name)
        self.__dict__.update(_hash=hash(key), _key=key,
                             qualified=f"{self.kind.value}:{self.name}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # str hashes differ between processes: unpickling recomputes the hash
        return ElementId, (self.kind, self.name)

    def __lt__(self, other: "ElementId") -> bool:
        return self._key < other._key

    @classmethod
    def from_qualified(cls, text: str) -> "ElementId":
        prefix, _, name = text.partition(":")
        for kind in Kind:
            if kind.value == prefix:
                return cls(kind, name)
        raise ValidationError(f"invalid qualified id {text!r} (want arg:/att:/supp: prefix)")

    def __str__(self) -> str:
        return self.qualified


def argument(name: str) -> ElementId:
    return ElementId(Kind.ARGUMENT, name)


def attack_id(name: str) -> ElementId:
    return ElementId(Kind.ATTACK, name)


def support_id(name: str) -> ElementId:
    return ElementId(Kind.SUPPORT, name)


@dataclass(frozen=True)
class Relation:
    """A named attack or support edge between two universe members."""

    id: ElementId
    source: ElementId
    target: ElementId

    def __post_init__(self):
        if self.id.kind not in (Kind.ATTACK, Kind.SUPPORT):
            raise ValidationError(f"relation id {self.id} must be an attack or support")
        if self.source == self.id or self.target == self.id:
            raise ValidationError(f"relation {self.id} references itself")

    @property
    def kind(self) -> Kind:
        return self.id.kind


@dataclass(frozen=True)
class SupportChain:
    """A linked sequence of support edges ending at some element.

    ``edges[i].target == edges[i+1].source`` must hold; the chain is
    acyclic when all touched elements are pairwise distinct.
    """

    edges: tuple[Relation, ...]

    def __post_init__(self):
        if not self.edges:
            raise ValidationError("support chain must contain at least one edge")
        for rel in self.edges:
            if rel.kind is not Kind.SUPPORT:
                raise ValidationError(f"{rel.id} is not a support")
        for prev, nxt in zip(self.edges, self.edges[1:]):
            if prev.target != nxt.source:
                raise ValidationError(
                    f"chain edges do not link: {prev.id} targets {prev.target}, "
                    f"{nxt.id} starts at {nxt.source}"
                )

    @property
    def nodes(self) -> tuple[ElementId, ...]:
        return tuple(e.source for e in self.edges) + (self.edges[-1].target,)

    def is_acyclic(self) -> bool:
        nodes = self.nodes
        return len(set(nodes)) == len(nodes)


class HAFS:
    """Immutable higher-order argumentation framework with supports.

    Validates on construction:

    * unique names across arguments, attacks and supports;
    * relation endpoints name declared elements;
    * no two same-kind relations share a (source, target) pair;
    * the relation-reference graph is acyclic, so every relation grounds
      out in arguments.

    ``HAFS(...)`` checks the ids it is given: kinds, names and endpoints.
    :func:`parse` checks the names of a text, and both then hand the
    sorted universe and each relation's endpoint positions to
    :meth:`_link`, which checks the pairs and the cycles and builds
    ``incidence``, the only stored copy of each element's incoming and
    outgoing pairs; ``attackers_of`` and ``supporters_of`` read them back
    as ids.

    Iteration order over the universe is always sorted (arguments, then
    attacks, then supports, each alphabetically), so derived output is
    reproducible.
    """

    __slots__ = ("arguments", "attacks", "supports", "universe", "incidence")

    def __init__(self, arguments: Iterable[ElementId],
                 attacks: Iterable[Relation],
                 supports: Iterable[Relation]):
        # no silent dedup: duplicate declarations surface as duplicate names
        args = tuple(sorted(arguments, key=_ID_KEY))
        atts = tuple(sorted(attacks, key=_RELATION_KEY))
        supps = tuple(sorted(supports, key=_RELATION_KEY))
        for a in args:
            if a.kind is not Kind.ARGUMENT:
                raise ValidationError(f"{a} declared as argument but has kind {a.kind.value}")
        for r in atts:
            if r.kind is not Kind.ATTACK:
                raise ValidationError(f"{r.id} declared as attack but has kind {r.id.kind.value}")
        for t in supps:
            if t.kind is not Kind.SUPPORT:
                raise ValidationError(f"{t.id} declared as support but has kind {t.id.kind.value}")

        # sorted, since each kind is sorted and the kinds come in key order
        universe = args + tuple(r.id for r in atts) + tuple(t.id for t in supps)
        seen_names: set[str] = set()
        for eid in universe:
            if eid.name in seen_names:
                raise ValidationError(f"duplicate name {eid.name!r}")
            seen_names.add(eid.name)

        position = {x: i for i, x in enumerate(universe)}
        ends: list[tuple[int, int]] = []
        undeclared = None
        for rel in atts + supps:
            c, x = position.get(rel.source), position.get(rel.target)
            if c is None or x is None:
                endpoint = rel.source if c is None else rel.target
                undeclared = ValidationError(f"{rel.id} references undeclared element {endpoint}")
                break
            ends.append((c, x))
        self._link(args, atts, supps, universe, position, ends, undeclared)

    def _link(self, args: tuple, atts: tuple, supps: tuple, universe: tuple,
              position: dict, ends: list, undeclared: ValidationError | None) -> None:
        """Check the relations and build ``incidence``: the one path of
        ``HAFS(...)`` and :func:`parse` once each has checked its input.

        ``universe`` is sorted and lists the attacks, then the supports, in
        the order of ``atts`` and ``supps``; ``ends`` holds the (source,
        target) positions of those relations in that order, up to the
        first one with an undeclared endpoint, whose error is
        ``undeclared``.  The checks come in the order of the relations:
        the attacks, then the supports, each for a duplicate pair of its
        kind, and the undeclared endpoint where ``ends`` stops; then a
        definitional cycle.
        """
        # each element's pairs, extended as tuples: most elements have none
        # or a few, and the tuples are what ``incidence`` keeps
        first, split = len(args), len(args) + len(atts)
        attack_pairs: list[tuple] = [()] * len(universe)
        support_pairs: list[tuple] = [()] * len(universe)
        outgoing: list[tuple] = [()] * len(universe)
        pairs: set[tuple[int, int, bool]] = set()  # (source, target, is a support)
        # relation position -> its endpoints that are relations; these
        # references must form a DAG, checked once every pair has passed
        refs: dict[int, list[int]] = {}
        for r, (c, x) in enumerate(ends, first):
            support = r >= split
            if (c, x, support) in pairs:
                raise ValidationError(f"duplicate {'supp' if support else 'att'} with source "
                                      f"{universe[c]} and target {universe[x]}")
            pairs.add((c, x, support))
            if support:
                support_pairs[x] += ((c, r),)
                outgoing[c] += ((x, r),)
            else:
                attack_pairs[x] += ((c, r),)
            if c >= first or x >= first:
                refs[r] = [e for e in (c, x) if e >= first]
        if undeclared is not None:
            raise undeclared

        # a relation without relation endpoints closes no cycle, so the search
        # starts from the others only
        node = _cycle_node(refs, lambda r: refs.get(r, ()))
        if node is not None:
            raise ValidationError(f"definitional cycle among relations involving {universe[node]}")
        self.arguments = args
        self.attacks = atts
        self.supports = supps
        self.universe = universe
        self.incidence = Incidence(position, tuple(zip(attack_pairs, support_pairs)),
                                   tuple(outgoing))

    # -- lookups ---------------------------------------------------------

    def attackers_of(self, x: ElementId) -> tuple[tuple[ElementId, ElementId], ...]:
        """Incoming attacks on ``x`` as (attacker, attack-id) pairs."""
        view, u = self.incidence, self.universe
        return tuple((u[b], u[r]) for b, r in view.incoming[view.position[x]][0])

    def supporters_of(self, x: ElementId) -> tuple[tuple[ElementId, ElementId], ...]:
        """Incoming supports on ``x`` as (supporter, support-id) pairs."""
        view, u = self.incidence, self.universe
        return tuple((u[c], u[t]) for c, t in view.incoming[view.position[x]][1])

    def __contains__(self, x: ElementId) -> bool:
        return x in self.incidence.position

    def __len__(self) -> int:
        return len(self.universe)

    def __iter__(self) -> Iterator[ElementId]:
        return iter(self.universe)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HAFS):
            return NotImplemented
        return (self.arguments, self.attacks, self.supports) == \
               (other.arguments, other.attacks, other.supports)

    def __hash__(self) -> int:
        return hash((self.arguments, self.attacks, self.supports))

    def __repr__(self) -> str:
        return (f"HAFS({len(self.arguments)} arguments, "
                f"{len(self.attacks)} attacks, {len(self.supports)} supports)")


@dataclass(frozen=True, eq=False)
class Incidence:
    """Integer-indexed incidence of a framework, built by ``HAFS._link``.

    ``position[x]`` is the index of ``x`` in ``universe``.  For each
    position ``i``, ``incoming[i]`` is the pair (attack pairs, support
    pairs): the (attacker, attack) and (supporter, support) positions in
    relation-id order; ``outgoing_supports[i]`` lists the (target, support)
    positions of the supports leaving ``i``, in the same order.
    """

    position: dict[ElementId, int]
    incoming: tuple[tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]], ...]
    outgoing_supports: tuple[tuple[tuple[int, int], ...], ...]


# -- parsing ---------------------------------------------------------------

# a comment ends at its newline or at the end of the text, so a run of ``%``
# splits one way only and a failed match backtracks in linear time
_SKIP = r"(?:\s|%[^\n]*(?:\n|\Z))*"
# group 1 is the head, group 2 is set for a relation, which then takes a
# source and a target
_STATEMENT = re.compile(
    rf"{_SKIP}(arg|(att|supp)){_SKIP}\({_SKIP}({_NAME}){_SKIP}"
    rf"(?(2),{_SKIP}({_NAME}){_SKIP},{_SKIP}({_NAME}){_SKIP})\){_SKIP}\."
)
_BLANK = re.compile(rf"{_SKIP}\Z")
# whitespace, comments and tokens: a match ends at the first character that
# starts no token
_LEXEMES = re.compile(rf"(?:\s|%[^\n]*|[(),.]|{_NAME})*")
# a comment, or a token in group 1
_TOKEN = re.compile(rf"%[^\n]*|([(),.]|{_NAME})")
# the tokens after a head, ``N`` standing for a name
_SHAPES = {"arg": "(N).", "att": "(N,N,N).", "supp": "(N,N,N)."}


def _position(text: str, offset: int) -> tuple[int, int]:
    r"""1-based line and column of ``offset``: lines end at ``\n`` only."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _syntax_error(text: str, start: int) -> ParseError:
    """The error of a text whose statements scan up to offset ``start``
    but not beyond: the first character that starts no token, else the
    first token of the next statement that breaks its shape, else the end
    of the text."""
    bad = _LEXEMES.match(text, start).end()
    if bad < len(text):
        return ParseError(f"unexpected character {text[bad]!r}", *_position(text, bad))
    tokens = [m for m in _TOKEN.finditer(text, start) if m[1]]
    head = tokens[0]
    if head[1] not in _SHAPES:
        return ParseError(f"expected 'arg', 'att' or 'supp', found {head[1]!r}",
                          *_position(text, head.start()))
    for i, want in enumerate(_SHAPES[head[1]], 1):
        if i == len(tokens):
            expected = "more input" if want == "N" else want
            return ParseError(f"unexpected end of input (expected {expected})",
                              *_position(text, tokens[-1].end()))
        found = tokens[i][1]
        if want == "N" and not _NAME_RE.fullmatch(found):
            return ParseError(f"expected a name, found {found!r}",
                              *_position(text, tokens[i].start()))
        if want != "N" and found != want:
            return ParseError(f"expected {want!r}, found {found!r}",
                              *_position(text, tokens[i].start()))
    raise AssertionError(f"the statement at offset {start} scans")


def parse(text: str) -> HAFS:
    """Parse framework text into a validated :class:`HAFS`.

    References are resolved after a full pass, so statements may refer to
    relations declared later in the text.
    """
    statements = []
    pos = 0
    while m := _STATEMENT.match(text, pos):
        statements.append(m)
        pos = m.end()
    if not _BLANK.match(text, pos):
        raise _syntax_error(text, pos)

    def invalid(m, message: str) -> ValidationError:
        line, column = _position(text, m.start(1))
        return ValidationError(f"{line}:{column}: {message}")

    declared: dict[str, re.Match] = {}
    names: dict[str, list[str]] = {"arg": [], "att": [], "supp": []}
    for m in statements:
        name = m[3]
        if name in declared:
            raise invalid(m, f"duplicate name {name!r}")
        declared[name] = m
        names[m[1]].append(name)

    # the universe, sorted: within a kind, ids sort by name; the pattern has
    # matched every name, so the ids are built without the name check
    universe: list[ElementId] = []
    for kind in Kind:
        order, names[kind.value] = _KIND_ORDER[kind], sorted(names[kind.value])
        prefix = kind.value + ":"
        for name in names[kind.value]:
            eid, key = object.__new__(ElementId), (order, name)
            eid.__dict__.update(kind=kind, name=name, _hash=hash(key), _key=key,
                                qualified=prefix + name)
            universe.append(eid)
    first = len(names["arg"])
    at = dict(zip(names["arg"] + names["att"] + names["supp"], range(len(universe))))
    try:
        ends = [(at[m[4]], at[m[5]]) for m in map(declared.__getitem__,
                                                  names["att"] + names["supp"])]
    except KeyError:
        ends = None
    if ends is None or any(r in key for r, key in enumerate(ends, first)):
        # a dangling or self reference: name the first in statement order
        for m in statements:
            _, relation, name, src, tgt = m.groups()
            if relation is None:
                continue
            for ref in (src, tgt):
                if ref not in declared:
                    raise invalid(m, f"dangling reference {ref!r}")
            if name in (src, tgt):
                raise invalid(m, f"relation {name!r} references itself")

    relations = []
    for r, (c, x) in enumerate(ends, first):
        rel = object.__new__(Relation)
        rel.__dict__.update(id=universe[r], source=universe[c], target=universe[x])
        relations.append(rel)
    split = len(names["att"])
    h = HAFS.__new__(HAFS)
    h._link(tuple(universe[:first]), tuple(relations[:split]), tuple(relations[split:]),
            tuple(universe), dict(zip(universe, range(len(universe)))), ends, None)
    return h


def serialize(h: HAFS) -> str:
    """Canonical text form: args, then attacks, then supports, sorted by id."""
    lines = [f"arg({a.name})." for a in h.arguments]
    lines += [f"att({r.id.name},{r.source.name},{r.target.name})." for r in h.attacks]
    lines += [f"supp({t.id.name},{t.source.name},{t.target.name})." for t in h.supports]
    return "\n".join(lines) + ("\n" if lines else "")


# -- support-graph acyclicity ----------------------------------------------


def _cycle_node(nodes, successors):
    """A node closing a directed cycle, by iterative depth-first search
    from each node of ``nodes`` in turn; None when the graph is acyclic.
    A node reached that is not in ``nodes`` is searched like the others."""
    GREY, BLACK = 1, 2
    colour: dict = {}  # a node not in it is unvisited
    for start in nodes:
        if start in colour:
            continue
        stack = [(start, iter(successors(start)))]
        colour[start] = GREY
        while stack:
            node, it = stack[-1]
            for nxt in it:
                seen = colour.get(nxt)
                if seen == GREY:
                    return nxt
                if seen is None:
                    colour[nxt] = GREY
                    stack.append((nxt, iter(successors(nxt))))
                    break
            else:
                colour[node] = BLACK
                stack.pop()
    return None


def is_support_acyclic(h: HAFS) -> bool:
    """True iff the directed graph of support (source -> target) pairs has no cycle."""
    outgoing = h.incidence.outgoing_supports
    return _cycle_node(range(len(h)), lambda i: [t for t, _ in outgoing[i]]) is None


# -- random generation -------------------------------------------------------

_MAX_DRAWS = 500


def generate_random(nargs: int, natts: int, nsupps: int, seed: int,
                    support_acyclic: bool = True,
                    higher_order_prob: float = 0.0) -> HAFS:
    """Generate a deterministic pseudo-random framework.

    Relations are created in a seed-shuffled order and may only reference
    arguments or earlier-created relations, which guarantees
    well-foundedness by construction.  ``higher_order_prob`` is the chance
    that an endpoint is drawn from earlier relations instead of arguments.
    With ``support_acyclic`` every support draw that would close a support
    cycle is rejected and redrawn.
    """
    if nargs < 1:
        raise InfeasibleParametersError("at least one argument is required")
    if natts < 0 or nsupps < 0:
        raise InfeasibleParametersError("relation counts must be non-negative")
    if not 0.0 <= higher_order_prob <= 1.0:
        raise InfeasibleParametersError("higher_order_prob must lie in [0, 1]")
    n_total = nargs + natts + nsupps
    if support_acyclic and nsupps > n_total * (n_total - 1) // 2:
        raise InfeasibleParametersError(
            f"{nsupps} acyclic supports cannot fit in a universe of {n_total} elements"
        )

    rng = random.Random(seed)
    args = [argument(f"a{i}") for i in range(1, nargs + 1)]
    schedule = [Kind.ATTACK] * natts + [Kind.SUPPORT] * nsupps
    rng.shuffle(schedule)

    arg_pool: list[ElementId] = list(args)
    rel_pool: list[ElementId] = []
    attacks: list[Relation] = []
    supports: list[Relation] = []
    pairs: set[tuple[Kind, ElementId, ElementId]] = set()
    support_edges: dict[ElementId, set[ElementId]] = {}

    def support_reaches(src: ElementId, dst: ElementId) -> bool:
        stack, seen = [src], {src}
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            for nxt in support_edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def draw_endpoint() -> ElementId:
        if rel_pool and rng.random() < higher_order_prob:
            return rng.choice(rel_pool)
        return rng.choice(arg_pool)

    att_count = supp_count = 0
    for kind in schedule:
        placed = False
        for _ in range(_MAX_DRAWS):
            src = draw_endpoint()
            tgt = draw_endpoint()
            if (kind, src, tgt) in pairs:
                continue
            if kind is Kind.SUPPORT and support_acyclic and \
                    (src == tgt or support_reaches(tgt, src)):
                continue
            if kind is Kind.ATTACK:
                att_count += 1
                rel = Relation(attack_id(f"r{att_count}"), src, tgt)
                attacks.append(rel)
            else:
                supp_count += 1
                rel = Relation(support_id(f"t{supp_count}"), src, tgt)
                supports.append(rel)
                support_edges.setdefault(src, set()).add(tgt)
            pairs.add((kind, src, tgt))
            rel_pool.append(rel.id)
            placed = True
            break
        if not placed:
            raise InfeasibleParametersError(
                f"could not place a fresh {kind.value} after {_MAX_DRAWS} draws "
                f"(nargs={nargs}, natts={natts}, nsupps={nsupps}, seed={seed})"
            )
    return HAFS(args, attacks, supports)
