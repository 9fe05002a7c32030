"""Framework definition, parsing, validation and random generation.

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

Every semantics reads the same structure: each element's incoming attacks
(attacker, attack) and supports (supporter, support).  ``HAFS.incidence``
holds it once per framework as integer positions into ``universe``, built
on first use, and the labelling sweep, the extension search, the fixed-point
solver and the support-cycle check all read that one view.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from enum import Enum
from functools import total_ordering
from typing import Iterable, Iterator

from .errors import InfeasibleParametersError, ParseError, ValidationError

_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


class Kind(Enum):
    """Element kind; also the prefix used in qualified ids like ``att:r1``."""

    ARGUMENT = "arg"
    ATTACK = "att"
    SUPPORT = "supp"


_KIND_ORDER = {Kind.ARGUMENT: 0, Kind.ATTACK: 1, Kind.SUPPORT: 2}


@total_ordering
@dataclass(frozen=True)
class ElementId:
    """Reference to a universe member: an argument, attack or support."""

    kind: Kind
    name: str

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name):
            raise ValidationError(f"invalid element name {self.name!r}")
        # the dataclass hash, computed once: ids key every map and set
        object.__setattr__(self, "_hash", hash((self.kind, self.name)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # str hashes differ between processes: unpickling recomputes the hash
        return ElementId, (self.kind, self.name)

    def __lt__(self, other: "ElementId") -> bool:
        return (_KIND_ORDER[self.kind], self.name) < (_KIND_ORDER[other.kind], other.name)

    @property
    def qualified(self) -> str:
        return f"{self.kind.value}:{self.name}"

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

    Iteration order over the universe is always sorted (arguments, then
    attacks, then supports, each alphabetically), so derived output is
    reproducible.
    """

    __slots__ = ("arguments", "attacks", "supports", "universe",
                 "_by_id", "_attackers", "_supporters", "_incidence")

    def __init__(self, arguments: Iterable[ElementId],
                 attacks: Iterable[Relation],
                 supports: Iterable[Relation]):
        # no silent dedup: duplicate declarations surface as duplicate names
        args = tuple(sorted(arguments))
        atts = tuple(sorted(attacks, key=lambda r: r.id))
        supps = tuple(sorted(supports, key=lambda r: r.id))
        for a in args:
            if a.kind is not Kind.ARGUMENT:
                raise ValidationError(f"{a} declared as argument but has kind {a.kind.value}")
        for r in atts:
            if r.kind is not Kind.ATTACK:
                raise ValidationError(f"{r.id} declared as attack but has kind {r.id.kind.value}")
        for t in supps:
            if t.kind is not Kind.SUPPORT:
                raise ValidationError(f"{t.id} declared as support but has kind {t.id.kind.value}")

        ids = [a for a in args] + [r.id for r in atts] + [t.id for t in supps]
        seen_names: dict[str, ElementId] = {}
        for eid in ids:
            if eid.name in seen_names:
                raise ValidationError(f"duplicate name {eid.name!r}")
            seen_names[eid.name] = eid

        self.arguments = args
        self.attacks = atts
        self.supports = supps
        self.universe = tuple(sorted(ids))
        self._by_id = {r.id: r for r in atts + supps}

        members = set(self.universe)
        pairs: set[tuple[Kind, ElementId, ElementId]] = set()
        for rel in atts + supps:
            for endpoint in (rel.source, rel.target):
                if endpoint not in members:
                    raise ValidationError(f"{rel.id} references undeclared element {endpoint}")
            key = (rel.kind, rel.source, rel.target)
            if key in pairs:
                raise ValidationError(
                    f"duplicate {rel.kind.value} with source {rel.source} and target {rel.target}"
                )
            pairs.add(key)

        self._check_well_founded()

        attackers: dict[ElementId, list[tuple[ElementId, ElementId]]] = {x: [] for x in self.universe}
        supporters: dict[ElementId, list[tuple[ElementId, ElementId]]] = {x: [] for x in self.universe}
        for rel in atts:
            attackers[rel.target].append((rel.source, rel.id))
        for rel in supps:
            supporters[rel.target].append((rel.source, rel.id))
        # incoming lists sorted by relation id for deterministic traversal
        self._attackers = {x: tuple(sorted(v, key=lambda p: p[1])) for x, v in attackers.items()}
        self._supporters = {x: tuple(sorted(v, key=lambda p: p[1])) for x, v in supporters.items()}
        self._incidence = None

    def _check_well_founded(self):
        # relation -> relations appearing as its endpoints must form a DAG
        def refs(rid: ElementId) -> list[ElementId]:
            rel = self._by_id[rid]
            return [e for e in (rel.source, rel.target) if e in self._by_id]

        node = _cycle_node([rel.id for rel in self.attacks + self.supports], refs)
        if node is not None:
            raise ValidationError(f"definitional cycle among relations involving {node}")

    # -- lookups ---------------------------------------------------------

    def relation(self, rid: ElementId) -> Relation:
        return self._by_id[rid]

    def attackers_of(self, x: ElementId) -> tuple[tuple[ElementId, ElementId], ...]:
        """Incoming attacks on ``x`` as (attacker, attack-id) pairs."""
        return self._attackers[x]

    def supporters_of(self, x: ElementId) -> tuple[tuple[ElementId, ElementId], ...]:
        """Incoming supports on ``x`` as (supporter, support-id) pairs."""
        return self._supporters[x]

    @property
    def incidence(self) -> "Incidence":
        """The integer-indexed view, built on first use."""
        if self._incidence is None:
            self._incidence = Incidence(self)
        return self._incidence

    def __contains__(self, x: ElementId) -> bool:
        return x in self._attackers

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


class Incidence:
    """Integer-indexed incidence of a framework.

    ``position[x]`` is the index of ``x`` in ``universe``.  For each
    position ``i``, ``incoming[i]`` is the pair (attack pairs, support
    pairs): the (attacker, attack) and (supporter, support) positions in
    the relation-id order of ``attackers_of``/``supporters_of``;
    ``outgoing_supports[i]`` lists the (target, support) positions of the
    supports leaving ``i``.  ``free`` holds the positions with an incoming
    edge, in order.
    """

    __slots__ = ("position", "incoming", "outgoing_supports", "free")

    def __init__(self, h: HAFS):
        position = {x: i for i, x in enumerate(h.universe)}
        self.position = position
        self.incoming = tuple(
            (tuple((position[b], position[r]) for b, r in h.attackers_of(x)),
             tuple((position[c], position[t]) for c, t in h.supporters_of(x)))
            for x in h.universe
        )
        outgoing: list[list[tuple[int, int]]] = [[] for _ in h.universe]
        for rel in h.supports:
            outgoing[position[rel.source]].append((position[rel.target], position[rel.id]))
        self.outgoing_supports = tuple(tuple(edges) for edges in outgoing)
        self.free = tuple(i for i, (att, supp) in enumerate(self.incoming) if att or supp)


# -- parsing ---------------------------------------------------------------


@dataclass
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "%":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "(),.":
            tokens.append(_Token(ch, line, col))
            col += 1
            i += 1
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(_Token(m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> _Token | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def next(self, expected: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self._tokens[-1] if self._tokens else _Token("", 1, 1)
            raise ParseError(
                f"unexpected end of input (expected {expected or 'more input'})",
                last.line, last.column + len(last.text),
            )
        if expected is not None and tok.text != expected:
            raise ParseError(f"expected {expected!r}, found {tok.text!r}", tok.line, tok.column)
        self._pos += 1
        return tok

    def next_name(self) -> _Token:
        tok = self.next()
        if not _NAME_RE.fullmatch(tok.text):
            raise ParseError(f"expected a name, found {tok.text!r}", tok.line, tok.column)
        return tok


def parse(text: str) -> HAFS:
    """Parse framework text into a validated :class:`HAFS`.

    References are resolved after a full pass, so statements may refer to
    relations declared later in the text.
    """
    stream = _TokenStream(_tokenize(text))
    # (head, name, src, tgt, position)
    statements: list[tuple[str, str, str | None, str | None, _Token]] = []
    while stream.peek() is not None:
        head = stream.next()
        if head.text not in ("arg", "att", "supp"):
            raise ParseError(
                f"expected 'arg', 'att' or 'supp', found {head.text!r}", head.line, head.column
            )
        stream.next("(")
        name = stream.next_name()
        src = tgt = None
        if head.text in ("att", "supp"):
            stream.next(",")
            src = stream.next_name()
            stream.next(",")
            tgt = stream.next_name()
        stream.next(")")
        stream.next(".")
        statements.append((head.text, name.text,
                           src.text if src else None,
                           tgt.text if tgt else None, head))

    declared: dict[str, ElementId] = {}
    for head, name, _, _, pos in statements:
        if name in declared:
            raise ValidationError(f"{pos.line}:{pos.column}: duplicate name {name!r}")
        declared[name] = ElementId(Kind(head), name)

    def resolve(name: str, pos: _Token) -> ElementId:
        if name not in declared:
            raise ValidationError(f"{pos.line}:{pos.column}: dangling reference {name!r}")
        return declared[name]

    args, atts, supps = [], [], []
    for head, name, src, tgt, pos in statements:
        eid = declared[name]
        if head == "arg":
            args.append(eid)
            continue
        source = resolve(src, pos)
        target = resolve(tgt, pos)
        if source == eid or target == eid:
            raise ValidationError(
                f"{pos.line}:{pos.column}: relation {name!r} references itself"
            )
        rel = Relation(eid, source, target)
        (atts if head == "att" else supps).append(rel)
    return HAFS(args, atts, supps)


def serialize(h: HAFS) -> str:
    """Canonical text form: args, then attacks, then supports, sorted by id."""
    lines = [f"arg({a.name})." for a in h.arguments]
    lines += [f"att({r.id.name},{r.source.name},{r.target.name})." for r in h.attacks]
    lines += [f"supp({t.id.name},{t.source.name},{t.target.name})." for t in h.supports]
    return "\n".join(lines) + ("\n" if lines else "")


# -- support-graph acyclicity ----------------------------------------------


def _cycle_node(nodes, successors):
    """A node closing a directed cycle, by iterative depth-first search
    from each node in turn; None when the graph is acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = dict.fromkeys(nodes, WHITE)
    for start in colour:
        if colour[start] != WHITE:
            continue
        stack = [(start, iter(successors(start)))]
        colour[start] = GREY
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if colour[nxt] == GREY:
                    return nxt
                if colour[nxt] == WHITE:
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
