"""Shared corpus builders and independent oracles for the test suite.

The oracles deliberately avoid the production code paths they check:
labelling enumeration is re-done by unpruned filtering, the three-valued
models, the exact {0, 1/2, 1} solutions and the EQ_* grid verdicts by
unpruned scalar sweeps through ``evaluate``, ``residual`` and
``is_exact_solution``, all in grid order, extension families by an
unpruned subset scan through ``classify_set``, defeat pairs by a
least-fixpoint recursion, equation right-hand sides by the closed forms,
support acyclicity by Kahn's algorithm, each element's incoming pairs and
the relation checks by an id-keyed grouping and a recursive cycle search,
framework text by a character-by-character tokenizer and a token-stream
parser, and formula values, variables and renderings by one recursive
function per reading, and the exact grid kernels of Gödel and Łukasiewicz
by (numerator, denominator) kernels reduced after every step.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from hafs import (HAFS, L3, And, Assignment, Bottom, ElementId, EquationSystem,
                  EvaluationError, Formula, Iff, Implies, InfeasibleParametersError, Kind,
                  Labelling3, LogicSystem, Not, Or, ParseError, Relation, Top,
                  ValidationError, Var, build_equations, classify_set, dft, encode_normal,
                  evaluate, framework_digest, generate_random, is_adjacent_complete, serialize)
from hafs.bridge import FLOAT_RESIDUAL_TOL
from hafs.equations import _TooWide, _quarters
from hafs.labellings import THREE_VALUES


def corpus(count: int, max_u: int = 8, max_args: int = 4,
           seed_base: int = 0) -> list[tuple[HAFS, bool]]:
    """Deterministic list of (framework, built-support-acyclic) pairs.

    Every other framework is generated with the acyclic-supports switch,
    sizes and higher-order density vary with the seed, and infeasible
    parameter draws are skipped deterministically.
    """
    out: list[tuple[HAFS, bool]] = []
    seed = seed_base
    while len(out) < count:
        rng = random.Random(seed * 9176 + 11)
        acyclic = len(out) % 2 == 0
        nargs = rng.randint(1, max_args)
        remaining = max_u - nargs
        natts = rng.randint(0, min(3, remaining))
        nsupps = rng.randint(0, min(3, max(0, remaining - natts)))
        hop = rng.choice([0.0, 0.3, 0.6])
        try:
            h = generate_random(nargs, natts, nsupps, seed=seed,
                                support_acyclic=acyclic, higher_order_prob=hop)
            out.append((h, acyclic))
        except InfeasibleParametersError:
            pass
        seed += 1
    return out


def brute_force_labellings(h: HAFS) -> tuple[Labelling3, ...]:
    """Unpruned 3^|U| filter through the single-labelling check, in grid
    order."""
    found = []
    for combo in itertools.product(THREE_VALUES, repeat=len(h.universe)):
        candidate = Labelling3(dict(zip(h.universe, combo)))
        if is_adjacent_complete(h, candidate):
            found.append(candidate)
    return tuple(found)


def ternary_solutions(system: EquationSystem) -> tuple[Assignment, ...]:
    """Unpruned 3^|U| sweep: every {0, 1/2, 1} assignment whose residual
    is exactly 0, in grid order."""
    found = []
    for combo in itertools.product(THREE_VALUES, repeat=len(system.universe)):
        point = dict(zip(system.universe, combo))
        if system.residual(point) == 0:
            found.append(Assignment(point))
    return tuple(found)


def pl3_models(h: HAFS) -> tuple[Labelling3, ...]:
    """Unpruned 3^|U| sweep: every assignment on which the encoded formula
    is 1 under L3, in grid order."""
    formula = encode_normal(h)
    models = []
    for combo in itertools.product(THREE_VALUES, repeat=len(h)):
        point = dict(zip(h.universe, combo))
        if evaluate(formula, point, L3) == 1:
            models.append(Labelling3(point))
    return tuple(models)


def equation_equivalence_report(theorem_id: str, h: HAFS, logic: LogicSystem,
                                grid_cap: int = 100_000, float_samples: int = 200,
                                seed: int = 0, flipped=frozenset(),
                                flipped_samples=frozenset()) -> dict:
    """The EQ_* report ``verify`` should give, from an unpruned scalar sweep.

    Rows are the whole quarter grid in order when it has at most
    ``grid_cap`` rows, else ``grid_cap`` rows of ``randrange(5)`` codes
    drawn point-major; the float samples continue from that generator.
    The solution verdict of the code tuples in ``flipped`` is inverted, and
    the residual verdict of the float samples numbered in ``flipped_samples``.
    """
    formula = encode_normal(h)
    system = build_equations(h, logic)
    order = h.universe
    rng = random.Random(seed)
    exhaustive = 5 ** len(order) <= grid_cap
    rows = (itertools.product(range(5), repeat=len(order)) if exhaustive else
            (tuple(rng.randrange(5) for _ in order) for _ in range(grid_cap)))

    def report(passed, counterexample=None, notes=None):
        return {"theorem": theorem_id, "framework_digest": framework_digest(h),
                "passed": passed, "counterexample": counterexample, "notes": notes or {}}

    for codes in rows:
        point = {e: Fraction(k, 4) for e, k in zip(order, codes)}
        model = evaluate(formula, point, logic) == 1
        solution = system.is_exact_solution(point) != (codes in flipped)
        if model != solution:
            return report(False, {
                "framework": serialize(h),
                "explanation": f"exact grid point is {'a model' if model else 'not a model'} "
                               f"but {'a solution' if solution else 'not a solution'}",
                "assignment": {e.qualified: str(v) for e, v in point.items()},
            })
    for sample in range(float_samples):
        point = {e: rng.random() for e in order}
        model = evaluate(formula, point, logic) == 1.0
        near_solution = system.residual(point) <= FLOAT_RESIDUAL_TOL
        if model != (near_solution != (sample in flipped_samples)):
            return report(False, {
                "framework": serialize(h),
                "explanation": "float assignment verdicts disagree between the encoded "
                               "formula and the equation residual",
                "assignment": {e.qualified: float(f"{v:.12g}") for e, v in point.items()},
            })
    return report(True, notes={"grid": "exhaustive" if exhaustive else f"sampled({grid_cap})",
                               "float_samples": float_samples})


def lfp_defeat_pairs(h: HAFS, B: frozenset) -> set[tuple]:
    """(defeater, victim) pairs via the recursive characterisation:
    seed with in-set attacks, then close under "defeats the supporter of
    an in-set support"."""
    pairs = {
        (rel.source, rel.target)
        for rel in h.attacks
        if rel.id in B and rel.source in B
    }
    changed = True
    while changed:
        changed = False
        for rel in h.supports:
            if rel.id not in B:
                continue
            for b, victim in list(pairs):
                if victim == rel.source and (b, rel.target) not in pairs:
                    pairs.add((b, rel.target))
                    changed = True
    return pairs


def scan_extensions(h: HAFS) -> dict[str, tuple[frozenset, ...]]:
    """All four extension families by an unpruned 2^|U| subset scan.

    Subsets go by size, then lexicographically in universe order, and each
    is kept when ``classify_set`` calls it complete.  grounded is the
    complete extension contained in all others, if there is one; preferred
    the maximal ones; stable the preferred ones that, with what they
    defeat, cover the universe.
    """
    complete = tuple(E for E in all_subsets(h.universe) if classify_set(h, E).complete)
    grounded = tuple(E for E in complete if all(E <= other for other in complete))[:1]
    preferred = tuple(E for E in complete if not any(E < other for other in complete))
    full = frozenset(h.universe)
    stable = tuple(E for E in preferred if E | dft(h, E) == full)
    return {"complete": complete, "grounded": grounded,
            "preferred": preferred, "stable": stable}


def godel_rhs(h: HAFS, element, values) -> object:
    """Closed form: min over max(1-attacker, 1-attack) and max(supporter,
    1-support); empty overall min is 1."""
    parts = [max(1 - values[b], 1 - values[r]) for b, r in h.attackers_of(element)]
    parts += [max(values[c], 1 - values[t]) for c, t in h.supporters_of(element)]
    return min(parts) if parts else Fraction(1)


def product_rhs(h: HAFS, element, values) -> object:
    """Closed form: product of (1 - b*r) and (1 - t + c*t)."""
    acc = Fraction(1)
    for b, r in h.attackers_of(element):
        acc = acc * (1 - values[b] * values[r])
    for c, t in h.supporters_of(element):
        acc = acc * (1 - values[t] + values[c] * values[t])
    return acc


def kahn_is_acyclic(nodes, edges) -> bool:
    """Topological-sort acyclicity oracle over (source, target) pairs."""
    indeg = {x: 0 for x in nodes}
    out = {x: [] for x in nodes}
    for src, tgt in edges:
        out[src].append(tgt)
        indeg[tgt] += 1
    queue = [x for x in nodes if indeg[x] == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for nxt in out[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return seen == len(list(nodes))


def reference_incoming(arguments, attacks, supports) -> dict:
    """Each element's incoming (attacker, attack) and (supporter, support)
    id pairs, keyed by id, or the :class:`ValidationError` that building
    the framework raises; kinds and names must be valid and unique.

    The relation checks are done on ids: attacks, then supports, in id
    order, each for an undeclared endpoint, then a duplicate pair; then a
    definitional cycle, by a recursive depth-first search from each
    relation in id order over its relation endpoints, source first.
    """
    atts = sorted(attacks, key=lambda rel: rel.id)
    supps = sorted(supports, key=lambda rel: rel.id)
    universe = sorted(arguments) + [rel.id for rel in atts + supps]
    attackers = {x: [] for x in universe}
    supporters = {x: [] for x in universe}
    for relations, incoming in ((atts, attackers), (supps, supporters)):
        pairs = set()
        for rel in relations:
            for endpoint in (rel.source, rel.target):
                if endpoint not in incoming:
                    raise ValidationError(f"{rel.id} references undeclared element {endpoint}")
            if (rel.source, rel.target) in pairs:
                raise ValidationError(f"duplicate {rel.kind.value} with source {rel.source} "
                                      f"and target {rel.target}")
            pairs.add((rel.source, rel.target))
            incoming[rel.target].append((rel.source, rel.id))

    refs = {rel.id: [e for e in (rel.source, rel.target) if e.kind is not Kind.ARGUMENT]
            for rel in atts + supps}
    state = {}

    def closing(node):
        state[node] = "open"
        for nxt in refs[node]:
            if state.get(nxt) == "open":
                return nxt
            if nxt not in state and (found := closing(nxt)) is not None:
                return found
        state[node] = "done"
        return None

    for start in refs:
        if start not in state and (found := closing(start)) is not None:
            raise ValidationError(f"definitional cycle among relations involving {found}")
    return {x: (tuple(attackers[x]), tuple(supporters[x])) for x in universe}


def all_subsets(universe):
    for size in range(len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            yield frozenset(combo)


# -- framework text ----------------------------------------------------------

_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


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


def reference_parse(text: str) -> HAFS:
    """Framework text read the slow way: every character is tokenized
    first, so a lexical error anywhere wins; then statements are read off
    a token stream, and names resolved once the whole text is read."""
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


# -- formula walkers -----------------------------------------------------------


class ReferenceOps(NamedTuple):
    """The connectives of one value domain, for :func:`reference_fold`."""

    logic: str  # named when a disjunction is not interpreted
    one: object
    zero: object
    neg: Callable
    tnorm: Callable
    join: Callable | None  # None outside the three-valued logic
    impl: Callable


def reference_fold(f: Formula, leaf: Callable, ops: ReferenceOps):
    """Value of ``f`` by one recursive call per node: ``leaf(element)`` at
    each variable, the t-norm folded from ``one`` over every child of a
    conjunction and the join from ``zero`` over a disjunction, with no
    short-circuit; the biconditional is the t-norm of the two implications."""
    if isinstance(f, Var):
        return leaf(f.element)
    if isinstance(f, Not):
        return ops.neg(reference_fold(f.child, leaf, ops))
    if isinstance(f, And):
        acc = ops.one
        for child in f.children:
            acc = ops.tnorm(acc, reference_fold(child, leaf, ops))
        return acc
    if isinstance(f, Iff):
        m, n = reference_fold(f.lhs, leaf, ops), reference_fold(f.rhs, leaf, ops)
        return ops.tnorm(ops.impl(m, n), ops.impl(n, m))
    if isinstance(f, Implies):
        return ops.impl(reference_fold(f.lhs, leaf, ops), reference_fold(f.rhs, leaf, ops))
    if isinstance(f, Top):
        return ops.one
    if isinstance(f, Bottom):
        return ops.zero
    if isinstance(f, Or):
        if ops.join is None:
            raise EvaluationError(f"disjunction is not interpreted in the {ops.logic} logic")
        acc = ops.zero
        for child in f.children:
            acc = ops.join(acc, reference_fold(child, leaf, ops))
        return acc
    raise EvaluationError(f"unknown formula node {type(f).__name__}")


def reference_variables(f: Formula) -> frozenset[ElementId]:
    if isinstance(f, Var):
        return frozenset((f.element,))
    if isinstance(f, (Top, Bottom)):
        return frozenset()
    if isinstance(f, Not):
        return reference_variables(f.child)
    if isinstance(f, (And, Or)):
        out: frozenset[ElementId] = frozenset()
        for c in f.children:
            out |= reference_variables(c)
        return out
    return reference_variables(f.lhs) | reference_variables(f.rhs)


def reference_formula_to_text(f: Formula) -> str:
    if isinstance(f, Var):
        return f.element.name
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bottom):
        return "F"
    if isinstance(f, Not):
        return "~" + reference_formula_to_text(f.child)
    if isinstance(f, And):
        if not f.children:
            return "T"
        return "(" + " & ".join(reference_formula_to_text(c) for c in f.children) + ")"
    if isinstance(f, Or):
        if not f.children:
            return "F"
        return "(" + " | ".join(reference_formula_to_text(c) for c in f.children) + ")"
    if isinstance(f, Implies):
        return f"({reference_formula_to_text(f.lhs)} -> {reference_formula_to_text(f.rhs)})"
    if isinstance(f, Iff):
        return f"({reference_formula_to_text(f.lhs)} <-> {reference_formula_to_text(f.rhs)})"
    raise ValueError(f"unknown formula node {type(f).__name__}")


def reference_formula_to_json_obj(f: Formula) -> dict:
    if isinstance(f, Var):
        return {"op": "var", "id": f.element.qualified}
    if isinstance(f, Top):
        return {"op": "top"}
    if isinstance(f, Bottom):
        return {"op": "bottom"}
    if isinstance(f, Not):
        return {"op": "not", "child": reference_formula_to_json_obj(f.child)}
    if isinstance(f, And):
        return {"op": "and", "children": [reference_formula_to_json_obj(c) for c in f.children]}
    if isinstance(f, Or):
        return {"op": "or", "children": [reference_formula_to_json_obj(c) for c in f.children]}
    if isinstance(f, Implies):
        return {"op": "implies", "lhs": reference_formula_to_json_obj(f.lhs),
                "rhs": reference_formula_to_json_obj(f.rhs)}
    if isinstance(f, Iff):
        return {"op": "iff", "lhs": reference_formula_to_json_obj(f.lhs),
                "rhs": reference_formula_to_json_obj(f.rhs)}
    raise ValueError(f"unknown formula node {type(f).__name__}")


# -- exact (numerator, denominator) kernels --------------------------------------


def reference_reduced(num, den):
    """``(num, den)`` reduced by their gcd at every step; on int64,
    :class:`_TooWide` where a reduced denominator is 2^31 or more."""
    if not den.size:
        return num, den
    g = np.gcd(num, den)
    num, den = num // g, den // g
    if den.dtype != object and int(den.max()) >= 2 ** 31:
        raise _TooWide
    return num, den


def _le(x, y):
    return x[0] * y[1] <= y[0] * x[1]


def reference_tnorm_min_q(x, y):
    keep = _le(x, y)
    return np.where(keep, x[0], y[0]), np.where(keep, x[1], y[1])


def reference_tnorm_lukasiewicz_q(x, y):
    # (x - 1) + y: two terms of opposite sign, each of magnitude below 2^62
    num = (x[0] - x[1]) * y[1] + y[0] * x[1]
    return reference_reduced(np.maximum(num, 0), x[1] * y[1])


def reference_impl_godel_q(m, n):
    le = _le(m, n)
    return np.where(le, 1, n[0]), np.where(le, 1, n[1])


def reference_impl_lukasiewicz_q(m, n):
    # 1 - m + n capped at 1; the uncapped numerator is at most 2 * den < 2^63
    num = (m[1] - m[0]) * n[1] + n[0] * m[1]
    den = m[1] * n[1]
    cap = num >= den
    return reference_reduced(np.where(cap, 1, num), np.where(cap, 1, den))


def exact_leaf(logic: LogicSystem, quarters: np.ndarray):
    """The values k/4 of the quarter numerators ``quarters`` in the exact
    format of ``logic``: the numerators themselves, or (k, 4) pairs."""
    if _quarters(logic):
        return quarters
    return quarters.astype(np.int64), np.full(len(quarters), 4, dtype=np.int64)


def exact_fractions(logic: LogicSystem, value, rows: int) -> list[Fraction]:
    """The ``rows`` values of an exact ``value`` in ``logic``'s format, as fractions."""
    if _quarters(logic):
        return [Fraction(int(k), 4) for k in np.broadcast_to(value, rows)]
    return pair_fractions(value, rows)


def pair_fractions(value, rows: int) -> list[Fraction]:
    """The ``rows`` values of a (numerator, denominator) ``value``, as fractions."""
    num, den = (np.broadcast_to(part, rows) for part in value)
    return [Fraction(int(n), int(d)) for n, d in zip(num, den)]
