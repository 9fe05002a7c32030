"""Propositional formulas, logic systems and the normal encoding.

A framework is translated into one big conjunction: for every element a
biconditional ties its variable to the conjunction of the negated
incoming attack products and the negated inverted-support products.  The
same formula is then read under different logics: the three-valued
system uses min/max/1-x with the standard three-valued implication
table, the fuzzy systems interpret conjunction by a t-norm and
implication by its residuum.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from json.encoder import encode_basestring_ascii
from math import lcm
from operator import attrgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import EvaluationError, ValidationError
from .framework import _ID_KEY, HAFS, ElementId

# -- formulas ---------------------------------------------------------------


class Formula:
    """Base class for AST nodes; instances are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    element: ElementId


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    children: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    children: tuple[Formula, ...]


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Iff(Formula):
    lhs: Formula
    rhs: Formula


TOP = Top()
BOTTOM = Bottom()


def conjunction(children: Iterable[Formula]) -> Formula:
    """n-ary conjunction collapsing the empty and singleton cases."""
    items = tuple(children)
    if not items:
        return TOP
    if len(items) == 1:
        return items[0]
    return And(items)


# each node class with the function that lists a node's children, in order
_CHILDREN = {Var: lambda f: (), Top: lambda f: (), Bottom: lambda f: (),
             Not: lambda f: (f.child,), And: attrgetter("children"), Or: attrgetter("children"),
             Implies: attrgetter("lhs", "rhs"), Iff: attrgetter("lhs", "rhs")}


def _kind(f) -> type | None:
    """The node class that ``f`` is, or extends; None for no formula node."""
    return next((c for c in type(f).__mro__ if c in _CHILDREN), None)


def _unknown_node(node, error=ValueError) -> Exception:
    return error(f"unknown formula node {type(node).__name__}")


def variables(f: Formula) -> frozenset[ElementId]:
    out, todo = set(), [f]
    while todo:
        node = todo.pop()
        if isinstance(node, Var):
            out.add(node.element)
        elif (kind := _kind(node)) is None:
            raise _unknown_node(node)
        else:
            todo.extend(_CHILDREN[kind](node))
    return frozenset(out)


# -- logic systems ----------------------------------------------------------


def _standard_negation(x):
    return 1 - x


def _tnorm_min(x, y):
    return x if x <= y else y


def _tnorm_product(x, y):
    return x * y


def _tnorm_lukasiewicz(x, y):
    z = x + y - 1
    return z if z > 0 else 0


def _impl_godel(m, n):
    return 1 if m <= n else n


def _impl_product(m, n):
    return 1 if m <= n else n / m


def _impl_lukasiewicz(m, n):
    z = 1 - m + n
    return z if z < 1 else 1


@dataclass(frozen=True)
class LogicSystem:
    """Truth-functional interpretation of the connectives.

    ``implication`` satisfies I(m, n) = 1 iff m <= n for every built-in,
    which makes the biconditional detect exact value equality.  The flags
    record algebraic facts the t-norm is known to satisfy; the theorem
    harness consults them instead of re-deriving.
    """

    name: str
    value_domain: str  # "three_valued" | "unit_interval"
    negation: Callable = field(compare=False)
    tnorm: Callable = field(compare=False)
    implication: Callable = field(compare=False)
    continuous: bool = True
    zero_divisor_free: bool = True
    half_idempotent: bool = True


L3 = LogicSystem(
    name="l3", value_domain="three_valued",
    negation=_standard_negation, tnorm=_tnorm_min, implication=_impl_lukasiewicz,
    continuous=True, zero_divisor_free=True, half_idempotent=True,
)

GODEL = LogicSystem(
    name="godel", value_domain="unit_interval",
    negation=_standard_negation, tnorm=_tnorm_min, implication=_impl_godel,
    continuous=True, zero_divisor_free=True, half_idempotent=True,
)

PRODUCT = LogicSystem(
    name="product", value_domain="unit_interval",
    negation=_standard_negation, tnorm=_tnorm_product, implication=_impl_product,
    continuous=True, zero_divisor_free=True, half_idempotent=False,
)

LUKASIEWICZ = LogicSystem(
    name="lukasiewicz", value_domain="unit_interval",
    negation=_standard_negation, tnorm=_tnorm_lukasiewicz, implication=_impl_lukasiewicz,
    continuous=True, zero_divisor_free=False, half_idempotent=False,
)

BUILTIN_LOGICS = {logic.name: logic for logic in (L3, GODEL, PRODUCT, LUKASIEWICZ)}


def get_logic(name: str) -> LogicSystem:
    try:
        return BUILTIN_LOGICS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_LOGICS))
        raise ValidationError(f"unknown logic {name!r} (known: {known})") from None


# -- assignments ------------------------------------------------------------


def value_to_json_obj(value):
    """A value as the JSON outputs write it: a float rounded to 12
    significant digits, an exact value as its fraction text."""
    return float(f"{value:.12g}") if isinstance(value, float) else str(value)


class Assignment(Mapping):
    """Immutable map from elements to values in [0, 1].

    Values given as int/str/Fraction are stored exactly as fractions;
    floats are kept as floats.  ``exact`` tells the two modes apart.
    """

    __slots__ = ("_values", "_hash")

    def __init__(self, values: Mapping[ElementId, object] | Iterable[tuple[ElementId, object]]):
        items = values.items() if isinstance(values, Mapping) else values
        store = {key: self._coerce(key, raw) for key, raw in items}
        self._values = {key: store[key] for key in sorted(store, key=_ID_KEY)}
        self._hash = None  # computed when first asked for

    @classmethod
    def _trusted(cls, keys: Iterable[ElementId], values: Iterable):
        """The assignment of ``values`` to ``keys``, taken as they are: the
        keys in id order, and each value one that ``_coerce`` returns
        unchanged (for a ``Labelling3``, the interned ``ZERO``, ``HALF`` or
        ``ONE``).  For the searches and sweeps that hand over the universe
        in order; input from a user goes through the constructor."""
        made = object.__new__(cls)
        made._values = dict(zip(keys, values))
        made._hash = None
        return made

    @staticmethod
    def _coerce(key: ElementId, raw) -> object:
        if isinstance(raw, float):
            inside = 0 <= raw <= 1
            value = raw
        else:
            value = raw if type(raw) is Fraction else Fraction(raw)
            inside = 0 <= value.numerator <= value.denominator  # the denominator is positive
        if not inside:
            raise ValidationError(f"value {raw!r} for {key} is outside [0, 1]")
        return value

    @property
    def exact(self) -> bool:
        return not any(isinstance(v, float) for v in self._values.values())

    def __getitem__(self, key: ElementId):
        return self._values[key]

    def items(self):
        return self._values.items()

    def __iter__(self) -> Iterator[ElementId]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other) -> bool:
        if isinstance(other, Assignment):
            return self._values == other._values
        if isinstance(other, Mapping):
            return dict(self._values) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self._values.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k.qualified}: {v}" for k, v in self._values.items())
        return f"{type(self).__name__}({{{inner}}})"

    def to_json_obj(self) -> dict[str, object]:
        return {k.qualified: value_to_json_obj(v) for k, v in self._values.items()}


# -- evaluation --------------------------------------------------------------
#
# Every reading of a formula goes through the one walker, :func:`_fold`, with
# a table from node class to the function that combines the values of a
# node's children: its value with checked scalar leaves (evaluate), on
# float64 arrays (compile_evaluator) and, for the exact grid, on integer
# arrays in each fuzzy logic's exact format (equations._exact_ops): quarter
# numerators under Gödel and Łukasiewicz, and (numerator, denominator) pairs
# under Product, reduced only past 2^31; and its text and JSON renderings.

THREE_VALUES = (Fraction(0), Fraction(1, 2), Fraction(1))
# the same three values as (numerator, denominator) pairs in lowest terms
_THREE_PAIRS = frozenset((v.numerator, v.denominator) for v in THREE_VALUES)


def _lookup(assignment: Mapping, element: ElementId, logic: LogicSystem):
    try:
        value = assignment[element]
    except KeyError:
        raise EvaluationError(f"variable {element.qualified} is unassigned") from None
    if logic.value_domain == "three_valued":
        if not any(value == t for t in THREE_VALUES):
            raise EvaluationError(
                f"value {value!r} of {element.qualified} is not three-valued"
            )
    elif not 0 <= value <= 1:
        raise EvaluationError(f"value {value!r} of {element.qualified} is outside [0, 1]")
    return value


def _fold(f: Formula, leaf: Callable, table: dict):
    """Value of ``f`` with ``leaf(element)`` at each variable and
    ``table[kind](*values)`` at every other node, where ``kind`` is its node
    class and ``values`` are the values of its children.

    The walk keeps its own stack, so depth is not limited.  Children are
    folded left to right, all of them (no short-circuit), and a node is
    looked up when the walk reaches it: one without an entry raises
    ``table[Formula](node)`` before any leaf below it is read.
    """
    values: list = []
    # the current node's combine, an iterator over its children and the index
    # of its first child value, and the same for each open node above it; the
    # root is the one child of a frame without a combine
    combine, children, start = None, iter((f,)), 0
    stack: list = []
    while True:
        for node in children:
            if isinstance(node, Var):
                values.append(leaf(node.element))
                continue
            kind = node.__class__ if node.__class__ in _CHILDREN else _kind(node)
            entry = table.get(kind)
            if entry is None:
                raise table[Formula](node)
            stack.append((combine, children, start))
            combine, children, start = entry, iter(_CHILDREN[kind](node)), len(values)
            break
        else:
            if not stack:
                return values[0]
            values[start:] = [combine(*values[start:])]
            combine, children, start = stack.pop()


def _connectives(logic: str, one, zero, neg: Callable, tnorm: Callable,
                 join: Callable | None, impl: Callable) -> dict:
    """The :func:`_fold` table of one value domain: conjunction folds ``tnorm``
    from ``one`` and disjunction ``join`` from ``zero``, which is not interpreted
    in ``logic`` when None; the biconditional is the t-norm of both implications."""
    def uninterpreted(node):
        if isinstance(node, Or):
            return EvaluationError(f"disjunction is not interpreted in the {logic} logic")
        return _unknown_node(node, EvaluationError)

    table = {Top: lambda: one, Bottom: lambda: zero, Not: neg, Implies: impl,
             And: lambda *values: reduce(tnorm, values, one),
             Iff: lambda m, n: tnorm(impl(m, n), impl(n, m)), Formula: uninterpreted}
    if join is not None:
        table[Or] = lambda *values: reduce(join, values, zero)
    return table


def _tnorm_lukasiewicz_n(d):
    def tnorm(x, y):
        z = x + y - d
        return z if z > 0 else 0
    return tnorm


def _impl_godel_n(d):
    return lambda m, n: d if m <= n else n


def _impl_lukasiewicz_n(d):
    def impl(m, n):
        z = d - m + n
        return z if z < d else d
    return impl


# the built-in operators on int numerators over one common denominator d:
# each maps d to the operator whose result, over d, is the built-in's on the
# values; Product's t-norm and implication leave the denominator, so they
# have none
_TNORMS_N = {_tnorm_min: lambda d: _tnorm_min, _tnorm_lukasiewicz: _tnorm_lukasiewicz_n}
_IMPLICATIONS_N = {_impl_godel: _impl_godel_n, _impl_lukasiewicz: _impl_lukasiewicz_n}


def _numerators(assignment: Mapping, logic: LogicSystem) -> tuple[int, dict] | None:
    """The lcm d of the denominators of the values of ``assignment`` that lie
    in the logic's domain, and each such element's numerator over d; None
    when some value is not exactly an int or a Fraction."""
    three_valued = logic.value_domain == "three_valued"
    inside = {}
    for element, value in assignment.items():
        if value.__class__ is not Fraction and value.__class__ is not int:
            return None
        pair = value.numerator, value.denominator  # the denominator is positive
        if pair in _THREE_PAIRS if three_valued else 0 <= pair[0] <= pair[1]:
            inside[element] = pair
    d = lcm(*{den for _, den in inside.values()})
    return d, {element: num * (d // den) for element, (num, den) in inside.items()}


def evaluate(f: Formula, assignment: Mapping, logic: LogicSystem):
    """Truth value of ``f`` under ``assignment`` in ``logic``.

    Conjunction folds the t-norm (the empty conjunction is 1), negation
    and implication apply the logic's operators, and the biconditional is
    the conjunction of the two implications.  Disjunction exists only in
    the three-valued system, where it is max.  Every leaf is checked, with
    no short-circuit: an unassigned variable or a value outside the
    logic's domain raises :class:`EvaluationError` wherever it occurs.

    When every value is an int or a Fraction and the operators are the
    built-ins of L3, Gödel or Łukasiewicz, the fold runs on int numerators
    over the lcm of the in-domain values' denominators, and the result is
    that numerator over it as a Fraction: the same value as the fold on
    Fractions.  A leaf that was not scaled is read by :func:`_lookup`,
    which raises.
    """
    join = max if logic.value_domain == "three_valued" else None
    tnorm, impl = _TNORMS_N.get(logic.tnorm), _IMPLICATIONS_N.get(logic.implication)
    if (logic.negation is _standard_negation and tnorm is not None and impl is not None
            and (scaled := _numerators(assignment, logic)) is not None):
        d, numerators = scaled

        def leaf(element):
            value = numerators.get(element)
            return _lookup(assignment, element, logic) if value is None else value

        table = _connectives(logic.name, d, 0, lambda x: d - x, tnorm(d), join, impl(d))
        return Fraction(_fold(f, leaf, table), d)
    table = _connectives(logic.name, 1, 0, logic.negation, logic.tnorm, join, logic.implication)
    return _fold(f, lambda element: _lookup(assignment, element, logic), table)


def _tnorm_lukasiewicz_f(x, y):
    return np.maximum(x + y - 1, 0.0)


def _impl_godel_f(m, n):
    return np.where(m <= n, 1.0, n)


def _impl_product_f(m, n):
    le = m <= n  # where it fails, m > n >= 0; elsewhere divide by 1, never by 0
    return np.where(le, 1.0, n / np.where(le, 1.0, m))


def _impl_lukasiewicz_f(m, n):
    return np.minimum(1 - m + n, 1.0)


# numpy versions of the built-in operators, equal to them value for value
# under ``==``; every built-in negation is 1 - x, which numpy computes as is
_TNORMS_F = {_tnorm_min: np.minimum, _tnorm_product: np.multiply,
             _tnorm_lukasiewicz: _tnorm_lukasiewicz_f}
_IMPLICATIONS_F = {_impl_godel: _impl_godel_f, _impl_product: _impl_product_f,
                   _impl_lukasiewicz: _impl_lukasiewicz_f}


def compile_evaluator(f: Formula, logic: LogicSystem) -> Callable[[Mapping], object]:
    """Evaluator of ``f`` over many points in one call.

    The returned function takes a mapping from each variable's element to
    a float, or to a float64 array with one value per point, and returns
    the value of ``f`` at every point, equal under ``==`` to
    :func:`evaluate` at each.  A formula without variables gives a
    scalar, which the caller broadcasts.  Values are not checked, so
    callers must feed in-domain floats.  Operators other than the
    built-ins are applied as they are.
    """
    join = np.maximum if logic.value_domain == "three_valued" else None
    table = _connectives(logic.name, 1.0, 0.0, logic.negation,
                         _TNORMS_F.get(logic.tnorm, logic.tnorm), join,
                         _IMPLICATIONS_F.get(logic.implication, logic.implication))
    return lambda columns: _fold(f, columns.__getitem__, table)


# -- encoding ----------------------------------------------------------------


def encode_normal(h: HAFS) -> Formula:
    """Conjunction over the universe of per-element biconditionals.

    Each element is tied to the conjunction of ``~(attack & attacker)``
    over its incoming attacks and ``~(support & ~supporter)`` over its
    incoming supports; with no incoming edges the right side is Top.
    Conjunct order follows element order, inner order follows relation
    ids, so the output is reproducible.  Each element's variable is one
    node, shared by all its occurrences.
    """
    var = [Var(x) for x in h.universe]
    conjuncts = []
    for a, (attacks, supports) in zip(var, h.incidence.incoming):
        parts: list[Formula] = [Not(And((var[r], var[b]))) for b, r in attacks]
        parts += [Not(And((var[t], Not(var[c])))) for c, t in supports]
        conjuncts.append(Iff(a, conjunction(parts)))
    return conjunction(conjuncts)


def is_model(h: HAFS, assignment: Mapping, logic: LogicSystem) -> bool:
    """True iff the encoded formula evaluates to exactly 1."""
    missing = [x for x in h.universe if x not in assignment]
    if missing:
        raise EvaluationError(f"assignment is not total: missing {missing[0].qualified}")
    return evaluate(encode_normal(h), assignment, logic) == 1


# -- rendering ---------------------------------------------------------------


def _infix(op: str, children: tuple, empty: str):
    if not children:
        return empty
    pieces = ["("]
    for child in children:
        pieces += (child, op)
    pieces[-1] = ")"
    return pieces


# each node's text as a sequence of pieces, strings or the pieces of its
# children, which _flatten joins once; composite children parenthesise
# themselves
_TEXT = {Top: lambda: "T", Bottom: lambda: "F", Not: lambda child: ("~", child),
         And: lambda *children: _infix(" & ", children, "T"),
         Or: lambda *children: _infix(" | ", children, "F"),
         Implies: lambda lhs, rhs: ("(", lhs, " -> ", rhs, ")"),
         Iff: lambda lhs, rhs: ("(", lhs, " <-> ", rhs, ")"), Formula: _unknown_node}

_JSON = {Top: lambda: {"op": "top"}, Bottom: lambda: {"op": "bottom"},
         Not: lambda child: {"op": "not", "child": child},
         And: lambda *children: {"op": "and", "children": list(children)},
         Or: lambda *children: {"op": "or", "children": list(children)},
         Implies: lambda lhs, rhs: {"op": "implies", "lhs": lhs, "rhs": rhs},
         Iff: lambda lhs, rhs: {"op": "iff", "lhs": lhs, "rhs": rhs}, Formula: _unknown_node}


def _json_list(op: str, children: tuple) -> list:
    if not children:
        return ["{", 1, '"children": [],', 0, f'"op": "{op}"', -1, "}"]
    pieces = ["{", 1, '"children": [', 1]
    for child in children:
        pieces += (child, ",", 0)
    pieces[-2:] = (-1, "],", 0, f'"op": "{op}"', -1, "}")
    return pieces


# the same text as _JSON's dict written by json.dumps(indent=2, sort_keys=True),
# in pieces for _flatten; an int piece is a line break, its indent that many
# levels deeper than the line before's
_JSON_TEXT = {Top: lambda: ("{", 1, '"op": "top"', -1, "}"),
              Bottom: lambda: ("{", 1, '"op": "bottom"', -1, "}"),
              Not: lambda child: ("{", 1, '"child": ', child, ",", 0, '"op": "not"', -1, "}"),
              And: lambda *children: _json_list("and", children),
              Or: lambda *children: _json_list("or", children),
              Implies: lambda lhs, rhs: ("{", 1, '"lhs": ', lhs, ",", 0, '"op": "implies",', 0,
                                         '"rhs": ', rhs, -1, "}"),
              Iff: lambda lhs, rhs: ("{", 1, '"lhs": ', lhs, ",", 0, '"op": "iff",', 0,
                                     '"rhs": ', rhs, -1, "}"),
              Formula: _unknown_node}


def _flatten(pieces, var: Callable | None = None) -> str:
    """The text of a tree of pieces, joined once: a str is written as it is,
    an int d is a line break indented d levels (two spaces each) deeper than
    the last one, a tuple or list holds pieces, and any other piece is a
    variable's leaf, written as ``var(leaf, margin)`` with ``margin`` the
    line break of the line it is on."""
    out, todo, depth, margins = [], [pieces], 0, ["\n"]
    while todo:
        piece = todo.pop()
        kind = piece.__class__
        if kind is str:
            out.append(piece)
        elif kind is int:
            depth += piece
            if depth == len(margins):
                margins.append(margins[-1] + "  ")
            out.append(margins[depth])
        elif kind is tuple or kind is list:
            todo += reversed(piece)
        else:
            out.append(var(piece, margins[depth]))
    return "".join(out)


def formula_to_text(f: Formula) -> str:
    """Canonical fully parenthesised form; Top/Bottom print as T/F."""
    return _flatten(_fold(f, attrgetter("name"), _TEXT))


def formula_to_json_obj(f: Formula) -> dict:
    return _fold(f, lambda element: {"op": "var", "id": element.qualified}, _JSON)


def _json_var(element: ElementId, margin: str) -> str:
    return (f'{{{margin}  "id": {encode_basestring_ascii(element.qualified)},'
            f'{margin}  "op": "var"{margin}}}')


def formula_to_json_text(f: Formula) -> str:
    """``json.dumps({"formula": formula_to_json_obj(f)}, indent=2,
    sort_keys=True)``, the text that ``encode --format json`` prints."""
    return _flatten(("{", 1, '"formula": ', _fold(f, lambda element: element, _JSON_TEXT),
                     -1, "}"), _json_var)
