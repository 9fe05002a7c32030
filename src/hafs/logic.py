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
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import EvaluationError, ValidationError
from .framework import HAFS, ElementId

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


def variables(f: Formula) -> frozenset[ElementId]:
    if isinstance(f, Var):
        return frozenset((f.element,))
    if isinstance(f, (Top, Bottom)):
        return frozenset()
    if isinstance(f, Not):
        return variables(f.child)
    if isinstance(f, (And, Or)):
        out: frozenset[ElementId] = frozenset()
        for c in f.children:
            out |= variables(c)
        return out
    return variables(f.lhs) | variables(f.rhs)


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


class Assignment(Mapping):
    """Immutable map from elements to values in [0, 1].

    Values given as int/str/Fraction are stored exactly as fractions;
    floats are kept as floats.  ``exact`` tells the two modes apart.
    """

    __slots__ = ("_values", "_hash")

    def __init__(self, values: Mapping[ElementId, object] | Iterable[tuple[ElementId, object]]):
        items = values.items() if isinstance(values, Mapping) else values
        store = {key: self._coerce(key, raw) for key, raw in items}
        self._values = dict(sorted(store.items()))
        self._hash = hash(tuple(self._values.items()))

    @staticmethod
    def _coerce(key: ElementId, raw) -> object:
        value = raw if isinstance(raw, float) or type(raw) is Fraction else Fraction(raw)
        if not 0 <= value <= 1:
            raise ValidationError(f"value {raw!r} for {key} is outside [0, 1]")
        return value

    @property
    def exact(self) -> bool:
        return not any(isinstance(v, float) for v in self._values.values())

    def __getitem__(self, key: ElementId):
        return self._values[key]

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
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k.qualified}: {v}" for k, v in self._values.items())
        return f"{type(self).__name__}({{{inner}}})"

    def to_json_obj(self) -> dict[str, object]:
        out: dict[str, object] = {}
        for k, v in self._values.items():
            out[k.qualified] = float(f"{v:.12g}") if isinstance(v, float) else str(v)
        return out


# -- evaluation --------------------------------------------------------------
#
# Every reading of a formula is one fold over its AST with the connectives of
# a value domain: scalars with checked leaves (evaluate), float64 arrays
# (compile_evaluator) and, in the bridge, exact (numerator, denominator)
# integer arrays.

THREE_VALUES = (Fraction(0), Fraction(1, 2), Fraction(1))


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


class _Ops(NamedTuple):
    """The connectives of one value domain, for :func:`_fold`."""

    logic: str  # named when a disjunction is not interpreted
    one: object
    zero: object
    neg: Callable
    tnorm: Callable
    join: Callable | None  # None outside the three-valued logic
    impl: Callable


def _fold(f: Formula, leaf: Callable, ops: _Ops):
    """Value of ``f`` with ``leaf(element)`` at each variable and ``ops`` at
    the connectives.

    Conjunction folds the t-norm from ``one`` over every child, with no
    short-circuit, and disjunction the join from ``zero``; the
    biconditional is the t-norm of the two implications.
    """
    if isinstance(f, Var):
        return leaf(f.element)
    if isinstance(f, Not):
        return ops.neg(_fold(f.child, leaf, ops))
    if isinstance(f, And):
        acc = ops.one
        for child in f.children:
            acc = ops.tnorm(acc, _fold(child, leaf, ops))
        return acc
    if isinstance(f, Iff):
        m, n = _fold(f.lhs, leaf, ops), _fold(f.rhs, leaf, ops)
        return ops.tnorm(ops.impl(m, n), ops.impl(n, m))
    if isinstance(f, Implies):
        return ops.impl(_fold(f.lhs, leaf, ops), _fold(f.rhs, leaf, ops))
    if isinstance(f, Top):
        return ops.one
    if isinstance(f, Bottom):
        return ops.zero
    if isinstance(f, Or):
        if ops.join is None:
            raise EvaluationError(f"disjunction is not interpreted in the {ops.logic} logic")
        acc = ops.zero
        for child in f.children:
            acc = ops.join(acc, _fold(child, leaf, ops))
        return acc
    raise EvaluationError(f"unknown formula node {type(f).__name__}")


def evaluate(f: Formula, assignment: Mapping, logic: LogicSystem):
    """Truth value of ``f`` under ``assignment`` in ``logic``.

    Conjunction folds the t-norm (the empty conjunction is 1), negation
    and implication apply the logic's operators, and the biconditional is
    the conjunction of the two implications.  Disjunction exists only in
    the three-valued system, where it is max.  Every leaf is checked, with
    no short-circuit: an unassigned variable or a value outside the
    logic's domain raises :class:`EvaluationError` wherever it occurs.
    """
    join = max if logic.value_domain == "three_valued" else None
    ops = _Ops(logic.name, 1, 0, logic.negation, logic.tnorm, join, logic.implication)
    return _fold(f, lambda element: _lookup(assignment, element, logic), ops)


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
    ops = _Ops(logic.name, 1.0, 0.0, logic.negation, _TNORMS_F.get(logic.tnorm, logic.tnorm),
               join, _IMPLICATIONS_F.get(logic.implication, logic.implication))
    return lambda columns: _fold(f, columns.__getitem__, ops)


# -- encoding ----------------------------------------------------------------


def encode_normal(h: HAFS) -> Formula:
    """Conjunction over the universe of per-element biconditionals.

    Each element is tied to the conjunction of ``~(attack & attacker)``
    over its incoming attacks and ``~(support & ~supporter)`` over its
    incoming supports; with no incoming edges the right side is Top.
    Conjunct order follows element order, inner order follows relation
    ids, so the output is reproducible.
    """
    u = h.universe
    conjuncts = []
    for a, (attacks, supports) in zip(u, h.incidence.incoming):
        parts: list[Formula] = [Not(And((Var(u[r]), Var(u[b])))) for b, r in attacks]
        parts += [Not(And((Var(u[t]), Not(Var(u[c]))))) for c, t in supports]
        conjuncts.append(Iff(Var(a), conjunction(parts)))
    return conjunction(conjuncts)


def is_model(h: HAFS, assignment: Mapping, logic: LogicSystem) -> bool:
    """True iff the encoded formula evaluates to exactly 1."""
    missing = [x for x in h.universe if x not in assignment]
    if missing:
        raise EvaluationError(f"assignment is not total: missing {missing[0].qualified}")
    return evaluate(encode_normal(h), assignment, logic) == 1


# -- rendering ---------------------------------------------------------------


def formula_to_text(f: Formula) -> str:
    """Canonical fully parenthesised form; Top/Bottom print as T/F."""
    if isinstance(f, Var):
        return f.element.name
    if isinstance(f, Top):
        return "T"
    if isinstance(f, Bottom):
        return "F"
    if isinstance(f, Not):
        # composite children parenthesise themselves
        return "~" + formula_to_text(f.child)
    if isinstance(f, And):
        if not f.children:
            return "T"
        return "(" + " & ".join(formula_to_text(c) for c in f.children) + ")"
    if isinstance(f, Or):
        if not f.children:
            return "F"
        return "(" + " | ".join(formula_to_text(c) for c in f.children) + ")"
    if isinstance(f, Implies):
        return f"({formula_to_text(f.lhs)} -> {formula_to_text(f.rhs)})"
    if isinstance(f, Iff):
        return f"({formula_to_text(f.lhs)} <-> {formula_to_text(f.rhs)})"
    raise ValueError(f"unknown formula node {type(f).__name__}")


def formula_to_json_obj(f: Formula) -> dict:
    if isinstance(f, Var):
        return {"op": "var", "id": f.element.qualified}
    if isinstance(f, Top):
        return {"op": "top"}
    if isinstance(f, Bottom):
        return {"op": "bottom"}
    if isinstance(f, Not):
        return {"op": "not", "child": formula_to_json_obj(f.child)}
    if isinstance(f, And):
        return {"op": "and", "children": [formula_to_json_obj(c) for c in f.children]}
    if isinstance(f, Or):
        return {"op": "or", "children": [formula_to_json_obj(c) for c in f.children]}
    if isinstance(f, Implies):
        return {"op": "implies", "lhs": formula_to_json_obj(f.lhs),
                "rhs": formula_to_json_obj(f.rhs)}
    if isinstance(f, Iff):
        return {"op": "iff", "lhs": formula_to_json_obj(f.lhs),
                "rhs": formula_to_json_obj(f.rhs)}
    raise ValueError(f"unknown formula node {type(f).__name__}")
