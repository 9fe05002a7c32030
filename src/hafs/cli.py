"""Command-line interface.

All verbs read a framework from a file path (or ``-`` for stdin) except
``random``, which writes one.  Output is JSON apart from ``check``,
``random`` and ``encode --format text``.  Exit codes: 0 success, 1 domain
failure (failed verification, exceeded enumeration bound, unmet theorem
precondition, no converged solve), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import bridge, equations, extensions, framework, labellings, logic
from .errors import (EvaluationError, HafsError, InfeasibleParametersError,
                     ParseError, ValidationError)


class _UsageError(Exception):
    pass


# exit 2; every other HafsError is a domain failure, exit 1
_USAGE_ERRORS = (_UsageError, ParseError, ValidationError, InfeasibleParametersError,
                 EvaluationError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); raise instead
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process; parsing does not change it."""
    parser = _Parser(prog="hafs", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_input(p):
        p.add_argument("input", help="framework file path, or - for stdin")

    p = sub.add_parser("check", help="validate a framework and echo its canonical form")
    add_input(p)

    p = sub.add_parser("labellings", help="enumerate three-valued labellings")
    add_input(p)
    p.add_argument("--semantics", default="complete",
                   choices=["complete", "grounded", "preferred", "stable"])

    p = sub.add_parser("extensions", help="enumerate extensions")
    add_input(p)
    p.add_argument("--semantics", default="complete",
                   choices=["complete", "grounded", "preferred", "stable"])

    p = sub.add_parser("encode", help="emit the encoded formula")
    add_input(p)
    p.add_argument("--logic", default="l3", choices=sorted(logic.BUILTIN_LOGICS))
    p.add_argument("--format", default="text", choices=["text", "json"])

    p = sub.add_parser("eval", help="evaluate the encoded formula under an assignment")
    add_input(p)
    p.add_argument("--assignment", required=True,
                   help='JSON object like {"arg:a": "1/2", "att:r1": 0.25}')
    p.add_argument("--logic", default="l3", choices=sorted(logic.BUILTIN_LOGICS))

    p = sub.add_parser("solve", help="solve the equation system")
    add_input(p)
    p.add_argument("--logic", default="godel", choices=sorted(logic.BUILTIN_LOGICS))
    p.add_argument("--damping", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=100_000)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true",
                   help="enumerate exact {0,1/2,1} solutions instead of iterating")

    p = sub.add_parser("verify", help="check semantic correspondences empirically")
    add_input(p)
    p.add_argument("--theorem", action="append", required=True,
                   choices=list(bridge.THEOREM_IDS),
                   help="may be given multiple times")
    p.add_argument("--logic", default=None, choices=sorted(logic.BUILTIN_LOGICS),
                   help="fuzzy system for T16/IDEM (default godel)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=8,
                   help="universe cap for the exhaustive checks")
    p.add_argument("--grid-cap", type=int, default=100_000)
    p.add_argument("--float-samples", type=int, default=200)

    p = sub.add_parser("random", help="generate a pseudo-random framework")
    p.add_argument("--args", type=int, required=True, dest="nargs")
    p.add_argument("--atts", type=int, default=0, dest="natts")
    p.add_argument("--supps", type=int, default=0, dest="nsupps")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--acyclic-supports", action="store_true")
    p.add_argument("--higher-order-prob", type=float, default=0.0)
    return parser


def _read_framework(path: str, stdin) -> framework.HAFS:
    if path == "-":
        text = stdin.read()
    else:
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
        except OSError as exc:
            raise _UsageError(f"cannot read {path}: {exc}") from None
    return framework.parse(text)


def _emit_json(stdout, obj) -> None:
    stdout.write(_json_text(obj) + "\n")


# -- JSON output ---------------------------------------------------------------
#
# json writes its indented layout with its pure-Python recursive encoder.
# _json_text writes the same text with its own stack: strings and keys go
# through json's C encode_basestring_ascii, numbers through int.__repr__ and
# float.__repr__, as json does them, and a container of at least _FLAT_MIN
# items, none of them a container, is one call of json's compact C encoder
# with the newline and indent in its item separator.

_FLAT_MIN = 8
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


# the text of a scalar of exactly one of these types
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
                bool: lambda value: "true" if value else "false",
                type(None): lambda value: "null"}


def _scalar_text(value) -> str:
    """The text of a value that is no list, tuple or dict, its type tested
    as json tests it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _SCALAR_TEXT[type(value)](value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


class _Level:
    """The texts around the items of a container at one depth."""

    __slots__ = ("newline", "separator", "list_start", "list_end", "dict_end", "keys")

    def __init__(self, depth: int, indent: int):
        outer, self.newline = "\n" + " " * (indent * depth), "\n" + " " * (indent * (depth + 1))
        self.separator = "," + self.newline
        self.list_start = "[" + self.newline
        self.list_end = outer + "]"
        self.dict_end = outer + "}"
        self.keys: dict[str, str] = {}  # the separator, key and ": " of each str key

    def key_prefix(self, key) -> str:
        """What precedes the value of a dict item after the first."""
        if isinstance(key, str):
            text = encode_basestring_ascii(key)
        elif isinstance(key, (int, float)) or key is None:  # bool is an int
            text = encode_basestring_ascii(_scalar_text(key))
        else:
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        text = f"{self.separator}{text}: "
        if key.__class__ is str:
            self.keys[key] = text
        return text


@functools.lru_cache(maxsize=64)
def _flat_encoder(separator: str) -> json.JSONEncoder:
    return json.JSONEncoder(sort_keys=True, separators=(separator, ": "))


def _json_text(obj, indent: int = 2) -> str:
    """``json.dumps(obj, indent=indent, sort_keys=True)``, byte for byte,
    for an ``indent`` >= 0; nesting depth is not limited."""
    out: list[str] = []
    levels: list[_Level] = []  # by depth
    stack: list = []  # the items, closing text and id of each open container
    open_ids: set[int] = set()
    items, close, marker = iter((("", obj),)), "", None
    while True:
        for prefix, value in items:
            out.append(prefix)
            scalar = _SCALAR_TEXT.get(value.__class__)
            if scalar is not None:
                out.append(scalar(value))
                continue
            if not isinstance(value, (list, tuple, dict)):
                out.append(_scalar_text(value))
                continue
            is_dict = isinstance(value, dict)
            if not value:
                out.append("{}" if is_dict else "[]")
                continue
            depth = len(stack)
            if depth == len(levels):
                levels.append(_Level(depth, indent))
            level = levels[depth]
            end = level.dict_end if is_dict else level.list_end
            if len(value) >= _FLAT_MIN and all(
                    v.__class__ in _SCALAR_TEXT for v in (value.values() if is_dict else value)):
                text = _flat_encoder(level.separator).encode(value)
                out.append(f"{text[0]}{level.newline}{text[1:-1]}{end}")
                continue
            if id(value) in open_ids:
                raise ValueError("Circular reference detected")
            stack.append((items, close, marker))
            marker = id(value)
            open_ids.add(marker)
            if is_dict:
                names = sorted(value)
                keys = level.keys
                try:
                    prefixes = [keys[k] for k in names]
                except KeyError:
                    prefixes = [keys.get(k) or level.key_prefix(k) for k in names]
                prefixes[0] = "{" + prefixes[0][1:]
                value = [value[k] for k in names]
            else:
                prefixes = [level.separator] * len(value)
                prefixes[0] = level.list_start
            items, close = zip(prefixes, value), end
            break
        else:
            if not stack:
                return "".join(out)
            out.append(close)
            open_ids.discard(marker)
            items, close, marker = stack.pop()


def _parse_assignment(raw: str, h: framework.HAFS) -> logic.Assignment:
    """The ``--assignment`` text as an assignment keyed by the ids of
    ``h``; a key that names no element of ``h`` gets an id of its own."""
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"--assignment is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise _UsageError("--assignment must be a JSON object")
    values = {}
    own = {x.qualified: x for x in h.universe}
    rationals: dict[str, Fraction] = {}  # each text read once: values repeat
    for key, value in data.items():
        element = own.get(key) or framework.ElementId.from_qualified(key)
        if isinstance(value, str):
            if value not in rationals:
                try:
                    rationals[value] = Fraction(value)
                except (ValueError, ZeroDivisionError):
                    raise _UsageError(f"cannot read {value!r} as a rational") from None
            values[element] = rationals[value]
        elif isinstance(value, bool):
            raise _UsageError(f"boolean value for {key!r}")
        elif isinstance(value, int):
            values[element] = Fraction(value)
        elif isinstance(value, float):
            values[element] = value
        else:
            raise _UsageError(f"unsupported value {value!r} for {key!r}")
    return logic.Assignment(values)


def _format_value(value) -> object:
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return str(Fraction(value))


def _cmd_check(opts, stdin, stdout) -> int:
    h = _read_framework(opts.input, stdin)
    stdout.write(framework.serialize(h))
    return 0


def _cmd_labellings(opts, stdin, stdout) -> int:
    h = _read_framework(opts.input, stdin)
    family = labellings.enumerate_adjacent_complete(h)
    if opts.semantics != "complete":
        family = labellings.select_labellings(h, family, opts.semantics)
    _emit_json(stdout, labellings.labellings_to_json_obj(family))
    return 0


def _cmd_extensions(opts, stdin, stdout) -> int:
    h = _read_framework(opts.input, stdin)
    family = extensions.enumerate_extensions(h, opts.semantics)
    _emit_json(stdout, extensions.extensions_to_json_obj(family))
    return 0


def _cmd_encode(opts, stdin, stdout) -> int:
    h = _read_framework(opts.input, stdin)
    formula = logic.encode_normal(h)
    if opts.format == "text":
        stdout.write(logic.formula_to_text(formula) + "\n")
    else:
        _emit_json(stdout, {"formula": logic.formula_to_json_obj(formula)})
    return 0


def _cmd_eval(opts, stdin, stdout) -> int:
    h = _read_framework(opts.input, stdin)
    system = logic.get_logic(opts.logic)
    assignment = _parse_assignment(opts.assignment, h)
    value = logic.evaluate(logic.encode_normal(h), assignment, system)
    _emit_json(stdout, {
        "logic": system.name,
        "mode": "exact" if assignment.exact else "float",
        "value": _format_value(value),
        "is_model": bool(value == 1),
    })
    return 0


def _cmd_solve(opts, stdin, stdout) -> int:
    h = _read_framework(opts.input, stdin)
    system = equations.build_equations(h, logic.get_logic(opts.logic))
    if opts.exact:
        solutions = equations.enumerate_ternary_solutions(system)
        _emit_json(stdout, {
            "logic": system.logic.name,
            "ternary_solutions": [s.to_json_obj() for s in solutions],
        })
        return 0
    reports = equations.solve_fixed_point(
        system, damping=opts.damping, tolerance=opts.tol,
        max_iter=opts.max_iter, restarts=opts.restarts, seed=opts.seed,
    )
    _emit_json(stdout, {
        "logic": system.logic.name,
        "reports": [r.to_json_obj() for r in reports],
    })
    return 0 if any(r.converged for r in reports) else 1


def _cmd_verify(opts, stdin, stdout) -> int:
    h = _read_framework(opts.input, stdin)
    shared = bridge._Inputs(h, opts.theorem)  # what several of the checks read, made once
    reports = [
        bridge.verify(h, theorem_id, logic=opts.logic, seed=opts.seed,
                      bound=opts.bound, grid_cap=opts.grid_cap,
                      float_samples=opts.float_samples, inputs=shared)
        for theorem_id in opts.theorem
    ]
    _emit_json(stdout, {"reports": [r.to_json_obj() for r in reports]})
    return 0 if all(r.passed for r in reports) else 1


def _cmd_random(opts, stdin, stdout) -> int:
    h = framework.generate_random(
        opts.nargs, opts.natts, opts.nsupps, opts.seed,
        support_acyclic=opts.acyclic_supports,
        higher_order_prob=opts.higher_order_prob,
    )
    stdout.write(framework.serialize(h))
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "labellings": _cmd_labellings,
    "extensions": _cmd_extensions,
    "encode": _cmd_encode,
    "eval": _cmd_eval,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "random": _cmd_random,
}


def run(argv: list[str], stdin=None, stdout=None, stderr=None) -> int:
    """Execute one CLI invocation; returns the exit code."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        opts = _build_parser().parse_args(argv)
    except _UsageError as exc:
        stderr.write(f"hafs: error: {exc}\n")
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[opts.verb](opts, stdin, stdout)
    except _USAGE_ERRORS as exc:
        stderr.write(f"hafs: error: {exc}\n")
        return 2
    except HafsError as exc:
        stderr.write(f"hafs: error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
