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
    p.add_argument("--grid-cap", type=int, default=100_000,
                   help="EQ_*: test the whole quarter grid up to this many rows, else "
                        "this many drawn rows; also caps the rows of the whole-grid "
                        "sweep that can clear every drawn row at once")
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
# json writes its indented layout with its pure-Python encoder.  _json_text
# writes the same text for the values the CLI prints: dicts with str keys,
# lists, tuples and exact str, int, float, bool and None.  Strings and keys go
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


@functools.lru_cache(maxsize=64)
def _flat_encoder(separator: str) -> json.JSONEncoder:
    return json.JSONEncoder(sort_keys=True, separators=(separator, ": "))


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for the
    CLI's value types; any other type raises json's ``TypeError``."""
    return _indented(obj, "\n")


def _indented(value, newline: str) -> str:
    """The text of ``value`` as :func:`_json_text` writes it, with
    ``newline`` the line break and indent of the line it starts on.

    It recurses once per nested container, and the values it is given nest
    at most 5 deep: a ``verify`` counterexample's assignment, in its
    report, in the list of reports.  That is far under the recursion
    limit.  ``encode``'s formula has a writer of its own,
    :func:`logic.formula_to_json_text`.
    """
    kind = value.__class__
    scalar = _SCALAR_TEXT.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind not in (dict, list, tuple):
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "{}" if kind is dict else "[]"
    inner = newline + "  "
    if len(value) >= _FLAT_MIN and all(
            v.__class__ in _SCALAR_TEXT for v in (value.values() if kind is dict else value)):
        text = _flat_encoder("," + inner).encode(value)
        return f"{text[0]}{inner}{text[1:-1]}{newline}{text[-1]}"
    if kind is dict:
        items = ",".join([f"{inner}{encode_basestring_ascii(k)}: {_indented(value[k], inner)}"
                          for k in sorted(value)])
        return f"{{{items}{newline}}}"
    items = ",".join([inner + _indented(v, inner) for v in value])
    return f"[{items}{newline}]"


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
        stdout.write(logic.formula_to_json_text(formula) + "\n")
    return 0


def _cmd_eval(opts, stdin, stdout) -> int:
    h = _read_framework(opts.input, stdin)
    system = logic.get_logic(opts.logic)
    assignment = _parse_assignment(opts.assignment, h)
    value = logic.evaluate(logic.encode_normal(h), assignment, system)
    _emit_json(stdout, {
        "logic": system.name,
        "mode": "exact" if assignment.exact else "float",
        "value": logic.value_to_json_obj(value),
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
