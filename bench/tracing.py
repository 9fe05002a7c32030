"""Spans around the program's public functions, for the traced run.

The tracer replaces a function at the module attribute its caller looks
up: ``hafs.cli`` reaches every layer through attributes such as
``labellings.enumerate_adjacent_complete``, while ``hafs.bridge`` binds
the names it imports, so those names are replaced inside ``hafs.bridge``
as well.  Each call records a span (name, start, end, parent span, id of
the operation it belongs to); spans stay in memory until :meth:`dump`.
A recursive call of a traced function stays inside its caller's span.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


def _found(result):
    return {"found": len(result)}


def _solve_counts(reports):
    return {"iterations_reported": sum(r.iterations for r in reports),
            "converged_runs": sum(1 for r in reports if r.converged),
            "reports": len(reports)}


def _parse_counts(h):
    return {"elements": len(h)}


# (module, attribute, span name, counters read off the result); module names
# are relative to the ``hafs`` package
TRACED = (
    ("cli", "run", "cli.run", None),
    ("framework", "parse", "framework.parse", _parse_counts),
    ("framework", "serialize", "framework.serialize", None),
    ("bridge", "serialize", "framework.serialize", None),
    ("labellings", "enumerate_adjacent_complete", "labellings.enumerate_adjacent_complete", _found),
    ("bridge", "enumerate_adjacent_complete", "labellings.enumerate_adjacent_complete", _found),
    ("labellings", "select_labellings", "labellings.select_labellings", None),
    ("extensions", "enumerate_extensions", "extensions.enumerate_extensions", _found),
    ("bridge", "enumerate_extensions", "extensions.enumerate_extensions", _found),
    ("extensions", "extension_derived_labelling", "extensions.extension_derived_labelling", None),
    ("bridge", "extension_derived_labelling", "extensions.extension_derived_labelling", None),
    ("logic", "encode_normal", "logic.encode_normal", None),
    ("bridge", "encode_normal", "logic.encode_normal", None),
    ("logic", "evaluate", "logic.evaluate", None),
    ("logic", "formula_to_json_obj", "logic.formula_to_json_obj", None),
    ("bridge", "compile_evaluator", "logic.compile_evaluator", None),
    ("equations", "build_equations", "equations.build_equations", None),
    ("bridge", "build_equations", "equations.build_equations", None),
    ("equations", "solve_fixed_point", "equations.solve_fixed_point", _solve_counts),
    ("bridge", "solve_fixed_point", "equations.solve_fixed_point", _solve_counts),
    ("equations", "enumerate_ternary_solutions", "equations.enumerate_ternary_solutions", _found),
    ("bridge", "enumerate_ternary_solutions", "equations.enumerate_ternary_solutions", _found),
    ("bridge", "enumerate_pl3_models", "bridge.enumerate_pl3_models", _found),
    ("bridge", "verify", "bridge.verify", None),  # named bridge.verify.<theorem id>
)

THEOREM_IDS = ("T1", "T2", "T_PL3", "EQ_G", "EQ_P", "EQ_L", "T16", "IDEM", "CORR_G")
_COUNTER_KEYS = {_found: ("found",), _parse_counts: ("elements",),
                 _solve_counts: ("iterations_reported", "converged_runs", "reports")}


def metric_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric a traced run reports."""
    out = []
    for _, _, name, count in TRACED:
        spans = [f"{name}.{t}" for t in THEOREM_IDS] if name == "bridge.verify" else [name]
        for span in spans:
            metrics = [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
            metrics += [(f"{span}.{key}", "count") for key in _COUNTER_KEYS.get(count, ())]
            out += [m for m in metrics if m not in out]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, operation id]
        self.operation = 0
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def install(self, package) -> None:
        for module_name, attr, name, count in TRACED:
            module = getattr(package, module_name)
            self._wrap(module, attr, name, count)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, module, attr, name, count) -> None:
        original = getattr(module, attr)
        spans, stack, counters = self.spans, self._open, self.counters
        per_theorem = name == "bridge.verify"

        def traced(*args, **kwargs):
            span_name = f"{name}.{args[1]}" if per_theorem else name
            if stack and spans[stack[-1]][0] == span_name:
                return original(*args, **kwargs)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.operation]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count:
                for key, value in count(result).items():
                    counters[f"{span_name}.{key}"] += value
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self time (duration minus the child spans) per span name."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return {name: (calls[name], self_s[name]) for name in calls}

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start", "end", "parent", "operation"],
                       "spans": [[code[n], s, e, p, o] for n, s, e, p, o in self.spans]}, fh)
