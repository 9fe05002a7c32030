"""Independent checks of the program's outputs.

Everything here is computed from the benchmark's own :class:`Framework`
and the program's JSON output, without calling into ``hafs``: labelling
conditions, defeat propagation, closed-form equation folds, encoded
formula values and brute-force counts.  A check raises
:class:`CheckError` on the first output it rejects.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction

ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)
THREE = (ZERO, HALF, ONE)

RESIDUAL_TOL = 1e-8    # solver stops at 1e-9; JSON keeps 12 significant digits
TERNARIZE_TOL = 1e-6
EVAL_REL_TOL = 1e-9


class CheckError(Exception):
    """An output the benchmark's own computation disagrees with."""


class TernarizeError(CheckError):
    """A converged float solution whose ternarization is not a labelling."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- labellings ----------------------------------------------------------------


def labelling_ok(fw, lab) -> bool:
    """The per-element conditions: 1 when every attack is disarmed and every
    support satisfied, 0 when an attack fires or a support fails, else 1/2."""
    for x in fw.universe:
        one = all(lab[b] == 0 or lab[r] == 0 for b, r in fw.attackers[x]) and \
            all(lab[c] == 1 or lab[t] == 0 for c, t in fw.supporters[x])
        zero = any(lab[b] == 1 and lab[r] == 1 for b, r in fw.attackers[x]) or \
            any(lab[c] == 0 and lab[t] == 1 for c, t in fw.supporters[x])
        if lab[x] != (ONE if one else ZERO if zero else HALF):
            return False
    return True


def brute_force_labellings(fw) -> set[tuple]:
    """Every labelling of the 3^|U| grid meeting the conditions, as value tuples."""
    found = set()
    for values in itertools.product(THREE, repeat=len(fw)):
        if labelling_ok(fw, dict(zip(fw.universe, values))):
            found.add(values)
    return found


def read_labelling(fw, obj) -> tuple:
    require(set(obj) == set(fw.universe), "labelling is not total over the universe")
    values = tuple(Fraction(obj[x]) for x in fw.universe)
    require(all(v in THREE for v in values), "labelling value outside {0, 1/2, 1}")
    return values


def core(fw, values) -> frozenset:
    return frozenset(x for x, v in zip(fw.universe, values) if v == ONE)


# -- extensions ------------------------------------------------------------------


def defeated(fw, members: frozenset) -> set:
    """Least set holding every target of an in-set attack from an in-set
    source, closed under passing defeat along in-set supports."""
    beaten = {x for x in fw.universe
              if any(b in members and r in members for b, r in fw.attackers[x])}
    changed = True
    while changed:
        changed = False
        for x in fw.universe:
            if x not in beaten and any(c in beaten and t in members
                                       for c, t in fw.supporters[x]):
                beaten.add(x)
                changed = True
    return beaten


def is_complete(fw, members: frozenset) -> bool:
    """Conflict-free and equal to the set it defends."""
    beaten = defeated(fw, members)
    if members & beaten:
        return False
    defended = {x for x in fw.universe
                if all(b in beaten or r in beaten for b, r in fw.attackers[x])
                and all(c in members or t in beaten for c, t in fw.supporters[x])}
    return defended == members


def derived_labelling(fw, members: frozenset) -> tuple:
    beaten = defeated(fw, members)
    return tuple(ONE if x in members else ZERO if x in beaten else HALF for x in fw.universe)


def maximal(sets) -> list:
    return [s for s in sets if not any(s < other for other in sets)]


# -- equations -------------------------------------------------------------------


def _terms(fw, x, v):
    """Negated attack products and negated inverted-support products of ``x``."""
    return ([(v[b], v[r]) for b, r in fw.attackers[x]],
            [(v[c], v[t]) for c, t in fw.supporters[x]])


def rhs(fw, logic: str, x, v):
    """Closed-form right-hand side of element ``x``'s equation."""
    atts, supps = _terms(fw, x, v)
    if logic == "godel":
        return min([1] + [1 - min(b, r) for b, r in atts] + [1 - min(1 - c, t) for c, t in supps])
    if logic == "product":
        out = 1
        for b, r in atts:
            out *= 1 - b * r
        for c, t in supps:
            out *= 1 - (1 - c) * t
        return out
    if logic == "lukasiewicz":  # n-ary form max(0, sum - (k - 1))
        parts = [1 - max(0, b + r - 1) for b, r in atts] + [1 - max(0, t - c) for c, t in supps]
        return max(0, sum(parts) - (len(parts) - 1))
    raise ValueError(logic)


def residual(fw, logic: str, v) -> float:
    return max(abs(v[x] - rhs(fw, logic, x, v)) for x in fw.universe)


def ternarize(v: dict) -> dict:
    return {x: ONE if abs(y - 1) <= TERNARIZE_TOL else ZERO if abs(y) <= TERNARIZE_TOL else HALF
            for x, y in v.items()}


def brute_force_solutions(fw, logic: str) -> set[tuple]:
    """Exact {0, 1/2, 1} solutions of the equation system, by exhaustion."""
    found = set()
    for values in itertools.product(THREE, repeat=len(fw)):
        v = dict(zip(fw.universe, values))
        if all(v[x] == rhs(fw, logic, x, v) for x in fw.universe):
            found.add(values)
    return found


# -- the encoded formula ----------------------------------------------------------


def encoding_value(fw, logic: str, v):
    """Value of the normal encoding: the t-norm over elements of the
    biconditional between an element and its right-hand side.  Both
    built-in residua make a biconditional min(m, n) / max(m, n)-shaped:
    1 on equal sides, else the smaller side (Gödel) or their ratio (Product)."""
    out = 1
    for x in fw.universe:
        m, n = v[x], rhs(fw, logic, x, v)
        if logic == "godel":
            out = min(out, 1 if m == n else min(m, n))
        elif logic == "product":
            out *= 1 if m == n else min(m, n) / max(m, n)
        else:
            raise ValueError(logic)
    return out


def _var(node, qid):
    require(node == {"op": "var", "id": qid}, f"expected variable {qid}, got {node}")


def check_encoding_json(fw, formula) -> None:
    """One biconditional per element, in universe order, whose right side
    has one negated part per incoming edge."""
    iffs = formula["children"] if len(fw) > 1 else [formula]
    if len(fw) > 1:
        require(formula.get("op") == "and", "top-level node is not a conjunction")
    require(len(iffs) == len(fw), f"{len(iffs)} biconditionals for {len(fw)} elements")
    for x, node in zip(fw.universe, iffs):
        require(node.get("op") == "iff", f"conjunct for {x} is not a biconditional")
        _var(node["lhs"], x)
        edges = len(fw.attackers[x]) + len(fw.supporters[x])
        right = node["rhs"]
        parts = [] if right == {"op": "top"} else right["children"] if edges > 1 else [right]
        require(len(parts) == edges, f"{x} has {len(parts)} parts for {edges} incoming edges")
        for part, (b, r) in zip(parts, fw.attackers[x]):
            require(part["op"] == "not" and part["child"]["op"] == "and", f"bad attack part on {x}")
            rel, src = part["child"]["children"]
            _var(rel, r)
            _var(src, b)
        for part, (c, t) in zip(parts[len(fw.attackers[x]):], fw.supporters[x]):
            require(part["op"] == "not" and part["child"]["op"] == "and", f"bad support part on {x}")
            rel, neg = part["child"]["children"]
            _var(rel, t)
            require(neg["op"] == "not", f"support part on {x} does not negate its supporter")
            _var(neg["child"], c)


def digest(fw) -> str:
    return hashlib.sha256(fw.canonical().encode()).hexdigest()[:16]


# -- per-framework checks, one per workload ----------------------------------------
#
# ``out`` maps each operation's argv tuple to (exit code, stdout); ``extra``
# is the case's extra data from ``gen``.  Each check returns the operations
# that show a kept fault of the program (see ``gen.KEPT_FAULTS``) and raises
# CheckError on any other failure, a non-zero exit included.


def _ok(out, argv):
    rc, text = out[argv]
    require(rc == 0, f"{' '.join(argv)} exited {rc}")
    return json.loads(text)


def check_enumerate(fw, ops, out, extra=None) -> set:
    lab_c, lab_p, ext_c, ext_p, pl3 = ops
    family = [read_labelling(fw, lab) for lab in _ok(out, lab_c)["labellings"]]
    require(len(set(family)) == len(family), "duplicate labellings")
    for values in family:
        require(labelling_ok(fw, dict(zip(fw.universe, values))),
                "complete labelling breaks the per-element conditions")
    preferred = [read_labelling(fw, lab) for lab in _ok(out, lab_p)["labellings"]]
    cores = [core(fw, values) for values in family]
    require(sorted(preferred) == sorted(v for v, c in zip(family, cores)
                                        if not any(c < other for other in cores)),
            "preferred labellings are not the core-maximal complete ones")

    complete = [frozenset(e) for e in _ok(out, ext_c)["extensions"]]
    require(len(set(complete)) == len(complete), "duplicate extensions")
    for members in complete:
        require(is_complete(fw, members), f"extension {sorted(members)} is not complete")
    preferred_ext = [frozenset(e) for e in _ok(out, ext_p)["extensions"]]
    require(set(preferred_ext) == set(maximal(complete)) and
            len(preferred_ext) == len(maximal(complete)),
            "preferred extensions are not the maximal complete ones")

    derived = {derived_labelling(fw, members) for members in complete}
    if fw.support_cyclic():
        require(derived <= set(family), "an extension-derived labelling is not in the family")
    else:
        require(derived == set(family), "extension-derived labellings differ from the family")

    (report,) = _ok(out, pl3)["reports"]
    require(report["passed"] and report["theorem"] == "T_PL3", "T_PL3 did not pass")
    require(report["notes"]["models"] == len(family), "T_PL3 model count is not the family size")
    return set()


def check_verify(fw, ops, out, extra=None) -> set:
    (argv,) = ops
    ids = [argv[i + 1] for i, a in enumerate(argv) if a == "--theorem"]
    reports = _ok(out, argv)["reports"]
    require([r["theorem"] for r in reports] == ids, "reports do not follow the theorem ids")
    count = None
    for r in reports:
        require(r["passed"] and r["counterexample"] is None, f"{r['theorem']} did not pass")
        require(r["framework_digest"] == digest(fw), "framework digest is not the canonical one")
        if r["theorem"] in ("T_PL3", "T2"):
            count = len(brute_force_labellings(fw)) if count is None else count
            note = r["notes"]["models" if r["theorem"] == "T_PL3" else "labellings"]
            require(note == count, f"{r['theorem']} counts {note}, brute force {count}")
        if r["theorem"].startswith("EQ_"):
            grid = "exhaustive" if 5 ** len(fw) <= 100_000 else "sampled(100000)"
            require(r["notes"]["grid"] == grid, f"{r['theorem']} grid is {r['notes']['grid']}")
    return set()


def _check_solve_reports(fw, logic: str, payload, labelling_check: bool) -> None:
    require(payload["logic"] == logic, "solve reports the wrong logic")
    for r in payload["reports"]:
        if not r["converged"]:
            continue
        v = {x: float(r["solution"][x]) for x in fw.universe}
        require(all(0.0 <= y <= 1.0 for y in v.values()), "solution outside [0, 1]")
        require(residual(fw, logic, v) <= RESIDUAL_TOL, f"{logic} solution residual too large")
        if labelling_check and not labelling_ok(fw, ternarize(v)):
            raise TernarizeError(f"{logic} solution ternarizes to a labelling breaking the conditions")


def _exact_solutions(fw, payload) -> set[tuple]:
    found = set()
    for s in payload["ternary_solutions"]:
        v = {x: Fraction(s[x]) for x in fw.universe}
        require(all(v[x] == rhs(fw, payload["logic"], x, v) for x in fw.universe),
                f"exact {payload['logic']} solution does not solve the equations")
        found.add(tuple(v[x] for x in fw.universe))
    return found


def _logic(argv) -> str:
    return argv[argv.index("--logic") + 1]


def check_solve(fw, ops, out, fault=None) -> set:
    """``fault`` names the kept fault of a fixed case, if any: "stall", the
    Product solve exits 1 with no converged start; "ternarize", a converged
    Product solution ternarizes to a non-labelling.  Only the Product float
    solve may show it; every other operation must pass."""
    shown = set()
    for argv in ops:
        logic = _logic(argv)
        if "--exact" in argv:
            exact = _exact_solutions(fw, _ok(out, argv))
            want = brute_force_labellings(fw) if logic == "godel" else \
                brute_force_solutions(fw, logic)
            require(exact == want, f"exact {logic} solutions differ from the brute-force ones")
            continue
        rc, text = out[argv]
        kept = fault if logic == "product" else None
        if kept == "stall" and rc != 0:
            require(rc == 1, f"{' '.join(argv)} exited {rc}")
            payload = json.loads(text)
            require(payload["logic"] == logic and payload["reports"] and
                    not any(r["converged"] for r in payload["reports"]),
                    "a stalled solve reports a converged start")
            shown.add(argv)
            continue
        try:
            _check_solve_reports(fw, logic, _ok(out, argv), logic != "lukasiewicz")
        except TernarizeError:
            if kept != "ternarize":
                raise
            shown.add(argv)
    return shown


def check_large(fw, ops, out, assignments) -> None:
    check, encode, eval_g, eval_p, godel, product, luk = ops
    rc, text = out[check]
    require(rc == 0 and text == fw.canonical(), "check output is not the canonical form")
    check_encoding_json(fw, _ok(out, encode)["formula"])
    for argv, logic, mode in ((eval_g, "godel", "exact"), (eval_p, "product", "float")):
        got = _ok(out, argv)
        require(got["logic"] == logic and got["mode"] == mode, f"eval reports {got}")
        want = encoding_value(fw, logic, assignments[logic])
        if mode == "exact":
            require(Fraction(got["value"]) == want, f"Gödel value {got['value']}, expected {want}")
        else:
            require(abs(got["value"] - want) <= EVAL_REL_TOL * max(abs(want), 1e-300),
                    f"Product value {got['value']}, expected {want}")
        require(got["is_model"] == (want == 1), "is_model disagrees with the value")
    for argv, logic in ((godel, "godel"), (product, "product"), (luk, "lukasiewicz")):
        payload = _ok(out, argv)
        require(any(r["converged"] for r in payload["reports"]), f"{logic} solve never converged")
        _check_solve_reports(fw, logic, payload, logic != "lukasiewicz")
    return set()
