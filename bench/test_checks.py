"""Tests of the benchmark's own checks: hand-worked cases pass, and every
check rejects a corrupted copy of a real output.

    python3 -m pytest bench
"""

import io
import json
import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import hafs.cli  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from gen import Framework  # noqa: E402

SELF_SUPPORT = Framework(["a"], [("supp", "t1", "a", "a")])
SELF_ATTACK = Framework(["a"], [("att", "r1", "a", "a")])
# a attacks b, which supports c: {a} defeats b directly and c through t1
CHAIN = Framework(["a", "b", "c", "d"], [("att", "r1", "a", "b"), ("supp", "t1", "b", "c"),
                                         ("att", "r2", "d", "c"), ("att", "r3", "c", "d")])


def outputs(fw, ops):
    out = {}
    for argv in ops:
        stdout = io.StringIO()
        rc = hafs.cli.run(list(argv), stdin=io.StringIO(fw.canonical()), stdout=stdout,
                          stderr=io.StringIO())
        out[argv] = (rc, stdout.getvalue())
    return out


def edit(out, argv, change):
    """A copy of ``out`` whose JSON output for ``argv`` went through ``change``."""
    rc, text = out[argv]
    payload = json.loads(text)
    change(payload)
    return {**out, argv: (rc, json.dumps(payload))}


ENUMERATE_OPS, SOLVE_OPS = gen.ENUMERATE_OPS, gen.SOLVE_OPS


def test_self_support_has_three_complete_labellings():
    family = checks.brute_force_labellings(SELF_SUPPORT)
    assert family == {(v, checks.ONE) for v in checks.THREE}
    out = outputs(SELF_SUPPORT, ENUMERATE_OPS)
    assert len(json.loads(out[ENUMERATE_OPS[0]][1])["labellings"]) == 3
    checks.check_enumerate(SELF_SUPPORT, ENUMERATE_OPS, out)


@pytest.mark.parametrize("logic", ["godel", "product", "lukasiewicz"])
def test_self_attack_has_one_solution(logic):
    half = {"arg:a": checks.HALF, "att:r1": checks.ONE}
    assert checks.brute_force_solutions(SELF_ATTACK, logic) == {(checks.HALF, checks.ONE)}
    assert checks.residual(SELF_ATTACK, logic, half) == 0
    values = gen.settle(SELF_ATTACK, logic, random.Random(0), 1000)
    assert values is not None and abs(values - [[0.5], [1.0]]).max() <= 1e-8


def test_self_attack_solve_outputs_pass():
    checks.check_solve(SELF_ATTACK, SOLVE_OPS, outputs(SELF_ATTACK, SOLVE_OPS))


def test_enumerate_rejects_flipped_labelling_value():
    out = outputs(CHAIN, ENUMERATE_OPS)
    checks.check_enumerate(CHAIN, ENUMERATE_OPS, out)

    def flip(payload):
        lab = payload["labellings"][0]
        lab["arg:b"] = "1" if lab["arg:b"] != "1" else "0"

    with pytest.raises(checks.CheckError):
        checks.check_enumerate(CHAIN, ENUMERATE_OPS, edit(out, ENUMERATE_OPS[0], flip))


@pytest.mark.parametrize("which", [2, 3])  # complete, preferred
def test_enumerate_rejects_dropped_extension(which):
    fw = Framework(["a", "b"], [("att", "r1", "a", "b"), ("att", "r2", "b", "a")])
    out = outputs(fw, ENUMERATE_OPS)
    checks.check_enumerate(fw, ENUMERATE_OPS, out)
    with pytest.raises(checks.CheckError):
        checks.check_enumerate(fw, ENUMERATE_OPS,
                               edit(out, ENUMERATE_OPS[which], lambda p: p["extensions"].pop()))


def test_verify_rejects_wrong_model_count():
    (fw, _, ops, _) = gen.verify_cases(random.Random(0))[0]
    out = outputs(fw, ops)
    checks.check_verify(fw, ops, out)

    def recount(payload):
        for report in payload["reports"]:
            if report["theorem"] == "T_PL3":
                report["notes"]["models"] += 1

    with pytest.raises(checks.CheckError):
        checks.check_verify(fw, ops, edit(out, ops[0], recount))


@pytest.mark.parametrize("op", [0, 1, 2])
def test_solve_rejects_moved_solution(op):
    fw, ops = CHAIN, SOLVE_OPS
    out = outputs(fw, ops)
    checks.check_solve(fw, ops, out)

    def move(payload):
        solution = payload["reports"][0]["solution"]
        solution["arg:c"] += 1e-3 if solution["arg:c"] < 0.5 else -1e-3

    with pytest.raises(checks.CheckError):
        checks.check_solve(fw, ops, edit(out, ops[op], move))


def test_solve_rejects_exact_solution_changed():
    ops = SOLVE_OPS
    out = outputs(CHAIN, ops)

    def change(payload):
        payload["ternary_solutions"][0]["arg:a"] = "1/2"

    with pytest.raises(checks.CheckError):
        checks.check_solve(CHAIN, ops, edit(out, ops[3], change))


def test_solve_rejects_failed_exit_without_kept_fault():
    ops = SOLVE_OPS
    out = outputs(CHAIN, ops)
    rc, text = out[ops[1]]
    with pytest.raises(checks.CheckError):
        checks.check_solve(CHAIN, ops, {**out, ops[1]: (1, text)})


@pytest.mark.parametrize("case", range(len(gen.KEPT_FAULTS)))
def test_kept_faults_show_on_the_product_solve_only(case):
    fw, fault, ops = gen.KEPT_FAULTS[case]
    out = outputs(fw, ops)
    (product,) = [argv for argv in ops if "product" in argv and "--exact" not in argv]
    assert checks.check_solve(fw, ops, out, fault) == {product}
    with pytest.raises(checks.CheckError):  # the same output without the fault named
        checks.check_solve(fw, ops, out)
    with pytest.raises(checks.CheckError):  # another exit code than the fault's
        checks.check_solve(fw, ops, {**out, product: (2, out[product][1])}, fault)

    def move(payload):
        solution = payload["reports"][0]["solution"]
        x = fw.universe[0]
        solution[x] += 1e-3 if solution[x] < 0.5 else -1e-3

    with pytest.raises(checks.CheckError):  # the other solves are still checked
        checks.check_solve(fw, ops, edit(out, ops[0], move), fault)


def test_large_checks_reject_changed_eval_value():
    rng = random.Random(0)
    while True:  # as in the workload: systems that settle, so solutions ternarize cleanly
        fw = gen.draw(rng, 8, 6, 6, ho=0.3, cyclic=False, loops=False)
        if all(gen.settle(fw, logic, rng, gen.SCREEN_BUDGET) is not None
               for logic in ("godel", "product", "lukasiewicz")):
            break
    exact = {x: Fraction(rng.randint(1, 96), 97) for x in fw.universe}
    near = {x: rng.uniform(0.2, 0.8) for x in fw.universe}
    ops = gen.large_ops(exact, near)
    assignments = {"godel": exact, "product": near}
    out = outputs(fw, ops)
    checks.check_large(fw, ops, out, assignments)

    def bump_exact(payload):
        payload["value"] = str(Fraction(payload["value"]) + Fraction(1, 97))

    def bump_float(payload):
        payload["value"] *= 1 + 1e-6

    for op, change in ((2, bump_exact), (3, bump_float)):
        with pytest.raises(checks.CheckError):
            checks.check_large(fw, ops, edit(out, ops[op], change), assignments)
    with pytest.raises(checks.CheckError):
        checks.check_large(fw, ops, {**out, ops[0]: (0, out[ops[0]][1].replace("a1", "a2", 1))},
                           assignments)


def test_encoding_check_rejects_missing_part():
    fw = CHAIN
    formula = json.loads(outputs(fw, [("encode", "-", "--format", "json")])
                         [("encode", "-", "--format", "json")][1])["formula"]
    checks.check_encoding_json(fw, formula)
    formula["children"][1]["rhs"] = {"op": "top"}  # arg:b loses its attack part
    with pytest.raises(checks.CheckError):
        checks.check_encoding_json(fw, formula)
