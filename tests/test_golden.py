"""CLI stdout pinned across commits.

``tests/data/cli_golden.jsonl`` holds, one line per CLI call, a framework
text from a small seeded corpus, the verb and flags run on it, the exit
code and the sha256 of stdout.  Criterion 10 only compares reruns within
one commit; this test compares against the recorded output, so a
refactor that changes any printed byte fails here.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src:tests python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from pathlib import Path

import pytest

import hafs
from hafs.cli import run

from helpers import corpus

DATA = Path(__file__).parent / "data" / "cli_golden.jsonl"

SEMANTICS = ("complete", "grounded", "preferred", "stable")


def _frameworks() -> list[str]:
    texts = ["arg(a). supp(t1,a,a).", "arg(a). att(r1,a,a).",
             "arg(a). arg(b). att(r1,a,b). att(r2,b,a)."]
    texts += [hafs.serialize(h) for h, _ in corpus(10, max_u=6, max_args=3, seed_base=20_000)]
    texts.append(hafs.serialize(hafs.generate_random(3, 3, 2, seed=5, support_acyclic=False,
                                                     higher_order_prob=0.5)))
    return [hafs.serialize(hafs.parse(t)) for t in texts]


def _argvs(text: str, index: int) -> list[list[str]]:
    """Every verb on one framework, read from stdin."""
    elements = [e.qualified for e in hafs.parse(text).universe]
    rng = random.Random(index)
    three = {e: rng.choice(["0", "1/2", "1"]) for e in elements}
    floats = {e: round(rng.random(), 6) for e in elements}
    argvs = [["check", "-"]]
    argvs += [["labellings", "-", "--semantics", s] for s in SEMANTICS]
    argvs += [["extensions", "-", "--semantics", s] for s in SEMANTICS]
    argvs += [["encode", "-", "--format", "text"], ["encode", "-", "--format", "json"]]
    argvs += [["eval", "-", "--logic", "l3", "--assignment", json.dumps(three)],
              ["eval", "-", "--logic", "godel", "--assignment", json.dumps(floats)]]
    argvs += [["solve", "-", "--logic", name, "--seed", str(index)]
              for name in ("godel", "product", "lukasiewicz")]
    argvs += [["solve", "-", "--logic", "product", "--max-iter", "60", "--restarts", "1"],
              ["solve", "-", "--logic", "godel", "--exact"]]
    argvs += [["verify", "-", "--theorem", t, "--seed", str(index), "--float-samples", "20",
               "--grid-cap", "20000"]
              for t in hafs.THEOREM_IDS]
    argvs += [["verify", "-", "--theorem", "T16", "--logic", "product", "--seed", str(index)]]
    return argvs


def _invoke(argv: list[str], text: str) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(text), stdout=stdout, stderr=stderr)
    return code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()


def _record() -> list[dict]:
    cases = []
    for index, text in enumerate(_frameworks()):
        for argv in _argvs(text, index):
            code, digest = _invoke(argv, text)
            cases.append({"stdin": text, "argv": argv, "exit": code, "sha256": digest})
    return cases


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("".join(json.dumps(case) + "\n" for case in _record()), encoding="utf-8")
    raise SystemExit(0)

CASES = [json.loads(line) for line in DATA.read_text(encoding="utf-8").splitlines()]
FRAMEWORKS = list(dict.fromkeys(case["stdin"] for case in CASES))


@pytest.mark.parametrize("framework", range(len(FRAMEWORKS)))
def test_cli_stdout_matches_recorded(framework):
    text = FRAMEWORKS[framework]
    for case in CASES:
        if case["stdin"] == text:
            assert _invoke(case["argv"], text) == (case["exit"], case["sha256"]), case["argv"]
