"""Seeded framework generator of the benchmark.

It is separate from ``hafs.generate_random`` on purpose: a change to the
program's generator must not change the benchmark's inputs.  Frameworks
are plain names and tuples; the program only ever sees their text.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np

_KIND_ORDER = {"arg": 0, "att": 1, "supp": 2}
_MAX_TRIES = 500


class Framework:
    """Arguments and named attack/support edges, keyed by qualified id."""

    def __init__(self, args, rels):
        self.args = tuple(args)
        self.rels = tuple(rels)  # (kind, name, source name, target name)
        kind_of = {a: "arg" for a in self.args}
        kind_of.update({name: kind for kind, name, _, _ in self.rels})
        self.qid = {name: f"{kind}:{name}" for name, kind in kind_of.items()}
        self.universe = tuple(sorted(
            self.qid.values(), key=lambda q: (_KIND_ORDER[q.split(":")[0]], q.split(":")[1])))
        self.attackers = {x: [] for x in self.universe}
        self.supporters = {x: [] for x in self.universe}
        for kind, name, src, tgt in sorted(self.rels, key=lambda r: r[1]):
            table = self.attackers if kind == "att" else self.supporters
            table[self.qid[tgt]].append((self.qid[src], self.qid[name]))

    def __len__(self):
        return len(self.universe)

    @property
    def targeted(self) -> int:
        """Number of elements with at least one incoming edge."""
        return sum(1 for x in self.universe if self.attackers[x] or self.supporters[x])

    def support_cyclic(self) -> bool:
        out = {}
        for kind, _, src, tgt in self.rels:
            if kind == "supp":
                out.setdefault(src, []).append(tgt)
        state = {}
        for root in out:
            if root in state:
                continue
            state[root] = 1
            stack = [(root, iter(out.get(root, ())))]
            while stack:
                node, it = stack[-1]
                for nxt in it:
                    if state.get(nxt) == 1:
                        return True
                    if nxt not in state:
                        state[nxt] = 1
                        stack.append((nxt, iter(out.get(nxt, ()))))
                        break
                else:
                    state[node] = 2
                    stack.pop()
        return False

    def text(self, rng: random.Random) -> str:
        """Statements in a seeded order, so the parser resolves forward references."""
        lines = [f"arg({a})." for a in self.args]
        lines += [f"{kind}({name},{src},{tgt})." for kind, name, src, tgt in self.rels]
        rng.shuffle(lines)
        return "\n".join(lines) + "\n"

    def canonical(self) -> str:
        """The canonical form ``hafs check`` must print."""
        lines = [f"arg({a})." for a in sorted(self.args)]
        for kind in ("att", "supp"):
            lines += [f"{kind}({name},{src},{tgt})."
                      for k, name, src, tgt in sorted(self.rels, key=lambda r: r[1]) if k == kind]
        return "\n".join(lines) + "\n"


def _draw_once(rng, n_args, n_atts, n_supps, ho, acyclic, targeted, loops):
    args = [f"a{i}" for i in range(n_args)]
    schedule = ["att"] * n_atts + ["supp"] * n_supps
    rng.shuffle(schedule)
    rank = {a: rng.random() for a in args}  # supports only climb in rank when acyclic
    rels, pairs, earlier, hit = [], set(), [], set()
    counts = {"att": 0, "supp": 0}

    def endpoint():
        return rng.choice(earlier if earlier and rng.random() < ho else args)

    def target():
        pool = earlier if earlier and rng.random() < ho else args
        if targeted is not None:  # steer towards exactly ``targeted`` distinct targets
            steer = [x for x in pool if (x in hit) == (len(hit) >= targeted)]
            pool = steer or pool
        return rng.choice(pool)

    for kind in schedule:
        for _ in range(50):
            src, tgt = endpoint(), target()
            if (kind, src, tgt) in pairs or (src == tgt and not loops):
                continue
            if kind == "supp" and acyclic and not rank[src] < rank[tgt]:
                continue
            break
        else:
            return None
        name = f"{'r' if kind == 'att' else 't'}{counts[kind]}"
        counts[kind] += 1
        pairs.add((kind, src, tgt))
        hit.add(tgt)
        rels.append((kind, name, src, tgt))
        earlier.append(name)
        rank[name] = rng.random()
    return Framework(args, rels)


def draw(rng: random.Random, n_args: int, n_atts: int, n_supps: int, *,
         ho: float, cyclic: bool, targeted: int | None = None,
         loops: bool = True) -> Framework:
    """One framework with exactly these counts.

    ``ho`` is the chance that an endpoint is an earlier relation rather
    than an argument.  ``cyclic`` asks for a support cycle (a self-support
    counts); otherwise supports follow a random rank and cannot close one.
    ``targeted`` asks for exactly that many elements with incoming edges;
    ``loops`` allows relations whose source is their target.  Relations
    reference only arguments and earlier relations, so every draw is
    well-founded.
    """
    for _ in range(_MAX_TRIES):
        fw = _draw_once(rng, n_args, n_atts, n_supps, ho, not cyclic, targeted, loops)
        if fw is None or fw.support_cyclic() != cyclic:
            continue
        if targeted is not None and fw.targeted != targeted:
            continue
        return fw
    raise RuntimeError(f"no framework with args={n_args} atts={n_atts} supps={n_supps} "
                       f"ho={ho} cyclic={cyclic} targeted={targeted}")


# -- screening by the benchmark's own damped iteration ---------------------------


def settle(fw: Framework, logic: str, rng: random.Random, budget: int, randoms: int = 4):
    """Run x <- (x + F(x)) / 2 from all-0, all-1, all-1/2 and ``randoms``
    random starts, F being the closed-form equation folds.  Returns the values
    (element-major, one column per start) once every start is within 1e-9
    of a fixed point, or None if some start needs more than ``budget``
    iterations, which happens near degenerate fixed points."""
    idx = {x: i for i, x in enumerate(fw.universe)}
    n = len(fw)
    src, rel, tgt, is_supp = [], [], [], []
    for x in fw.universe:
        for table, flag in ((fw.attackers, False), (fw.supporters, True)):
            for s, r in table[x]:
                src.append(idx[s]), rel.append(idx[r]), tgt.append(idx[x]), is_supp.append(flag)
    src, rel, tgt = np.array(src, dtype=np.intp), np.array(rel, dtype=np.intp), np.array(tgt, dtype=np.intp)
    is_supp = np.array(is_supp, dtype=bool)[:, None]
    starts = [[0.0] * n, [1.0] * n, [0.5] * n] + \
        [[rng.random() for _ in range(n)] for _ in range(randoms)]
    x = np.array(starts).T

    def fold(x):
        a = np.where(is_supp, 1.0 - x[src], x[src])
        r = x[rel]
        if logic == "godel":
            out = np.ones_like(x)
            np.minimum.at(out, tgt, 1.0 - np.minimum(a, r))
        elif logic == "product":
            out = np.ones_like(x)
            np.multiply.at(out, tgt, 1.0 - a * r)
        else:
            excess = np.zeros_like(x)
            np.add.at(excess, tgt, -np.maximum(0.0, a + r - 1.0))
            out = np.maximum(0.0, 1.0 + excess)
        return out

    for _ in range(budget):
        fx = fold(x)
        if np.abs(x - fx).max() <= 1e-9:
            return x
        x = 0.5 * x + 0.5 * fx
    return None


# -- workloads ---------------------------------------------------------------------
#
# Each builder returns the cases of one round: (framework, stdin text, the
# argv of each operation on it, extra data for the checks).  The counts per
# stratum are fixed, so every seed gives rounds of the same make-up and the
# same number of operations; the seed draws the structure inside each stratum.

SCREEN_BUDGET = 1000

def _parse(text: str) -> Framework:
    """A Framework from statements written as ``hafs`` reads them."""
    args, rels = [], []
    for stmt in text.replace(" ", "").split(".")[:-1]:
        kind, _, inner = stmt.partition("(")
        names = inner.rstrip(")").split(",")
        if kind == "arg":
            args += names
        else:
            rels.append((kind, *names))
    return Framework(args, rels)


# Fixed `solve` cases that show faults of the program's Product solver at
# degenerate fixed points, where the damped step decays like 1/k.  They are in
# every round of every seed, so their failed operations are the same share of
# every run; ``checks.check_solve`` accepts the named fault on the Product solve
# and nothing else.  Their float solves use the all-0, all-1 and all-1/2
# starts only (--restarts 0): the fault shows from those already, and each
# random start would add a second or more of the same stalled iteration.
#  - "stall": the smallest such system.  Every start uses all 100 000
#    iterations and the solve exits 1, although a1 = r1 = 0 solves it exactly.
#  - "ternarize": the all-0 start stops at residual 1e-9 after 89 392
#    iterations with values 4.5e-5 from the exact 0/1, so the reported
#    solution ternarizes to a labelling that breaks the per-element
#    conditions.  Its 20 elements are beyond the exact solvers' bound.
FIXED_STARTS = tuple(("solve", "-", "--logic", logic, "--restarts", "0")
                     for logic in ("godel", "product", "lukasiewicz"))
KEPT_FAULTS = (
    (_parse("arg(a1). att(r1,a1,a1). supp(t1,a1,r1). supp(t2,a1,a1)."), "stall",
     FIXED_STARTS + (("solve", "-", "--exact", "--logic", "godel"),
                     ("solve", "-", "--exact", "--logic", "lukasiewicz"))),
    (_parse("arg(a0). arg(a1). arg(a2). arg(a3). arg(a4). arg(a5). arg(a6). arg(a7). "
            "att(r0,a2,a4). att(r1,t0,a0). att(r2,a7,t1). att(r3,a7,t2). att(r4,a4,a6). "
            "att(r5,t2,a1). supp(t0,r0,a1). supp(t1,a3,a7). supp(t2,a1,t0). supp(t3,t1,a3). "
            "supp(t4,a3,a6). supp(t5,t2,r1)."), "ternarize", FIXED_STARTS),
)


def _draw_sized(rng, n, arg_share, dense=False, split=None, targeted=None, **kw):
    """A framework of ``n`` elements, about ``arg_share`` of them arguments
    and the rest attacks and supports: ``split`` attacks, or a random share
    of them.  ``dense`` asks every relation to hit a distinct element.  A
    split that admits no framework (say, two supports between two arguments
    without a cycle) is drawn again."""
    for _ in range(_MAX_TRIES):
        n_args = min(n - 1, max(2, round(n * arg_share)))
        m = n - n_args
        n_atts = split if split is not None else rng.randint(m // 3, m - m // 3)
        n_atts = min(n_atts, m - kw["cyclic"])
        try:
            return draw(rng, n_args, n_atts, m - n_atts,
                        targeted=m if dense else targeted, **kw)
        except RuntimeError:
            continue
    raise RuntimeError(f"no framework of {n} elements with {kw}")


ENUMERATE_OPS = (("labellings", "-", "--semantics", "complete"),
                 ("labellings", "-", "--semantics", "preferred"),
                 ("extensions", "-", "--semantics", "complete"),
                 ("extensions", "-", "--semantics", "preferred"),
                 ("verify", "-", "--theorem", "T_PL3", "--bound", "16"))
SOLVE_OPS = (("solve", "-", "--logic", "godel"), ("solve", "-", "--logic", "product"),
             ("solve", "-", "--logic", "lukasiewicz"),
             ("solve", "-", "--exact", "--logic", "godel"),
             ("solve", "-", "--exact", "--logic", "lukasiewicz"))


def large_ops(exact: dict, near: dict) -> tuple:
    """Operations on one large framework, given its two eval assignments."""
    return (("check", "-"), ("encode", "-", "--format", "json"),
            ("eval", "-", "--logic", "godel", "--assignment",
             json.dumps({x: str(v) for x, v in exact.items()})),
            ("eval", "-", "--logic", "product", "--assignment", json.dumps(near)),
            ("solve", "-", "--logic", "godel"), ("solve", "-", "--logic", "product"),
            ("solve", "-", "--logic", "lukasiewicz"))


ENUMERATE_SIZES = {10: 2, 11: 4, 12: 1, 13: 1, 14: 1}


def enumerate_cases(rng):
    """|U| = 10..14, cycling through support-acyclic and -cyclic, sparse
    (about 35% of the elements targeted) and dense (every relation hits a
    distinct element).  Half the relations are attacks, so a size's
    extension scans cost about the same on every seed."""
    sizes = [n for n, count in ENUMERATE_SIZES.items() for _ in range(count)]
    cases = []
    for j, n in enumerate(sizes):
        cyclic, dense = bool(j % 2), bool(j // 2 % 2)
        share = 0.25 if dense else 0.5
        m = n - round(n * share)
        kw = {"dense": True} if dense else {"targeted": round(0.35 * n)}
        fw = _draw_sized(rng, n, share, split=m // 2, ho=0.3, cyclic=cyclic, **kw)
        cases.append((fw, fw.text(rng), ENUMERATE_OPS, None))
    return cases


VERIFY_SIZES = {3: 8, 4: 20, 5: 6, 6: 4, 7: 2, 8: 1}
THEOREMS = ("T1", "T2", "T_PL3", "EQ_G", "EQ_P", "EQ_L", "T16", "IDEM", "CORR_G")


def verify_cases(rng):
    """Small frameworks, half of them support-cyclic, one ``verify`` each
    with every theorem id that applies (T2 needs acyclic supports)."""
    cases = []
    for n, count in VERIFY_SIZES.items():
        for i in range(count):
            if n == 8:  # every relation hits a distinct element: a long Product fold
                # would send the sampled grid to Python ints and triple its cost
                fw = _draw_sized(rng, n, 0.5, dense=True, ho=0.3, cyclic=i % 2 == 1)
            else:
                fw = _draw_sized(rng, n, rng.choice((0.34, 0.5)), ho=(0.0, 0.3, 0.6)[i % 3],
                                 cyclic=i % 2 == 1)
            argv = ["verify", "-"]
            for theorem in THEOREMS:
                if theorem != "T2" or not fw.support_cyclic():
                    argv += ["--theorem", theorem]
            cases.append((fw, fw.text(rng), [tuple(argv)], None))
    return cases


SOLVE_SEEDED = 40


def solve_cases(rng):
    """|U| = 3..6 frameworks whose three systems all settle within
    SCREEN_BUDGET damped steps, plus the fixed KEPT_FAULTS cases."""
    cases = [(fw, fw.canonical(), ops, fault) for fw, fault, ops in KEPT_FAULTS]
    while len(cases) < len(KEPT_FAULTS) + SOLVE_SEEDED:
        i = len(cases) - len(KEPT_FAULTS)
        n = 3 + i % 4
        fw = _draw_sized(rng, n, rng.choice((0.34, 0.5)), ho=(0.0, 0.3, 0.6)[i % 3],
                         cyclic=i % 2 == 1)
        if all(settle(fw, logic, rng, SCREEN_BUDGET) is not None
               for logic in ("godel", "product", "lukasiewicz")):
            cases.append((fw, fw.text(rng), SOLVE_OPS, None))
    return cases


LARGE_SIZES = (1000, 1000, 1000)
LARGE_BUDGET = 100


def _single_fixed_point(x) -> bool:
    """Every start of ``settle`` reached the same point."""
    return x is not None and float(np.ptp(x, axis=1).max()) <= 1e-6


def large_cases(rng):
    """Support-acyclic frameworks without self-loops whose three systems
    settle to one fixed point within LARGE_BUDGET steps from every one of
    nineteen starts.  Most do; on the others (about one in ten) some
    start of the program's solver needs two or three times as many steps,
    or it reports several fixed points, and the framework's solves take
    two or three times as long, which would make a round's cost depend on
    the seed.  The eval assignments are an exact one with values k/97 and
    a float one near the Product fixed point."""
    cases = []
    for n in LARGE_SIZES:
        while True:
            fw = _draw_sized(rng, n, 0.4, ho=0.3, cyclic=False, loops=False)
            fixed = settle(fw, "product", rng, LARGE_BUDGET, randoms=16)
            if _single_fixed_point(fixed) and all(
                    _single_fixed_point(settle(fw, logic, rng, LARGE_BUDGET, randoms=16))
                    for logic in ("godel", "lukasiewicz")):
                break
        exact = {x: Fraction(rng.randint(1, 96), 97) for x in fw.universe}
        near = {x: min(1.0, max(0.0, float(v) + rng.uniform(-1e-3, 1e-3)))
                for x, v in zip(fw.universe, fixed[:, 0])}
        cases.append((fw, fw.text(rng), large_ops(exact, near), {"godel": exact, "product": near}))
    return cases


WORKLOADS = {"enumerate": enumerate_cases, "verify": verify_cases,
             "solve": solve_cases, "large": large_cases}
