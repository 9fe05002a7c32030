import collections
import json
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import hafs
from hafs import (ElementId, HAFS, InfeasibleParametersError, Kind, ParseError,
                  Relation, SupportChain, ValidationError, argument, attack_id,
                  generate_random, is_support_acyclic, parse, serialize, support_id)

from helpers import corpus, kahn_is_acyclic, reference_incoming, reference_parse

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestElementId:
    def test_qualified_round_trip(self):
        for eid in (argument("a"), attack_id("r1"), support_id("t1")):
            assert ElementId.from_qualified(eid.qualified) == eid

    def test_ordering_arguments_before_attacks_before_supports(self):
        ids = [support_id("a"), attack_id("z"), argument("m"), attack_id("a")]
        assert [x.qualified for x in sorted(ids)] == ["arg:m", "att:a", "att:z", "supp:a"]

    def test_bad_name_rejected(self):
        with pytest.raises(ValidationError):
            argument("1abc")
        with pytest.raises(ValidationError):
            ElementId.from_qualified("nope:a")

    def test_equality_is_kind_and_name(self):
        assert argument("a") != attack_id("a")
        assert argument("a") == argument("a")

    def test_hash_is_the_sort_key_hash_after_pickling_elsewhere(self):
        import pickle
        eid = attack_id("r1")
        assert hash(eid) == hash(eid._key) == hash((1, "r1"))
        assert hash(parse("arg(a). att(r1,a,a).").universe[1]) == hash(eid)
        # str hashes depend on the process's hash seed; a cached hash must not travel
        dumped = subprocess.run(
            [sys.executable, "-c", "import pickle, sys; from hafs import attack_id; "
             "sys.stdout.buffer.write(pickle.dumps({attack_id('r1'): 1}))"],
            capture_output=True, check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": "1"}).stdout
        assert pickle.loads(dumped)[eid] == 1


class TestParse:
    def test_minimal_framework(self):
        h = parse("arg(a).")
        assert [x.qualified for x in h.universe] == ["arg:a"]
        assert h.attacks == () and h.supports == ()

    def test_self_support_framework(self, example3):
        assert [x.qualified for x in example3.universe] == ["arg:a", "supp:t1"]
        (t1,) = example3.supports
        assert t1.source == argument("a") and t1.target == argument("a")

    def test_self_referential_relation_rejected(self):
        with pytest.raises(ValidationError, match="references itself"):
            parse("arg(a). att(r1,r1,a).")

    def test_comments_and_whitespace(self):
        h = parse("% header\narg( a ).  % trailing\n\natt(r1 , a, a).")
        assert len(h) == 2

    def test_forward_references_resolve(self):
        h = parse("att(r1,a,t1). supp(t1,a,a). arg(a).")
        assert len(h.attacks) == 1
        assert h.attacks[0].target == support_id("t1")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("arg(a).\natt(r1,a).")
        assert err.value.line == 2

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("arg(a); ")

    def test_duplicate_name(self):
        with pytest.raises(ValidationError, match="duplicate name"):
            parse("arg(a). att(a,a,a).")

    def test_duplicate_pair_same_kind(self):
        with pytest.raises(ValidationError, match="duplicate att"):
            parse("arg(a). arg(b). att(r1,a,b). att(r2,a,b).")

    def test_same_pair_different_kind_allowed(self):
        h = parse("arg(a). arg(b). att(r1,a,b). supp(t1,a,b).")
        assert len(h.attacks) == 1 and len(h.supports) == 1

    def test_dangling_reference(self):
        with pytest.raises(ValidationError, match="dangling"):
            parse("arg(a). att(r1,a,zz).")

    def test_definitional_cycle(self):
        with pytest.raises(ValidationError, match="definitional cycle"):
            parse("arg(a). att(r1,r2,a). att(r2,r1,a).")

    def test_truncated_input(self):
        with pytest.raises(ParseError):
            parse("arg(a")


def outcome(parser, text):
    """A parse result as comparable data: the framework and its canonical
    text, or the error's type, message, line and column."""
    try:
        h = parser(text)
    except (ParseError, ValidationError) as err:
        return (type(err).__name__, str(err), getattr(err, "line", None),
                getattr(err, "column", None))
    return ("ok", h, serialize(h))


# pieces that mutations insert: tokens, separators, comments and characters
# that start no token
PIECES = ("arg", "att", "supp", "(", ")", ",", ".", "a", "b", "r1", "t1", "x_2",
          " ", "\t", "\n", "\r", "\r\n", "\u00a0", "\u2028", "% note\n", "%", "\u00e9", "!", "1", ";")

FIXED_TEXTS = (
    "",
    "% a comment at the end of the text, with no newline",
    "arg(a). % trailing",
    "arg(a).\r\natt(r1,a,a).\r\n% done\r\n",
    "arg(a).\r\rarg(b;",            # a lone \r does not end a line
    "arg(a)\u00a0.\u2028arg(\u00a0b\u2028).",
    "arg(a).\u2028att(r1,a,b",
    "arg(a). att(r1,a,a). arg(\u00e9).",
    "arg(a). arg(b)!",
    "arg(a). att(r1,a).",            # a deleted token
    "arg(a). att(r1,,a,a).",         # a duplicated token
    "arg(a). att(r1,a,a)).",
    "arg(a). (att r1,a,a).",         # swapped tokens
    "arg(a). att(r1,a,a) .arg(b).",
    "arg(a). att(r1,a,a) arg(b). ;",  # a lexical error after a grammar error
    "arg(a",
    "arg(a,",
    "arg",
    "att(r1,a,b)",
    "att(r1,a,b)\n% the end\n",
    "arg(1a).",
    "arg(a).\n\n   bogus(x).",
    "argx(a).",
    "arg(a,b,c).",
    "supp(t1,a,a,a).",
    "arg(a). att(r1,a,zz). arg(a).",  # a duplicate name wins over a dangling one
    "arg(a). att(r1,a,zz). att(r2,yy,a).",
    "arg(a). att(r1,r1,a).",
    "arg(a). att(r1,a,r2). att(r2,a,r1).",
    "arg(b" + "%" * 64 + "\n!",
)


def mutate(text: str, edits) -> str:
    """``text`` with each (operation, index, index, piece) edit applied to
    its token-level pieces."""
    pieces = re.findall(r"[a-zA-Z_][a-zA-Z0-9_]*|\s+|%[^\n]*|.", text)
    for op, i, j, piece in edits:
        if not pieces:
            pieces = [piece]
            continue
        i, j = i % len(pieces), j % len(pieces)
        if op == "delete":
            del pieces[i]
        elif op == "duplicate":
            pieces.insert(i, pieces[i])
        elif op == "swap":
            pieces[i], pieces[j] = pieces[j], pieces[i]
        else:
            pieces.insert(i, piece)
    return "".join(pieces)


def noisy_text(h, rng: random.Random) -> str:
    r"""``serialize(h)`` with shuffled lines, comments and ``\r\n`` line ends."""
    lines = serialize(h).splitlines()
    rng.shuffle(lines)
    return "".join(line + rng.choice(("", " % c", "\t%%")) + rng.choice(("\n", "\r\n"))
                   for line in lines)


MUTATION_BASES = [noisy_text(h, random.Random(i)) for i, (h, _) in enumerate(corpus(30, seed_base=4100))]
EDITS = st.lists(st.tuples(st.sampled_from(("delete", "duplicate", "swap", "insert")),
                           st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                           st.sampled_from(PIECES)), max_size=4)


class TestParseAgainstOracle:
    @pytest.mark.parametrize("text", FIXED_TEXTS)
    def test_fixed_cases(self, text):
        assert outcome(parse, text) == outcome(reference_parse, text)

    @given(base=st.sampled_from(MUTATION_BASES), edits=EDITS)
    def test_mutated_texts(self, base, edits):
        text = mutate(base, edits)
        assert outcome(parse, text) == outcome(reference_parse, text)

    @given(st.lists(st.sampled_from(PIECES), max_size=30))
    def test_piece_soup(self, pieces):
        text = "".join(pieces)
        assert outcome(parse, text) == outcome(reference_parse, text)

    def test_mutation_corpus(self):
        rng = random.Random(7)
        for base in MUTATION_BASES:
            for _ in range(40):
                edits = [(rng.choice(("delete", "duplicate", "swap", "insert")),
                          rng.randrange(10 ** 6), rng.randrange(10 ** 6), rng.choice(PIECES))
                         for _ in range(rng.randint(1, 3))]
                text = mutate(base, edits)
                assert outcome(parse, text) == outcome(reference_parse, text), text

    def test_generated_corpus(self):
        for i, (h, _) in enumerate(corpus(1000)):
            text = noisy_text(h, random.Random(i))
            assert outcome(parse, text) == outcome(reference_parse, text) == ("ok", h, serialize(h))

    def test_no_backtracking_on_comment_and_whitespace_runs(self):
        # a pattern that backtracks on these would not finish in time
        texts = ["arg(b" + "%" * 64 + "\n!", "arg(a)." + " " * 10_000 + "!",
                 "arg(a" + "\u2028" * 10_000 + "!"]
        script = ("import json, sys\nfrom hafs import ParseError, parse\nout = []\n"
                  "for text in json.load(sys.stdin):\n"
                  "    try:\n        parse(text)\n"
                  "    except ParseError as err:\n        out.append([str(err), err.line, err.column])\n"
                  "json.dump(out, sys.stdout)")
        done = subprocess.run([sys.executable, "-c", script], input=json.dumps(texts),
                              capture_output=True, check=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        expected = [list(outcome(reference_parse, text)[1:]) for text in texts]
        assert json.loads(done.stdout) == expected


class TestOneConstructionPath:
    """``parse`` builds its ids and relations without the constructors'
    checks; the framework must be the one ``HAFS(...)`` builds from
    checked ids."""

    def test_parse_matches_the_constructor(self):
        import pickle
        for i, (h, _) in enumerate(corpus(120, seed_base=5200)):
            parsed = parse(noisy_text(h, random.Random(i)))
            fresh = {x: ElementId(x.kind, x.name) for x in h.universe}
            built = HAFS([fresh[a] for a in h.arguments],
                         [Relation(fresh[r.id], fresh[r.source], fresh[r.target])
                          for r in h.attacks],
                         [Relation(fresh[t.id], fresh[t.source], fresh[t.target])
                          for t in h.supports])
            assert parsed == built and hash(parsed) == hash(built)
            assert parsed.incidence.incoming == built.incidence.incoming
            assert parsed.incidence.outgoing_supports == built.incidence.outgoing_supports
            assert parsed.incidence.position == built.incidence.position
            assert list(parsed.incidence.position.items()) == \
                [(x, i) for i, x in enumerate(parsed.universe)]
            for x, y in zip(parsed.universe, built.universe):
                assert x == y and hash(x) == hash(y) and vars(x) == vars(y)
                assert not x < y and not y < x
                copy = pickle.loads(pickle.dumps(x))
                assert copy == x and hash(copy) == hash(x)
            assert sorted(reversed(parsed.universe)) == list(parsed.universe)
            for a, b in zip(parsed.attacks + parsed.supports, built.attacks + built.supports):
                assert a == b and vars(a) == vars(b)
                assert a.id is parsed.universe[parsed.incidence.position[a.id]]
                assert a.source is parsed.universe[parsed.incidence.position[a.source]]
            again = pickle.loads(pickle.dumps(parsed))
            assert again == parsed and again.incidence.incoming == parsed.incidence.incoming

    def test_relation_ids_are_the_universe_ids(self):
        h = parse("supp(t1,r1,a). att(r1,b,a). arg(b). arg(a).")
        a, b, r1, t1 = h.universe
        assert h.attacks[0].id is r1 and h.attacks[0].source is b and h.attacks[0].target is a
        assert h.supports[0].id is t1 and h.supports[0].source is r1


class TestSerialize:
    def test_canonical_order(self):
        h = parse("supp(t1,a,a). arg(b). arg(a). att(r1,b,a).")
        assert serialize(h) == "arg(a).\narg(b).\natt(r1,b,a).\nsupp(t1,a,a).\n"

    def test_round_trip_examples(self, example3, f3, f6, mutual_attack):
        for h in (example3, f3, f6, mutual_attack):
            assert parse(serialize(h)) == h

    @given(seed=st.integers(0, 300))
    def test_round_trip_generated(self, seed):
        h = generate_random(3, 2, 2, seed=seed, support_acyclic=False,
                            higher_order_prob=0.5)
        assert parse(serialize(h)) == h


class TestIncomingIndex:
    def test_matches_naive_scan(self):
        for h, _ in corpus(40, seed_base=500):
            for x in h.universe:
                naive_att = sorted(
                    ((r.source, r.id) for r in h.attacks if r.target == x),
                    key=lambda p: p[1])
                naive_supp = sorted(
                    ((t.source, t.id) for t in h.supports if t.target == x),
                    key=lambda p: p[1])
                assert list(h.attackers_of(x)) == naive_att
                assert list(h.supporters_of(x)) == naive_supp

    def test_incidence_matches_lookups(self):
        for h, _ in corpus(40, seed_base=500):
            view = h.incidence
            assert view is h.incidence
            at = h.universe.__getitem__
            assert [at(view.position[x]) for x in h.universe] == list(h.universe)
            for i, x in enumerate(h.universe):
                att, supp = view.incoming[i]
                assert [(at(b), at(r)) for b, r in att] == list(h.attackers_of(x))
                assert [(at(c), at(t)) for c, t in supp] == list(h.supporters_of(x))
                assert sorted((at(t), at(s)) for t, s in view.outgoing_supports[i]) == \
                    sorted((t.target, t.id) for t in h.supports if t.source == x)


def relation_lists(rng: random.Random):
    """Arguments, attacks and supports with unique names and valid kinds,
    in shuffled order; an endpoint is sometimes undeclared (an unknown
    name, or a declared name under another kind), a relation sometimes
    repeats an earlier pair of its kind, and relation endpoints, drawn
    with a seed-dependent chance, often close a cycle."""
    args = [argument(f"a{i}") for i in range(rng.randint(1, 3))]
    rids = [attack_id(f"r{i}") for i in range(rng.randint(0, 4))]
    rids += [support_id(f"t{i}") for i in range(rng.randint(0, 4))]
    stray = [argument("z"), attack_id("a0"), support_id("r0")]
    higher_order = rng.choice([0.1, 0.3, 0.6])

    def endpoint(rid):
        while True:
            pool = stray if rng.random() < 0.03 else \
                rids if rng.random() < higher_order else args
            e = rng.choice(pool)
            if e != rid:
                return e

    rels = []
    for rid in rids:
        same_kind = [rel for rel in rels if rel.kind is rid.kind]
        if same_kind and rng.random() < 0.05:
            prev = rng.choice(same_kind)
            if rid not in (prev.source, prev.target):
                rels.append(Relation(rid, prev.source, prev.target))
                continue
        rels.append(Relation(rid, endpoint(rid), endpoint(rid)))
    rng.shuffle(args)
    rng.shuffle(rels)
    return (args, [rel for rel in rels if rel.kind is Kind.ATTACK],
            [rel for rel in rels if rel.kind is Kind.SUPPORT])


class TestRelationWalkAgainstOracle:
    def test_generated_relation_lists(self):
        seen = collections.Counter()
        for seed in range(3000):
            args, atts, supps = relation_lists(random.Random(seed))
            try:
                expected = reference_incoming(args, atts, supps)
            except ValidationError as err:
                expected = str(err)
            try:
                h = HAFS(args, atts, supps)
            except ValidationError as err:
                assert str(err) == expected, seed
                seen[next(w for w in ("undeclared", "duplicate", "cycle") if w in str(err))] += 1
                continue
            assert {x: (h.attackers_of(x), h.supporters_of(x)) for x in h.universe} == \
                expected, seed
            assert all(x in h for x in expected)
            assert attack_id("a0") not in h and argument("z") not in h
            seen["built"] += 1
        # every outcome of the walk is exercised
        assert min(seen[k] for k in ("built", "undeclared", "duplicate", "cycle")) >= 100, seen


class TestSupportAcyclic:
    def test_self_support_is_cyclic(self, example3):
        assert not is_support_acyclic(example3)

    def test_single_edge_is_acyclic(self):
        assert is_support_acyclic(parse("arg(a). arg(b). supp(t1,a,b)."))

    def test_three_cycle(self):
        h = parse("arg(a). arg(b). arg(c). supp(t1,a,b). supp(t2,b,c). supp(t3,c,a).")
        assert not is_support_acyclic(h)

    def test_agrees_with_kahn_oracle(self):
        for h, _ in corpus(60, seed_base=900):
            edges = [(t.source, t.target) for t in h.supports]
            assert is_support_acyclic(h) == kahn_is_acyclic(h.universe, edges)


class TestGenerateRandom:
    def test_single_argument(self):
        h = generate_random(1, 0, 0, seed=7, support_acyclic=True,
                            higher_order_prob=0.0)
        assert len(h.arguments) == 1 and not h.attacks and not h.supports

    def test_deterministic(self):
        a = generate_random(4, 3, 2, seed=99, support_acyclic=True, higher_order_prob=0.4)
        b = generate_random(4, 3, 2, seed=99, support_acyclic=True, higher_order_prob=0.4)
        assert a == b and serialize(a) == serialize(b)

    def test_acyclic_postcondition(self):
        h = generate_random(3, 3, 2, seed=42, support_acyclic=True, higher_order_prob=0.5)
        assert is_support_acyclic(h)

    def test_generated_pass_invariants(self):
        # reconstructing re-runs all HAFS validation
        for h, flagged in corpus(50, seed_base=1300):
            assert HAFS(h.arguments, h.attacks, h.supports) == h
            if flagged:
                assert is_support_acyclic(h)

    def test_infeasible_parameters(self):
        with pytest.raises(InfeasibleParametersError):
            generate_random(0, 0, 0, seed=1)
        # only one possible (a1, a1) support and it is a self-loop
        with pytest.raises(InfeasibleParametersError):
            generate_random(1, 0, 1, seed=1, support_acyclic=True,
                            higher_order_prob=0.0)

    def test_requested_counts(self):
        h = generate_random(3, 3, 3, seed=5, support_acyclic=False,
                            higher_order_prob=0.3)
        assert (len(h.arguments), len(h.attacks), len(h.supports)) == (3, 3, 3)


class TestSupportChain:
    def test_linked_chain(self):
        h = hafs.parse("arg(a). arg(b). arg(c). supp(t1,c,b). supp(t2,b,a).")
        chain = SupportChain((h.supports[0], h.supports[1]))
        assert chain.nodes == (argument("c"), argument("b"), argument("a"))
        assert chain.is_acyclic()

    def test_broken_link_rejected(self):
        h = hafs.parse("arg(a). arg(b). arg(c). supp(t1,a,b). supp(t2,c,a).")
        with pytest.raises(ValidationError, match="do not link"):
            SupportChain((h.supports[0], h.supports[1]))

    def test_cyclic_chain_detected(self, example3):
        chain = SupportChain((example3.supports[0],))
        assert not chain.is_acyclic()

    def test_attack_edge_rejected(self, f3):
        with pytest.raises(ValidationError, match="not a support"):
            SupportChain((f3.attacks[0],))


class TestRelationConstruction:
    def test_relation_kind_check(self):
        with pytest.raises(ValidationError):
            Relation(argument("x"), argument("a"), argument("b"))

    def test_programmatic_duplicate_name(self):
        with pytest.raises(ValidationError, match="duplicate name"):
            HAFS([argument("a"), argument("a")], [], [])

    def test_undeclared_endpoint(self):
        with pytest.raises(ValidationError, match="undeclared"):
            HAFS([argument("a")],
                 [Relation(attack_id("r1"), argument("a"), argument("zz"))], [])
