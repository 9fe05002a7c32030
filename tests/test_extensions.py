import itertools
import time

import pytest
from hypothesis import given, strategies as st

import hafs
from hafs import (PreconditionError, SizeBoundError, ValidationError, argument,
                  attack_id, classify_set, dfd, dft, directly_defeats,
                  enumerate_extensions, extension_derived_labelling,
                  indirectly_defeats, is_adjacent_complete, support_id)
from hafs.extensions import defeats

from helpers import all_subsets, corpus, lfp_defeat_pairs, scan_extensions


def ids(*qualified):
    return frozenset(hafs.ElementId.from_qualified(q) for q in qualified)


A, B, C = argument("a"), argument("b"), argument("c")
R1, T1 = attack_id("r1"), support_id("t1")


class TestDirectDefeat:
    def test_attack_and_source_in_set(self, f3):
        assert directly_defeats(f3, A, B, ids("arg:a", "att:r1"))

    def test_attack_missing_from_set(self, f3):
        assert not directly_defeats(f3, A, B, ids("arg:a"))

    def test_source_missing_from_set(self, f3):
        assert not directly_defeats(f3, A, B, ids("att:r1"))

    def test_outside_universe_rejected(self, f3):
        with pytest.raises(ValidationError):
            directly_defeats(f3, A, B, ids("arg:zz"))
        with pytest.raises(ValidationError):
            directly_defeats(f3, argument("zz"), B, ids("arg:a"))
        with pytest.raises(ValidationError):
            indirectly_defeats(f3, A, argument("zz"), ids("arg:a"))


class TestIndirectDefeat:
    def test_one_edge_chain(self, f6):
        assert indirectly_defeats(f6, B, A, ids("arg:b", "att:r1", "supp:t1"))

    def test_support_missing_from_set(self, f6):
        assert not indirectly_defeats(f6, B, A, ids("arg:b", "att:r1"))

    def test_no_attacks_means_no_defeat(self, example3):
        universe = frozenset(example3.universe)
        for b in example3.universe:
            for a in example3.universe:
                assert not defeats(example3, b, a, universe)

    def test_two_edge_chain(self):
        h = hafs.parse("arg(a). arg(b). arg(c). arg(d). "
                       "supp(t1,c,a). supp(t2,d,c). att(r1,b,d).")
        full = frozenset(h.universe)
        assert indirectly_defeats(h, B, A, full)
        # removing the middle support breaks the chain
        assert not indirectly_defeats(h, B, A, full - ids("supp:t2"))

    def test_long_chain_has_no_recursion_limit(self):
        # a0 -> a1 -> ... -> a3000 by supports, with b attacking the head a0
        links = 3000
        text = "arg(b). att(r0,b,a0). " + " ".join(f"arg(a{i})." for i in range(links + 1))
        text += " ".join(f"supp(t{i},a{i},a{i + 1})." for i in range(links))
        h = hafs.parse(text)
        tail = argument(f"a{links}")
        full = frozenset(h.universe)
        assert indirectly_defeats(h, B, tail, full)
        assert not indirectly_defeats(h, B, tail, full - ids("supp:t1500"))
        assert tail in dft(h, full)

    def test_matches_lfp_oracle_on_all_subsets(self):
        frameworks = [h for h, _ in corpus(25, max_u=6, max_args=3, seed_base=4000)]
        for h in frameworks:
            for subset in all_subsets(h.universe):
                expected = lfp_defeat_pairs(h, subset)
                for b in subset:
                    for a in h.universe:
                        got = defeats(h, b, a, subset)
                        assert got == ((b, a) in expected), \
                            (hafs.serialize(h), sorted(x.qualified for x in subset),
                             b.qualified, a.qualified)


class TestDft:
    def test_single_attack(self, f3):
        assert dft(f3, ids("arg:a", "att:r1")) == ids("arg:b")

    def test_empty_set_defeats_nothing(self, f3, example3, f6):
        for h in (f3, example3, f6):
            assert dft(h, frozenset()) == frozenset()

    def test_direct_and_indirect(self, f6):
        assert dft(f6, ids("arg:b", "att:r1", "supp:t1")) == ids("arg:c", "arg:a")

    def test_agrees_with_pairwise_ops(self):
        for h, _ in corpus(25, max_u=6, max_args=3, seed_base=4400):
            for subset in all_subsets(h.universe):
                bulk = dft(h, subset)
                pairwise = {
                    a for a in h.universe
                    if any(defeats(h, b, a, subset) for b in subset)
                }
                assert bulk == pairwise


class TestDfd:
    def test_single_attack(self, f3):
        assert dfd(f3, ids("arg:a", "att:r1")) == ids("arg:a", "att:r1")

    def test_self_support(self, example3):
        assert dfd(example3, ids("arg:a", "supp:t1")) == ids("arg:a", "supp:t1")

    def test_source_free_always_defended(self):
        for h, _ in corpus(25, max_u=6, seed_base=4800):
            free = [x for x in h.universe
                    if not h.attackers_of(x) and not h.supporters_of(x)]
            for subset in (frozenset(), frozenset(h.universe)):
                defended = dfd(h, subset)
                assert all(x in defended for x in free)


class TestClassify:
    def test_single_attack_extension(self, f3):
        flags = classify_set(f3, ids("arg:a", "att:r1"))
        assert flags.complete and flags.stable_eligible

    def test_empty_set_not_complete_under_self_support(self, example3):
        flags = classify_set(example3, frozenset())
        assert not flags.complete
        assert dfd(example3, frozenset()) == ids("supp:t1")

    def test_empty_set_always_conflict_free_admissible(self, f3, example3, f6):
        for h in (f3, example3, f6):
            flags = classify_set(h, frozenset())
            assert flags.conflict_free and flags.admissible

    def test_admissible_subset_of_defended(self):
        for h, _ in corpus(25, max_u=6, seed_base=5200):
            for subset in all_subsets(h.universe):
                flags = classify_set(h, subset)
                if flags.admissible:
                    assert subset <= dfd(h, subset)


class TestEnumerate:
    def test_single_attack_complete(self, f3):
        assert enumerate_extensions(f3, "complete") == (ids("arg:a", "att:r1"),)

    def test_self_support_reports_both_complete_sets(self, example3):
        # brute force finds {t1} as well as {a, t1}
        assert enumerate_extensions(example3, "complete") == (
            ids("supp:t1"),
            ids("arg:a", "supp:t1"),
        )

    def test_mutual_attack_families(self, mutual_attack):
        preferred = enumerate_extensions(mutual_attack, "preferred")
        assert set(preferred) == {
            ids("arg:a", "att:r1", "att:r2"),
            ids("arg:b", "att:r1", "att:r2"),
        }
        assert set(enumerate_extensions(mutual_attack, "stable")) == set(preferred)
        assert enumerate_extensions(mutual_attack, "grounded") == (
            ids("att:r1", "att:r2"),
        )

    def test_example3_grounded_is_least(self, example3):
        assert enumerate_extensions(example3, "grounded") == (ids("supp:t1"),)

    def test_order_by_size_then_lexicographic(self, mutual_attack):
        family = enumerate_extensions(mutual_attack, "complete")
        sizes = [len(E) for E in family]
        assert sizes == sorted(sizes)

    def test_size_bound(self, example3):
        with pytest.raises(SizeBoundError):
            enumerate_extensions(example3, "complete", bound=1)


class TestDerivedLabelling:
    def test_single_attack(self, f3):
        L = extension_derived_labelling(f3, ids("arg:a", "att:r1"))
        assert L.to_json_obj() == {"arg:a": "1", "arg:b": "0", "att:r1": "1"}

    def test_self_support(self, example3):
        L = extension_derived_labelling(example3, ids("arg:a", "supp:t1"))
        assert L.to_json_obj() == {"arg:a": "1", "supp:t1": "1"}

    def test_mutual_attack(self, mutual_attack):
        L = extension_derived_labelling(mutual_attack, ids("arg:a", "att:r1", "att:r2"))
        assert L.to_json_obj() == {
            "arg:a": "1", "arg:b": "0", "att:r1": "1", "att:r2": "1",
        }

    def test_requires_complete_extension(self, f3):
        with pytest.raises(PreconditionError):
            extension_derived_labelling(f3, ids("arg:a"))

    def test_always_adjacent_complete(self):
        # includes support-cyclic frameworks
        for h, _ in corpus(60, seed_base=5600):
            for E in enumerate_extensions(h, "complete"):
                assert is_adjacent_complete(h, extension_derived_labelling(h, E)), \
                    hafs.serialize(h)

    def test_example3_inclusion_is_strict(self, example3):
        derived = {
            extension_derived_labelling(example3, E)
            for E in enumerate_extensions(example3, "complete")
        }
        adjacent = set(hafs.enumerate_adjacent_complete(example3))
        assert derived < adjacent

    def test_families_equal_on_acyclic(self):
        for h, flagged in corpus(60, seed_base=6000):
            if not hafs.is_support_acyclic(h):
                continue
            derived = {
                extension_derived_labelling(h, E)
                for E in enumerate_extensions(h, "complete")
            }
            adjacent = set(hafs.enumerate_adjacent_complete(h))
            assert derived == adjacent, hafs.serialize(h)


SEMANTICS = ("complete", "grounded", "preferred", "stable")


def assert_matches_scan(h):
    expected = scan_extensions(h)
    for semantics in SEMANTICS:
        assert enumerate_extensions(h, semantics) == expected[semantics], \
            (semantics, hafs.serialize(h))


class TestSearchMatchesScan:
    """The propagation search against the unpruned subset scan, tuples in order."""

    def test_corpus(self):
        # every other framework may have support cycles, including self-supports
        for h, _ in corpus(200, max_u=10, seed_base=31_000):
            assert_matches_scan(h)

    def test_wider_corpus(self):
        for h, _ in corpus(40, max_u=13, max_args=6, seed_base=32_000):
            assert_matches_scan(h)

    @pytest.mark.parametrize("text", [
        "",
        "arg(a). supp(t1,a,a).",
        "arg(a). att(r1,a,a).",
        "arg(a1). att(r1,a1,a1). supp(t1,a1,r1). supp(t2,a1,a1).",
        "arg(a). arg(b). supp(t1,a,b). supp(t2,b,a). att(r1,a,t2).",
        "arg(a). arg(b). arg(c). supp(t1,a,b). supp(t2,b,c). supp(t3,c,a). "
        "att(r1,c,t1). att(r2,r1,r1).",
    ])
    def test_handwritten(self, text):
        assert_matches_scan(hafs.parse(text))

    @given(nargs=st.integers(1, 4), natts=st.integers(0, 3), nsupps=st.integers(0, 3),
           seed=st.integers(0, 10_000), acyclic=st.booleans(),
           hop=st.sampled_from([0.0, 0.3, 0.6]))
    def test_generated(self, nargs, natts, nsupps, seed, acyclic, hop):
        # acyclic=False admits support cycles and self-supports
        try:
            h = hafs.generate_random(nargs, natts, nsupps, seed=seed,
                                     support_acyclic=acyclic, higher_order_prob=hop)
        except hafs.InfeasibleParametersError:
            return
        assert_matches_scan(h)

    def test_grounded_is_always_the_least_complete_extension(self):
        for h, _ in corpus(300, max_u=10, seed_base=33_000):
            (grounded,) = enumerate_extensions(h, "grounded")
            assert classify_set(h, grounded).complete, hafs.serialize(h)
            assert all(grounded <= E for E in enumerate_extensions(h, "complete"))


class TestSearchAtScale:
    """Families derived by hand, at sizes the subset scan cannot reach."""

    def test_five_mutual_attacks_at_the_bound(self):
        # five disjoint mutual attacks a_i <-> b_i
        h = hafs.parse(" ".join(f"arg(a{i}). arg(b{i}). att(r{i},a{i},b{i}). att(s{i},b{i},a{i})."
                                for i in range(5)))
        assert len(h) == 20
        attacks = frozenset(x for x in h.universe if x.qualified.startswith("att:"))
        choices = [(frozenset(), ids(f"arg:a{i}"), ids(f"arg:b{i}")) for i in range(5)]
        complete = [attacks.union(*pick) for pick in itertools.product(*choices)]
        position = {x: i for i, x in enumerate(h.universe)}
        complete.sort(key=lambda E: (len(E), sorted(position[x] for x in E)))
        maximal = tuple(E for E in complete if len(E) == 15)

        start = time.perf_counter()
        assert enumerate_extensions(h, "complete") == tuple(complete)
        assert time.perf_counter() - start < 1.0
        assert len(complete) == 3 ** 5 and len(maximal) == 2 ** 5
        assert enumerate_extensions(h, "preferred") == maximal
        assert enumerate_extensions(h, "stable") == maximal
        assert enumerate_extensions(h, "grounded") == (attacks,)

    def test_long_support_chain(self):
        # b attacks the head of a0 -> a1 -> ... -> a3000, all supports unattacked
        links = 3000
        text = "arg(b). att(r0,b,a0). " + " ".join(f"arg(a{i})." for i in range(links + 1))
        text += " ".join(f"supp(t{i},a{i},a{i + 1})." for i in range(links))
        h = hafs.parse(text)
        extension = ids("arg:b", "att:r0", *(f"supp:t{i}" for i in range(links)))
        assert len(extension) == 3002
        for semantics in SEMANTICS:
            assert enumerate_extensions(h, semantics, bound=10_000) == (extension,)
