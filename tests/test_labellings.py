import collections
import itertools
import random

import pytest
from hypothesis import given, strategies as st

import hafs
from hafs import (HALF, Labelling3, ONE, SizeBoundError, ValidationError, ZERO,
                  argument, attack_id, enumerate_adjacent_complete,
                  is_adjacent_complete, select_labellings, support_id)
from hafs import labellings

from helpers import brute_force_labellings, corpus


def lab(**kwargs):
    values = {}
    for qualified, value in kwargs.items():
        prefix, name = qualified.split("_", 1)
        kind = {"arg": argument, "att": attack_id, "supp": support_id}[prefix]
        values[kind(name)] = value
    return Labelling3(values)


class TestLabelling3:
    def test_values_normalised_to_fractions(self):
        L = lab(arg_a="1/2", att_r1=1)
        assert L[argument("a")] == HALF and L[attack_id("r1")] == ONE

    def test_invalid_value_rejected(self):
        with pytest.raises(ValidationError):
            lab(arg_a="1/3")

    def test_core(self):
        L = lab(arg_a=1, arg_b=0, att_r1="1/2")
        assert L.core == {argument("a")}

    def test_hashable_and_content_equal(self):
        assert lab(arg_a=1) == lab(arg_a=1)
        assert len({lab(arg_a=1), lab(arg_a=1), lab(arg_a=0)}) == 2

    def test_equals_and_hashes_like_its_embedding(self):
        for h, _ in corpus(20, max_u=6, seed_base=3100):
            for labelling in enumerate_adjacent_complete(h):
                embedded = hafs.embed(labelling)
                assert type(embedded) is hafs.Assignment
                assert labelling == embedded and embedded == labelling
                assert hash(labelling) == hash(embedded)
                assert labelling.to_json_obj() == embedded.to_json_obj()
                assert repr(labelling) == "Labelling3" + repr(embedded)[len("Assignment"):]


class TestIsAdjacentComplete:
    def test_example3_decided_labelling(self, example3):
        assert is_adjacent_complete(example3, lab(arg_a=1, supp_t1=1))

    def test_example3_undecided_labelling(self, example3):
        assert is_adjacent_complete(example3, lab(arg_a="1/2", supp_t1=1))

    def test_isolated_argument_cannot_be_undecided(self, single_arg):
        assert not is_adjacent_complete(single_arg, lab(arg_a="1/2"))
        assert is_adjacent_complete(single_arg, lab(arg_a=1))

    def test_non_total_labelling_rejected(self, example3):
        with pytest.raises(ValidationError, match="not total"):
            is_adjacent_complete(example3, lab(arg_a=1))

    def test_extra_element_rejected(self, single_arg):
        with pytest.raises(ValidationError, match="outside the universe"):
            is_adjacent_complete(single_arg, lab(arg_a=1, arg_zz=1))


class TestEnumerate:
    def test_example3_three_labellings(self, example3):
        family = enumerate_adjacent_complete(example3)
        assert set(family) == {
            lab(arg_a=1, supp_t1=1),
            lab(arg_a=0, supp_t1=1),
            lab(arg_a="1/2", supp_t1=1),
        }
        assert len(family) == 3

    def test_single_attack_unique_labelling(self, f3):
        assert enumerate_adjacent_complete(f3) == (
            lab(arg_a=1, arg_b=0, att_r1=1),
        )

    def test_mutual_attack_three_labellings(self, mutual_attack):
        assert set(enumerate_adjacent_complete(mutual_attack)) == {
            lab(arg_a=1, arg_b=0, att_r1=1, att_r2=1),
            lab(arg_a=0, arg_b=1, att_r1=1, att_r2=1),
            lab(arg_a="1/2", arg_b="1/2", att_r1=1, att_r2=1),
        }

    def test_deterministic_order(self, example3):
        family = enumerate_adjacent_complete(example3)
        a = argument("a")
        assert [L[a] for L in family] == [ZERO, HALF, ONE]

    def test_size_bound(self, example3):
        with pytest.raises(SizeBoundError):
            enumerate_adjacent_complete(example3, bound=1)

    def test_unchecked_assignments_equal_the_validated_ones(self):
        # the searches and sweeps build their results without the constructor's
        # checks; each must equal, hash and iterate like its validated copy
        for h, _ in corpus(30, max_u=6, seed_base=7000):
            built = [*enumerate_adjacent_complete(h), *hafs.enumerate_pl3_models(h),
                     *hafs.enumerate_ternary_solutions(hafs.build_equations(h, hafs.GODEL)),
                     *(hafs.extension_derived_labelling(h, E)
                       for E in hafs.enumerate_extensions(h, "complete"))]
            for made in built:
                checked = type(made)(dict(made))
                assert made == checked and hash(made) == hash(checked)
                assert list(made.items()) == list(checked.items()) == \
                    [(x, made[x]) for x in h.universe]

    def test_env_override(self, example3, monkeypatch):
        monkeypatch.setenv("HAFS_MAX_U", "1")
        with pytest.raises(SizeBoundError):
            enumerate_adjacent_complete(example3)

    def test_invalid_env_override(self, example3, monkeypatch):
        monkeypatch.setenv("HAFS_MAX_U", "abc")
        with pytest.raises(ValidationError, match="^HAFS_MAX_U must be an integer, got 'abc'$"):
            enumerate_adjacent_complete(example3)

    def test_matches_unpruned_brute_force(self):
        for h, _ in corpus(60, seed_base=2100):
            assert set(enumerate_adjacent_complete(h)) == set(brute_force_labellings(h)), \
                hafs.serialize(h)

    @given(nargs=st.integers(1, 3), natts=st.integers(0, 2), nsupps=st.integers(0, 2),
           seed=st.integers(0, 10_000), acyclic=st.booleans(),
           hop=st.sampled_from([0.0, 0.3, 0.6]))
    def test_matches_unpruned_brute_force_in_order_on_generated(self, nargs, natts, nsupps,
                                                               seed, acyclic, hop):
        try:
            h = hafs.generate_random(nargs, natts, nsupps, seed=seed,
                                     support_acyclic=acyclic, higher_order_prob=hop)
        except hafs.InfeasibleParametersError:
            return
        assert enumerate_adjacent_complete(h) == brute_force_labellings(h), hafs.serialize(h)

    def test_source_free_elements_always_one(self):
        for h, _ in corpus(40, seed_base=2500):
            free = [x for x in h.universe
                    if not h.attackers_of(x) and not h.supporters_of(x)]
            for L in enumerate_adjacent_complete(h):
                assert all(L[x] == ONE for x in free)


def _drawn_text(seed: int) -> tuple[str, set[str]]:
    """A framework of at most 9 elements whose relations may be self-loops,
    close support cycles or have relations as endpoints, and which of those
    it has; every third closes a two-support cycle."""
    rng = random.Random(seed)
    arguments = [f"a{i}" for i in range(rng.randint(1, 3))]
    named = [rng.choice("rt") + str(i) for i in range(rng.randint(1, 4))]
    names = arguments + named
    relations = [(name, rng.choice([x for x in names if x != name]),
                  rng.choice([x for x in names if x != name])) for name in named]
    if seed % 3 == 0:  # two supports each way between two elements
        x, y = rng.sample(names, 2)
        relations += [("tx", x, y), ("ty", y, x)]
    features = set()
    supports = {}
    for name, source, target in relations:
        if source == target:
            features.add("self-loop")
        if not source.startswith("a") or not target.startswith("a"):
            features.add("higher order")
        if name[0] == "t" and source != target:
            supports.setdefault(source, set()).add(target)
    reach = {x: set(ys) for x, ys in supports.items()}
    for _ in names:
        for x in reach:
            reach[x] |= {z for y in reach[x] for z in reach.get(y, ())}
    if any(x in ys for x, ys in reach.items()):
        features.add("support cycle")
    text = " ".join([f"arg({a})." for a in arguments]
                    + [f"{'att' if name[0] == 'r' else 'supp'}({name},{source},{target})."
                       for name, source, target in relations])
    return text, features


class TestSearch:
    def test_matches_brute_force_in_grid_order_on_loops_cycles_and_higher_order(self):
        seen, checked = collections.Counter(), 0
        for seed in range(300):
            text, features = _drawn_text(seed)
            try:
                h = hafs.parse(text)
            except ValidationError:  # a relation on itself, a duplicate or a cycle of relations
                continue
            assert enumerate_adjacent_complete(h) == brute_force_labellings(h), text
            seen.update(features)
            checked += 1
        assert checked >= 150
        assert set(seen) == {"self-loop", "support cycle", "higher order"}
        assert min(seen.values()) >= 20, seen

    def test_empty_framework_has_one_empty_labelling(self):
        assert enumerate_adjacent_complete(hafs.parse("")) == (Labelling3({}),)

    def test_eight_self_supported_arguments_at_the_default_bound(self):
        h = hafs.parse(" ".join(f"arg(a{i}). supp(t{i},a{i},a{i})." for i in range(8)))
        assert len(h) == 16
        expected = tuple(Labelling3(zip(h.universe, values + (ONE,) * 8))
                         for values in itertools.product((ZERO, HALF, ONE), repeat=8))
        assert enumerate_adjacent_complete(h) == expected

    def test_size_bound_errors_come_before_the_search(self, monkeypatch):
        h = hafs.parse(" ".join(f"arg(a{i}). supp(t{i},a{i},a{i})." for i in range(8))
                       + " arg(b).")
        assert len(h) == 17
        search = labellings._complete_codes

        def unreachable(view):
            raise AssertionError("searched past the size bound")

        monkeypatch.setattr(labellings, "_complete_codes", unreachable)
        with pytest.raises(SizeBoundError, match="^universe has 17 elements, bound is 16$"):
            enumerate_adjacent_complete(h)
        with pytest.raises(SizeBoundError, match="^universe has 17 elements, bound is 2$"):
            enumerate_adjacent_complete(h, bound=2)
        monkeypatch.setenv("HAFS_MAX_U", "16")
        with pytest.raises(SizeBoundError, match="^universe has 17 elements, bound is 16$"):
            enumerate_adjacent_complete(h)
        monkeypatch.setenv("HAFS_MAX_U", "17")
        monkeypatch.setattr(labellings, "_complete_codes", search)
        assert len(enumerate_adjacent_complete(h)) == 3 ** 8

    def test_forced_labels_need_no_branching(self, monkeypatch):
        # without cycles every label is forced from the sources on, so the
        # search visits one node; a mutual attack branches once, on a, into
        # three children that each force b
        nodes = []
        propagate = labellings._propagate

        def counted(*args):
            nodes.append(args)
            return propagate(*args)

        monkeypatch.setattr(labellings, "_propagate", counted)
        chain = hafs.parse(" ".join(f"arg(a{i}). att(r{i},a{i},a{i + 1})." for i in range(7))
                           + " arg(a7).")
        assert len(chain) == 15
        assert enumerate_adjacent_complete(chain) == (Labelling3(
            [(argument(f"a{i}"), ONE if i % 2 == 0 else ZERO) for i in range(8)]
            + [(attack_id(f"r{i}"), ONE) for i in range(7)]),)
        assert len(nodes) == 1
        nodes.clear()
        higher = hafs.parse("arg(a). arg(b). arg(c). arg(d). att(r1,a,b). supp(t1,b,c). "
                            "att(r2,d,t1). supp(t2,a,r1).")
        family = enumerate_adjacent_complete(higher)
        assert len(family) == 1 and family == brute_force_labellings(higher)
        assert len(nodes) == 1
        nodes.clear()
        mutual = hafs.parse("arg(a). arg(b). att(r1,a,b). att(r2,b,a).")
        assert len(enumerate_adjacent_complete(mutual)) == 3
        assert len(nodes) == 4


class TestSelect:
    def test_example3_preferred_and_stable(self, example3):
        family = enumerate_adjacent_complete(example3)
        assert select_labellings(example3, family, "preferred") == (
            lab(arg_a=1, supp_t1=1),
        )
        assert select_labellings(example3, family, "stable") == (
            lab(arg_a=1, supp_t1=1),
        )

    def test_example3_grounded_shares_least_core(self, example3):
        # the least core {t1} is shared by two labellings; both come back
        family = enumerate_adjacent_complete(example3)
        grounded = select_labellings(example3, family, "grounded")
        assert set(grounded) == {
            lab(arg_a=0, supp_t1=1),
            lab(arg_a="1/2", supp_t1=1),
        }
        assert len({L.core for L in grounded}) == 1

    def test_mutual_attack_selections(self, mutual_attack):
        family = enumerate_adjacent_complete(mutual_attack)
        decisive = {
            lab(arg_a=1, arg_b=0, att_r1=1, att_r2=1),
            lab(arg_a=0, arg_b=1, att_r1=1, att_r2=1),
        }
        assert set(select_labellings(mutual_attack, family, "preferred")) == decisive
        assert set(select_labellings(mutual_attack, family, "stable")) == decisive
        assert select_labellings(mutual_attack, family, "grounded") == (
            lab(arg_a="1/2", arg_b="1/2", att_r1=1, att_r2=1),
        )

    def test_single_argument_all_selections_agree(self, single_arg):
        family = enumerate_adjacent_complete(single_arg)
        for semantics in ("grounded", "preferred", "stable"):
            assert select_labellings(single_arg, family, semantics) == (lab(arg_a=1),)

    def test_stable_labellings_avoid_half(self):
        for h, _ in corpus(40, seed_base=2900):
            family = enumerate_adjacent_complete(h)
            for L in select_labellings(h, family, "stable"):
                assert HALF not in set(L.values())

    def test_least_core_unique_when_present(self):
        for h, _ in corpus(40, seed_base=3300):
            family = enumerate_adjacent_complete(h)
            grounded = select_labellings(h, family, "grounded")
            if grounded:
                cores = {L.core for L in grounded}
                assert len(cores) == 1
                least = next(iter(cores))
                assert all(least <= L.core for L in family)

    def test_unknown_semantics(self, single_arg):
        family = enumerate_adjacent_complete(single_arg)
        with pytest.raises(ValueError):
            select_labellings(single_arg, family, "semi-stable")

    def test_grounded_empty_without_least_core(self, mutual_attack):
        # synthetic family with incomparable cores: no least exists
        family = (
            lab(arg_a=1, arg_b=0, att_r1=1, att_r2=1),
            lab(arg_a=0, arg_b=1, att_r1=1, att_r2=1),
        )
        assert select_labellings(mutual_attack, family, "grounded") == ()

    def test_grounded_nonempty_on_the_full_family(self):
        # the least fixpoint of the labelling map has the least core
        for h, _ in corpus(200, max_u=10):
            family = enumerate_adjacent_complete(h)
            assert select_labellings(h, family, "grounded"), hafs.serialize(h)
