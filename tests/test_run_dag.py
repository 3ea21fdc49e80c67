from dataclasses import replace

import pytest

from buchidet import check_level, normalize
from buchidet.harness import GenSpec, gen_nbw
from buchidet.run_dag import ProfileLevel, initial_level, step_level
from oracles import brute_ranks, nbw, profile_strings, profile_tree


def node_ranks(pl):
    return {q: j for j, g in enumerate(pl.classes) for q in g}


def test_initial_level(two_state):
    pl = initial_level(two_state)
    assert pl.classes == ((0,),)
    assert pl.f_class == (0,)
    assert pl.parents == (None,)


def test_initial_level_two_states():
    a = nbw(["a"], ["x", "y"], ["x", "y"], [], [("x", "a", "x")])
    pl = initial_level(a)
    assert pl.classes == ((0, 1),)
    assert node_ranks(pl) == {0: 0, 1: 0}


def test_initial_level_requires_normalization(selfloop_accepting):
    with pytest.raises(ValueError):
        initial_level(selfloop_accepting)
    pl = initial_level(normalize(selfloop_accepting))
    assert pl.f_class == (0,)


def test_step_level_fig(two_state):
    pl0 = initial_level(two_state)
    pl1 = step_level(two_state, pl0, "a")
    assert pl1.classes == ((0,), (1,))        # q before p
    assert pl1.parents == (0, 0)
    assert pl1.f_class == (0, 1)
    pl2 = step_level(two_state, pl1, "b")
    assert pl2.classes == ((0,), (1,))
    assert pl2.parents == (1, 1)              # both reached only from p


def test_step_level_empty(two_state):
    pl0 = initial_level(two_state)
    dead = step_level(two_state, pl0, "b")          # q has no b-transition
    assert dead == ProfileLevel((), (), ())
    deader = step_level(two_state, dead, "a")
    assert deader == ProfileLevel((), (), ())


def test_profile_tree_fig_matches_reference_trace(two_state):
    levels = profile_tree(two_state, ["a", "b", "b"])
    assert [pl.classes for pl in levels] == [
        (((0,),)), ((0,), (1,)), ((0,), (1,)), ((0,), (1,))]
    assert [pl.parents for pl in levels] == [
        (None,), (0, 0), (1, 1), (1, 1)]
    assert [pl.f_class for pl in levels] == [(0,), (0, 1), (0, 1), (0, 1)]
    assert profile_strings(levels) == [
        ("0",), ("00", "01"), ("010", "011"), ("0110", "0111")]


def test_profile_tree_empty_prefix(two_state):
    levels = profile_tree(two_state, [])
    assert len(levels) == 1
    assert levels[0].classes == ((0,),)


def test_profile_tree_deterministic_chain(det_chain):
    levels = profile_tree(det_chain, ["a", "a", "a"])
    assert len(levels) == 4
    for i, pl in enumerate(levels):
        assert pl.classes == ((0,),)
        assert pl.parents == ((None,) if i == 0 else (0,))


def level_faults(a, levels):
    """`check_level` on each level of a path, against the one before it."""
    widths = [None] + [len(pl.classes) for pl in levels[:-1]]
    return [msg for pl, w in zip(levels, widths) for msg in check_level(a, pl, w)]


def test_check_level_invariants_clean(two_state):
    levels = profile_tree(two_state, ["a", "b", "b"])
    assert level_faults(two_state, levels) == []
    assert level_faults(two_state, []) == []


def test_check_level_invariants_flags_corruption(two_state):
    levels = profile_tree(two_state, ["a", "b"])
    bad_parent = list(levels)
    bad_parent[2] = replace(levels[2], parents=(5, 1))
    assert level_faults(two_state, bad_parent) == [
        "rank=0: parent 5 not a class of the previous level"]
    twins = list(levels)
    twins[2] = replace(levels[2], f_class=(1, 1))
    assert level_faults(two_state, twins) == [
        "class 0 acceptance bit is inconsistent", "parent 1 has 2 children with f=1"]
    wide = list(levels)
    wide[1] = ProfileLevel(((0,), (1,), (2,)), (0, 0, 0), (0, 1, 0))
    assert level_faults(two_state, wide) == [
        "state id 2 out of range", "parent 0 has 2 children with f=0",
        "class order disagrees with (parent, f) order"]


@pytest.mark.parametrize("level, changes, messages", [
    (1, {"classes": ((), (1,))}, ["class 0 is empty"]),
    (1, {"classes": ((1,), (1,)), "f_class": (1, 1)},
     ["class 1 shares states with a sibling", "parent 0 has 2 children with f=1"]),
    (1, {"f_class": (0,)}, ["ragged level data"]),
    (1, {"classes": ((1,), (0,)), "f_class": (1, 0)},
     ["class order disagrees with (parent, f) order"]),
    (0, {"f_class": (1,)}, ["class 0 acceptance bit is inconsistent"]),
    (0, {"classes": ((0,), (1,)), "parents": (None, None), "f_class": (0, 1)},
     ["more than one root class"]),
    (0, {"parents": (0,)}, ["root class with a parent"]),
    (0, {"classes": ((1, 0),)},
     ["class 0 is not a sorted state set", "class 0 acceptance bit is inconsistent"]),
    (1, {"classes": ((0, 0), (1,))}, ["class 0 is not a sorted state set"]),
    (1, {"classes": ((0, 2), (1,))}, ["state id 2 out of range"]),
], ids=["empty-class", "overlap", "ragged", "class-order", "impure-class",
        "two-roots", "root-with-parent", "unsorted-class", "repeated-state",
        "state-out-of-range"])
def test_check_level_flags_corrupted_level(two_state, level, changes, messages):
    levels = profile_tree(two_state, ["a"])[:level + 1]
    levels[level] = replace(levels[level], **changes)
    assert level_faults(two_state, levels) == messages


def test_f_purity_and_width(two_state):
    for word in (["a", "a", "b", "a"], ["a", "b", "a", "b"]):
        for pl in profile_tree(two_state, word):
            assert len(pl.classes) <= two_state.n
            for j, group in enumerate(pl.classes):
                assert {int(q in two_state.acc) for q in group} == {pl.f_class[j]}


def test_pruning_keeps_maximal_parents(two_state):
    word = ["a", "a", "b", "b", "a"]
    levels = profile_tree(two_state, word)
    for i in range(1, len(levels)):
        prev, cur = node_ranks(levels[i - 1]), levels[i]
        sym = two_state.sym_id(word[i - 1])
        for j, group in enumerate(cur.classes):
            for q in group:
                preds = [prev[p] for p in two_state.pred[q][sym] if p in prev]
                assert cur.parents[j] == max(preds)


def test_ranks_match_brute_force_profiles(two_state):
    corpus = [two_state] + [normalize(gen_nbw(GenSpec(4, 2, 0.5, 0.4, 7000 + i)))
                      for i in range(12)]
    words = [[], ["a"], ["a", "b"], ["b", "a", "a"],
             ["a", "b", "b", "a"], ["a", "a", "b", "a", "b", "a"]]
    for aut in corpus:
        for word in words:
            expected = brute_ranks(aut, word)
            got = profile_tree(aut, word)
            assert len(got) == len(expected)
            for i, (pl, exp) in enumerate(zip(got, expected)):
                assert node_ranks(pl) == exp, (aut, word, i)
