import pytest

from buchidet import NBW, check_level_invariants, normalize, profile_strings, \
    profile_tree
from buchidet.harness import GenSpec, gen_nbw
from buchidet.run_dag import ProfileLevel, initial_level, step_level
from oracles import brute_ranks


def node_ranks(pl):
    return {q: j for j, g in enumerate(pl.classes) for q in g}


def test_initial_level(two_state):
    pl = initial_level(two_state)
    assert pl.classes == ((0,),)
    assert pl.f_class == (0,)
    assert pl.parents == (None,)


def test_initial_level_two_states():
    a = NBW.build(["a"], ["x", "y"], ["x", "y"], [], [("x", "a", "x")])
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


def test_check_level_invariants_clean(two_state):
    levels = profile_tree(two_state, ["a", "b", "b"])
    assert check_level_invariants(levels, two_state.n) == []
    assert check_level_invariants([]) == []


def test_check_level_invariants_flags_corruption(two_state):
    levels = profile_tree(two_state, ["a", "b"])
    bad_parent = list(levels)
    bad_parent[2] = ProfileLevel(levels[2].classes, (5, 1), levels[2].f_class)
    assert any("parent" in v for v in check_level_invariants(bad_parent, two_state.n))
    twins = list(levels)
    twins[2] = ProfileLevel(levels[2].classes, levels[2].parents, (1, 1))
    assert any("children" in v for v in check_level_invariants(twins, two_state.n))
    wide = list(levels)
    wide[1] = ProfileLevel(((0,), (1,), (2,)), (0, 0, 0), (0, 1, 0))
    assert check_level_invariants(wide, 2) != []


def test_f_purity_and_width(two_state):
    for word in (["a", "a", "b", "a"], ["a", "b", "a", "b"]):
        for pl in profile_tree(two_state, word):
            assert len(pl.classes) <= two_state.n
            for j, group in enumerate(pl.classes):
                assert {int(two_state.is_accepting(q)) for q in group} == {pl.f_class[j]}


def test_pruning_keeps_maximal_parents(two_state):
    word = ["a", "a", "b", "b", "a"]
    levels = profile_tree(two_state, word)
    for i in range(1, len(levels)):
        prev, cur = node_ranks(levels[i - 1]), levels[i]
        sym = two_state.sym_id(word[i - 1])
        for j, group in enumerate(cur.classes):
            for q in group:
                preds = [prev[p] for p in two_state.pred(q, sym) if p in prev]
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
