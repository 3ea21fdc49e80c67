import pytest

from buchidet import drw_run_eval, format_drw, nbw_member, normalize
from buchidet.explore import StateLimitExceeded
from buchidet.harness import GenSpec, enumerate_lassos, gen_nbw
from buchidet.safra import (SafraTree, determinize_safra, safra_initial,
                            safra_successor, validate_safra_tree)
from oracles import brute_member, nbw


def test_initial_tree(two_state):
    t = safra_initial(two_state)
    assert t == SafraTree(0, ((0, ()),), ((0, (0,)),), (), (1,))
    assert validate_safra_tree(two_state, t) == []


def test_initial_tree_single_state(det_chain):
    t = safra_initial(det_chain)
    assert t.bad == ()


def test_initial_tree_two_initial():
    a = nbw(["a"], ["x", "y"], ["x", "y"], [], [("x", "a", "x")])
    assert safra_initial(a).labels == ((0, (0, 1)),)


def test_initial_requires_normalization(selfloop_accepting):
    with pytest.raises(ValueError):
        safra_initial(selfloop_accepting)
    with pytest.raises(ValueError, match="automaton must be normalized first"):
        determinize_safra(selfloop_accepting)


def test_successor_sprouts_accepting_child(two_state):
    """On a, the root grows to {q,p} and sprouts a child tracking the
    accepting intersection {p}; the child is renamed to pool id 1."""
    t1 = safra_successor(two_state, safra_initial(two_state), "a")
    assert t1 == SafraTree(0, ((0, (1,)), (1, ())),
                           ((0, (0, 1)), (1, (1,))), (), (1,))
    assert validate_safra_tree(two_state, t1) == []


def test_successor_dead_tree_is_sink(two_state):
    dead = safra_successor(two_state, safra_initial(two_state), "b")
    assert dead.root is None
    assert dead.bad == (0, 1)
    assert dead.good == ()
    again = safra_successor(two_state, dead, "a")
    assert again == dead


def test_vertical_merge_marks_good():
    a = normalize(nbw(["a"], ["x", "f"], ["x"], ["f"],
                            [("x", "a", "f"), ("f", "a", "f")]))
    t1 = safra_successor(a, safra_initial(a), "a")
    # the sprout covers the whole parent label, so the parent sheds it
    # and turns good
    assert t1.good == (0,)
    assert t1.bad == (1,)
    assert t1.labels == ((0, (1,)),)
    assert t1.children == ((0, ()),)
    assert validate_safra_tree(a, t1) == []


def test_horizontal_merge_prefers_older_sibling(two_state):
    # after a,a the old child keeps p and the fresh sprout dies
    t = safra_initial(two_state)
    for symbol in "aa":
        t = safra_successor(two_state, t, symbol)
    assert t.labels == ((0, (0, 1)), (1, (1,)))
    assert validate_safra_tree(two_state, t) == []


def test_trees_stay_valid_along_runs():
    for i in range(25):
        aut = normalize(gen_nbw(GenSpec(2 + i % 4, 2, 0.5, 0.35, 70_000 + i)))
        t = safra_initial(aut)
        word = ("a", "b", "b", "a", "a", "b", "a", "b")
        for symbol in word:
            t = safra_successor(aut, t, symbol)
            assert validate_safra_tree(aut, t) == [], (i, symbol)


def test_determinize_safra_language(two_state):
    drw = determinize_safra(two_state)
    for w in enumerate_lassos(two_state.alphabet, 3, 4):
        assert drw_run_eval(drw, w) == nbw_member(two_state, w), str(w)


def test_safra_empty_accepting_language():
    a = normalize(nbw(["a", "b"], ["x", "y"], ["x"], [],
                            [("x", "a", "y"), ("y", "b", "x"), ("y", "a", "y")]))
    drw = determinize_safra(a)
    for w in enumerate_lassos(a.alphabet, 3, 3):
        assert drw_run_eval(drw, w) is False


def test_safra_on_deterministic_input():
    a = normalize(nbw(
        ["a", "b"], ["x", "y"], ["x"], ["y"],
        [("x", "a", "y"), ("x", "b", "x"), ("y", "a", "y"), ("y", "b", "x")]))
    drw = determinize_safra(a)
    for w in enumerate_lassos(a.alphabet, 3, 3):
        assert drw_run_eval(drw, w) == brute_member(a, w), str(w)


def test_safra_pair_count_and_determinism(two_state):
    drw = determinize_safra(two_state)
    assert len(drw.acceptance) == two_state.n
    assert format_drw(drw) == format_drw(determinize_safra(two_state))


def test_safra_state_budget(two_state):
    with pytest.raises(StateLimitExceeded):
        determinize_safra(two_state, max_states=1)
