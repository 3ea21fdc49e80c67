import pytest

from buchidet import drw_run_eval, format_drw, nbw_member, normalize, safra
from buchidet.explore import StateLimitExceeded, explore
from buchidet.harness import GenSpec, enumerate_lassos, gen_nbw
from buchidet.safra import (SafraTree, determinize_safra, safra_initial,
                            safra_successor, validate_safra_tree)
from oracles import brute_member, nbw


def test_initial_tree(two_state):
    t = safra_initial(two_state)
    assert t == SafraTree((((0,), 0),), (0,), (), (1,))
    assert validate_safra_tree(two_state, t) == []


def test_initial_tree_single_state(det_chain):
    t = safra_initial(det_chain)
    assert t.bad == ()


def test_initial_tree_two_initial():
    a = nbw(["a"], ["x", "y"], ["x", "y"], [], [("x", "a", "x")])
    assert safra_initial(a).shape == (((0, 1), 0),)


def test_initial_requires_normalization(selfloop_accepting):
    with pytest.raises(ValueError):
        safra_initial(selfloop_accepting)
    with pytest.raises(ValueError, match="automaton must be normalized first"):
        determinize_safra(selfloop_accepting)


def test_successor_sprouts_accepting_child(two_state):
    """On a, the root grows to {q,p} and sprouts a child tracking the
    accepting intersection {p}; the child is renamed to pool id 1."""
    t1 = safra_successor(two_state, safra_initial(two_state), "a")
    assert t1 == SafraTree((((0, 1), 1), ((1,), 0)), (0, 1), (), (1,))
    assert validate_safra_tree(two_state, t1) == []


def test_successor_dead_tree_is_sink(two_state):
    dead = safra_successor(two_state, safra_initial(two_state), "b")
    assert dead.shape == dead.names == ()
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
    assert t1.shape == (((1,), 0),)
    assert t1.names == (0,)
    assert validate_safra_tree(a, t1) == []


def test_horizontal_merge_prefers_older_sibling(two_state):
    # after a,a the old child keeps p and the fresh sprout dies
    t = safra_initial(two_state)
    for symbol in "aa":
        t = safra_successor(two_state, t, symbol)
    assert t.shape == (((0, 1), 1), ((1,), 0))
    assert t.names == (0, 1)
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


def test_safra_payloads_match_safra_successor_replay():
    """`determinize_safra` reuses each step's name-free part across trees
    with the same shape; stepping every tree afresh must give the same
    trees in the same order."""
    corpus = [normalize(gen_nbw(GenSpec(n, 2, 0.5, 0.3, 70_000 + 1000 * n + i)))
              for n in range(2, 6) for i in range(40)]
    corpus.append(normalize(gen_nbw(GenSpec(8, 2, 0.3, 0.3, 777))))
    for a in corpus:
        states, table = explore(safra_initial(a),
                                lambda t, s: safra_successor(a, t, a.alphabet[s]),
                                len(a.alphabet))
        d = determinize_safra(a)
        assert d.payloads == tuple(states)
        assert d.trans == tuple(tuple(row) for row in table)


def test_safra_shape_computed_once_per_name_free_tree_and_symbol(monkeypatch):
    """The name-free part of a step depends on the labels and topology
    only, so one exploration computes it once for each name-free tree and
    symbol; the dead tree's empty shape is one of them."""
    calls = []

    def counted(*args):
        calls.append(args)
        return shape(*args)

    shape = safra._shape
    monkeypatch.setattr(safra, "_shape", counted)
    a = normalize(gen_nbw(GenSpec(10, 3, 0.2, 0.3, 777)))
    d = determinize_safra(a)
    shapes = {t.shape for t in d.payloads}
    assert () in shapes
    assert len(calls) == len(shapes) * len(a.alphabet) == 2244
    assert len(calls) < len(d.states) * len(a.alphabet)


def test_safra_cap_counts_trees_in_discovery_order():
    a = normalize(gen_nbw(GenSpec(10, 3, 0.2, 0.3, 777)))
    with pytest.raises(StateLimitExceeded):
        determinize_safra(a, max_states=3412)
    assert len(determinize_safra(a, max_states=3413).states) == 3413


def test_safra_kids_computed_once_per_name_free_tree(monkeypatch):
    """One exploration derives the child positions of each name-free tree
    once and shares them between the steps from it and the payload build."""
    calls = []

    def counted(shape):
        calls.append(shape)
        return kids(shape)

    kids = safra._kids
    monkeypatch.setattr(safra, "_kids", counted)
    a = normalize(gen_nbw(GenSpec(10, 3, 0.2, 0.3, 777)))
    d = determinize_safra(a)
    assert sorted(calls) == sorted({t.shape for t in d.payloads})
    assert len(calls) == 748 < len(d.states)


def test_safra_payloads_share_good_and_bad_tuples():
    """One exploration builds one name tuple per distinct mark set and
    shares it among the trees that hold it, as good or as bad marks."""
    a = normalize(gen_nbw(GenSpec(10, 3, 0.2, 0.3, 777)))
    payloads = determinize_safra(a).payloads
    values = [t.good for t in payloads] + [t.bad for t in payloads]
    assert len({id(v) for v in values}) == len(set(values)) < len(payloads)


def test_safra_payloads_share_interned_shapes():
    """Every tree holds the shape object its exploration interned, shared
    by all trees of that shape."""
    a = normalize(gen_nbw(GenSpec(10, 3, 0.2, 0.3, 777)))
    payloads = determinize_safra(a).payloads
    shapes = [t.shape for t in payloads]
    assert len({id(s) for s in shapes}) == len(set(shapes)) == 748 < len(payloads)


def test_node_pool_exhaustion_is_caught_on_both_paths(two_state, monkeypatch):
    """A step with more sprouts than free names means the tree invariants
    are broken; the one-step path and the memoized exploration both refuse
    it rather than reuse a name."""
    def sprouting(count):
        return lambda a, shape, kids, sym: (
            (((0, 1), count),) + (((1,), 0),) * count, (0,) + (None,) * count, ())

    t0 = safra_initial(two_state)
    # name 0 stays on the root, so one name is free
    monkeypatch.setattr(safra, "_shape", sprouting(1))
    t1 = safra_successor(two_state, t0, "a")
    assert t1.shape == (((0, 1), 1), ((1,), 0)) and t1.names == (0, 1)
    assert t1.bad == (1,)
    monkeypatch.setattr(safra, "_shape", sprouting(2))
    with pytest.raises(AssertionError, match="node pool exhausted"):
        safra_successor(two_state, t0, "a")
    with pytest.raises(AssertionError, match="node pool exhausted"):
        determinize_safra(two_state)


_VALID = SafraTree((((0, 1), 1), ((1,), 0)), (0, 1), (), (2,))


@pytest.mark.parametrize("tree, message", [
    (SafraTree((((0, 1), 1), ((1,), 0)), (0, 3), (), (1, 2)),
     "node name 3 outside the name pool"),
    (SafraTree((((0, 1, 3), 1), ((1,), 0)), (0, 1), (), (2,)),
     "state id 3 out of range"),
    (SafraTree((((1, 0), 1), ((1,), 0)), (0, 1), (), (2,)),
     "node 0 label is not a sorted state set"),
    (SafraTree((((0, 1), 1), ((1,), 0)), (0, 1), (2,), ()),
     "good name 2 is not a node"),
    (SafraTree((((0, 1), 2), ((1,), 0)), (0, 1), (), (2,)),
     "child counts do not describe exactly one tree"),
    (SafraTree((((0, 1), 0), ((1,), 0)), (0, 1), (), (2,)),
     "child counts do not describe exactly one tree"),
    (SafraTree((((0, 1), 2), ((1,), -1)), (0, 1), (), (2,)),
     "child counts do not describe exactly one tree"),
    (SafraTree((((0, 1), 1), ((1,), 0)), (0,), (), (2,)),
     "names and shape differ in length"),
    (SafraTree((((0, 1), 1), ((1,), 0)), (0, 0), (), (2,)),
     "node names are not distinct"),
    (SafraTree((), (), (0,), (1, 2)), "rootless tree with good marks"),
], ids=["name-outside-pool", "state-out-of-range", "unsorted-label",
        "good-name-not-a-node", "child-counts-too-many", "child-counts-too-few",
        "negative-child-count", "names-shape-length-mismatch", "duplicate-names",
        "dead-tree-with-good-marks"])
def test_validate_safra_tree_flags_corrupted_tree(tree, message):
    a = nbw(["a"], ["x", "y", "z"], ["x"], ["y"], [("x", "a", "y")])
    assert validate_safra_tree(a, _VALID) == []
    assert validate_safra_tree(a, tree) == [message]
