import hashlib
import random
import tracemalloc
from dataclasses import replace

import pytest

from buchidet import (DRW, RabinCondition, drw_run_eval, format_drw, nbw_member,
                      normalize, safra)
from buchidet.determinize import determinize_profile
from buchidet.explore import StateLimitExceeded, explore
from buchidet.harness import GenSpec, enumerate_lassos, gen_nbw
from buchidet.safra import (SafraTree, determinize_safra, safra_initial,
                            safra_successor, validate_safra_tree)
import mutants
from oracles import brute_member, drw_equivalent, drw_included, nbw


def test_initial_tree(two_state):
    t = safra_initial(two_state)
    assert t == SafraTree((0b1, ()), (), ())
    assert validate_safra_tree(two_state, t) == []


def test_initial_tree_single_state(det_chain):
    t = safra_initial(det_chain)
    assert t.bad == ()


def test_initial_tree_two_initial():
    a = nbw(["a"], ["x", "y"], ["x", "y"], [], [("x", "a", "x")])
    assert safra_initial(a).shape == (0b11, ())


def test_initial_requires_normalization(selfloop_accepting):
    with pytest.raises(ValueError):
        safra_initial(selfloop_accepting)
    with pytest.raises(ValueError, match="automaton must be normalized first"):
        determinize_safra(selfloop_accepting)


def test_successor_sprouts_accepting_child(two_state):
    """On a, the root grows to {q,p} and sprouts a child tracking the
    accepting intersection {p}; the sprout's path (0,) is bad."""
    t1 = safra_successor(two_state, safra_initial(two_state), "a")
    assert t1 == SafraTree((0b11, ((0b10, ()),)), (), ((0,),))
    assert validate_safra_tree(two_state, t1) == []


def test_successor_dead_tree_is_sink(two_state):
    dying = safra_successor(two_state, safra_initial(two_state), "b")
    assert dying == SafraTree((), (), ((),))
    dead = safra_successor(two_state, dying, "a")
    assert dead == SafraTree((), (), ())
    assert safra_successor(two_state, dead, "b") == dead


def test_vertical_merge_marks_good():
    a = normalize(nbw(["a"], ["x", "f"], ["x"], ["f"],
                            [("x", "a", "f"), ("f", "a", "f")]))
    t1 = safra_successor(a, safra_initial(a), "a")
    # the sprout covers the whole parent label, so the parent sheds it
    # and turns good; no node is left at the sprout's path
    assert t1.good == ((),)
    assert t1.bad == ()
    assert t1.shape == (0b10, ())
    assert validate_safra_tree(a, t1) == []


def test_horizontal_merge_prefers_older_sibling(two_state):
    # after a,a the old child keeps p, so no sprout grows; the child stays
    # at its path and turns good there
    t = safra_initial(two_state)
    for symbol in "aa":
        t = safra_successor(two_state, t, symbol)
    assert t.shape == (0b11, ((0b10, ()),))
    assert (t.good, t.bad) == (((0,),), ())
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


def test_position_rule_marks_moves_sprouts_and_good_in_place():
    """Paths name nodes.  An older sibling that dies shifts a younger one,
    which is bad at both its old and its new path, and its turning good
    there marks nothing; a sprout is bad at its path; a node that turns
    good where it was is good at its path."""
    a = nbw(["a", "b", "c"], ["s", "x", "y"], ["s"], ["x", "y"],
            [("s", "a", "s"), ("s", "a", "x"), ("s", "b", "s"), ("s", "b", "y"),
             ("x", "b", "x"), ("s", "c", "s"), ("y", "c", "y")])
    t = safra_initial(a)
    steps = []
    for symbol in "abcc":
        t = safra_successor(a, t, symbol)
        assert validate_safra_tree(a, t) == []
        steps.append(t)
    # a: x sprouts under the root at (0,)
    assert steps[0] == SafraTree((0b011, ((0b010, ()),)), (), ((0,),))
    # b: the leaf {x} turns good in place; y sprouts as its younger sibling
    assert steps[1] == SafraTree((0b111, ((0b010, ()), (0b100, ()))),
                                 ((0,),), ((1,),))
    # c: {x} dies, so {y} moves from (1,) to (0,) and turns good on the way
    assert steps[2] == SafraTree((0b101, ((0b100, ()),)), (), ((0,), (1,)))
    # c: {y} stays at (0,) and turns good there
    assert steps[3] == SafraTree((0b101, ((0b100, ()),)), ((0,),), ())


def test_safra_pair_count_and_determinism(two_state):
    """One Rabin pair per path that is good on some step."""
    drw = determinize_safra(two_state)
    good = sorted({p for t in drw.payloads for p in t.good})
    assert good == [(), (0,)]
    assert len(drw.acceptance) == len(good)
    assert format_drw(drw) == format_drw(determinize_safra(two_state))


def test_safra_state_budget(two_state):
    with pytest.raises(StateLimitExceeded):
        determinize_safra(two_state, max_states=1)


def _matches_replay(a, d) -> bool:
    """Whether stepping every tree of `a` afresh with `safra_successor`
    gives the trees and transitions of `d`, in the same order."""
    states, table = explore(safra_initial(a),
                            lambda t, s: safra_successor(a, t, a.alphabet[s]),
                            len(a.alphabet))
    return d.payloads == tuple(states) and d.trans == tuple(map(tuple, table))


def test_safra_payloads_match_safra_successor_replay():
    """`determinize_safra` reuses each step across trees with the same
    shape; stepping every tree afresh must give the same trees in the same
    order."""
    corpus = [normalize(gen_nbw(GenSpec(n, 2, 0.5, 0.3, 70_000 + 1000 * n + i)))
              for n in range(2, 6) for i in range(40)]
    corpus.append(normalize(gen_nbw(GenSpec(8, 2, 0.3, 0.3, 777))))
    for a in corpus:
        assert _matches_replay(a, determinize_safra(a))


def _labels(node):
    """Every label of the root node `node` and its descendants."""
    if node:
        yield node[0]
        for child in node[1]:
            yield from _labels(child)


@pytest.mark.parametrize("n, trees, digest", [
    (8, 73, "f85d38a889478076a5907b0bd13cbe5bd00676798cf8630ac00c7b53b37f2ba8"),
    (9, 65, "eb5db271ad489fc0be3d711a9ca02535fb6958c60519d3edb99f4a36ff69723d"),
    (16, 231, "4a5ac1c68a7b0c5931cc6db809153d65706fa3d0581e557aa5fe9f1eb2619edd"),
    (17, 327, "4aeb6cc2d974ec44e4772f666316e86266952009ca9f71fb1e64966028e928f8"),
    (20, 155, "3348714b720a90fdc2c69ce79fc6878495d37f4ebc8804ae3c0876dc679c859c"),
])
def test_safra_drw_pinned_across_image_table_chunks(n, trees, digest):
    """An image is one 8-state table lookup up to 8 states, two lookups up
    to 16, and a loop over the chunks beyond.  On each side of both
    boundaries, a sparse automaton's Safra DRW keeps its bytes, every
    label of every tree is a state mask, its highest state appears in some
    tree, and `safra_successor` replays it."""
    a = normalize(gen_nbw(GenSpec(n, 2, 0.15, 0.3, 777)))
    d = determinize_safra(a)
    assert len(d.states) == trees
    assert all(type(m) is int and m > 0
               for t in d.payloads for m in _labels(t.shape))
    assert max(t.shape[0].bit_length() for t in d.payloads if t.shape) == n
    assert hashlib.sha256(format_drw(d).encode()).hexdigest() == digest
    assert _matches_replay(a, d)


def test_safra_shape_computed_once_per_name_free_tree_and_symbol(monkeypatch):
    """A step and its marks depend on the labels and topology only, so one
    exploration computes it once for each shape and symbol; the dead
    tree's empty shape is one of them."""
    calls = []

    def counted(*args):
        calls.append(args)
        return step(*args)

    step = safra._step
    monkeypatch.setattr(safra, "_step", counted)
    a = normalize(gen_nbw(GenSpec(10, 3, 0.2, 0.3, 777)))
    d = determinize_safra(a)
    shapes = {t.shape for t in d.payloads}
    assert () in shapes
    assert len(calls) == len(shapes) * len(a.alphabet) == 2244
    assert len(calls) < len(d.states) * len(a.alphabet)


def test_safra_cap_counts_trees_in_discovery_order():
    a = normalize(gen_nbw(GenSpec(10, 3, 0.2, 0.3, 777)))
    with pytest.raises(StateLimitExceeded):
        determinize_safra(a, max_states=1273)
    assert len(determinize_safra(a, max_states=1274).states) == 1274


def test_safra_payloads_share_good_and_bad_tuples():
    """One exploration builds one path tuple per distinct mark set and
    shares it among the trees that hold it, as good or as bad marks."""
    a = normalize(gen_nbw(GenSpec(10, 3, 0.2, 0.3, 777)))
    payloads = determinize_safra(a).payloads
    values = [t.good for t in payloads] + [t.bad for t in payloads]
    assert len({id(v) for v in values}) == len(set(values)) < len(payloads)


def test_safra_peak_memory():
    """Trees keep the step's mask labels, and the exploration edges are
    dropped before the trees are built: the 1,275 trees of this automaton
    peak at about 1.3 MiB under tracemalloc."""
    a = normalize(gen_nbw(GenSpec(10, 3, 0.15, 0.3, 777)))
    tracemalloc.start()
    try:
        determinize_safra(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.7 * 2 ** 20


def test_safra_payloads_share_interned_shapes():
    """Every tree holds the shape object its exploration interned, shared
    by all trees of that shape."""
    a = normalize(gen_nbw(GenSpec(10, 3, 0.2, 0.3, 777)))
    payloads = determinize_safra(a).payloads
    shapes = [t.shape for t in payloads]
    assert len({id(s) for s in shapes}) == len(set(shapes)) == 748 < len(payloads)


def test_profile_and_safra_drws_are_equivalent_on_the_mutant_corpus():
    """Exact language equality, not lassos: on every automaton of the
    mutant catalogue's corpus the two constructions accept one language."""
    for a in mutants.corpus():
        assert drw_equivalent(determinize_profile(a), determinize_safra(a))


@pytest.mark.parametrize("seed, lasso_flags", [(4246, 228), (4247, 0)])
def test_exact_check_flags_swapped_pairs(seed, lasso_flags):
    """With its Rabin pairs swapped, the profile DRW loses words that
    Safra's DRW accepts.  The exact check refuses it, both where lassos
    with |u|≤3, |v|≤4 show the fault and where none of them does, and still
    proves the true DRW equal to Safra's."""
    a = normalize(gen_nbw(GenSpec(4, 2, 0.5, 0.3, seed)))
    p, s = determinize_profile(a), determinize_safra(a)
    swapped = DRW(p.alphabet, p.states, p.initial, p.trans,
                  RabinCondition(tuple((b, g) for g, b in p.acceptance)))
    assert sum(drw_run_eval(swapped, w) != nbw_member(a, w)
               for w in enumerate_lassos(a.alphabet, 3, 4)) == lasso_flags
    assert drw_equivalent(p, s)
    assert not drw_included(s, swapped)


def test_exact_inclusion_agrees_with_lassos_on_small_drws():
    """On random DRWs of at most three states, L(d1) ⊆ L(d2) fails exactly
    when some short lasso is accepted by d1 and rejected by d2."""
    rng = random.Random(2026)
    lassos = enumerate_lassos(["a", "b"], 2, 5)

    def drw():
        n = rng.randint(1, 3)
        trans = tuple(tuple(rng.randrange(n) for _ in "ab") for _ in range(n))
        pairs = tuple((frozenset(q for q in range(n) if rng.random() < 0.4),
                       frozenset(q for q in range(n) if rng.random() < 0.3))
                      for _ in range(rng.randint(0, 2)))
        return DRW(("a", "b"), tuple(f"s{q}" for q in range(n)), 0, trans,
                   RabinCondition(pairs))

    refuted = 0
    for _ in range(200):
        d1, d2 = drw(), drw()
        witness = any(drw_run_eval(d1, w) and not drw_run_eval(d2, w)
                      for w in lassos)
        assert drw_included(d1, d2) is not witness
        refuted += witness
    assert refuted == 53


_VALID = SafraTree((0b011, ((0b010, ()),)), (), ((1,),))
_NOT_A_ROOT = "node () is not a (label, children) pair"


@pytest.mark.parametrize("tree, message", [
    (replace(_VALID, shape=(0b1011, ((0b010, ()),))), "state id 3 out of range"),
    (replace(_VALID, good=((1,),), bad=()), "good path (1,) is not a node"),
    (replace(_VALID, good=((0,),), bad=((0,),)), "good and bad marks overlap"),
    (replace(_VALID, shape=((0b011, 1), (0b010, 0))), _NOT_A_ROOT),
    (replace(_VALID, shape=(0b011, ((0b010,),))),
     "node (0,) is not a (label, children) pair"),
    (replace(_VALID, shape=(0b011, ((0b010, ()), 2))),
     "node (1,) is not a (label, children) pair"),
    (replace(_VALID, shape=(0b011, ((-0b010, ()),))),
     "node (0,) is not a (label, children) pair"),
    (replace(_VALID, shape=(True, ())), _NOT_A_ROOT),
    (replace(_VALID, shape=((0, 1), (((1,), ()),))), _NOT_A_ROOT),
    (replace(_VALID, shape=None), _NOT_A_ROOT),
    (replace(_VALID, shape=0), _NOT_A_ROOT),
    (replace(_VALID, shape=[]), _NOT_A_ROOT),
    (replace(_VALID, shape=""), _NOT_A_ROOT),
    (replace(_VALID, shape=False), _NOT_A_ROOT),
    (SafraTree((), ((),), ((0,),)), "rootless tree with good marks"),
    (replace(_VALID, shape=(0b011, ((0, ()),))), "node (0,) is empty"),
    (replace(_VALID, shape=(0b111, ((0b010, ()), (0b010, ())))),
     "node (1,) shares states with a sibling"),
    (replace(_VALID, shape=(0b001, ((0b010, ()),))),
     "node () does not contain its children"),
    (replace(_VALID, shape=(0b010, ((0b010, ()),))),
     "node () equals the union of its children"),
], ids=["state-out-of-range", "good-name-not-a-node", "good-and-bad-overlap",
        "preorder-shape", "child-not-a-pair", "int-among-children",
        "negative-label", "bool-label", "tuple-label", "none-shape",
        "zero-shape", "list-shape", "str-shape", "false-shape",
        "dead-tree-with-good-marks", "empty-label", "siblings-share-states",
        "children-not-contained", "node-equals-children"])
def test_validate_safra_tree_flags_corrupted_tree(tree, message):
    a = nbw(["a"], ["x", "y", "z"], ["x"], ["y"], [("x", "a", "y")])
    assert validate_safra_tree(a, _VALID) == []
    assert validate_safra_tree(a, tree) == [message]
