import pytest

from buchidet import normalize, run_dag
from buchidet.determinize import Macrostate, validate_macrostate
from buchidet.harness import GenSpec, gen_nbw
from buchidet.run_dag import initial_level, step_level
from oracles import descendant_ranks, first_classes, labels_of_class, profile_tree


def fig_labeled(two_state):
    """The labeled levels of the reference trace, on the prefix abb."""
    return profile_tree(two_state, ("a", "b", "b"))


def test_reference_trace_global_labels(two_state):
    lab = fig_labeled(two_state)
    assert [ll.gl for ll in lab] == [(0,), (0, 1), (0, 2), (0, 3)]


def test_reference_trace_bounded_labels(two_state):
    lab = fig_labeled(two_state)
    assert [ll.lbl for ll in lab] == [(0,), (0, 1), (0, 2), (0, 1)]
    assert [sorted(ll.good) for ll in lab] == [[], [], [0], [0]]
    assert [sorted(ll.bad) for ll in lab] == [[], [], [1], [2]]


def test_reference_trace_label_sets(two_state):
    lab = fig_labeled(two_state)
    printed = [sorted(labels_of_class(lab, i, j))
               for i in range(4) for j in range(len(lab[i].classes))]
    assert printed == [[], [0], [], [0, 1], [], [0, 1, 2], []]


def test_reference_trace_successful(two_state):
    lab = fig_labeled(two_state)
    assert [sorted(ll.successful) for ll in lab] == [[], [], [0], [0]]


def test_labels_of_class_range_checks(two_state):
    lab = fig_labeled(two_state)
    with pytest.raises(ValueError):
        labels_of_class(lab, 9, 0)
    with pytest.raises(ValueError):
        labels_of_class(lab, 1, 5)


def test_single_chain_never_successful(det_chain):
    lab = profile_tree(det_chain, ["a"] * 5)
    for ll in lab:
        assert ll.gl == (0,)
        assert ll.successful == frozenset()
        assert ll.good == frozenset()
        assert ll.bad == frozenset()


def test_dead_level_marks_all_labels_bad(two_state):
    lab = profile_tree(two_state, ["b"])                       # q dies on b
    assert lab[1].classes == ()
    assert sorted(lab[1].bad) == [0]
    assert lab[1].good == frozenset() == lab[1].successful
    longer = profile_tree(two_state, ["b", "a"])
    assert longer[2].bad == frozenset()                  # sink stays quiet


def _corpus(n_max=4, count=25):
    out = []
    for i in range(count):
        n = 2 + i % (n_max - 1)
        out.append(normalize(gen_nbw(GenSpec(n, 2, 0.55, 0.4, 30_000 + i))))
    return out


def test_label_laws_on_random_corpus():
    """Per-level injectivity, persistence, birth ordering, and the cousin
    relation being a partial order, across a seeded corpus."""
    for aut in _corpus():
        for word in [(), ("a",), ("a", "b"), ("b", "b", "a"),
                     ("a", "b", "a", "b"), ("b", "a", "a", "b", "a"),
                     ("a",) * 6, ("a", "b") * 3]:
            lab = profile_tree(aut, word)
            firsts = first_classes(lab)
            for i, ll in enumerate(lab):
                assert len(set(ll.gl)) == len(ll.gl)
                assert len(set(ll.lbl)) == len(ll.lbl)
                assert all(0 <= m <= 2 * aut.n for m in ll.lbl)
                assert validate_macrostate(aut, Macrostate(
                    ll.classes, ll.lbl, ll.cousin, ll.good, ll.bad)) == []
                # a label present away from its birth level was present on
                # the previous level too
                for m in ll.gl:
                    if firsts[m][0] < i:
                        assert m in lab[i - 1].gl
            ordered = sorted(firsts)
            coords = [firsts[m] for m in ordered]
            assert coords == sorted(coords)


def test_nephew_shortcut_matches_descendant_walk():
    """Every label's full cousin row equals the explicit descendant walk from
    its birth class over the stored tree, and the label sits on the row's
    minimum."""
    for aut in _corpus(count=15):
        for word in [("a", "b", "a", "b", "a", "b", "a", "b"),
                     ("b", "b", "a", "a", "b", "a", "b", "b")]:
            lab = profile_tree(aut, word)
            for i, ll in enumerate(lab):
                for j, m in enumerate(ll.gl):
                    ranks = descendant_ranks(lab, m, i)
                    assert ll.cousin[j] == ranks
                    assert min(ranks) == j


def test_empty_labels_iff_no_uncles():
    for aut in _corpus(count=15):
        for word in [("a", "b", "b", "a", "a", "b"),
                     ("b", "a", "b", "a", "b", "a")]:
            lab = profile_tree(aut, word)
            for i in range(1, len(lab)):
                for j, m in enumerate(lab[i].gl):
                    assert bool(labels_of_class(lab, i, j)) == (m in lab[i - 1].gl)


def test_bounded_and_global_labels_partition_alike():
    """Both labelings are fresh on exactly the same classes and inherit along
    the same uncles, so per level they induce the same class partition into
    label threads."""
    for aut in _corpus(count=10):
        word = ("a", "b", "a", "a", "b", "b", "a")
        lab = profile_tree(aut, word)
        for i in range(1, len(lab)):
            prev, cur = lab[i - 1], lab[i]
            for j, (g, b) in enumerate(zip(cur.gl, cur.lbl)):
                g_inherited = g in prev.gl
                b_inherited = b in prev.lbl
                assert g_inherited == b_inherited
                if g_inherited:
                    assert prev.gl.index(g) == prev.lbl.index(b)


def test_free_label_pool_exhaustion_is_caught(two_state, monkeypatch):
    """A slice with more fresh classes than free labels means the state
    count argument is broken; the level step refuses it rather than reuse a
    label.  Class 0 inherits the root's label 0, the others are fresh."""
    def width(k):
        return lambda a, prev, symbol: (((0,),) * k, (0,) * k, (0,) * k)

    lv0 = initial_level(two_state)
    pool = 2 * two_state.n + 1
    monkeypatch.setattr(run_dag, "_slice", width(pool))
    assert step_level(two_state, lv0, "a").lbl == tuple(range(pool))
    monkeypatch.setattr(run_dag, "_slice", width(pool + 1))
    with pytest.raises(AssertionError, match="free-label pool exhausted"):
        step_level(two_state, lv0, "a")
