import pytest

from buchidet import (Lasso, NBW, drw_run_eval, format_drw, label_levels,
                      nbw_member, normalize, profile_tree)
from buchidet.determinize import (Macrostate, determinize_profile,
                                  initial_macrostate, sigma_successor,
                                  validate_macrostate)
from buchidet.explore import StateLimitExceeded
from buchidet.harness import GenSpec, enumerate_lassos, gen_nbw
from buchidet.run_dag import initial_level, step_level

Q, P = 0, 1
FULL2 = frozenset({(0, 0), (0, 1), (1, 1)})


def walk(aut, word):
    out = [initial_macrostate(aut)]
    for symbol in word:
        out.append(sigma_successor(aut, out[-1], symbol))
    return out


def parent_of(pl):
    """Node -> rank of the parent class its class descends from."""
    return {q: pl.parents[j] for j, g in enumerate(pl.classes) for q in g}


def test_initial_macrostate(two_state):
    m = initial_macrostate(two_state)
    assert m == Macrostate(((Q,),), (0,), frozenset({(0, 0)}),
                           frozenset(), frozenset())


def test_initial_macrostate_two_states():
    a = NBW.build(["a"], ["x", "y"], ["x", "y"], [], [("x", "a", "y")])
    m = initial_macrostate(a)
    assert m.classes == ((0, 1),)
    assert m.labels == (0,)
    assert m.cousin == frozenset({(0, 0)})


def test_initial_macrostate_requires_normalization(selfloop_accepting):
    with pytest.raises(ValueError):
        initial_macrostate(selfloop_accepting)


def test_reference_macrostate_trace(two_state):
    """The determinized run on a,b,b: the non-accepting branch keeps label 0,
    the accepting branch cycles through fresh labels 1 and 2, and from the
    second step on label 0 is good while the dropped label is bad."""
    q0, q1, q2, q3 = walk(two_state, "abb")
    assert q0 == Macrostate(((Q,),), (0,), frozenset({(0, 0)}),
                            frozenset(), frozenset())
    assert q1 == Macrostate(((Q,), (P,)), (0, 1), FULL2,
                            frozenset(), frozenset())
    assert q2 == Macrostate(((Q,), (P,)), (0, 2), FULL2,
                            frozenset({0}), frozenset({1}))
    assert q3 == Macrostate(((Q,), (P,)), (0, 1), FULL2,
                            frozenset({0}), frozenset({2}))
    # the b-cycle closes back on the earlier macrostate
    assert sigma_successor(two_state, q3, "b") == q2


def test_restricted_step_drops_dominated_transitions(two_state):
    """The restricted step keeps, for each successor state, only the edges
    from its rank-maximal predecessor class; `step_level` applies it."""
    pl1 = profile_tree(two_state, "a")[1]
    # on a, state q is reachable from both classes; only the step inside
    # {q} survives for q, while p keeps its own maximal source {p}
    assert parent_of(step_level(two_state, pl1, "a")) == {Q: 0, P: 1}
    # on b everything funnels through p
    assert parent_of(step_level(two_state, pl1, "b")) == {Q: 1, P: 1}


def test_restricted_step_identity_on_deterministic_input():
    a = normalize(NBW.build(
        ["a", "b"], ["x", "y"], ["x"], ["y"],
        [("x", "a", "y"), ("x", "b", "x"), ("y", "a", "y"), ("y", "b", "x")]))
    pl1 = profile_tree(a, "a")[1]
    assert parent_of(step_level(a, pl1, "a")) == {a.states.index("y"): 0}


def test_restricted_step_empty(two_state):
    assert parent_of(step_level(two_state, initial_level(two_state), "b")) == {}


def test_selfloop_successor_is_quiet(det_chain):
    m0 = initial_macrostate(det_chain)
    m1 = sigma_successor(det_chain, m0, "a")
    assert m1 == m0
    assert m1.good == frozenset() and m1.bad == frozenset()


def test_dead_run_falls_into_sink(two_state):
    m0 = initial_macrostate(two_state)
    gone = sigma_successor(two_state, m0, "b")
    assert gone.classes == ()
    assert gone.bad == frozenset({0})
    sink = sigma_successor(two_state, gone, "a")
    assert sink == Macrostate((), (), frozenset(), frozenset(), frozenset())
    assert sigma_successor(two_state, sink, "b") == sink


def test_determinize_profile_contains_reference_trace(two_state):
    drw = determinize_profile(two_state)
    assert drw.payloads[drw.initial] == initial_macrostate(two_state)
    state = drw.initial
    seen = [drw.payloads[state]]
    for symbol in "abb":
        state = drw.trans[state][drw.sym_id(symbol)]
        seen.append(drw.payloads[state])
    assert seen == walk(two_state, "abb")


def test_determinize_profile_language(two_state):
    drw = determinize_profile(two_state)
    for w in enumerate_lassos(two_state.alphabet, 3, 4):
        assert drw_run_eval(drw, w) == nbw_member(two_state, w), str(w)


def test_empty_accepting_means_empty_language():
    a = normalize(NBW.build(["a", "b"], ["x", "y"], ["x"], [],
                            [("x", "a", "y"), ("y", "b", "x"), ("y", "a", "y")]))
    drw = determinize_profile(a)
    for w in enumerate_lassos(a.alphabet, 3, 3):
        assert drw_run_eval(drw, w) is False
        assert nbw_member(a, w) is False


def test_accepting_selfloop_language(selfloop_accepting):
    a = normalize(selfloop_accepting)
    drw = determinize_profile(a)
    assert drw_run_eval(drw, Lasso.parse(";a")) is True
    assert nbw_member(a, Lasso.parse(";a")) is True


def test_multiple_initial_states_language():
    a = normalize(NBW.build(
        ["a", "b"], ["x", "y", "z"], ["x", "y"], ["y"],
        [("x", "a", "x"), ("x", "b", "z"), ("y", "a", "y"),
         ("z", "b", "z"), ("z", "a", "y")]))
    assert len(a.initial) == 2
    drw = determinize_profile(a)
    for w in enumerate_lassos(a.alphabet, 3, 3):
        assert drw_run_eval(drw, w) == nbw_member(a, w), str(w)


def test_every_reachable_macrostate_is_valid():
    for i in range(30):
        aut = normalize(gen_nbw(GenSpec(2 + i % 4, 2, 0.5, 0.35, 50_000 + i)))
        drw = determinize_profile(aut)
        for m in drw.payloads:
            assert validate_macrostate(aut, m) == []



def test_validate_macrostate_flags_bad_cousin_relation():
    a = NBW.build(["a"], ["x", "y", "z"], ["x"], [], [])

    def faults(cousin):
        m = Macrostate(((0,), (1,), (2,)), (0, 1, 2), frozenset(cousin),
                       frozenset(), frozenset())
        return validate_macrostate(a, m)

    refl = {(0, 0), (1, 1), (2, 2)}
    assert faults(refl | {(0, 1), (1, 2), (0, 2)}) == []
    assert faults({(0, 0), (2, 2), (0, 2)}) == [
        "cousin relation misses reflexive pair (1,1)"]
    assert faults(refl | {(0, 1), (1, 2)}) == [
        "cousin relation not transitive: (0,1),(1,2)"]
    assert faults(refl | {(1, 0)}) == [
        "cousin pair (1,0) contradicts the class order"]
    assert faults(refl | {(0, 1), (1, 0)}) == [
        "cousin pair (1,0) contradicts the class order"]


def test_macrostate_matches_level_view():
    """The determinized state after any short word equals the level computed
    independently from the run DAG and its labeling, field by field."""
    corpus = [normalize(gen_nbw(GenSpec(2 + i % 3, 2, 0.5, 0.4, 60_000 + i)))
              for i in range(12)]
    for aut in corpus:
        for word in [("a", "b", "a", "b", "b", "a", "a", "b"),
                     ("b", "a", "a", "a", "b", "b", "b", "a")]:
            levels = profile_tree(aut, word)
            lab = label_levels(levels, aut.n)
            for i, m in enumerate(walk(aut, word)):
                assert m.classes == levels[i].classes
                assert m.labels == lab[i].lbl
                assert m.cousin == lab[i].cousin
                assert m.good == lab[i].good
                assert m.bad == lab[i].bad


def test_determinization_is_deterministic(two_state):
    one = format_drw(determinize_profile(two_state))
    two = format_drw(determinize_profile(two_state))
    assert one == two


def test_state_budget_enforced(two_state):
    with pytest.raises(StateLimitExceeded):
        determinize_profile(two_state, max_states=2)


def test_rabin_pairs_indexed_by_label(two_state):
    drw = determinize_profile(two_state)
    for g, b in drw.acceptance:
        assert g  # empty-G pairs are dropped
    labels_good = {m for st in drw.payloads for m in st.good}
    assert len(drw.acceptance) == len(labels_good)
