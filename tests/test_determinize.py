import ast
import hashlib
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import buchidet
from buchidet import (Lasso, determinize, drw_run_eval, format_drw, nbw_member,
                      normalize)
from buchidet.determinize import (Macrostate, determinize_profile,
                                  initial_macrostate, sigma_successor,
                                  validate_macrostate)
from buchidet.explore import StateLimitExceeded, explore, rabin_drw
from buchidet.harness import GenSpec, enumerate_lassos, gen_nbw
from buchidet.hoa import format_hoa
from buchidet.run_dag import initial_level, step_level
from buchidet.safra import determinize_safra
from oracles import label_levels, nbw, preorder, profile_tree

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
    a = nbw(["a"], ["x", "y"], ["x", "y"], [], [("x", "a", "y")])
    m = initial_macrostate(a)
    assert m.classes == ((0, 1),)
    assert m.labels == (0,)
    assert m.cousin == frozenset({(0, 0)})


def test_initial_macrostate_requires_normalization(selfloop_accepting):
    with pytest.raises(ValueError):
        initial_macrostate(selfloop_accepting)
    with pytest.raises(ValueError, match="automaton must be normalized first"):
        determinize_profile(selfloop_accepting)


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
    a = normalize(nbw(
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
        state = drw.trans[state][drw.alphabet.index(symbol)]
        seen.append(drw.payloads[state])
    assert seen == walk(two_state, "abb")


def test_determinize_profile_language(two_state):
    drw = determinize_profile(two_state)
    for w in enumerate_lassos(two_state.alphabet, 3, 4):
        assert drw_run_eval(drw, w) == nbw_member(two_state, w), str(w)


def test_empty_accepting_means_empty_language():
    a = normalize(nbw(["a", "b"], ["x", "y"], ["x"], [],
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
    a = normalize(nbw(
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
    a = nbw(["a"], ["x", "y", "z"], ["x"], [], [])

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


_VALID_M = Macrostate(((0,), (1, 2)), (0, 1), frozenset({(0, 0), (0, 1), (1, 1)}),
                     frozenset({1}), frozenset({0}))


@pytest.mark.parametrize("changes, message", [
    ({"classes": ((), (1, 2))}, "class 0 is empty"),
    ({"classes": ((0,), (2, 1))}, "class 1 is not a sorted state set"),
    ({"classes": ((0,), (1, 1))}, "class 1 is not a sorted state set"),
    ({"classes": ((0, 1), (1, 2))}, "class 1 shares states with a sibling"),
    ({"classes": ((0,), (1, 3))}, "state id 3 out of range"),
    ({"labels": (0,)}, "labels and classes differ in length"),
    ({"labels": (1, 1)}, "labels are not distinct across classes"),
    ({"labels": (0, 7)}, "label 7 outside the pool"),
    ({"cousin": _VALID_M.cousin | {(0, 2)}}, "cousin pair (0,2) out of range"),
    ({"good": frozenset({7})}, "event label 7 outside the pool"),
    ({"bad": frozenset({1})}, "good and bad label sets overlap"),
], ids=["empty-class", "unsorted-class", "repeated-state", "overlapping-classes",
        "state-out-of-range", "labels-length", "repeated-label",
        "label-outside-pool", "cousin-out-of-range", "event-outside-pool",
        "good-and-bad-overlap"])
def test_validate_macrostate_flags_corrupted_macrostate(changes, message):
    a = nbw(["a"], ["x", "y", "z"], ["x"], [], [])
    assert validate_macrostate(a, _VALID_M) == []
    assert validate_macrostate(a, replace(_VALID_M, **changes)) == [message]


def test_validate_macrostate_shares_preorder_faults_by_the_whole_pair():
    """Equal classes with different cousin orders are two preorder pairs:
    sharing one `seen` dict, each is judged on its own, in either order,
    and every call returns its own list."""
    a = nbw(["a"], ["x", "y", "z"], ["x"], [], [])
    classes, refl = ((0,), (1,), (2,)), {(0, 0), (1, 1), (2, 2)}
    closed = Macrostate(classes, (0, 1, 2), frozenset(refl | {(0, 1), (1, 2), (0, 2)}),
                        frozenset(), frozenset())
    open_ = replace(closed, cousin=frozenset(refl | {(0, 1), (1, 2)}))
    fault = ["cousin relation not transitive: (0,1),(1,2)"]
    for order in ((closed, open_), (open_, closed)):
        seen = {}
        for m in order + order:
            got = validate_macrostate(a, m, seen)
            assert got == ([] if m is closed else fault)
            got.append("scribbled")
        assert len(seen) == 2


def _field_corruptions(a, m):
    """`m` and five copies, each with one field corrupted."""
    k, top = len(m.classes), 2 * a.n + 1
    twice = ((m.classes[0][:1] + m.classes[0],) + m.classes[1:]) if k else ((0,),)
    return [m, replace(m, classes=twice),
            replace(m, cousin=m.cousin | {(k, 0)}),
            replace(m, cousin=(m.cousin | {(k - 1, 0)}) - {(0, 0)}),
            replace(m, labels=m.labels[::-1] + (top,)),
            replace(m, good=m.good | m.bad | {top})]


def test_shared_preorder_faults_match_the_unshared_validator():
    """Over the mutant catalogue's 180 profile DRWs and field-corrupted
    copies of every payload, one `seen` dict per DRW gives each payload
    exactly the messages that the validator gives it alone."""
    import mutants

    checked = faulty = 0
    for a in mutants.corpus():
        seen = {}
        for m in determinize_profile(a).payloads:
            for m2 in _field_corruptions(a, m):
                want = validate_macrostate(a, m2)
                assert validate_macrostate(a, m2, seen) == want
                checked, faulty = checked + 1, faulty + bool(want)
    assert checked == 6 * 4007 and faulty == 5 * 4007


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


def test_state_budget_must_allow_the_initial_state(two_state):
    with pytest.raises(ValueError, match="max_states must be at least 1"):
        explore(0, lambda q, sym: q, 1, max_states=0)
    with pytest.raises(ValueError, match="max_states must be at least 1"):
        determinize_profile(two_state, 0)


def test_explore_steps_once_per_index_and_symbol_in_order():
    """Callers record what each step yields beside the table, so `explore`
    calls `step` exactly once per (state index, symbol), in index order,
    then symbol order, however often a state is reached."""
    succ = {"p": ("q", "r"), "q": ("r", "s"), "r": ("s", "p"), "s": ("s", "s")}
    calls = []

    def step(q, sym):
        calls.append((q, sym))
        return succ[q][sym]

    states, table = explore("p", step, 2)
    assert states == ["p", "q", "r", "s"]
    assert table == [[1, 2], [2, 3], [3, 0], [3, 3]]
    assert calls == [(q, sym) for q in states for sym in range(2)]


def test_rabin_pairs_indexed_by_label(two_state):
    drw = determinize_profile(two_state)
    for g, b in drw.acceptance:
        assert g  # empty-G pairs are dropped
    labels_good = {m for st in drw.payloads for m in st.good}
    assert len(drw.acceptance) == len(labels_good)


def test_rabin_drw_pairs_come_from_payload_events():
    """The pair rule both constructions share, on hand-built payloads: one
    pair per event good somewhere, in sorted event order, with B the states
    where it is bad; an event that is only ever bad gives no pair."""
    ev = SimpleNamespace
    payloads = [ev(good=((1,),), bad=((2,),)),
                ev(good=((1,), (0,)), bad=()),
                ev(good=(), bad=((2,), (1,), (0,))),
                ev(good=((0, 1),), bad=((0,),))]
    d = rabin_drw(("a",), "x", [[1], [2], [3], [0]], payloads)
    assert d.acceptance == ((frozenset({1}), frozenset({2, 3})),
                            (frozenset({3}), frozenset()),
                            (frozenset({0, 1}), frozenset({2})))
    assert d.states == ("x0", "x1", "x2", "x3")
    assert d.initial == 0 and d.trans == ((1,), (2,), (3,), (0,))
    assert all(p is q for p, q in zip(d.payloads, payloads, strict=True))


def _replayed(a):
    """The profile exploration with every step computed afresh."""
    return explore(initial_macrostate(a),
                   lambda m, s: sigma_successor(a, m, a.alphabet[s]),
                   len(a.alphabet))


def test_profile_payloads_match_sigma_successor_replay():
    """`determinize_profile` reuses each step's label-free part across
    macrostates with the same classes and cousin order; stepping every
    macrostate afresh must give the same states in the same order."""
    corpus = [normalize(gen_nbw(GenSpec(n, 2, 0.5, 0.3, 70_000 + 1000 * n + i)))
              for n in range(2, 6) for i in range(40)]
    corpus.append(normalize(gen_nbw(GenSpec(8, 2, 0.3, 0.3, 777))))
    for a in corpus:
        states, table = _replayed(a)
        d = determinize_profile(a)
        assert d.payloads == tuple(states)
        assert d.trans == tuple(tuple(row) for row in table)


def test_profile_shape_computed_once_per_classes_cousin_and_symbol(monkeypatch):
    """The label-free part of a step depends on the classes, the cousin
    order and the symbol only, so one exploration computes it once for each
    such triple; a cache keyed on the labels too would be correct but
    useless."""
    calls = []

    def counted(*args):
        calls.append(args)
        return shape(*args)

    shape = determinize._shape
    monkeypatch.setattr(determinize, "_shape", counted)
    a = normalize(gen_nbw(GenSpec(8, 2, 0.3, 0.3, 777)))
    d = determinize_profile(a)
    preorders = {(m.classes, m.cousin) for m in d.payloads}
    assert len(calls) == len(preorders) * len(a.alphabet) < len(d.states)


@pytest.mark.parametrize("spec, pairs", [(GenSpec(10, 2, 0.25, 0.3, 778), 47),
                                         (GenSpec(8, 2, 0.25, 0.3, 777), 127),
                                         (GenSpec(10, 3, 0.15, 0.3, 777), 805)])
def test_preorder_automaton_pinned(spec, pairs):
    """The label-free automaton of (classes, cousin) pairs, explored on its
    own: its size, and each edge is `_shape` of its source pair."""
    a = normalize(gen_nbw(spec))
    pre, edges = determinize._preorders(a, 10 ** 6)
    assert len(pre) == len(edges) == pairs
    for pair, row in zip(pre, edges, strict=True):
        assert len(row) == len(a.alphabet)
        for sym, (sid2, heirs, good) in enumerate(row):
            assert determinize._shape(a, *pair, sym) == (*pre[sid2], heirs, good)


def test_preorder_automaton_holds_the_macrostates_pairs(monkeypatch):
    """On the largest profile benchmark job the 47 pairs are exactly the
    distinct (classes, cousin) of the 25,980 macrostates.  The pairs are
    explored first under the same cap: a cap below 47 stops there, before
    any label step, and the macrostate cap edge stays at 25,980."""
    a = normalize(gen_nbw(GenSpec(10, 2, 0.25, 0.3, 778)))
    d = determinize_profile(a, max_states=25_980)
    pre, _ = determinize._preorders(a, 47)
    assert len(d.states) == 25_980
    assert set(pre) == {(m.classes, m.cousin) for m in d.payloads}
    with pytest.raises(StateLimitExceeded):
        determinize_profile(a, max_states=25_979)
    labelled = []
    monkeypatch.setattr(determinize, "_apply_labels",
                        lambda *args: labelled.append(args))
    with pytest.raises(StateLimitExceeded):
        determinize_profile(a, max_states=46)
    assert labelled == []


def test_profile_payloads_share_equal_fields():
    """One exploration builds one classes and cousin object per distinct
    (classes, cousin) pair, and one object per distinct good and bad value,
    and shares them among the macrostates that hold them; the memory per
    macrostate depends on that."""
    a = normalize(gen_nbw(GenSpec(8, 2, 0.3, 0.3, 777)))
    payloads = determinize_profile(a).payloads
    for fields in (("classes", "cousin"), ("good",), ("bad",)):
        values = [tuple(getattr(m, f) for f in fields) for m in payloads]
        ids = {tuple(map(id, v)) for v in values}
        assert len(ids) == len(set(values)) < len(values), fields


def test_free_label_pool_exhaustion_is_caught_on_both_paths(two_state, monkeypatch):
    """A step with more fresh classes than free labels means the state
    count argument is broken; the one-step path and the label exploration
    over the preorder automaton both refuse it rather than reuse a label."""
    def fresh(count):
        return lambda a, classes, cousin, sym: (((0,),) * count, frozenset(),
                                                (None,) * count, ())

    m0 = initial_macrostate(two_state)
    pool = 2 * two_state.n + 1
    monkeypatch.setattr(determinize, "_shape", fresh(pool - 1))
    m1 = sigma_successor(two_state, m0, "a")
    assert m1.labels == tuple(range(1, pool)) and m1.bad == frozenset({0})
    # label 0 is in use, so a whole pool of fresh classes no longer fits
    monkeypatch.setattr(determinize, "_shape", fresh(pool))
    with pytest.raises(AssertionError, match="free-label pool exhausted"):
        sigma_successor(two_state, m0, "a")
    monkeypatch.setattr(determinize, "_shape", fresh(pool + 1))
    with pytest.raises(AssertionError, match="free-label pool exhausted"):
        sigma_successor(two_state, m0, "a")
    with pytest.raises(AssertionError, match="free-label pool exhausted"):
        determinize_profile(two_state)


def test_profile_cap_counts_macrostates_in_discovery_order():
    a = normalize(gen_nbw(GenSpec(8, 2, 0.3, 0.3, 777)))
    with pytest.raises(StateLimitExceeded):
        determinize_profile(a, max_states=2459)
    assert len(determinize_profile(a, max_states=2460).states) == 2460


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _flat_payloads(drw) -> str:
    """The repr of a Safra DRW's trees with each shape in preorder form."""
    return repr(tuple(replace(t, shape=preorder(t.shape)) for t in drw.payloads))


def test_whole_drw_golden_digest():
    """Pins both DRWs of one 8-state automaton byte for byte, native and
    HOA, the profile macrostates field by field and the Safra trees whole
    (each shape flattened to preorder), so a change in state identity (a
    different cousin set or marked path, say) shows even where the language
    stays the same.  A larger Safra-only input (1,274 trees) covers deeper
    trees and moved nodes."""
    a = normalize(gen_nbw(GenSpec(8, 2, 0.3, 0.3, 777)))
    profile, safra = determinize_profile(a), determinize_safra(a)
    assert (len(profile.states), len(safra.states)) == (2460, 31)
    assert _sha256(format_drw(profile)) == \
        "671a20f5acdf09144b91e8c4800c20c9e1f0df4c2fa2604f2b25c3315a22f310"
    assert _sha256(format_drw(safra)) == \
        "14e99f701015843aae67995ed1f75de61744b939cad6224fb79f0a026af88be1"
    fields = "".join(repr((m.classes, m.labels, sorted(m.cousin), sorted(m.good),
                           sorted(m.bad))) for m in profile.payloads)
    assert _sha256(fields) == \
        "04467b6c792f6b8de300fdbe7ba0eed8c95e3197fd69723c8e5f7e1a17feb52c"
    assert _sha256(_flat_payloads(safra)) == \
        "d22bf17f06b3c91eaae4d6fd8208c1b768709ad78270e0bb5fb448bab8b772ff"
    assert _sha256(format_hoa(profile)) == \
        "a4d18f816b884617371a3218360f286f1a6970e70cbaf52f6d45281d1367dbb7"
    assert _sha256(format_hoa(safra)) == \
        "c77fb84bd89c7e152ee0d5a121d69dd1779004812d0af47dd9df1ad9869a6b1b"

    # the largest profile benchmark job
    largest = determinize_profile(normalize(gen_nbw(GenSpec(10, 2, 0.25, 0.3, 778))))
    assert len(largest.states) == 25_980
    assert _sha256(format_drw(largest)) == \
        "08bd0808a370f6521a87d959b05418ea39368f627ad590bf3f63d387dced8b04"
    assert _sha256(format_hoa(largest)) == \
        "110043971dd389429a7b4ed1d6a864300b322bfa36080a98cbface1b30b73728"

    big = determinize_safra(normalize(gen_nbw(GenSpec(10, 3, 0.2, 0.3, 777))))
    assert len(big.states) == 1274
    assert _sha256(format_drw(big)) == \
        "b2fa4cfa06efd35038b6ba6aaafd7bf08b977ee2d9096b736081b267a5517785"
    assert _sha256(_flat_payloads(big)) == \
        "d29c768463a9275826b10f8d43e71908e74803649f07b2f4a907f01f3e705f34"


def _parse(name: str) -> ast.AST:
    path = Path(__file__).parents[1] / "src" / "buchidet" / f"{name}.py"
    return ast.parse(path.read_text(encoding="utf-8"))


def _imported_modules(name: str) -> set:
    out = set()
    for node in ast.walk(_parse(name)):
        if isinstance(node, ast.Import):
            out.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add((node.module or "").rsplit(".", 1)[-1])
            out.update(alias.name for alias in node.names)
    return out


def _imported_from(name: str, module: str) -> set:
    """Names `name` imports from `module`; importing the module itself is `*`."""
    out = set()
    for node in ast.walk(_parse(name)):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").rsplit(".", 1)[-1] == module:
            out.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update("*" for alias in node.names
                       if alias.name.rsplit(".", 1)[-1] == module)
    return out


def test_macrostate_and_level_views_stay_independent():
    """The sweep compares the macrostate step with the run-DAG and labeling
    step; that check only means something while neither uses the other."""
    assert not _imported_modules("determinize") & {"labeling", "run_dag"}
    assert "determinize" not in _imported_modules("labeling")
    assert "determinize" not in _imported_modules("run_dag")
    # the sweep checks the label step against its own descendant walk, so it
    # takes nothing else from labeling
    assert _imported_from("harness", "labeling") <= {"initial_labeled",
                                                     "next_labeled"}
    # Safra is the baseline that judges the profile construction, so the
    # two share only the automaton model, the explorer and the pair rule,
    # which lives in the explorer and imports neither construction
    src = Path(__file__).parents[1] / "src" / "buchidet"
    package = {p.stem for p in src.glob("*.py")} | {"buchidet"}
    assert _imported_modules("safra") & package <= {"automata", "explore"}
    assert "safra" not in _imported_modules("determinize")
    assert not _imported_modules("explore") & {"determinize", "safra"}
    assert _imported_from("determinize", "explore") == \
        _imported_from("safra", "explore") == {"explore", "rabin_drw"}


def test_only_automata_uses_private_attributes():
    """Outside `automata.py` the package uses no underscore-prefixed,
    non-dunder attribute of anything but `self`: what other modules need of
    an automaton is public."""
    src = Path(__file__).parents[1] / "src" / "buchidet"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "automata.py":
            continue
        for node in ast.walk(_parse(path.stem)):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                    and not node.attr.endswith("__") \
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                found.append(f"{path.name}:{node.lineno}: {node.attr}")
    assert found == []


def _reads(node: ast.AST) -> set:
    """The names and attribute names read anywhere under `node`."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _imports(node: ast.AST) -> list:
    """(line, bound name, imported name) of every import under `node`."""
    return [(n.lineno, alias.asname or alias.name.split(".")[0], alias.name)
            for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))
            for alias in n.names]


def test_safra_reads_automata_only_through_mask_tables():
    """Safra's step has one image primitive: every image and the accepting
    set come from `mask_tables()`, and `safra.py` reads no `succ`, `pred`
    or `acc` of an automaton."""
    reads = {n.attr for n in ast.walk(_parse("safra"))
             if isinstance(n, ast.Attribute)}
    assert reads & {"succ", "pred", "acc"} == set()
    assert "mask_tables" in reads


def test_verdict_rows_share_only_the_rotation_map_and_symbol_lookup():
    """The NBW row and the DRW rows check each other only while they decide
    apart: of the module-level private helpers of `automata.py` that each
    row decider reads, directly or through other such helpers, they share
    only the rotation map and the symbol lookup."""
    body = {stmt.name: stmt for stmt in _parse("automata").body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    private = {name for name in body if name.startswith("_")}

    def helpers(name):
        found, todo = set(), [name]
        while todo:
            for used in _reads(body[todo.pop()]) & private - found:
                found.add(used)
                todo.append(used)
        return found
    assert helpers("nbw_verdicts") & helpers("drw_verdicts") == \
        {"_rotations", "_sym_ids"}


def test_package_has_no_unused_imports_or_private_helpers():
    """Every name a package module imports is read in that module (or, in
    `__init__.py`, listed in `__all__`), and every module-level private
    function or class is read or imported by another top-level statement of
    the package, so a simplification leaves no helper behind.  Tests do not
    count as users."""
    src = Path(__file__).parents[1] / "src" / "buchidet"
    bodies = {p.name: _parse(p.stem).body for p in sorted(src.glob("*.py"))}
    uses = {(name, i): _reads(stmt) | {imported for *_, imported in _imports(stmt)}
            for name, body in bodies.items() for i, stmt in enumerate(body)}
    found, privates = [], 0
    for name, body in bodies.items():
        reads = set().union(*map(_reads, body))
        if name == "__init__.py":
            reads |= set(buchidet.__all__)
        found += [f"{name}:{line}: unused import {bound}"
                  for stmt in body for line, bound, _ in _imports(stmt)
                  if bound not in reads]
        for i, stmt in enumerate(body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and \
                    stmt.name.startswith("_") and not stmt.name.endswith("__"):
                privates += 1
                if not any(stmt.name in names for where, names in uses.items()
                           if where != (name, i)):
                    found.append(f"{name}:{stmt.lineno}: unused {stmt.name}")
    assert privates > 0 and found == []


def test_every_public_package_name_has_a_caller_outside_the_tests():
    """Every public module-level function or class of the package is read
    or imported by another top-level statement of a package module, or by a
    file under `bench/`.  Every public method or property of a package class
    is read as an attribute outside its own definition: by another
    top-level statement, another statement of its class, or `bench/`.  The
    re-exports of `__init__.py` and the tests do not count as callers."""
    root = Path(__file__).parents[1]
    bodies = {p.name: _parse(p.stem).body
              for p in sorted((root / "src" / "buchidet").glob("*.py"))
              if p.name != "__init__.py"}
    uses = {(name, i): _reads(stmt) | {imported for *_, imported in _imports(stmt)}
            for name, body in bodies.items() for i, stmt in enumerate(body)}
    bench = set()
    for path in sorted((root / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bench |= _reads(tree) | {imported for *_, imported in _imports(tree)}
    found, public, methods = [], 0, 0
    for name, body in bodies.items():
        for i, stmt in enumerate(body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and \
                    not stmt.name.startswith("_"):
                public += 1
                if stmt.name not in bench and \
                        not any(stmt.name in names for where, names in uses.items()
                                if where != (name, i)):
                    found.append(f"{name}:{stmt.lineno}: uncalled {stmt.name}")
            if not isinstance(stmt, ast.ClassDef):
                continue
            outside = bench.union(*(names for where, names in uses.items()
                                    if where != (name, i)))
            for meth in stmt.body:
                if isinstance(meth, ast.FunctionDef) and not meth.name.startswith("_"):
                    methods += 1
                    if not any(meth.name in _reads(other) for other in stmt.body
                               if other is not meth) and meth.name not in outside:
                        found.append(f"{name}:{meth.lineno}: uncalled "
                                     f"{stmt.name}.{meth.name}")
    assert public > 0 and methods > 0 and found == []
