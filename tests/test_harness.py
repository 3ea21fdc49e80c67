import hashlib
import json
from dataclasses import replace
from itertools import product

import pytest

import mutants
from buchidet import (DRW, Lasso, RabinCondition, determinize, drw_run_eval,
                      format_drw, format_nbw, harness, nbw_member, normalize,
                      parse_drw)
from buchidet.determinize import determinize_profile, validate_macrostate
from buchidet.explore import StateLimitExceeded
from buchidet.harness import (CheckReport, GenSpec, check_automaton,
                              cross_check, enumerate_lassos, gen_nbw,
                              sweep_invariants)
from buchidet.safra import determinize_safra
from oracles import preorder, rotation_class

GOLDEN_SEED42 = """\
nbw
alphabet: a b
states: s0 s1 s2
initial: s0
accepting: s2
trans: s0 a s1
trans: s0 a s2
trans: s0 b s0
trans: s1 a s1
trans: s1 a s2
trans: s1 b s0
trans: s1 b s1
trans: s2 a s0
trans: s2 a s1
trans: s2 b s1
"""


def test_gen_forced_by_density_one():
    a = gen_nbw(GenSpec(1, 1, 1.0, 0.0, 7))
    assert a.states == ("s0",)
    assert a.accepting == ()
    assert a.edges == ((0, 0, 0),)


def test_gen_is_seed_deterministic():
    spec = GenSpec(4, 2, 0.6, 0.4, 123)
    assert gen_nbw(spec) == gen_nbw(spec)
    assert gen_nbw(spec) != gen_nbw(GenSpec(4, 2, 0.6, 0.4, 124))


def test_gen_golden_seed42():
    assert format_nbw(gen_nbw(GenSpec(3, 2, 0.5, 0.3, 42))) == GOLDEN_SEED42


def test_gen_never_marks_initial_accepting():
    for seed in range(40):
        a = gen_nbw(GenSpec(5, 2, 0.5, 0.9, seed))
        assert not a.needs_normalization
        assert normalize(a) is a


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec(0, 1, 0.5, 0.5, 0)
    with pytest.raises(ValueError):
        GenSpec(1, 0, 0.5, 0.5, 0)
    with pytest.raises(ValueError):
        GenSpec(1, 1, 0.0, 0.5, 0)
    with pytest.raises(ValueError):
        GenSpec(1, 1, 0.5, 1.5, 0)


def test_enumerate_lassos_smallest_alphabet():
    assert [str(w) for w in enumerate_lassos(["a"], 1, 1)] == [";a", "a;a"]


def test_enumerate_lassos_counts():
    assert len(enumerate_lassos(["a", "b"], 0, 2)) == 6
    assert len(enumerate_lassos(["a", "b"], 3, 4)) == 15 * 30


def test_enumerate_lassos_rejects_negative_bounds():
    with pytest.raises(ValueError, match="max_u"):
        enumerate_lassos(["a"], -1, 1)
    with pytest.raises(ValueError, match="max_v"):
        enumerate_lassos(["a"], 0, 0)
    # cross_check rejects bad bounds before any work: the sweep would raise
    # on its depth, and determinizing would hit the cap
    with pytest.raises(ValueError, match="max_u"):
        cross_check(GenSpec(3, 2, 0.5, 0.3, 0), -1, 4, 1, max_states=1,
                    sweep_depth=-1)


def test_enumerate_lassos_stable_order():
    one = [str(w) for w in enumerate_lassos(["a", "b"], 2, 2)]
    two = [str(w) for w in enumerate_lassos(["a", "b"], 2, 2)]
    assert one == two
    assert one[:4] == [";a", ";b", ";a.a", ";a.b"]


def test_enumerate_lassos_returns_a_fresh_list_per_call():
    one = enumerate_lassos(["a", "b"], 3, 4)
    two = enumerate_lassos(["a", "b"], 3, 4)
    assert one == two and one is not two
    one.clear()
    one.append(Lasso(("b",), ("b",)))
    assert enumerate_lassos(["a", "b"], 3, 4) == two
    assert enumerate_lassos(("a", "b"), 3, 4) == two
    assert enumerate_lassos(("a", "b"), 2, 4) == [w for w in two if len(w.prefix) < 3]


def test_sweep_fig_clean(two_state):
    assert sweep_invariants(two_state, 5) == []


def test_sweep_rejects_negative_depth(two_state):
    assert sweep_invariants(two_state, 0) == []
    with pytest.raises(ValueError, match="depth"):
        sweep_invariants(two_state, -1)


def test_sweep_walks_deep_words_without_recursion():
    """A one-symbol automaton has one word per length, so a deep sweep is
    cheap; it must not grow the call stack with the word."""
    a = normalize(gen_nbw(GenSpec(3, 1, 0.5, 0.3, 0)))
    assert sweep_invariants(a, 2000) == []


def test_sweep_flags_consistent_cousin_corruption(two_state, monkeypatch):
    """Negative control: both views cut the cousin order to its reflexive
    pairs in the same way, so only the descendant walk can notice."""
    def reflexive(m):
        return replace(m, cousin=frozenset((x, y) for x, y in m.cousin if x == y))

    def cut(step):
        return lambda *args: reflexive(step(*args))

    monkeypatch.setattr(harness, "next_labeled", cut(harness.next_labeled))
    drw = determinize_profile(two_state)
    drw = replace(drw, payloads=tuple(map(reflexive, drw.payloads)))
    out = sweep_invariants(two_state, 3, drw)
    assert any(msg.startswith("word=a: ") and "descendant walk" in msg
               for msg in out)
    assert not any("macrostate cousin order" in msg for msg in out)


def _sweep_with_global_labels(a, monkeypatch, corrupt, depth):
    """The sweep of `a` with each new level's global labels replaced by
    `corrupt(prev, gl)`, where `prev` is the labeled level before it."""
    step = harness.next_labeled

    def corrupted(prev, level, n_states):
        lab = step(prev, level, n_states)
        return replace(lab, gl=corrupt(prev, lab.gl))
    monkeypatch.setattr(harness, "next_labeled", corrupted)
    return sweep_invariants(a, depth)


def test_sweep_flags_duplicate_global_labels(two_state, monkeypatch):
    """Every class takes the last class's label. On `a` both classes are
    fresh, so the walk of the repeated label starts at its first class."""
    out = _sweep_with_global_labels(two_state, monkeypatch,
                                    lambda prev, gl: gl[-1:] * len(gl), 1)
    assert out == [
        "word=a: duplicate global labels (1, 1)",
        "word=a: label-carrying classes [0] != classes with inherited labels []",
        "word=a: cousin pairs [(0, 1), (1, 0), (1, 1)] differ from the "
        "descendant walk",
    ]


def test_sweep_flags_a_label_that_reappears(two_state, monkeypatch):
    """Fresh labels are replaced by the smallest label that vanished below
    the watermark: label 1 dies on `a.b` and comes back on `a.b.b`."""
    def revive(prev, gl):
        gone = [g for g in range(prev.gl_watermark) if g not in prev.gl]
        return tuple(gone[0] if gone and g >= prev.gl_watermark else g
                     for g in gl)

    out = _sweep_with_global_labels(two_state, monkeypatch, revive, 3)
    assert [msg for msg in out if "reappeared" in msg] == \
        ["word=a.b.b: label 1 reappeared after vanishing"]
    assert "word=a.b.b: label 1 sits on class 1, descendant walk says 0" in out


def test_sweep_flags_swapped_inherited_labels(two_state, monkeypatch):
    """The first two classes trade their labels whenever both inherited
    one, so each label sits off the minimum of its descendant walk."""
    def swap(prev, gl):
        if len(gl) > 1 and max(gl[:2]) < prev.gl_watermark:
            return gl[1::-1] + gl[2:]
        return gl

    out = _sweep_with_global_labels(two_state, monkeypatch, swap, 3)
    assert [msg for msg in out if msg.startswith("word=a.a: label")] == [
        "word=a.a: label 1 sits on class 0, descendant walk says 1",
        "word=a.a: label 0 sits on class 1, descendant walk says 0",
    ]
    assert "word=a.b.a: label 2 sits on class 0, descendant walk says 1" in out


def _redirected(d: DRW, q: int, sym: int, target: int) -> DRW:
    """`d` with its edge from state `q` on symbol id `sym` sent to `target`."""
    trans = [list(row) for row in d.trans]
    trans[q][sym] = target
    return replace(d, trans=tuple(map(tuple, trans)))


def _flagged_words(messages) -> set:
    return {msg[len("word="):msg.index(": ")] for msg in messages}


def test_sweep_flags_every_word_that_ends_on_a_redirected_edge(two_state):
    """The sweep reads each word's macrostate at the DRW state the word
    reaches, so a wrong transition is a finding on every word whose last
    step takes it, and on no word that never takes it."""
    d = determinize_profile(two_state)
    q, sym, depth = 4, 0, 4
    assert d.trans[q][sym] != 3
    flagged = _flagged_words(sweep_invariants(two_state, depth,
                                              _redirected(d, q, sym, 3)))
    ending, through = set(), set()
    for n in range(1, depth + 1):
        for word in product(two_state.alphabet, repeat=n):
            state, took = d.initial, False
            for symbol in word:
                took = (state, d.alphabet.index(symbol)) == (q, sym)
                if took:
                    through.add(".".join(word))
                state = d.trans[state][d.alphabet.index(symbol)]
            if took:
                ending.add(".".join(word))
    assert min(ending, key=lambda w: (len(w), w)) == "a.b.a"
    assert ending <= flagged <= through


def test_sweep_rejects_a_drw_it_cannot_walk(two_state):
    d = determinize_profile(two_state)
    for walkless in (parse_drw(format_drw(d)), determinize_safra(two_state),
                     replace(d, payloads=d.payloads[:-1])):
        with pytest.raises(ValueError, match="one macrostate payload per state"):
            sweep_invariants(two_state, 4, walkless)
    other = determinize_profile(normalize(gen_nbw(GenSpec(2, 3, 0.5, 0.3, 0))))
    with pytest.raises(ValueError, match="alphabet"):
        sweep_invariants(two_state, 4, other)


def test_check_refuses_a_drw_without_its_payloads(two_state):
    """Each DRW slot of the check needs one payload of its construction per
    state: a DRW read back from text, the other construction's DRW, or one
    payload short is refused up front, naming the need."""
    grid = harness._grid(two_state.alphabet, 1, 1)
    profile, safra = determinize_profile(two_state), determinize_safra(two_state)
    for bare in (parse_drw(format_drw(profile)), safra,
                 replace(profile, payloads=profile.payloads[:-1])):
        with pytest.raises(ValueError, match="profile DRW with one macrostate "
                                             "payload per state"):
            check_automaton(two_state, *grid, bare, safra)
    for bare in (parse_drw(format_drw(safra)), profile,
                 replace(safra, payloads=safra.payloads[:-1])):
        with pytest.raises(ValueError, match="Safra DRW with one Safra tree "
                                             "payload per state"):
            check_automaton(two_state, *grid, profile, bare)


def test_check_names_a_shared_preorder_fault_under_every_payload(two_state):
    """Five payloads share one preorder pair; when its first class lists a
    state twice, the fault, checked once, is named under each of them in
    payload order, each payload's own faults after it, exactly as the
    validator reports every payload on its own."""
    profile, safra = determinize_profile(two_state), determinize_safra(two_state)
    good = ((0,), (1,))
    payloads = [replace(m, classes=((0, 0), (1,))) if m.classes == good else m
                for m in profile.payloads]
    payloads[4] = replace(payloads[4], good=payloads[4].good | {9})
    res = check_automaton(two_state, *harness._grid(two_state.alphabet, 3, 4),
                          replace(profile, payloads=tuple(payloads)), safra)
    twice = "class 0 is not a sorted state set"
    assert res.violations == [
        f"macrostate 1: {twice}", f"macrostate 3: {twice}",
        f"macrostate 4: {twice}", "macrostate 4: event label 9 outside the pool",
        f"macrostate 6: {twice}", f"macrostate 7: {twice}"]
    assert res.violations == [f"macrostate {i}: {msg}"
                              for i, m in enumerate(payloads)
                              for msg in validate_macrostate(two_state, m)]
    assert res.disagreements == []


def test_check_automaton_fig(two_state):
    res = check_automaton(two_state, *harness._grid(two_state.alphabet, 3, 4),
                          determinize_profile(two_state), determinize_safra(two_state))
    assert res.disagreements == []
    assert res.violations == []
    assert res.lassos == 450
    assert res.max_profile_states > 0 and res.max_safra_states > 0


def test_check_detects_corrupted_determinization(two_state):
    """Negative control: swapping the good/bad sides of every Rabin pair must
    surface as disagreements."""
    from buchidet.determinize import determinize_profile
    drw = determinize_profile(two_state)
    swapped = DRW(drw.alphabet, drw.states, drw.initial, drw.trans,
                  RabinCondition(tuple((b, g) for g, b in drw.acceptance)),
                  drw.payloads)
    lassos, safra = enumerate_lassos(two_state.alphabet, 3, 4), determinize_safra(two_state)
    res = check_automaton(two_state, *harness._grid(two_state.alphabet, 3, 4),
                          drw_profile=swapped, drw_safra=safra)
    assert res.disagreements
    # exactly the records of a per-lasso loop, in order, keys in order
    want = _per_lasso_records(two_state, lassos, swapped, safra)
    assert res.lassos == len(lassos)
    assert json.dumps(res.disagreements) == json.dumps(want)


def _per_lasso_records(a, lassos, profile, safra) -> list[dict]:
    """The disagreement records of a check that decides one lasso at a time."""
    out = []
    for w in lassos:
        verdicts = {"nbw": nbw_member(a, w), "profile": drw_run_eval(profile, w),
                    "safra": drw_run_eval(safra, w)}
        if len(set(verdicts.values())) != 1:
            out.append({"lasso": str(w), "verdicts": verdicts})
    return out


def _last_pair_dropped(d: DRW) -> DRW:
    return replace(d, acceptance=d.acceptance[:-1])


def test_faulty_checks_report_the_per_lasso_records():
    """With a profile DRW whose Rabin pairs are swapped, or whose last pair
    is dropped, injected on each catalogue automaton, the check over the
    lasso grid reports exactly the records of a per-lasso check over
    `enumerate_lassos`, in its order."""
    automata = mutants.corpus()
    grid = harness._grid(automata[0].alphabet, mutants.MAX_U, mutants.MAX_V)
    lassos = enumerate_lassos(automata[0].alphabet, mutants.MAX_U, mutants.MAX_V)
    records = 0
    for a in automata:
        profile, safra = determinize_profile(a), determinize_safra(a)
        for faulty in _swapped_pairs(profile), _last_pair_dropped(profile):
            want = _per_lasso_records(a, lassos, faulty, safra)
            assert check_automaton(a, *grid, faulty, safra).disagreements == want
            records += len(want)
    assert records > 0


def test_check_work_counts_over_the_catalogue_corpus(monkeypatch):
    """Over the mutant catalogue's 180 automata, the check calls the NBW
    period core once per rotation class of the grid's periods (8 of 30),
    the DRW period core at most 12,928 times, and the class check of the
    macrostate validator once per distinct (classes, cousin) pair of each
    profile DRW, 1,008 times for 4,007 payloads: a return to per-period,
    per-lasso or per-payload work, or a lost memo, shows up here without
    any timing."""
    from buchidet import automata as automata_module

    automata = mutants.corpus()
    grid = harness._grid(automata[0].alphabet, mutants.MAX_U, mutants.MAX_V)
    calls = {"nbw": 0, "drw": 0, "preorder": 0}
    nbw_period, drw_period = automata_module._nbw_period, automata_module._drw_period
    state_set_faults = determinize.state_set_faults

    def count_preorder(*args):
        calls["preorder"] += 1
        return state_set_faults(*args)

    def count_nbw(*args):
        calls["nbw"] += 1
        return nbw_period(*args)

    def count_drw(*args):
        calls["drw"] += 1
        return drw_period(*args)

    monkeypatch.setattr(automata_module, "_nbw_period", count_nbw)
    monkeypatch.setattr(automata_module, "_drw_period", count_drw)
    monkeypatch.setattr(determinize, "state_set_faults", count_preorder)
    payloads = 0
    for a in automata:
        profile = determinize_profile(a)
        payloads += len(profile.payloads)
        assert check_automaton(a, *grid, profile, determinize_safra(a)).passed
    classes = len({rotation_class(v)[1] for v in grid[1]})
    assert calls["nbw"] == 180 * classes == 1440
    assert calls["drw"] <= 12_928
    assert calls["preorder"] == 1008 and payloads == 4007


def test_check_reports_invalid_payloads(two_state):
    """Negative control for the per-state validation: an invalid payload in
    either DRW is a violation naming its state, and leaves every verdict as
    it was."""
    profile, safra = determinize_profile(two_state), determinize_safra(two_state)
    macrostates, trees = list(profile.payloads), list(safra.payloads)
    macrostates[1] = replace(macrostates[1], good=macrostates[1].good | {9})
    trees[1] = replace(trees[1], good=((5,),))
    res = check_automaton(two_state, *harness._grid(two_state.alphabet, 3, 4),
                          drw_profile=replace(profile, payloads=tuple(macrostates)),
                          drw_safra=replace(safra, payloads=tuple(trees)))
    assert res.violations == ["macrostate 1: event label 9 outside the pool",
                              "safra tree 1: good path (5,) is not a node"]
    assert res.disagreements == []


def test_check_reports_a_malformed_safra_shape_as_a_violation(two_state):
    """A Safra payload whose shape is not a nested (label, children) tree,
    here the flat preorder of the real tree, is a violation naming its
    state, not an exception."""
    profile, safra = determinize_profile(two_state), determinize_safra(two_state)
    trees = list(safra.payloads)
    trees[1] = replace(trees[1], shape=preorder(trees[1].shape))
    res = check_automaton(two_state, *harness._grid(two_state.alphabet, 3, 4),
                          profile, replace(safra, payloads=tuple(trees)))
    assert res.violations == ["safra tree 1: node () is not a (label, children) pair"]
    assert res.disagreements == []


def _swapped_pairs(d: DRW) -> DRW:
    return DRW(d.alphabet, d.states, d.initial, d.trans,
               RabinCondition(tuple((b, g) for g, b in d.acceptance)), d.payloads)


def _digest(report: CheckReport) -> str:
    payload = json.dumps(report.to_json(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def test_check_report_bytes_pinned():
    """Report bytes as the per-lasso deciders produced them, on a clean
    corpus and with the swapped-pairs profile DRW injected."""
    spec = GenSpec(4, 2, 0.5, 0.3, 4242)
    assert _digest(cross_check(spec, 3, 4, 50)) == \
        "b0aa9be6df0148aa5b91770fa01f5b3c6a5862521e35e9bed605b2be986b5fd8"
    grid = harness._grid(("a", "b"), 3, 4)
    corrupted = CheckReport()
    for seed in range(4242, 4252):
        a = normalize(gen_nbw(replace(spec, seed=seed)))
        corrupted.absorb(check_automaton(a, *grid, _swapped_pairs(determinize_profile(a)),
                                         determinize_safra(a)))
    assert len(corrupted.disagreements) == 1578
    assert _digest(corrupted) == \
        "9636058a70f2e3cf4457bc3e0bddd6576a4e2a0b590f5a17648d30399445fec1"


def test_check_decides_nbw_per_period_and_drws_per_start_and_period(monkeypatch):
    """``check_automaton`` calls the NBW period core once per rotation
    class c of the periods, where ``v^w = x . c^w``.  Each DRW's period
    core runs once per (state after the prefix and x, c) pair whose state no
    earlier walk on c passed through at a period start, periods taken in
    grid order: at most once per distinct pair, and well below once per
    lasso."""
    from buchidet import automata

    a = normalize(gen_nbw(GenSpec(4, 2, 0.5, 0.3, 20_264_000)))
    profile, safra = determinize_profile(a), determinize_safra(a)
    prefixes, periods = harness._grid(a.alphabet, 3, 4)
    lassos = enumerate_lassos(a.alphabet, 3, 4)
    calls = {"nbw": 0, "profile": 0, "safra": 0}
    nbw_period, drw_period = automata._nbw_period, automata._drw_period

    def count_nbw(a, v):
        calls["nbw"] += 1
        return nbw_period(a, v)

    def count_drw(d, *args):
        calls["profile" if d is profile else "safra"] += 1
        return drw_period(d, *args)

    monkeypatch.setattr(automata, "_nbw_period", count_nbw)
    monkeypatch.setattr(automata, "_drw_period", count_drw)
    res = check_automaton(a, prefixes, periods, profile, safra)
    assert res.passed and res.lassos == 450

    def run(d, word, q=None):
        q = d.initial if q is None else q
        for sym in word:
            q = d.trans[q][d.alphabet.index(sym)]
        return q

    def walks(d):
        """Starts, period by period and prefix by prefix, whose state after
        the prefix and x no earlier walk on c passed through at a period
        start."""
        passed, count = {}, 0
        for v in periods:
            x, c = rotation_class(v)
            seen = passed.setdefault(c, set())
            for u in prefixes:
                q = run(d, u + x)
                count += q not in seen
                while q not in seen:
                    seen.add(q)
                    q = run(d, c, q)
        return count

    cores = {rotation_class(v)[1] for v in periods}
    want = {"nbw": len(cores), "profile": walks(profile), "safra": walks(safra)}
    assert calls == want
    assert calls["nbw"] == 8
    for name, drw in ("profile", profile), ("safra", safra):
        pairs = {(run(drw, w.prefix + x), c)
                 for w in lassos for x, c in [rotation_class(w.period)]}
        assert calls[name] <= len(pairs)
    assert max(calls.values()) < len(lassos)


def test_cross_check_small_corpus():
    report = cross_check(GenSpec(3, 2, 0.5, 0.3, 4242), 2, 3, 20)
    assert report.passed
    assert report.automata == 20
    assert report.lassos == 20 * 7 * 14
    assert report.max_profile_states >= 1
    payload = report.to_json()
    assert payload["pass"] is True
    assert payload["bounds"]["max_u"] == 2
    json.dumps(payload)  # report must be JSON-serializable
    again = cross_check(GenSpec(3, 2, 0.5, 0.3, 4242), 2, 3, 20)
    assert json.dumps(payload, sort_keys=True) == json.dumps(again.to_json(),
                                                             sort_keys=True)


def test_cross_check_state_cap_reported():
    report = cross_check(GenSpec(4, 2, 0.8, 0.5, 99), 1, 1, 2, max_states=3,
                         sweep_depth=0)
    assert not report.passed
    assert any("cap" in v or "aborted" in v for v in report.violations)


def test_cross_check_rejects_an_empty_corpus():
    """Zero automata would make a vacuous PASS."""
    for count in (0, -5):
        with pytest.raises(ValueError, match="count must be at least 1"):
            cross_check(GenSpec(3, 2, 0.5, 0.3, 0), 3, 4, count)


def test_cross_check_labels_each_finding_with_its_seed(monkeypatch):
    """Every disagreement carries the seed and text of its automaton, and
    every violation starts with its seed."""
    from buchidet import harness

    def swapped(a, *args):
        d = determinize_profile(a, *args)
        return DRW(d.alphabet, d.states, d.initial, d.trans,
                   RabinCondition(tuple((b, g) for g, b in d.acceptance)),
                   d.payloads)

    monkeypatch.setattr(harness, "determinize_profile", swapped)
    spec = GenSpec(3, 2, 0.5, 0.3, 4242)
    report = cross_check(spec, 2, 3, 3)
    assert report.disagreements
    texts = {seed: format_nbw(normalize(gen_nbw(replace(spec, seed=seed))))
             for seed in (4242, 4243, 4244)}
    for rec in report.disagreements:
        assert rec["automaton"] == texts[rec["seed"]]
    payload = json.dumps(report.to_json(), sort_keys=True).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == \
        "a96e3366290c7a30d1620621dc3ef17a2b19adee3e5f0b6bec86952698925572"

    capped = cross_check(GenSpec(4, 2, 0.8, 0.5, 99), 1, 1, 2, max_states=3,
                         sweep_depth=0)
    assert capped.violations[0].startswith("seed=99: determinization aborted")
    assert capped.violations[1].startswith("seed=100: determinization aborted")


def test_cross_check_sweeps_the_drw_the_lassos_judge(monkeypatch):
    """One profile DRW per automaton serves both the sweep and the lassos,
    so a wrong transition in it is a sweep finding tagged with its seed."""
    built = []

    def redirected(a, *args):
        built.append(a)
        return _redirected(determinize_profile(a, *args), 1, 1, 3)

    monkeypatch.setattr(harness, "determinize_profile", redirected)
    report = cross_check(GenSpec(3, 2, 0.5, 0.3, 4242), 2, 3, 1)
    assert len(built) == 1
    assert report.violations
    assert all(msg.startswith("seed=4242: word=") for msg in report.violations)
    assert min(_flagged_words(msg[len("seed=4242: "):]
                              for msg in report.violations),
               key=lambda w: (len(w), w)) == "a.b"


def test_cross_check_profile_abort_skips_the_sweep(monkeypatch):
    swept = []
    monkeypatch.setattr(harness, "sweep_invariants",
                        lambda *args: swept.append(args) or [])
    report = cross_check(GenSpec(4, 2, 0.8, 0.5, 99), 1, 1, 2, max_states=3)
    assert report.violations == [
        f"seed={seed}: determinization aborted: exploration exceeded the cap "
        "of 3 states" for seed in (99, 100)]
    assert report.automata == 2 and report.lassos == 0
    assert swept == []


def test_cross_check_reports_the_sweep_before_a_safra_abort(monkeypatch):
    """When the profile DRW fits and Safra's construction hits the cap, the
    sweep's findings come first and the abort last."""
    def capped(a, max_states):
        raise StateLimitExceeded(max_states)

    monkeypatch.setattr(harness, "determinize_profile",
                        lambda a, *args: _redirected(determinize_profile(a, *args),
                                                     1, 1, 3))
    monkeypatch.setattr(harness, "determinize_safra", capped)
    report = cross_check(GenSpec(3, 2, 0.5, 0.3, 4242), 2, 3, 1, max_states=50)
    *swept, last = report.violations
    assert swept and all(msg.startswith("seed=4242: word=") for msg in swept)
    assert last == ("seed=4242: determinization aborted: exploration exceeded "
                    "the cap of 50 states")
    assert not report.passed
    # the aborted check judged no lasso and recorded no DRW size
    assert report.lassos == 0
    assert report.max_profile_states == report.max_safra_states == 0


def test_report_absorb():
    a = CheckReport(automata=1, lassos=10, max_profile_states=5)
    b = CheckReport(automata=2, lassos=20, max_profile_states=9,
                    violations=["x"])
    a.absorb(b)
    assert a.automata == 3 and a.lassos == 30
    assert a.max_profile_states == 9
    assert not a.passed
