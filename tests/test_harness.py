import json

import pytest

from buchidet import DRW, RabinCondition, format_nbw, normalize
from buchidet.harness import (CheckReport, GenSpec, check_automaton,
                              cross_check, enumerate_lassos, gen_nbw,
                              sweep_invariants)

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


def test_enumerate_lassos_rejects_negative_bounds(two_state):
    with pytest.raises(ValueError, match="max_u"):
        enumerate_lassos(["a"], -1, 1)
    with pytest.raises(ValueError, match="max_v"):
        enumerate_lassos(["a"], 0, 0)
    # bounds are checked before determinizing, which would hit the cap here
    with pytest.raises(ValueError, match="max_u"):
        check_automaton(two_state, -1, 4, max_states=1)


def test_enumerate_lassos_stable_order():
    one = [str(w) for w in enumerate_lassos(["a", "b"], 2, 2)]
    two = [str(w) for w in enumerate_lassos(["a", "b"], 2, 2)]
    assert one == two
    assert one[:4] == [";a", ";b", ";a.a", ";a.b"]


def test_sweep_fig_clean(two_state):
    assert sweep_invariants(two_state, 5) == []


def test_sweep_rejects_negative_depth(two_state):
    assert sweep_invariants(two_state, 0) == []
    with pytest.raises(ValueError, match="depth"):
        sweep_invariants(two_state, -1)


def test_check_automaton_fig(two_state):
    res = check_automaton(two_state, 3, 4)
    assert res.disagreements == []
    assert res.violations == []
    assert res.lassos == 450
    assert res.profile_states > 0 and res.safra_states > 0


def test_check_detects_corrupted_determinization(two_state):
    """Negative control: swapping the good/bad sides of every Rabin pair must
    surface as disagreements."""
    from buchidet.determinize import determinize_profile
    drw = determinize_profile(two_state)
    swapped = DRW(drw.alphabet, drw.states, drw.initial, drw.trans,
                  RabinCondition(tuple((b, g) for g, b in drw.acceptance)),
                  drw.payloads)
    res = check_automaton(two_state, 3, 4, drw_profile=swapped)
    assert res.disagreements


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


def test_report_absorb():
    a = CheckReport(automata=1, lassos=10, max_profile_states=5)
    b = CheckReport(automata=2, lassos=20, max_profile_states=9,
                    violations=["x"])
    a.absorb(b)
    assert a.automata == 3 and a.lassos == 30
    assert a.max_profile_states == 9
    assert not a.passed
