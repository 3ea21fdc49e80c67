import pytest
from hypothesis import given, settings, strategies as st

from buchidet import (DRW, Lasso, NBW, ParseError, RabinCondition,
                      determinize_profile, determinize_safra, drw_run_eval,
                      format_drw, format_nbw, nbw_member, normalize,
                      parse_drw, parse_nbw)
from buchidet.hoa import format_hoa
from oracles import all_lassos, brute_member


# -- lasso syntax --------------------------------------------------------------

def test_lasso_parse():
    assert Lasso.parse("a;b") == Lasso(("a",), ("b",))
    assert Lasso.parse(";a.b") == Lasso((), ("a", "b"))
    assert Lasso.parse("a.b.a;b") == Lasso(("a", "b", "a"), ("b",))
    assert str(Lasso.parse("a.b;c")) == "a.b;c"


def test_lasso_empty_period_rejected():
    with pytest.raises(ValueError):
        Lasso.parse("a;")
    with pytest.raises(ValueError):
        Lasso.parse("ab")


def test_lasso_empty_symbol_rejected():
    for text in (";.", "a..b;c", "a;b.", ".a;b", "a; .b"):
        with pytest.raises(ValueError, match="empty symbol"):
            Lasso.parse(text)


def test_lasso_unroll():
    assert Lasso.parse("a;b.c").unroll(5) == ("a", "b", "c", "b", "c")


# -- parsing -------------------------------------------------------------------

def test_parse_fig(two_state_text):
    a = parse_nbw(two_state_text)
    assert a.states == ("q", "p")
    assert a.alphabet == ("a", "b")
    assert a.initial == (0,)
    assert a.accepting == (1,)
    assert len(a.edges) == 5
    assert not a.needs_normalization


def test_parse_no_transitions():
    a = parse_nbw("nbw\nalphabet: a\nstates: x y\ninitial: x\naccepting:\n")
    assert a.edges == ()
    assert all(a.succ(q, 0) == () for q in range(2))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_nbw("nbw\nalphabet: a\nstates: x\ninitial: x\ntrans: x a zz\n")
    assert err.value.line == 5
    assert "zz" in str(err.value)
    with pytest.raises(ParseError):
        parse_nbw("nbw\nalphabet: a\nstates: x\ninitial:\n")
    with pytest.raises(ParseError):
        parse_nbw("dfa\n")
    with pytest.raises(ParseError):
        parse_nbw("nbw\nalphabet: a\nstates: x\ninitial: x\nbogus: 1\n")
    with pytest.raises(ParseError):
        parse_nbw("nbw\nstates: x\ninitial: x\n")


def test_parse_allows_comments_and_blank_lines(two_state_text):
    commented = "# header\n" + two_state_text.replace("initial: q",
                                                "initial: q  # start here\n")
    assert parse_nbw(commented) == parse_nbw(two_state_text)


def test_nbw_roundtrip(two_state_text):
    a = parse_nbw(two_state_text)
    assert parse_nbw(format_nbw(a)) == a


# -- normalization -------------------------------------------------------------

def test_normalize_disjoint_is_identity(two_state):
    assert normalize(two_state) is two_state


def test_normalize_initial_accepting(selfloop_accepting):
    b = normalize(selfloop_accepting)
    assert b.states == ("q", "q'")
    assert [b.states[q] for q in b.initial] == ["q'"]
    assert [b.states[q] for q in b.accepting] == ["q"]
    triples = {(b.states[s], b.alphabet[y], b.states[d]) for s, y, d in b.edges}
    assert triples == {("q", "a", "q"), ("q'", "a", "q")}
    assert normalize(b) is b
    assert parse_nbw(format_nbw(b)) == b


def test_normalize_preserves_membership(selfloop_accepting):
    b = normalize(selfloop_accepting)
    for w in all_lassos(["a"], 3, 4):
        assert nbw_member(b, w) == brute_member(selfloop_accepting, w)


def test_normalize_preserves_membership_exhaustive_two_symbols():
    a = NBW.build(["a", "b"], ["x", "y"], ["x", "y"], ["x"],
                  [("x", "a", "y"), ("y", "b", "x"), ("y", "a", "y"),
                   ("x", "b", "x")])
    assert a.needs_normalization
    b = normalize(a)
    assert normalize(b) is b
    for w in all_lassos(["a", "b"], 3, 4):
        assert nbw_member(b, w) == brute_member(a, w), str(w)


def test_states_listed_twice_count_once():
    a = parse_nbw("nbw\nalphabet: a\nstates: q p\ninitial: q q\n"
                  "accepting: p p\ntrans: q a p\ntrans: p a p\n")
    assert a.initial == (0,) and a.accepting == (1,)
    text = format_nbw(a)
    assert "initial: q\n" in text and "accepting: p\n" in text
    assert nbw_member(a, Lasso.parse(";a"))
    drws = (determinize_profile(a), determinize_safra(a))
    for w in all_lassos(a.alphabet, 2, 3):
        want = brute_member(a, w)
        assert nbw_member(a, w) == want, str(w)
        for d in drws:
            assert drw_run_eval(d, w) == want, str(w)


# -- membership ----------------------------------------------------------------

def test_member_reference_values(two_state):
    assert nbw_member(two_state, Lasso.parse("a;b")) is True
    assert nbw_member(two_state, Lasso.parse(";b")) is False
    # frozen from the brute-force closure oracle
    assert brute_member(two_state, Lasso.parse(";a")) is True
    assert nbw_member(two_state, Lasso.parse(";a")) is True


def test_member_rejects_unknown_symbol(two_state):
    with pytest.raises(ValueError):
        nbw_member(two_state, Lasso.parse("z;a"))


def test_member_agrees_with_closure_oracle(two_state):
    for w in all_lassos(two_state.alphabet, 3, 4):
        assert nbw_member(two_state, w) == brute_member(two_state, w), str(w)


def test_member_unrolling_invariance(two_state):
    for w in all_lassos(two_state.alphabet, 2, 3):
        base = nbw_member(two_state, w)
        assert base == nbw_member(two_state, Lasso(w.prefix + w.period, w.period))
        assert base == nbw_member(two_state, Lasso(w.prefix, w.period + w.period))


@st.composite
def small_nbws(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=2))
    states = [f"s{i}" for i in range(n)]
    alphabet = ["a", "b"][:k]
    edges = []
    for q in range(n):
        for s in range(k):
            for q2 in range(n):
                if draw(st.booleans()):
                    edges.append((states[q], alphabet[s], states[q2]))
    initial = [states[0]]
    accepting = [states[i] for i in range(n) if draw(st.booleans())]
    return NBW.build(alphabet, states, initial, accepting, edges)


@settings(max_examples=60, deadline=None)
@given(small_nbws(), st.data())
def test_member_matches_oracle_on_random_automata(aut, data):
    aut = normalize(aut)
    u = data.draw(st.lists(st.sampled_from(aut.alphabet), max_size=3))
    v = data.draw(st.lists(st.sampled_from(aut.alphabet), min_size=1, max_size=3))
    w = Lasso(tuple(u), tuple(v))
    assert nbw_member(aut, w) == brute_member(aut, w)


# -- DRW evaluation and format ---------------------------------------------------

def _tiny_drw(pairs):
    return DRW(("a", "b"), ("d0", "d1"), 0, ((1, 0), (0, 1)),
               RabinCondition(pairs))


def test_drw_zero_pairs_rejects_everything():
    d = _tiny_drw(())
    for w in all_lassos(["a", "b"], 2, 2):
        assert drw_run_eval(d, w) is False


def test_drw_eval_is_deterministic():
    d = _tiny_drw(((frozenset({0}), frozenset()),))
    w = Lasso.parse("a;b.a")
    assert drw_run_eval(d, w) == drw_run_eval(d, w) is True


def test_drw_eval_cycle_only():
    # pair fires on the visited cycle, not on the transient prefix
    d = DRW(("a",), ("d0", "d1"), 0, ((1,), (1,)),
            RabinCondition(((frozenset({0}), frozenset()),)))
    assert drw_run_eval(d, Lasso.parse(";a")) is False


def test_drw_roundtrip():
    d = _tiny_drw(((frozenset({0}), frozenset({1})), (frozenset(), frozenset())))
    parsed = parse_drw(format_drw(d))
    assert parsed.states == d.states
    assert parsed.trans == d.trans
    assert parsed.acceptance == d.acceptance
    assert parsed.initial == d.initial


def test_drw_parse_requires_total_function():
    text = "drw\nalphabet: a b\nstates: d0\ninitial: d0\ntrans: d0 a d0\n"
    with pytest.raises(ParseError):
        parse_drw(text)


def test_drw_parse_requires_single_initial():
    text = ("drw\nalphabet: a\nstates: d0 d1\ninitial: d0 d1\n"
            "trans: d0 a d0\ntrans: d1 a d1\n")
    with pytest.raises(ParseError):
        parse_drw(text)


def test_drw_parse_validates_alphabet_line():
    for alphabet in ("", " a a"):
        text = (f"drw\nalphabet:{alphabet}\nstates: d0\ninitial: d0\n"
                "trans: d0 a d0\n")
        with pytest.raises(ParseError, match="alphabet") as err:
            parse_drw(text)
        assert err.value.line == 2


def test_drw_identity_ignores_evaluation_tables():
    d1 = _tiny_drw(((frozenset({0}), frozenset({1})),))
    d2 = _tiny_drw(((frozenset({0}), frozenset({1})),))
    drw_run_eval(d1, Lasso.parse("a;b"))
    assert d1 == d2 and hash(d1) == hash(d2)
    assert repr(d1) == repr(d2)
    assert "_sym_id" not in repr(d1) and "_marks" not in repr(d1)


def test_hoa_escapes_proposition_names():
    d = DRW(('p"q', "r\\s", "t"), ("d0",), 0, ((0, 0, 0),), RabinCondition(()))
    assert 'AP: 3 "p\\"q" "r\\\\s" "t"\n' in format_hoa(d)
