import re

import pytest
from hypothesis import given, settings, strategies as st

from buchidet import (DRW, NBW, Lasso, ParseError, RabinCondition,
                      determinize_profile, determinize_safra, drw_run_eval,
                      format_drw, format_nbw, nbw_member, normalize,
                      parse_drw, parse_nbw)
from buchidet.hoa import format_hoa
from oracles import all_lassos, brute_member, nbw, unroll


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


def test_lasso_refuses_a_second_separator():
    """Else `a;b;c` parses with the period `b;c`, a symbol no automaton has."""
    message = re.escape("lasso 'a;b;c' must have exactly one ';'")
    with pytest.raises(ValueError, match=message):
        Lasso.parse("a;b;c")


def test_lasso_strips_whitespace_around_each_symbol():
    assert Lasso.parse(";a. b") == Lasso((), ("a", "b"))
    assert Lasso.parse(" a .b ; c ") == Lasso(("a", "b"), ("c",))


def test_lasso_unroll():
    assert unroll(Lasso.parse("a;b.c"), 5) == ("a", "b", "c", "b", "c")


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
    assert all(a.succ[q][0] == () for q in range(2))


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


_DIRECTIVES = ("alphabet:", "states:", "initial:", "accepting:", "trans:", "pair:")
_SOUP = ("nbw", "drw", *_DIRECTIVES, "x", "y", "a", "|", "G", "B", "0", "1", "-1",
         "#", "a.b")
_SHARED_LINES = ("alphabet: a", "states: x y", "initial: x", "trans: x a y",
                 "trans: y a x")
_SKELETON = {"nbw": _SHARED_LINES + ("accepting: y",),
             "drw": _SHARED_LINES + ("pair: 0 G y | B x",)}


@st.composite
def token_soups(draw):
    """A document of one kind: the header and the lines of a two-state
    automaton in a drawn order, then up to two edits, each blanking a line,
    inserting a `_SOUP` token or writing one over an argument, then up to
    two lines of a directive and soup.  Some parse; most hit a fault."""
    kind = draw(st.sampled_from(("nbw", "drw")))
    token = st.sampled_from(_SOUP)
    lines = draw(st.permutations([line.split() for line in _SKELETON[kind]]))
    for _ in range(draw(st.integers(0, 2))):
        tokens = lines[draw(st.integers(0, len(lines) - 1))]
        edit = draw(st.sampled_from(("blank", "insert", "overwrite")))
        if edit == "blank":
            tokens.clear()
        elif edit == "insert":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(token))
        elif len(tokens) > 1:
            tokens[draw(st.integers(1, len(tokens) - 1))] = draw(token)
    extra = st.tuples(st.sampled_from(_DIRECTIVES), st.lists(token, max_size=4))
    lines += [(key, *rest) for key, rest in draw(st.lists(extra, max_size=2))]
    return "\n".join([kind, *map(" ".join, lines)]) + "\n"


@settings(max_examples=300, deadline=None)
@given(token_soups())
def test_native_readers_return_or_raise_parse_error(text):
    """Each reader returns an automaton or raises ParseError, never another
    exception, and what it returns its writer writes back to the same."""
    for parse, write in ((parse_nbw, format_nbw), (parse_drw, format_drw)):
        try:
            r = parse(text)
        except ParseError:
            continue
        assert parse(write(r)) == r


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


def test_normalize_names_the_copy_past_taken_names():
    a = nbw(["a"], ["q", "q'"], ["q"], ["q"], [("q", "a", "q'")])
    b = normalize(a)
    assert b.states == ("q", "q'", "q''")
    assert [b.states[q] for q in b.initial] == ["q''"]


def test_normalize_preserves_membership(selfloop_accepting):
    b = normalize(selfloop_accepting)
    for w in all_lassos(["a"], 3, 4):
        assert nbw_member(b, w) == brute_member(selfloop_accepting, w)


def test_normalize_preserves_membership_exhaustive_two_symbols():
    a = nbw(["a", "b"], ["x", "y"], ["x", "y"], ["x"],
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
    return nbw(alphabet, states, initial, accepting, edges)


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


def test_drw_rejects_an_empty_alphabet():
    """`parse_drw` refuses `alphabet: ` with nothing after it, so a DRW
    without symbols could be written but never read back."""
    with pytest.raises(ValueError, match="alphabet must be nonempty"):
        DRW((), ("d0",), 0, ((),), RabinCondition(()))
    with pytest.raises(ParseError, match="alphabet must list at least one symbol"):
        parse_drw("drw\nalphabet:\nstates: d0\ninitial: d0\n")


@pytest.mark.parametrize("alphabet, states, message", [
    (("a", "a"), ("x", "y"), "duplicate alphabet symbol"),
    (("a", "b"), ("x", "x"), "duplicate state name"),
])
def test_drw_rejects_duplicate_names_as_nbw_does(alphabet, states, message):
    """`format_drw` would write such a DRW, and `parse_drw` would refuse the
    document; the constructor refuses it first, with `NBW`'s message."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        NBW(alphabet, states, [0], [], [])
    with pytest.raises(ValueError, match=f"^{message}$"):
        DRW(alphabet, states, 0, ((0, 0), (0, 0)), RabinCondition(()))


@pytest.mark.parametrize("build, message", [
    (lambda: NBW(["a"], ["q"], [], [], []), "initial set must be nonempty"),
    (lambda: NBW(["a"], ["q"], [1], [], []), "state id 1 out of range"),
    (lambda: NBW(["a"], ["q"], [0], [2], []), "state id 2 out of range"),
    (lambda: NBW(["a"], ["q"], [0], [], [(0, 1, 0)]), "transition (0,1,0) out of range"),
    (lambda: DRW(("a",), ("d0",), 1, ((0,),), ()), "initial state out of range"),
    (lambda: DRW(("a", "b"), ("d0",), 0, ((0,),), ()), "transition table must be total"),
    (lambda: DRW(("a",), ("d0",), 0, ((1,),), ()), "transition target 1 out of range"),
    (lambda: DRW(("a",), ("d0",), 0, ((0,),), ((frozenset({1}), frozenset()),)),
     "acceptance pair references unknown state"),
], ids=["nbw-no-initial", "nbw-initial-out-of-range", "nbw-accepting-out-of-range",
        "nbw-transition-out-of-range", "drw-initial-out-of-range", "drw-not-total",
        "drw-target-out-of-range", "drw-pair-unknown-state"])
def test_constructors_refuse_inconsistent_ids(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("symbol", ["a.b", "a;b", ".", ";"])
def test_automata_refuse_symbols_lasso_syntax_cannot_name(symbol):
    """Lassos split on '.' and ';', so no lasso could name such a symbol."""
    message = re.escape(f"symbol {symbol!r} contains a lasso separator ('.' or ';')")
    with pytest.raises(ValueError, match=message):
        NBW(["a", symbol], ["q"], [0], [], [])
    with pytest.raises(ValueError, match=message):
        DRW(("a", symbol), ("d0",), 0, ((0, 0),), RabinCondition(()))


@pytest.mark.parametrize("name", ["p r", "p#r", "", "p\t", "\u2028"])
def test_writers_refuse_names_they_cannot_read_back(name):
    """A name with whitespace would split into two on reading, and '#'
    would cut the rest of its line off as a comment."""
    named = re.escape(f"name {name!r} cannot be written")
    with pytest.raises(ValueError, match=named):
        format_nbw(NBW(["a"], ["q", name], [0], [], []))
    with pytest.raises(ValueError, match=named):
        format_nbw(NBW(["a", name], ["q"], [0], [], []))
    with pytest.raises(ValueError, match=named):
        format_drw(DRW(("a",), ("d0", name), 0, ((0,), (1,)), RabinCondition(())))
    with pytest.raises(ValueError, match=named):
        format_drw(DRW(("a", name), ("d0",), 0, ((0, 0),), RabinCondition(())))


def test_format_drw_refuses_a_state_named_bar():
    """In a pair line '|' splits G from B, so a G state named '|' would not
    read back."""
    d = DRW(("a",), ("|", "x"), 0, ((1,), (0,)),
            RabinCondition(((frozenset({0}), frozenset({1})),)))
    with pytest.raises(ValueError, match=re.escape("state name '|'")):
        format_drw(d)


def test_parse_drw_refuses_a_state_named_bar_on_its_states_line():
    text = ("drw\nalphabet: a\nstates: | x\ninitial: |\n"
            "trans: | a x\ntrans: x a |\npair: 0 G | | B x\n")
    with pytest.raises(ParseError, match=re.escape("state name '|'")) as err:
        parse_drw(text)
    assert err.value.line == 3


def test_drw_parse_requires_total_function():
    text = "drw\nalphabet: a b\nstates: d0\ninitial: d0\ntrans: d0 a d0\n"
    with pytest.raises(ParseError):
        parse_drw(text)


def test_drw_parse_requires_single_initial():
    text = ("drw\nalphabet: a\nstates: d0 d1\ninitial: d0 d1\n"
            "trans: d0 a d0\ntrans: d1 a d1\n")
    with pytest.raises(ParseError):
        parse_drw(text)


def test_drw_parse_names_undeclared_transition_state():
    text = "drw\nalphabet: a\nstates: d0\ninitial: d0\ntrans: d0 a zz\n"
    with pytest.raises(ParseError, match="zz") as err:
        parse_drw(text)
    assert err.value.line == 5


def test_drw_parse_validates_alphabet_line():
    for alphabet in ("", " a a"):
        text = (f"drw\nalphabet:{alphabet}\nstates: d0\ninitial: d0\n"
                "trans: d0 a d0\n")
        with pytest.raises(ParseError, match="alphabet") as err:
            parse_drw(text)
        assert err.value.line == 2


_DRW_ONE_STATE = "drw\nalphabet: a\nstates: x\ninitial: x\ntrans: x a x\n"


def test_drw_parse_rejects_duplicate_transition():
    with pytest.raises(ParseError) as err:
        parse_drw(_DRW_ONE_STATE + "trans: x a x\n")
    assert str(err.value) == "line 6: duplicate transition for x a"
    assert err.value.line == 6


def test_drw_parse_rejects_accepting_section():
    text = "drw\nalphabet: a\nstates: x\ninitial: x\naccepting: x\ntrans: x a x\n"
    with pytest.raises(ParseError) as err:
        parse_drw(text)
    assert str(err.value) == "line 5: accepting: is not allowed in a drw document"
    assert err.value.line == 5


def test_nbw_parse_rejects_pair_lines():
    text = "nbw\nalphabet: a\nstates: x\ninitial: x\ntrans: x a x\npair: 0 G x | B\n"
    with pytest.raises(ParseError) as err:
        parse_nbw(text)
    assert str(err.value) == "line 6: pair: lines are not allowed in an nbw document"
    assert err.value.line == 6


def test_drw_parse_rejects_duplicate_pair_index():
    with pytest.raises(ParseError) as err:
        parse_drw(_DRW_ONE_STATE + "pair: 0 G x | B\npair: 0 G | B x\n")
    assert str(err.value) == "line 7: duplicate pair index 0"
    assert err.value.line == 7


def test_drw_parse_reads_pair_index_digits_as_decimal():
    d = parse_drw(_DRW_ONE_STATE + "pair: 01 G | B x\npair: 00 G x | B\n")
    assert d.acceptance == ((frozenset({0}), frozenset()),
                            (frozenset(), frozenset({0})))


def test_drw_parse_requires_contiguous_pair_indices():
    with pytest.raises(ParseError) as err:
        parse_drw(_DRW_ONE_STATE + "pair: 1 G x | B\n")
    assert str(err.value) == "pair indices must be contiguous from 0"
    assert err.value.line is None


_ASCII_INDEX = "pair index '{}' must be a nonnegative integer in ASCII digits"


@pytest.mark.parametrize("pair, message", [
    ("0 G x B", "pair expects: <idx> G <state>* | B <state>*"),
    ("z G x | B", _ASCII_INDEX.format("z")),
    ("0 G x | X", "pair expects: <idx> G <state>* | B <state>*"),
    *((f"{tok} G x | B", _ASCII_INDEX.format(tok))
      for tok in ("+0", "-0", "0_0", "\u0660", "-1")),
], ids=["no-bar", "non-integer-index", "X-for-B", "plus-zero", "minus-zero",
        "underscore", "arabic-indic-zero", "negative"])
def test_drw_parse_checks_pair_syntax(pair, message):
    with pytest.raises(ParseError) as err:
        parse_drw(_DRW_ONE_STATE + f"pair: {pair}\n")
    assert str(err.value) == f"line 6: {message}"
    assert err.value.line == 6


# Each document has one fault in the grammar both kinds share; "{}" is the
# header.  The expected message and line are those of parse_nbw.
_SHARED_FAULTS = {
    "empty-document": ("# {}\n", "empty document", None),
    "unknown-directive": (
        "{}\nalphabet: a\nstates: x\ninitial: x\nbogus: 1\ntrans: x a x\n",
        "unknown directive 'bogus:'", 5),
    "duplicate-section": (
        "{}\nalphabet: a\nalphabet: a\nstates: x\ninitial: x\ntrans: x a x\n",
        "duplicate alphabet section", 3),
    "missing-section": ("{}\nalphabet: a\ninitial: x\ntrans: x a x\n",
                        "missing states section", None),
    "empty-alphabet": ("{}\nalphabet:\nstates: x\ninitial: x\n",
                       "alphabet must list at least one symbol", 2),
    "repeated-alphabet": ("{}\nalphabet: a a\nstates: x\ninitial: x\ntrans: x a x\n",
                          "duplicate alphabet symbol", 2),
    "lasso-separator-in-symbol": (
        "{}\nalphabet: a a.b\nstates: x\ninitial: x\ntrans: x a x\n",
        "symbol 'a.b' contains a lasso separator ('.' or ';')", 2),
    "empty-states": ("{}\nalphabet: a\nstates:\ninitial: x\n",
                     "states must list at least one name", 3),
    "repeated-states": ("{}\nalphabet: a\nstates: x x\ninitial: x\ntrans: x a x\n",
                        "duplicate state name", 3),
    "trans-arity": ("{}\nalphabet: a\nstates: x\ninitial: x\ntrans: x a\n",
                    "trans expects exactly: source symbol target", 5),
    "undeclared-symbol": ("{}\nalphabet: a\nstates: x\ninitial: x\ntrans: x z x\n",
                          "undeclared symbol 'z'", 5),
    "undeclared-source": ("{}\nalphabet: a\nstates: x\ninitial: x\ntrans: zz a x\n",
                          "undeclared state 'zz'", 5),
    "undeclared-target": ("{}\nalphabet: a\nstates: x\ninitial: x\ntrans: x a zz\n",
                          "undeclared state 'zz'", 5),
    "undeclared-initial": ("{}\nalphabet: a\nstates: x\ninitial: zz\ntrans: x a x\n",
                           "undeclared state 'zz'", 4),
}


@pytest.mark.parametrize("template, message, line", _SHARED_FAULTS.values(),
                         ids=_SHARED_FAULTS.keys())
def test_both_parsers_report_shared_faults_alike(template, message, line):
    want = message if line is None else f"line {line}: {message}"
    for kind, parse in (("nbw", parse_nbw), ("drw", parse_drw)):
        with pytest.raises(ParseError) as err:
            parse(template.format(kind))
        assert (str(err.value), err.value.line) == (want, line), kind


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
