"""Seeded differential tests of the lasso membership deciders.

``nbw_member`` works on bitmasks with lookup tables over 8-state chunks:
one lookup up to 8 states, two up to 16, a loop beyond.  So the sizes below
straddle the chunk boundaries.  ``brute_member`` decides by a period-step
closure that shares no code with it.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from buchidet import (NBW, GenSpec, Lasso, determinize_profile, determinize_safra,
                      drw_run_eval, drw_verdicts, enumerate_lassos, gen_nbw,
                      harness, nbw_member, nbw_verdicts, normalize)
from buchidet.automata import _nbw_period, _rotations
import mutants
from oracles import brute_member, lasso_axes, per_lasso, rotation_class

SIZES = (1, 3, 4, 5, 7, 8, 9, 13, 15, 16, 17)
ALPHABET = ("a", "b")


def random_nbw(rng: random.Random, n: int) -> NBW:
    """Any initial and accepting sets, so some automata need normalizing."""
    density = rng.choice((0.1, 0.2, 0.35, 0.6, 0.9))
    acc_fraction = rng.choice((0.2, 0.5, 0.8))
    edges = [(q, s, q2) for q in range(n) for s in range(len(ALPHABET))
             for q2 in range(n) if rng.random() < density]
    initial = rng.sample(range(n), rng.randint(1, min(2, n)))
    accepting = [q for q in range(n) if rng.random() < acc_fraction]
    return NBW(ALPHABET, [f"s{q}" for q in range(n)], initial, accepting, edges)


def sample_lassos(rng: random.Random, count: int) -> list[Lasso]:
    """Prefixes up to length 2 and periods up to length 6."""
    out = []
    for _ in range(count):
        u = tuple(rng.choice(ALPHABET) for _ in range(rng.randint(0, 2)))
        v = tuple(rng.choice(ALPHABET) for _ in range(rng.randint(1, 6)))
        out.append(Lasso(u, v))
    return out


def same_word(w: Lasso) -> list[Lasso]:
    """Other spellings of the word: a doubled period, and the period rotated
    by one symbol into the prefix."""
    u, v = w.prefix, w.period
    return [Lasso(u, v + v), Lasso(u + v[:1], v[1:] + v[:1])]


@pytest.mark.parametrize("n", SIZES)
def test_member_matches_brute_force(n):
    rng = random.Random(1000 + n)
    for _ in range(12):
        a = random_nbw(rng, n)
        for w in sample_lassos(rng, 25):
            want = brute_member(a, w)
            assert nbw_member(a, w) == want, (n, a.edges, str(w))
            for alt in same_word(w):
                assert nbw_member(a, alt) == want, (n, a.edges, str(alt))


@pytest.mark.parametrize("n", SIZES)
def test_member_all_short_periods(n):
    """Every period up to length 4, primitive or not, on one automaton."""
    a = random_nbw(random.Random(2000 + n), n)
    for lv in range(1, 5):
        for v in itertools.product(ALPHABET, repeat=lv):
            for u in ((), ("a",), ("b", "a")):
                w = Lasso(u, v)
                assert nbw_member(a, w) == brute_member(a, w), (n, str(w))


@pytest.mark.parametrize("n", (1, 7, 8, 9, 16, 17, 24, 25, 33))
def test_image_tables_give_the_union_of_rows(n):
    """For every symbol, in both directions, the image of a state mask is
    the union of the ``succ`` or ``pred`` rows of its states."""
    rng = random.Random(4000 + n)
    a = random_nbw(rng, n)
    post, pre, _, _ = a.mask_tables()
    full = (1 << n) - 1
    masks = [0, full, *(1 << q for q in range(n)),
             *(rng.getrandbits(n) for _ in range(200))]
    for images, adj in ((post, a.succ), (pre, a.pred)):
        for s in range(len(a.alphabet)):
            for m in masks:
                want = sum({1 << t for q in range(n) if m >> q & 1 for t in adj[q][s]})
                assert images[s](m) == want, (n, s, m)


def test_image_tables_memory():
    """Equal table entries are shared: the tables of a 16-state, two-symbol
    automaton take about 35 KiB, against about 79 KiB unshared."""
    a = normalize(gen_nbw(GenSpec(16, 2, 0.15, 0.1, 0)))
    tracemalloc.start()
    try:
        a.mask_tables()
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size <= 56 * 1024


def test_reversed_age_priorities_pitfall():
    """The smallest word on which the reversed age-rank priority encoding
    goes wrong: every decider rejects it."""
    a = normalize(gen_nbw(GenSpec(2, 2, 0.35, 0.3, 2012)))
    w = Lasso.parse(";a.b.b")
    assert not nbw_member(a, w)
    assert not brute_member(a, w)
    for d in (determinize_profile(a), determinize_safra(a)):
        assert not drw_run_eval(d, w)


def test_member_non_primitive_period():
    # s0 -a-> s1 -b-> s0, with s1 accepting: (ab)^w and (abab)^w are one word
    a = NBW(ALPHABET, ["s0", "s1"], [0], [1], [(0, 0, 1), (1, 1, 0)])
    for text in (";a.b", ";a.b.a.b", "a;b.a", "a.b;a.b.a.b", "a.b.a;b.a"):
        assert nbw_member(a, Lasso.parse(text)), text
    for text in (";a", ";b.a.a", "b;a.b"):
        assert not nbw_member(a, Lasso.parse(text)), text


def test_unknown_symbol_raises_after_the_runs_die():
    # no run survives the first "b", yet the unknown symbol after it and in
    # the period must still be reported
    a = NBW(ALPHABET, ["s0"], [0], [0], [(0, 0, 0)])
    assert not nbw_member(a, Lasso.parse("b;a"))
    for text in ("b.z;a", "b;z", "b;a.z"):
        with pytest.raises(ValueError, match="'z'"):
            nbw_member(a, Lasso.parse(text))


@pytest.mark.parametrize("n", (1, 3, 4, 5))
def test_drw_run_eval_matches_member(n):
    rng = random.Random(3000 + n)
    for _ in range(4):
        a = normalize(random_nbw(rng, n))
        drws = (determinize_safra(a, 10 ** 5), determinize_profile(a, 10 ** 5))
        for w in sample_lassos(rng, 40):
            want = nbw_member(a, w)
            for d in drws:
                assert drw_run_eval(d, w) == want, (n, a.edges, str(w))
                for alt in same_word(w):
                    assert drw_run_eval(d, alt) == want, (n, a.edges, str(alt))
        for d in drws:
            for text in ("z;a", "a;b.z"):
                with pytest.raises(ValueError, match="'z'"):
                    drw_run_eval(d, Lasso.parse(text))


# -- row deciders ----------------------------------------------------------------

BATCH_GRID = [GenSpec(n, k, 0.5, 0.3, 7000 + 10 * n + k)
              for n in range(1, 7) for k in range(1, 4)]
BATCH_IDS = [f"n{s.n_states}k{s.alphabet_size}" for s in BATCH_GRID]


def assert_rows_match(a: NBW, lassos: list[Lasso]):
    """The row deciders, read per lasso, give exactly the per-lasso
    verdicts, for the NBW and for both of its determinizations; a prefix
    listed twice gets its row twice."""
    prefixes, periods = lasso_axes(lassos)
    deciders = [(nbw_verdicts, nbw_member, a)]
    deciders += [(drw_verdicts, drw_run_eval, d)
                 for d in (determinize_profile(a), determinize_safra(a))]
    for rows_of, single, aut in deciders:
        rows = rows_of(aut, prefixes, periods)
        assert len(rows) == len(prefixes)
        assert all(0 <= r < 1 << len(periods) for r in rows)
        assert per_lasso([rows], lassos, prefixes, periods) == \
            [(single(aut, w),) for w in lassos]
        assert rows_of(aut, prefixes + prefixes[::-1], periods) == rows + rows[::-1]


@pytest.mark.parametrize("spec", BATCH_GRID, ids=BATCH_IDS)
def test_batch_verdicts_match_per_lasso(spec):
    a = normalize(gen_nbw(spec))
    lassos = enumerate_lassos(a.alphabet, 3, 4 if spec.alphabet_size < 3 else 3)
    assert_rows_match(a, lassos)
    # shuffled, with duplicates: a prefix may come before its shorter ones
    rng = random.Random(spec.seed)
    mixed = lassos + rng.sample(lassos, len(lassos) // 3)
    rng.shuffle(mixed)
    assert_rows_match(a, mixed)
    # only the longest prefixes, so no one-shorter prefix was run first
    assert_rows_match(a, [w for w in lassos if len(w.prefix) == 3])


@pytest.mark.parametrize("spec", [GenSpec(n, k, 0.5, 0.3, 7000 + 10 * n + k)
                                  for n, k in ((3, 2), (6, 2), (3, 3), (5, 3))],
                         ids=["n3k2", "n6k2", "n3k3", "n5k3"])
def test_batch_verdicts_match_per_lasso_on_wider_grids(spec):
    """Binary periods up to length 6 and ternary ones up to 4: squares and
    cubes of periods of length 2 and 3, and rotations whose prefix x has up
    to 5 symbols."""
    a = normalize(gen_nbw(spec))
    max_v = 6 if spec.alphabet_size == 2 else 4
    assert_rows_match(a, enumerate_lassos(a.alphabet, 2, max_v))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=1,
                                             max_size=8))))
def test_rotation_class_spells_the_same_word(case):
    """A period v maps to (x, c) with ``x . c^w`` equal to ``v^w``, c
    primitive and the least of its rotations, and |x| < |c|; v's powers and
    rotations map to the same c, and the smallest grid holding v holds c."""
    k, ids = case
    alphabet = ("a", "b", "c")[:k]
    v = tuple(alphabet[i] for i in ids)
    cores, ((x, index),) = _rotations(alphabet, (v,))
    assert index == 0 and len(cores) == 1
    c = cores[0]
    x_syms, c_syms = (tuple(alphabet[i] for i in w) for w in (x, c))
    length = len(x) + 2 * len(v) * len(c)
    assert Lasso(x_syms, c_syms).unroll(length) == Lasso((), v).unroll(length)
    turns = [c[i:] + c[:i] for i in range(len(c))]
    assert min(turns) == c and turns.count(c) == 1
    assert len(x) < len(c)
    assert _rotations(alphabet, (v, v + v, v[1:] + v[:1]))[0] == cores
    assert c_syms in harness._grid(alphabet, 0, len(v))[1]


def _midway_hits(d, prefixes, periods) -> int:
    """The walks that a per-class memo stops partway, taking the periods in
    order and each period's prefixes in order: a walk on c, from the state
    after the prefix and x, that no earlier walk on c passed through at a
    period start, which meets such a start later."""
    def run(q, word):
        for sym in word:
            q = d.trans[q][d.alphabet.index(sym)]
        return q

    hits, passed = 0, {}
    for v in periods:
        x, c = rotation_class(v)
        seen = passed.setdefault(c, set())
        for u in prefixes:
            q, walk = run(d.initial, u + x), set()
            while q not in seen and q not in walk:
                walk.add(q)
                q = run(q, c)
            hits += bool(walk) and q in seen
            seen |= walk
    return hits


def test_drw_rows_do_not_depend_on_prefix_or_period_order():
    """On the profile and Safra DRWs of the mutant catalogue's corpus, the
    DRW row decider gives each lasso its run's verdict with the prefixes
    and periods in order and reversed; with the prefixes reversed, some
    walks stop at a start that an earlier walk on their period's rotation
    class passed through."""
    automata = mutants.corpus()
    lassos = enumerate_lassos(automata[0].alphabet, mutants.MAX_U, mutants.MAX_V)
    prefixes, periods = lasso_axes(lassos)
    midway = 0
    for a in automata:
        for d in (determinize_profile(a), determinize_safra(a)):
            run = {(u, v): drw_run_eval(d, Lasso(u, v)) for u in prefixes for v in periods}
            for us in (prefixes, prefixes[::-1]):
                for vs in (periods, periods[::-1]):
                    assert drw_verdicts(d, us, vs) == \
                        [sum(run[u, v] << j for j, v in enumerate(vs)) for u in us]
            midway += _midway_hits(d, prefixes[::-1], periods)
    assert midway > 0


# Past one image table: two tables (9 and 16 states) and the chunk loop (17),
# with masks that are neither empty nor all states on 7, 14 and 14 of their
# 14 periods.
MASK_GRID = BATCH_GRID + [GenSpec(9, 2, 0.3, 0.3, 7092),
                          GenSpec(16, 2, 0.12, 0.2, 7162),
                          GenSpec(17, 2, 0.15, 0.2, 7172)]


@pytest.mark.parametrize("spec", MASK_GRID,
                         ids=[f"n{s.n_states}k{s.alphabet_size}" for s in MASK_GRID])
def test_period_mask_is_the_winning_states(spec):
    """The period core returns exactly the states from which some run
    accepts ``v^w``: bit q is set iff the automaton re-rooted at q accepts
    ``;v``."""
    a = normalize(gen_nbw(spec))
    rooted = [NBW(a.alphabet, a.states, [q], a.accepting, a.edges) for q in range(a.n)]
    for lv in range(1, 4):
        for v in itertools.product(a.alphabet, repeat=lv):
            mask = _nbw_period(a, [a.sym_id(s) for s in v])
            want = sum(brute_member(r, Lasso((), v)) << q for q, r in enumerate(rooted))
            assert mask == want, (spec, v)


@pytest.mark.parametrize("spec", BATCH_GRID, ids=BATCH_IDS)
def test_batch_verdicts_after_a_prefix_that_kills_every_run(spec):
    """With the initial states' edges on the first symbol removed, every
    prefix starting with it leaves no run alive: the NBW start is the empty
    mask, and the row of every such prefix is empty."""
    g = normalize(gen_nbw(spec))
    a = NBW(g.alphabet, g.states, g.initial, g.accepting,
            [e for e in g.edges if not (e[1] == 0 and e[0] in g.initial)])
    first = a.alphabet[0]
    lassos = [w for w in enumerate_lassos(a.alphabet, 3, 3) if w.prefix[:1] == (first,)]
    random.Random(spec.seed).shuffle(lassos)
    assert not any(a.succ[q][0] for q in a.initial)
    prefixes, periods = lasso_axes(lassos)
    assert not any(nbw_verdicts(a, prefixes, periods))
    assert_rows_match(a, lassos)


def test_batch_verdicts_unknown_symbol_and_empty_list():
    """An unknown symbol in any prefix or period raises the single-lasso
    error, also in a prefix that extends one already run or follows a dead
    run, and in a period whose least rotation starts with another unknown
    symbol.  An empty period raises the error that `Lasso` raises.  No
    prefixes give no rows."""
    a = NBW(ALPHABET, ["s0"], [0], [0], [(0, 0, 0)])
    d = determinize_profile(normalize(a))
    for periods in ([], [("a",)]):
        assert nbw_verdicts(a, [], periods) == [] and drw_verdicts(d, [], periods) == []
    assert nbw_verdicts(a, [()], []) == [0] and drw_verdicts(d, [()], []) == [0]
    ok = [Lasso.parse(t) for t in (";a", "a;a", "b;a")]
    for text in ("z;a", "a.z;a", "b.z;a", ";z", "a;a.z", "b;b.z", ";z.y"):
        bad = Lasso.parse(text)
        for rows_of, single, aut in ((nbw_verdicts, nbw_member, a),
                                     (drw_verdicts, drw_run_eval, d)):
            with pytest.raises(ValueError) as want:
                single(aut, bad)
            assert str(want.value) == "symbol 'z' not in alphabet"
            for lassos in ([bad], ok + [bad], [bad] + ok):
                prefixes, periods = lasso_axes(lassos)
                with pytest.raises(ValueError) as got:
                    rows_of(aut, prefixes, periods)
                assert str(got.value) == str(want.value), text
    with pytest.raises(ValueError) as want:
        Lasso((), ())
    for rows_of, aut in ((nbw_verdicts, a), (drw_verdicts, d)):
        for periods in ([()], [("a",), ()]):
            with pytest.raises(ValueError) as got:
                rows_of(aut, [()], periods)
            assert str(got.value) == str(want.value)
