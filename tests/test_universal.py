"""The premise of the universal automata: both constructions, and the
labeled run-DAG level that the sweep checks the profile construction
against, read a letter only through its relation, so every step of an NBW A
is the step of U(n, I, F) on the letter of the same relation (see
`universal.py`)."""

import random
from functools import cache

from buchidet import (NBW, determinize_profile, determinize_safra,
                      initial_level, initial_macrostate, safra_initial,
                      safra_successor, sigma_successor, step_level)
from oracles import drw_equivalent
from universal import relation_letter, universal_classes, universal_nbw

universal = cache(universal_nbw)


def random_normalized_nbw(rng: random.Random) -> NBW:
    """n ≤ 3 states, k ≤ 3 symbols, a nonempty initial set and an
    accepting set disjoint from it."""
    n, k = rng.randint(1, 3), rng.randint(1, 3)
    initial = rng.sample(range(n), rng.randint(1, n))
    accepting = [q for q in range(n) if q not in initial and rng.random() < 0.6]
    density = rng.choice((0.2, 0.4, 0.6))
    edges = [(p, s, q) for p in range(n) for s in range(k) for q in range(n)
             if rng.random() < density]
    return NBW("abc"[:k], [f"s{q}" for q in range(n)], initial, accepting, edges)


def premise_cases():
    """(A, U(n, I, F), h) for 60 random NBWs A at a fixed seed, h mapping
    each symbol of A to the letter of its relation."""
    rng = random.Random(20)
    for _ in range(60):
        a = random_normalized_nbw(rng)
        yield (a, universal(a.n, a.initial, a.accepting),
               {s: relation_letter(a, s) for s in a.alphabet})


def test_each_letter_of_the_universal_automaton_is_its_own_relation():
    for n in (1, 2, 3):
        u = universal(n, (0,), ())
        assert len(u.alphabet) == 2 ** (n * n)
        assert all(relation_letter(u, s) == s for s in u.alphabet)


def test_both_steps_read_a_letter_only_through_its_relation():
    """For 60 random NBWs A and both constructions: the initial payloads
    of A and U(n, I, F) are equal, and so is the step from every payload
    that A's own exploration reaches on every symbol a of A and on h(a)."""
    steps = 0
    for a, u, h in premise_cases():
        for initial, step, build in ((initial_macrostate, sigma_successor,
                                      determinize_profile),
                                     (safra_initial, safra_successor,
                                      determinize_safra)):
            assert initial(a) == initial(u)
            for x in build(a).payloads:
                for s in a.alphabet:
                    assert step(a, x, s) == step(u, x, h[s])
                    steps += 1
    assert steps > 1000  # 1,607 at this seed


def test_the_level_step_reads_a_letter_only_through_its_relation():
    """For the same 60 NBWs A: the initial levels of A and U(n, I, F) are
    equal, and so is the level step from every distinct level that A's
    words shorter than 4 reach, on every symbol a of A and on h(a)."""
    steps = 0
    for a, u, h in premise_cases():
        assert initial_level(a) == initial_level(u)
        seen = frontier = {initial_level(a)}
        for _ in range(4):
            reached = set()
            for lv in frontier:
                for s in a.alphabet:
                    lv2 = step_level(a, lv, s)
                    assert lv2 == step_level(u, lv, h[s])
                    reached.add(lv2)
                    steps += 1
            frontier, seen = reached - seen, seen | reached
    assert steps == 685


def sizes(profile, safra) -> tuple:
    """Profile states and pairs, Safra states and pairs, the highest label
    and the distinct (classes, cousin) preorder pairs of the profile DRW."""
    return (len(profile.states), len(profile.acceptance),
            len(safra.states), len(safra.acceptance),
            max(max(m.labels, default=0) for m in profile.payloads),
            len({(m.classes, m.cousin) for m in profile.payloads}))


# (n, I, F): the sizes of both DRWs of U(n, I, F)
UNIVERSAL_N2 = {
    (1, (0,), ()): (3, 0, 3, 0, 0, 2),
    (2, (0,), ()): (5, 0, 5, 0, 0, 4),
    (2, (0,), (1,)): (21, 3, 11, 2, 2, 5),
    (2, (0, 1), ()): (5, 0, 5, 0, 0, 4),
}


def test_universal_automata_up_to_two_states():
    """Every class of U(n, I, F) for n ≤ 2: both DRWs have the pinned sizes
    and accept the same language, so by the premise above profile ≡ Safra
    on every NBW whose normalized form has at most two states."""
    assert [len(universal_classes(n)) for n in (1, 2, 3)] == [1, 3, 6]
    got = {}
    for n in (1, 2):
        for initial, accepting in universal_classes(n):
            u = universal(n, initial, accepting)
            profile, safra = determinize_profile(u), determinize_safra(u)
            assert drw_equivalent(profile, safra)
            got[n, initial, accepting] = sizes(profile, safra)
    assert got == UNIVERSAL_N2


UNIVERSAL_N3 = {
    (3, (0,), ()): (9, 0, 9, 0, 0, 8),
    (3, (0,), (1,)): (381, 4, 89, 4, 3, 25),
    (3, (0,), (1, 2)): (321, 4, 42, 3, 3, 25),
    (3, (0, 1), ()): (9, 0, 9, 0, 0, 8),
    (3, (0, 1), (2,)): (381, 4, 89, 4, 3, 25),
    (3, (0, 1, 2), ()): (9, 0, 9, 0, 0, 8),
}


def test_universal_automata_with_three_states():
    """Every class of U(3, I, F): both DRWs have the pinned sizes, so by the
    premise above no NBW whose normalized form has three states yields a
    larger DRW of either kind.  Their languages are not compared here."""
    got = {}
    for initial, accepting in universal_classes(3):
        u = universal(3, initial, accepting)
        got[3, initial, accepting] = sizes(determinize_profile(u),
                                           determinize_safra(u))
    assert got == UNIVERSAL_N3
