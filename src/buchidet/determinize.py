"""Determinization of an NBW into a DRW over doubly preordered state sets.

A macrostate carries the set of currently alive states, the linear preorder
induced by their acceptance histories (stored as rank-ordered classes), one
label per class from the pool {0..2n}, a second "cousin" preorder stored as
its rows (row x holds the classes that descend from the birth class of x's
label), and the good/bad label events that feed the Rabin condition.
Successors are defined declaratively from the rows: a new class inherits the
label of its minimal uncle, whose heir it is, and the events follow from the
heirs.  No tree surgery is involved.

A step has two parts.  `_shape` is its label-free part: the new classes
and cousin order, each new class's inheriting uncle and the uncles whose
labels turn good, a function of (classes, cousin, symbol) alone.
`_apply_labels` is the one label step: it puts a macrostate's labels on a
shape and returns the new labels and the good/bad label masks.
`sigma_successor` composes the two afresh on every step.
`determinize_profile` explores the label-free automaton of (classes,
cousin) pairs (`_preorders`, one shape per edge), then compact keys (sid,
labels, good mask, bad mask) over its table, builds each `Macrostate` once
after that, and hands them to `explore.rabin_drw`, the pair rule shared
with Safra.

`validate_macrostate` splits the same way.  The faults of the classes and
of the cousin order depend on the preorder pair alone, so a caller that
keeps one `seen` dict across a DRW's payloads checks each distinct pair
once; the labels and events are checked per payload.
"""

from dataclasses import dataclass
from functools import cache

from .automata import DRW, NBW, state_set_faults
from .explore import explore, rabin_drw


@dataclass(frozen=True, slots=True)
class Macrostate:
    """Canonical, hashable macrostate.

    `classes` lists the preorder's equivalence classes smallest-first, each a
    sorted tuple of state ids; `labels` gives the class labels in the same
    order; `cousin` holds one row per class, and row x, `cousin[x]`, holds
    the ranks of the classes that descend from the birth class of x's label.
    Two macrostates are equal iff these canonical fields are equal.
    """

    classes: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]
    cousin: tuple[frozenset[int], ...]
    good: frozenset
    bad: frozenset


def initial_macrostate(a: NBW) -> Macrostate:
    """All initial states in one class labeled 0, fully cousin-related."""
    if a.needs_normalization:
        raise ValueError("automaton must be normalized first")
    return Macrostate((tuple(sorted(a.initial)),), (0,),
                      (frozenset({0}),), frozenset(), frozenset())


def _shape(a: NBW, classes, cousin, sym: int):
    """The label-free part of a step, a function of (classes, cousin, sym).

    Returns the new classes, the new cousin rows, for each new class the
    old rank of the uncle it inherits its label from (None for a fresh
    label), and the old ranks whose labels turn good.
    """
    rank = {q: i for i, group in enumerate(classes) for q in group}
    succ, pred, acc = a.succ, a.pred, a.acc

    new_states = sorted({q2 for q in rank for q2 in succ[q][sym]})
    key = {}
    for q2 in new_states:
        parent = max(rank[p] for p in pred[q2][sym] if p in rank)
        key[q2] = (parent, 1 if q2 in acc else 0)
    order = sorted(set(key.values()))
    classes2 = tuple(tuple(q2 for q2 in new_states if key[q2] == kk) for kk in order)
    parent2 = [kk[0] for kk in order]
    f2 = [kk[1] for kk in order]

    # row x = cousin[x]: the old classes that descend from the birth class of
    # x's label.  The nephew of x is the first new class whose parent lies in
    # row x, and the uncles of j are the old classes whose nephew is j.  j
    # inherits the label of its minimal uncle, whose heir it is, and its
    # cousins are the classes whose parent lies in the row of any of its uncles.
    uncle: dict[int, int] = {}  # heir -> its minimal uncle
    reach = [set() for _ in classes2]
    for x, row in enumerate(cousin):
        for j, p in enumerate(parent2):
            if p in row:
                uncle.setdefault(j, x)
                reach[j] |= row
                break
    rows = tuple(frozenset(j2 for j2, p in enumerate(parent2) if j2 == j or p in row)
                 for j, row in enumerate(reach))
    # good: the uncles whose heir changed parent or turned accepting
    good = tuple(x for j, x in uncle.items() if parent2[j] != x or f2[j])
    return (classes2, rows, tuple(uncle.get(j) for j in range(len(classes2))),
            good)


def _apply_labels(a: NBW, labels, heirs, good):
    """Put `labels` on a step's heirs and good ranks: heirs keep their
    uncle's label, fresh classes draw from the free pool smallest first in
    rank order, and the labels that vanished are bad.  Returns the new
    labels and the good and bad label masks."""
    used = 0
    for lab in labels:
        used |= 1 << lab
    free = ((1 << 2 * a.n + 1) - 1) & ~used
    if heirs.count(None) > free.bit_count():
        raise AssertionError("free-label pool exhausted; state count is wrong")
    labels2, kept, good_mask = [], 0, 0
    for x in heirs:
        if x is None:
            low = free & -free
            free ^= low
            labels2.append(low.bit_length() - 1)
        else:
            lab = labels[x]
            kept |= 1 << lab
            labels2.append(lab)
    for x in good:
        good_mask |= 1 << labels[x]
    return tuple(labels2), good_mask, used & ~kept


def _label_set(mask: int) -> frozenset:
    return frozenset(lab for lab in range(mask.bit_length()) if mask >> lab & 1)


def sigma_successor(a: NBW, m: Macrostate, symbol: str) -> Macrostate:
    """The unique successor macrostate on `symbol`.

    When every run dies the result is the empty macrostate, whose bad set
    names all labels alive before; the empty macrostate loops on itself with
    no further events, acting as the rejecting sink.
    """
    classes2, rows, heirs, good = _shape(a, m.classes, m.cousin, a.sym_id(symbol))
    labels2, good_mask, bad_mask = _apply_labels(a, m.labels, heirs, good)
    return Macrostate(classes2, labels2, rows, _label_set(good_mask),
                      _label_set(bad_mask))


def _preorders(a: NBW, max_states: int):
    """The label-free automaton, one exploration of (classes, cousin) pairs:
    the pairs, and ``edges[sid][sym] = (sid2, heirs, good)`` from `_shape`.
    No shape reads a label, so the pairs are those of the reachable
    macrostates."""
    k = len(a.alphabet)
    marks = []  # (heirs, good) per step, in the order `explore` calls it

    def step(pair, sym: int):
        classes2, rows, heirs, good = _shape(a, *pair, sym)
        marks.append((heirs, good))
        return classes2, rows

    m0 = initial_macrostate(a)
    pre, table = explore((m0.classes, m0.cousin), step, k, max_states)
    return pre, [[(sid2, *marks[sid * k + sym]) for sym, sid2 in enumerate(row)]
                 for sid, row in enumerate(table)]


def determinize_profile(a: NBW, max_states: int = 10 ** 6) -> DRW:
    """Explore the full macrostate automaton and package it as a DRW.

    After `_preorders`, a second exploration under the same cap runs on
    keys (sid, labels, good mask, bad mask) over its edges, sid indexing the
    pairs, with one `_apply_labels` per step; a key is equal to another
    exactly when their macrostates are.  Each `Macrostate` is built once
    after that, sharing its sid's classes and cousin objects and one good or
    bad frozenset per mask.  `rabin_drw` gives one Rabin pair per label
    that is good on some macrostate, in label order.
    """
    pre, edges = _preorders(a, max_states)

    def step(key, sym: int):
        sid2, heirs, good = edges[key[0]][sym]
        return (sid2, *_apply_labels(a, key[1], heirs, good))

    # the initial pair is pair 0, and no events yet: both masks are 0
    keys, table = explore((0, initial_macrostate(a).labels, 0, 0), step,
                          len(a.alphabet), max_states)
    label_set = cache(_label_set)
    states = []
    for sid, labels, good_mask, bad_mask in keys:
        classes, cousin = pre[sid]
        states.append(Macrostate(classes, labels, cousin, label_set(good_mask),
                                 label_set(bad_mask)))
    return rabin_drw(a.alphabet, "m", table, states)


def _preorder_faults(a: NBW, classes, cousin) -> tuple[list[str], list[str]]:
    """The faults of a preorder pair: those of its classes, and those of its
    cousin order: range and class order, reflexivity, then transitivity,
    each kind row by row, by (x, y)."""
    out = []
    k = len(classes)
    for x, row in enumerate(cousin):
        for y in sorted(row):
            if not (x < k and 0 <= y < k):
                out.append(f"cousin pair ({x},{y}) out of range")
            elif x > y:
                out.append(f"cousin pair ({x},{y}) contradicts the class order")
    for x in range(k):
        if x >= len(cousin) or x not in cousin[x]:
            out.append(f"cousin relation misses reflexive pair ({x},{x})")
    for x, row in enumerate(cousin):
        for y in sorted(row):
            for z in sorted(cousin[y] - row if 0 <= y < len(cousin) else ()):
                out.append(f"cousin relation not transitive: ({x},{y}),({y},{z})")
    return state_set_faults(a, classes, lambda j: f"class {j}"), out


def validate_macrostate(a: NBW, m: Macrostate, seen: dict | None = None) -> list[str]:
    """Structural invariants of a macrostate; violations come back as messages.

    The messages come in order: class faults, label faults, cousin faults,
    event faults.  The class and cousin faults depend on the preorder
    pair (classes, cousin) alone: given `seen`, a dict kept across the
    payloads of one DRW, each distinct pair is checked once and its faults
    are reused.  The labels and events are checked on every call.
    """
    if seen is None:
        seen = {}
    key = (m.classes, m.cousin)
    if key not in seen:
        seen[key] = _preorder_faults(a, *key)
    class_faults, cousin_faults = seen[key]
    out = list(class_faults)
    if len(m.labels) != len(m.classes):
        out.append("labels and classes differ in length")
    if len(set(m.labels)) != len(m.labels):
        out.append("labels are not distinct across classes")
    for lab in m.labels:
        if not 0 <= lab <= 2 * a.n:
            out.append(f"label {lab} outside the pool")
    out += cousin_faults
    for lab in m.good | m.bad:
        if not 0 <= lab <= 2 * a.n:
            out.append(f"event label {lab} outside the pool")
    if m.good & m.bad:
        out.append("good and bad label sets overlap")
    return out
