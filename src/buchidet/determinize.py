"""Determinization of an NBW into a DRW over doubly preordered state sets.

A macrostate carries the set of currently alive states, the linear preorder
induced by their acceptance histories (stored as rank-ordered classes), one
label per class from the pool {0..2n}, a second "cousin" preorder whose row x
holds the classes that descend from the birth class of x's label, and the
good/bad label events that feed the Rabin condition.  Successors are defined
declaratively from the rows: a new class inherits the label of its minimal
uncle, whose heir it is, and the events follow from the heirs.  No tree
surgery is involved.

The label-free part of a step (the new classes and cousin order, each new
class's inheriting uncle, the uncles whose labels turn good) depends only on
(classes, cousin, symbol).  `determinize_profile` computes it once per such
triple in one exploration and puts each macrostate's labels on it;
`sigma_successor` computes every step afresh.
"""

from dataclasses import dataclass

from .automata import DRW, NBW, RabinCondition
from .explore import explore


@dataclass(frozen=True)
class Macrostate:
    """Canonical, hashable macrostate.

    `classes` lists the preorder's equivalence classes smallest-first, each a
    sorted tuple of state ids; `labels` gives the class labels in the same
    order; `cousin` holds rank pairs (x, b), and row x = {b : (x, b) in
    cousin} holds the classes that descend from the birth class of x's label.
    Two macrostates are equal iff these canonical fields are equal.
    """

    classes: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]
    cousin: frozenset
    good: frozenset
    bad: frozenset


def initial_macrostate(a: NBW) -> Macrostate:
    """All initial states in one class labeled 0, fully cousin-related."""
    if a.needs_normalization:
        raise ValueError("automaton must be normalized first")
    return Macrostate((tuple(sorted(a.initial)),), (0,),
                      frozenset({(0, 0)}), frozenset(), frozenset())


def _shape(a: NBW, classes, cousin, sym: int):
    """The label-free part of a step, a function of (classes, cousin, sym).

    Returns the new classes, the new cousin pairs, for each new class the
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

    # row x: the old classes that descend from the birth class of x's label.
    # The nephew of x is the first new class whose parent lies in row x, and
    # the uncles of j are the old classes whose nephew is j.  j inherits the
    # label of its minimal uncle, whose heir it is, and its cousins are the
    # classes whose parent lies in the row of any of its uncles.
    rows = [set() for _ in classes]
    for x, b in cousin:
        rows[x].add(b)
    uncle: dict[int, int] = {}  # heir -> its minimal uncle
    reach = [set() for _ in classes2]
    for x, row in enumerate(rows):
        for j, p in enumerate(parent2):
            if p in row:
                uncle.setdefault(j, x)
                reach[j] |= row
                break
    pairs = frozenset((j, j2) for j, row in enumerate(reach)
                      for j2, p in enumerate(parent2) if j2 == j or p in row)
    # good: the uncles whose heir changed parent or turned accepting
    good = tuple(x for j, x in uncle.items() if parent2[j] != x or f2[j])
    return (classes2, pairs, tuple(uncle.get(j) for j in range(len(classes2))),
            good)


def _apply_labels(a: NBW, m: Macrostate, shape) -> Macrostate:
    """Put `m`'s labels on a step's shape: heirs keep their uncle's label,
    fresh classes draw from the sorted free pool in rank order, and the
    labels that vanished are bad."""
    classes2, pairs, heirs, good = shape
    free = sorted(set(range(2 * a.n + 1)) - set(m.labels))
    if heirs.count(None) > len(free):
        raise AssertionError("free-label pool exhausted; state count is wrong")
    fresh = iter(free)
    labels2 = tuple(next(fresh) if x is None else m.labels[x] for x in heirs)
    return Macrostate(classes2, labels2, pairs,
                      frozenset(m.labels[x] for x in good),
                      frozenset(m.labels) - frozenset(labels2))


def sigma_successor(a: NBW, m: Macrostate, symbol: str) -> Macrostate:
    """The unique successor macrostate on `symbol`.

    When every run dies the result is the empty macrostate, whose bad set
    names all labels alive before; the empty macrostate loops on itself with
    no further events, acting as the rejecting sink.
    """
    return _apply_labels(a, m, _shape(a, m.classes, m.cousin, a.sym_id(symbol)))


def determinize_profile(a: NBW, max_states: int = 10 ** 6) -> DRW:
    """Explore the full macrostate automaton and package it as a DRW.

    Each step's shape is computed once per (classes, cousin, symbol) in this
    exploration and shared by every macrostate with those preorders.  One
    Rabin pair per label in {0..2n} is generated; pairs whose G side is
    empty can never fire and are dropped.
    """
    shapes: dict = {}

    def step(m: Macrostate, sym: int) -> Macrostate:
        key = (m.classes, m.cousin, sym)
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = _shape(a, m.classes, m.cousin, sym)
        return _apply_labels(a, m, shape)

    states, table = explore(initial_macrostate(a), step, len(a.alphabet),
                            max_states)
    good = [[] for _ in range(2 * a.n + 1)]
    bad = [[] for _ in range(2 * a.n + 1)]
    for i, st in enumerate(states):
        for lab in st.good:
            good[lab].append(i)
        for lab in st.bad:
            bad[lab].append(i)
    pairs = tuple((frozenset(g), frozenset(b)) for g, b in zip(good, bad) if g)
    return DRW(a.alphabet, tuple(f"m{i}" for i in range(len(states))), 0,
               tuple(tuple(row) for row in table),
               RabinCondition(pairs), tuple(states))


def validate_macrostate(a: NBW, m: Macrostate) -> list[str]:
    """Structural invariants of a macrostate; violations come back as messages."""
    out = []
    seen: set[int] = set()
    for j, group in enumerate(m.classes):
        if not group:
            out.append(f"class {j} is empty")
        if tuple(sorted(group)) != group:
            out.append(f"class {j} is not sorted")
        if seen & set(group):
            out.append(f"class {j} overlaps another class")
        seen |= set(group)
        for q in group:
            if not 0 <= q < a.n:
                out.append(f"state id {q} out of range")
    if len(m.labels) != len(m.classes):
        out.append("labels and classes differ in length")
    if len(set(m.labels)) != len(m.labels):
        out.append("labels are not distinct across classes")
    for lab in m.labels:
        if not 0 <= lab <= 2 * a.n:
            out.append(f"label {lab} outside the pool")
    k = len(m.classes)
    for x, y in m.cousin:
        if not (0 <= x < k and 0 <= y < k):
            out.append(f"cousin pair ({x},{y}) out of range")
        elif x > y:
            out.append(f"cousin pair ({x},{y}) contradicts the class order")
    for x in range(k):
        if (x, x) not in m.cousin:
            out.append(f"cousin relation misses reflexive pair ({x},{x})")
    rows: dict[int, set] = {}
    for x, y in m.cousin:
        rows.setdefault(x, set()).add(y)
    for x, y in m.cousin:
        for z in sorted(rows.get(y, set()) - rows[x]):
            out.append(f"cousin relation not transitive: ({x},{y}),({y},{z})")
    for lab in m.good | m.bad:
        if not 0 <= lab <= 2 * a.n:
            out.append(f"event label {lab} outside the pool")
    if m.good & m.bad:
        out.append("good and bad label sets overlap")
    return out
