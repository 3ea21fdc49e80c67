"""Labeled levels of the run DAG of an NBW on a finite word prefix.

Nodes of a level with the same acceptance history form one class, so each
level is kept as its profile-tree slice: the classes in rank order, the rank
of each class's parent on the previous level, and each class's acceptance
bit.  A node's rank is the rank of its class.

Two labelings of the classes ride along.  The global labeling ``gl`` hands
out ever-fresh integers and is the reference for "which branch does this
label follow".  The bounded labeling ``lbl`` reuses labels from the fixed
pool ``{0..2n}`` and drives the Rabin condition: a label is *good* at a level
when the class carrying it entered an accepting class or jumped branches, and
*bad* when it fell out of use.

Both labelings are computed level-locally from the predecessor level and its
cousin rows: row x holds the classes that descend from the birth class of x's
label, a class inherits both labels from its minimal uncle, whose heir it is,
and the events follow from the heirs.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import count

from .automata import NBW, state_set_faults


@dataclass(frozen=True)
class ProfileLevel:
    """One level of the class tree: classes in rank order with parent links
    and acceptance bits, both labelings and the cousin order.

    `cousin` holds one row per class: row a, `cousin[a]`, holds the ranks of
    the classes that descend from the class where the label of class a was
    born; the order is reflexive and transitive.
    `gl_watermark` is the next unused global label (internal bookkeeping so a
    successor level can be computed without global lookback).
    """

    classes: tuple[tuple[int, ...], ...]
    parents: tuple
    f_class: tuple[int, ...]
    gl: tuple[int, ...]
    lbl: tuple[int, ...]
    cousin: tuple[frozenset[int], ...]
    good: frozenset
    bad: frozenset
    successful: frozenset
    gl_watermark: int


def initial_level(a: NBW) -> ProfileLevel:
    """Level 0: the initial states form a single all-non-accepting class,
    which carries label 0 of both labelings."""
    if a.needs_normalization:
        raise ValueError("automaton must be normalized first")
    return ProfileLevel((tuple(sorted(a.initial)),), (None,), (0,), (0,), (0,),
                        (frozenset({0}),), frozenset(), frozenset(),
                        frozenset(), 1)


def _slice(a: NBW, prev: ProfileLevel, symbol: str) -> tuple:
    """The profile-tree slice after `prev` on `symbol`: (classes, parents,
    f_class).

    A node keeps only the edges from its rank-maximal predecessors; the new
    classes are ordered lexicographically by (parent class rank, acceptance
    bit), which extends each parent's history by one bit.  The result may be
    empty.
    """
    sym = a.sym_id(symbol)
    rank = {q: j for j, group in enumerate(prev.classes) for q in group}
    members: dict[tuple[int, int], list[int]] = {}
    for q2 in sorted({q2 for q in rank for q2 in a.succ[q][sym]}):
        parent = max(rank[p] for p in a.pred[q2][sym] if p in rank)
        members.setdefault((parent, int(q2 in a.acc)), []).append(q2)
    keys = sorted(members)
    return (tuple(tuple(members[k]) for k in keys), tuple(p for p, _ in keys),
            tuple(f for _, f in keys))


def step_level(a: NBW, prev: ProfileLevel, symbol: str) -> ProfileLevel:
    """The labeled level after `prev` on `symbol`: its slice, then its labels.

    The nephew of an old class x is the first new class whose parent lies in
    row x, `prev.cousin[x]`; x is an uncle of its nephew.  A class inherits
    both labels of its minimal uncle, whose heir it is, and its row holds
    itself and the classes whose parent lies in that uncle's row.  The other
    classes get fresh labels in rank order, global ones from the watermark
    and bounded ones from the pool left free by the previous level.
    """
    classes, parents, f_class = _slice(a, prev, symbol)
    uncle: dict[int, int] = {}  # heir -> its minimal uncle
    for x, row in enumerate(prev.cousin):
        j = next((j for j, p in enumerate(parents) if p in row), None)
        if j is not None:
            uncle.setdefault(j, x)
    k = len(classes)
    pool = sorted(set(range(2 * a.n + 1)) - set(prev.lbl))
    if k - len(uncle) > len(pool):
        raise AssertionError("free-label pool exhausted; state count is wrong")
    fresh_gl, fresh_lbl = count(prev.gl_watermark), iter(pool)
    gl = tuple(prev.gl[uncle[j]] if j in uncle else next(fresh_gl) for j in range(k))
    lbl = tuple(prev.lbl[uncle[j]] if j in uncle else next(fresh_lbl) for j in range(k))
    cousin = tuple(frozenset(j2 for j2, p in enumerate(parents)
                             if j2 == j or (j in uncle and p in prev.cousin[uncle[j]]))
                   for j in range(k))
    moved = [x for j, x in uncle.items() if parents[j] != x or f_class[j] == 1]
    return ProfileLevel(classes, parents, f_class, gl, lbl, cousin,
                        frozenset(prev.lbl[x] for x in moved),
                        frozenset(prev.lbl) - frozenset(lbl),
                        frozenset(prev.gl[x] for x in moved),
                        prev.gl_watermark + k - len(uncle))


def check_level(a: NBW, level: ProfileLevel, prev_width: int | None) -> list[str]:
    """The faults of one level's slice, given the width of the level before
    it (None at level 0); violations are data, not errors.

    The classes are well-formed sibling state sets (`state_set_faults`:
    nonempty, sorted, in range and disjoint, so at most n of them), and
    each class's states share its acceptance bit.  Level 0 is one class
    without a parent.  Past it, every class names a class of the previous
    level as its parent, no parent has two children with the same
    acceptance bit, and the class order is the lexicographic (parent,
    acceptance) order.
    """
    out = state_set_faults(a, level.classes, lambda j: f"class {j}")
    width = len(level.classes)
    if not len(level.parents) == width == len(level.f_class):
        return out + ["ragged level data"]
    for j, (group, f) in enumerate(zip(level.classes, level.f_class)):
        if group and {int(q in a.acc) for q in group} != {f}:
            out.append(f"class {j} acceptance bit is inconsistent")
    if prev_width is None:
        if width > 1:
            out.append("more than one root class")
        if any(p is not None for p in level.parents):
            out.append("root class with a parent")
        return out
    keys = []
    for j, (p, f) in enumerate(zip(level.parents, level.f_class)):
        if p is None or not 0 <= p < prev_width:
            out.append(f"rank={j}: parent {p} not a class of the previous level")
        else:
            keys.append((p, f))
    for (p, f), n in sorted(Counter(keys).items()):
        if n > 1:
            out.append(f"parent {p} has {n} children with f={f}")
    if keys != sorted(keys):
        out.append("class order disagrees with (parent, f) order")
    return out
