"""Levels of the run DAG of an NBW on a finite word prefix.

Nodes of a level with the same acceptance history form one class, so each
level is kept as its profile-tree slice: the classes in rank order, the rank
of each class's parent on the previous level, and each class's acceptance
bit.  A node's rank is the rank of its class.
"""

from collections import Counter
from dataclasses import dataclass

from .automata import NBW, state_set_faults


@dataclass(frozen=True)
class ProfileLevel:
    """One level of the class tree: classes in rank order with parent links."""

    classes: tuple[tuple[int, ...], ...]
    parents: tuple
    f_class: tuple[int, ...]


def initial_level(a: NBW) -> ProfileLevel:
    """Level 0: the initial states form a single all-non-accepting class."""
    if a.needs_normalization:
        raise ValueError("automaton must be normalized first")
    return ProfileLevel((tuple(sorted(a.initial)),), (None,), (0,))


def step_level(a: NBW, prev: ProfileLevel, symbol: str) -> ProfileLevel:
    """Successor level on `symbol`.

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
    return ProfileLevel(tuple(tuple(members[k]) for k in keys),
                        tuple(p for p, _ in keys), tuple(f for _, f in keys))


def check_level(a: NBW, level: ProfileLevel, prev_width: int | None) -> list[str]:
    """The faults of one level, given the width of the level before it
    (None at level 0); violations are data, not errors.

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
    for (p, f), count in sorted(Counter(keys).items()):
        if count > 1:
            out.append(f"parent {p} has {count} children with f={f}")
    if keys != sorted(keys):
        out.append("class order disagrees with (parent, f) order")
    return out
