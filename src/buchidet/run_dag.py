"""Levels of the run DAG of an NBW on a finite word prefix.

Nodes of a level with the same acceptance history form one class, so each
level is kept as its profile-tree slice: the classes in rank order, the rank
of each class's parent on the previous level, and each class's acceptance
bit.  A node's rank is the rank of its class.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

from .automata import NBW


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


def profile_tree(a: NBW, prefix: Iterable[str]) -> list[ProfileLevel]:
    """Class-granular levels 0..len(prefix), parent-linked and rank-ordered."""
    levels = [initial_level(a)]
    for symbol in prefix:
        levels.append(step_level(a, levels[-1], symbol))
    return levels


def check_level_invariants(levels: Sequence[ProfileLevel],
                           n_states: int) -> list[str]:
    """Structural validation of a level sequence; violations are data, not errors.

    Checks per level: classes are nonempty and disjoint, width stays within
    the state count, every class of level i+1 names a single parent class at
    level i, no parent has two children with the same acceptance bit, and the
    class order is the lexicographic (parent, acceptance) order.
    """
    out = []
    for i, pl in enumerate(levels):
        where = f"level={i}"
        seen: set[int] = set()
        for j, group in enumerate(pl.classes):
            if not group:
                out.append(f"{where} rank={j}: empty class")
            if seen & set(group):
                out.append(f"{where} rank={j}: classes overlap")
            seen |= set(group)
        width = len(pl.classes)
        if width > n_states:
            out.append(f"{where}: width {width} exceeds {n_states}")
        if not (len(pl.parents) == len(pl.classes) == len(pl.f_class)):
            out.append(f"{where}: ragged level data")
            continue
        if i == 0:
            if width > 1:
                out.append(f"{where}: more than one root class")
            if any(p is not None for p in pl.parents):
                out.append(f"{where}: root class with a parent")
            continue
        prev_width = len(levels[i - 1].classes)
        keys = []
        children: dict[tuple[int, int], int] = {}
        for j in range(width):
            p = pl.parents[j]
            if p is None or not 0 <= p < prev_width:
                out.append(f"{where} rank={j}: parent {p} not a class of level {i-1}")
                continue
            fam = (p, pl.f_class[j])
            children[fam] = children.get(fam, 0) + 1
            keys.append(fam)
        for (p, f), count in sorted(children.items()):
            if count > 1:
                out.append(f"{where}: parent {p} has {count} children with f={f}")
        if keys != sorted(keys):
            out.append(f"{where}: class order disagrees with (parent, f) order")
    return out
