"""Levels of the run DAG of an NBW on a finite word prefix.

Each level keeps only what the next level needs: which states are alive,
their acceptance bits, the linear preorder induced by acceptance histories,
and for every node the class of its surviving parents.  Equivalent nodes are
grouped into classes; a class is identified by its rank within its level.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

from .automata import NBW


@dataclass(frozen=True)
class DagLevel:
    """One level of the pruned run DAG, node-granular."""

    index: int
    nodes: tuple[int, ...]
    ranks: dict
    parent_class: dict
    f_bits: dict


@dataclass(frozen=True)
class ProfileLevel:
    """One level of the class tree: classes in rank order with parent links."""

    classes: tuple[tuple[int, ...], ...]
    parents: tuple
    f_class: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.classes)


def initial_level(a: NBW) -> DagLevel:
    """Level 0: the initial states form a single all-non-accepting class."""
    if a.needs_normalization:
        raise ValueError("automaton must be normalized first")
    nodes = tuple(sorted(a.initial))
    return DagLevel(0, nodes,
                    {q: 0 for q in nodes},
                    {q: None for q in nodes},
                    {q: 0 for q in nodes})


def step_level(a: NBW, prev: DagLevel, symbol: str) -> DagLevel:
    """Successor level on `symbol`.

    A node keeps only the edges from its rank-maximal predecessors; the new
    rank order is lexicographic on (parent class rank, acceptance bit), which
    extends each parent's history by one bit.  The result may be empty.
    """
    sym = a.sym_id(symbol)
    alive = prev.ranks
    nodes = sorted({q2 for q in prev.nodes for q2 in a.succ(q, sym)})
    key = {}
    for q2 in nodes:
        parent = max(alive[p] for p in a.pred(q2, sym) if p in alive)
        key[q2] = (parent, 1 if a.is_accepting(q2) else 0)
    order = {k: i for i, k in enumerate(sorted(set(key.values())))}
    return DagLevel(prev.index + 1, tuple(nodes),
                    {q2: order[key[q2]] for q2 in nodes},
                    {q2: key[q2][0] for q2 in nodes},
                    {q2: key[q2][1] for q2 in nodes})


def to_profile_level(lv: DagLevel) -> ProfileLevel:
    """Group a node-granular level into its rank-ordered classes."""
    width = 1 + max(lv.ranks.values()) if lv.nodes else 0
    members: list[list[int]] = [[] for _ in range(width)]
    for q in lv.nodes:
        members[lv.ranks[q]].append(q)
    parents = []
    f_class = []
    for group in members:
        ps = {lv.parent_class[q] for q in group}
        fs = {lv.f_bits[q] for q in group}
        if len(ps) != 1 or len(fs) != 1:
            raise AssertionError("class members disagree on parent or acceptance")
        parents.append(ps.pop())
        f_class.append(fs.pop())
    return ProfileLevel(tuple(tuple(g) for g in members),
                        tuple(parents), tuple(f_class))


def run_levels(a: NBW, prefix: Iterable[str]) -> list[DagLevel]:
    levels = [initial_level(a)]
    for symbol in prefix:
        levels.append(step_level(a, levels[-1], symbol))
    return levels


def profile_tree(a: NBW, prefix: Iterable[str]) -> list[ProfileLevel]:
    """Class-granular levels 0..len(prefix), parent-linked and rank-ordered."""
    return [to_profile_level(lv) for lv in run_levels(a, prefix)]


def profile_strings(levels: Sequence[ProfileLevel]) -> list[tuple[str, ...]]:
    """Acceptance-history string of every class, per level (root is '0')."""
    out: list[tuple[str, ...]] = []
    for i, pl in enumerate(levels):
        if i == 0:
            out.append(tuple(str(f) for f in pl.f_class))
        else:
            prev = out[-1]
            out.append(tuple(prev[pl.parents[j]] + str(pl.f_class[j])
                             for j in range(len(pl.classes))))
    return out


def check_level_invariants(levels: Sequence[ProfileLevel],
                           n_states: int | None = None) -> list[str]:
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
        if n_states is not None and pl.width > n_states:
            out.append(f"{where}: width {pl.width} exceeds {n_states}")
        if not (len(pl.parents) == len(pl.classes) == len(pl.f_class)):
            out.append(f"{where}: ragged level data")
            continue
        if i == 0:
            if pl.width > 1:
                out.append(f"{where}: more than one root class")
            if any(p is not None for p in pl.parents):
                out.append(f"{where}: root class with a parent")
            continue
        prev_width = levels[i - 1].width
        keys = []
        children: dict[tuple[int, int], int] = {}
        for j in range(pl.width):
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
