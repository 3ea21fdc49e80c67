"""Class labelings over run-DAG levels.

Two labelings are maintained side by side.  The global labeling ``gl`` hands
out ever-fresh integers and is the reference for "which branch does this
label follow".  The bounded labeling ``lbl`` reuses labels from the fixed
pool ``{0..2n}`` and drives the Rabin condition: a label is *good* at a level
when the class carrying it entered an accepting class or jumped branches, and
*bad* when it fell out of use.

Both labelings are computed level-locally: each level needs only its
predecessor level together with the cousin relation, which records which
classes descend from the class where each label was born.
"""

from dataclasses import dataclass
from typing import Sequence

from .run_dag import ProfileLevel


@dataclass(frozen=True)
class LabeledLevel:
    """A level of classes enriched with both labelings and the cousin order.

    `cousin` holds rank pairs (a, b) meaning class b descends from the class
    where the label of class a was born; it is reflexive and transitive.
    `gl_watermark` is the next unused global label (internal bookkeeping so a
    successor level can be computed without global lookback).
    """

    base: ProfileLevel
    gl: tuple[int, ...]
    lbl: tuple[int, ...]
    cousin: frozenset
    good: frozenset
    bad: frozenset
    successful: frozenset
    gl_watermark: int


def initial_labeled(level0: ProfileLevel) -> LabeledLevel:
    if len(level0.classes) != 1:
        raise ValueError("level 0 must consist of a single class")
    return LabeledLevel(level0, (0,), (0,), frozenset({(0, 0)}),
                        frozenset(), frozenset(), frozenset(), 1)


def lsf_classes(prev: LabeledLevel, level: ProfileLevel) -> tuple:
    """For each class of the previous level, the minimal next-level class
    among children of its cousins; None when all of them died out."""
    k = len(level.classes)
    out = []
    for a in range(len(prev.base.classes)):
        cousins = {b for (x, b) in prev.cousin if x == a}
        js = [j for j in range(k) if level.parents[j] in cousins]
        out.append(min(js) if js else None)
    return tuple(out)


def lpf_classes(prev: LabeledLevel, level: ProfileLevel) -> tuple:
    """Inverse of :func:`lsf_classes`: per new class, its sorted uncle ranks."""
    uncles: list[list[int]] = [[] for _ in level.classes]
    for a, j in enumerate(lsf_classes(prev, level)):
        if j is not None:
            uncles[j].append(a)
    return tuple(tuple(u) for u in uncles)


def next_labeled(prev: LabeledLevel, level: ProfileLevel, n_states: int) -> LabeledLevel:
    """Label one more level from its predecessor.

    A class with uncles inherits both labels of its minimal uncle; the rest
    get fresh labels in rank order, global ones from the watermark and
    bounded ones from the pool left free by the previous level.
    """
    k = len(level.classes)
    uncles = lpf_classes(prev, level)
    gl: list = [None] * k
    lbl: list = [None] * k
    watermark = prev.gl_watermark
    fresh = []
    for j in range(k):
        if uncles[j]:
            a = uncles[j][0]
            gl[j] = prev.gl[a]
            lbl[j] = prev.lbl[a]
        else:
            gl[j] = watermark
            watermark += 1
            fresh.append(j)
    pool = set(range(2 * n_states + 1)) - set(prev.lbl)
    if len(fresh) > len(pool):
        raise AssertionError("free-label pool exhausted; state count is wrong")
    for j, m in zip(fresh, sorted(pool)):
        lbl[j] = m

    prev_gl_at = {m: a for a, m in enumerate(prev.gl)}
    pairs = {(j, j) for j in range(k)}
    for j in range(k):
        a = prev_gl_at.get(gl[j])
        if a is None:
            continue
        for j2 in range(k):
            if j2 != j and (a, level.parents[j2]) in prev.cousin:
                pairs.add((j, j2))

    gl_at = {m: j for j, m in enumerate(gl)}
    lbl_at = {m: j for j, m in enumerate(lbl)}
    successful = set()
    good = set()
    for a in range(len(prev.base.classes)):
        j = gl_at.get(prev.gl[a])
        if j is not None and (level.parents[j] != a or level.f_class[j] == 1):
            successful.add(prev.gl[a])
        j = lbl_at.get(prev.lbl[a])
        if j is not None and (level.parents[j] != a or level.f_class[j] == 1):
            good.add(prev.lbl[a])
    bad = set(prev.lbl) - set(lbl)
    return LabeledLevel(level, tuple(gl), tuple(lbl), frozenset(pairs),
                        frozenset(good), frozenset(bad), frozenset(successful),
                        watermark)


def label_levels(levels: Sequence[ProfileLevel], n_states: int) -> list[LabeledLevel]:
    """Label a whole level sequence, level 0 first."""
    if not levels:
        return []
    out = [initial_labeled(levels[0])]
    for level in levels[1:]:
        out.append(next_labeled(out[-1], level, n_states))
    return out


def first_classes(labeled: Sequence[LabeledLevel]) -> dict:
    """Birth coordinates (level, rank) of every global label that ever occurs."""
    firsts: dict = {}
    for i, ll in enumerate(labeled):
        for j, m in enumerate(ll.gl):
            if m not in firsts:
                firsts[m] = (i, j)
    return firsts


def descendant_ranks(labeled: Sequence[LabeledLevel], m: int, i: int) -> frozenset:
    """Ranks at level `i` of the classes descending from where label `m` was
    born, by explicit walk over the stored levels."""
    firsts = first_classes(labeled)
    if m not in firsts:
        raise ValueError(f"label {m} never occurs")
    born_level, born_rank = firsts[m]
    if i < born_level:
        return frozenset()
    ranks = {born_rank}
    for lvl in range(born_level + 1, i + 1):
        base = labeled[lvl].base
        ranks = {j for j in range(len(base.classes)) if base.parents[j] in ranks}
    return frozenset(ranks)


def labels_of_class(labeled: Sequence[LabeledLevel], i: int, class_rank: int) -> frozenset:
    """Global labels, born on earlier levels, whose minimal descendant at
    level `i` is the class of the given rank."""
    if not 0 <= i < len(labeled):
        raise ValueError(f"level {i} out of range")
    if not 0 <= class_rank < len(labeled[i].base.classes):
        raise ValueError(f"rank {class_rank} out of range at level {i}")
    firsts = first_classes(labeled)
    out = set()
    for m, (born_level, _) in firsts.items():
        if born_level >= i:
            continue
        ranks = descendant_ranks(labeled, m, i)
        if ranks and min(ranks) == class_rank:
            out.add(m)
    return frozenset(out)
