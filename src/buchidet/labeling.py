"""Class labelings over run-DAG levels.

Two labelings are maintained side by side.  The global labeling ``gl`` hands
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

from dataclasses import dataclass
from itertools import count

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


def next_labeled(prev: LabeledLevel, level: ProfileLevel, n_states: int) -> LabeledLevel:
    """Label one more level from its predecessor.

    The nephew of an old class x is the first new class whose parent lies in
    row x; x is an uncle of its nephew.  A class inherits both labels of its
    minimal uncle, whose heir it is, and its cousins are the classes whose
    parent lies in that uncle's row.  The other classes get fresh labels in
    rank order, global ones from the watermark and bounded ones from the pool
    left free by the previous level.
    """
    rows = [set() for _ in prev.base.classes]
    for x, b in prev.cousin:
        rows[x].add(b)
    uncle: dict[int, int] = {}  # heir -> its minimal uncle
    for x, row in enumerate(rows):
        j = next((j for j, p in enumerate(level.parents) if p in row), None)
        if j is not None:
            uncle.setdefault(j, x)
    k = len(level.classes)
    pool = sorted(set(range(2 * n_states + 1)) - set(prev.lbl))
    if k - len(uncle) > len(pool):
        raise AssertionError("free-label pool exhausted; state count is wrong")
    fresh_gl, fresh_lbl = count(prev.gl_watermark), iter(pool)
    gl = tuple(prev.gl[uncle[j]] if j in uncle else next(fresh_gl) for j in range(k))
    lbl = tuple(prev.lbl[uncle[j]] if j in uncle else next(fresh_lbl) for j in range(k))
    pairs = {(j, j2) for j in range(k) for j2, p in enumerate(level.parents)
             if j2 == j or (j in uncle and p in rows[uncle[j]])}
    moved = [x for j, x in uncle.items()
             if level.parents[j] != x or level.f_class[j] == 1]
    return LabeledLevel(level, gl, lbl, frozenset(pairs),
                        frozenset(prev.lbl[x] for x in moved),
                        frozenset(prev.lbl) - frozenset(lbl),
                        frozenset(prev.gl[x] for x in moved),
                        prev.gl_watermark + k - len(uncle))
