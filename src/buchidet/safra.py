"""Safra's determinization, the independent baseline for cross-validation.

A state of the determinized automaton is a tree of state sets: every node's
label strictly contains the union of its children's labels, sibling labels
are disjoint, and siblings are ordered by age.  Node names come from the
fixed pool {0..n-1}; the good/bad name marks feed the Rabin condition.

One step is one recursive pass from the root: each child, oldest first,
keeps its image minus what older siblings took, the accepting states left
over sprout as a youngest child, and a node whose children cover its states
sheds them and turns good.  The pass reads only the tree's name-free shape,
its labels and child counts in preorder, so `determinize_safra` runs it once
per shape and symbol in one exploration and `safra_successor` on every step.
`_apply_names` then puts a tree's names on the result: continued nodes keep
theirs, sprouts take the smallest free names, and every name not kept is bad.
"""

from dataclasses import dataclass
from functools import cache

from .automata import DRW, NBW, RabinCondition
from .explore import explore


@dataclass(frozen=True)
class SafraTree:
    """Canonical Safra tree.

    `children` maps every present node to its child tuple, oldest first, and
    is sorted by node name; `labels` likewise maps nodes to sorted state-id
    tuples.  The empty tree (all runs dead) has no root and acts as the
    rejecting sink.
    """

    root: int | None
    children: tuple
    labels: tuple
    good: tuple[int, ...]
    bad: tuple[int, ...]


def _kids(shape) -> list[list[int]]:
    """The child positions of every position of a preorder shape."""
    kids, open_ = [[] for _ in shape], []
    for i in range(len(shape)):
        if open_:
            kids[open_[-1]].append(i)
        open_.append(i)
        while open_ and len(kids[open_[-1]]) == shape[open_[-1]][1]:
            open_.pop()
    return kids


def _tree(shape, names, good, bad) -> SafraTree:
    return SafraTree(names[0] if names else None,
                     tuple(sorted((names[i], tuple(names[c] for c in cs))
                                  for i, cs in enumerate(_kids(shape)))),
                     tuple(sorted(zip(names, (label for label, _ in shape)))),
                     good, bad)


def _flatten(t: SafraTree):
    """`t` as (shape, names, good, bad), the names in preorder."""
    kids, labels = dict(t.children), dict(t.labels)

    def walk(v):
        return [v] + [w for c in kids[v] for w in walk(c)]

    order = [] if t.root is None else walk(t.root)
    return (tuple((labels[v], len(kids[v])) for v in order), tuple(order),
            t.good, t.bad)


def safra_initial(a: NBW) -> SafraTree:
    """Single root named 0 labeled with the initial set; all other names bad."""
    if a.needs_normalization:
        raise ValueError("automaton must be normalized first")
    return _tree(((tuple(sorted(a.initial)), 0),), (0,), (), tuple(range(1, a.n)))


def _shape(a: NBW, shape, sym: int):
    """The name-free step: the new shape, for each new position the old one
    it continues (None for a sprout), and the old positions that turn good.
    `grow(i, states)` builds old position i's subtree from `states`."""
    succ, acc = a.succ, a.acc

    def image(qs):
        return {q2 for q in qs for q2 in succ[q][sym]}

    states = image(shape[0][0]) if shape else None
    if not states:
        # dead tree: nothing grows
        return (), (), ()
    kids, new, origin, good = _kids(shape), [], [], []

    def grow(i, states):
        parts, seen = [], set()
        for c in kids[i]:
            mine = image(shape[c][0]) & states - seen
            if mine:
                parts.append((c, mine))
                seen |= mine
        sprout = states & acc - seen
        if seen | sprout == states:  # states is never empty here
            good.append(i)
            parts, sprout = [], set()
        new.append((tuple(sorted(states)), len(parts) + bool(sprout)))
        origin.append(i)
        for c, s in parts:
            grow(c, s)
        if sprout:
            new.append((tuple(sorted(sprout)), 0))
            origin.append(None)

    grow(0, states)
    return tuple(new), tuple(origin), tuple(good)


def _apply_names(a: NBW, names, step):
    """Put a tree's preorder `names` on its step; fresh names are bad too."""
    shape2, origin, good = step
    free = sorted(set(range(a.n)) - {names[i] for i in origin if i is not None})
    if origin.count(None) > len(free):
        raise AssertionError("node pool exhausted; tree invariants broken")
    fresh = iter(free)
    return (shape2, tuple(next(fresh) if i is None else names[i] for i in origin),
            tuple(sorted(names[i] for i in good)), tuple(free))


def safra_successor(a: NBW, t: SafraTree, symbol: str) -> SafraTree:
    """One transition of the tree automaton on `symbol`."""
    shape, names, _, _ = _flatten(t)
    return _tree(*_apply_names(a, names, _shape(a, shape, a.sym_id(symbol))))


def determinize_safra(a: NBW, max_states: int = 10 ** 6) -> DRW:
    """Explore all reachable Safra trees; one Rabin pair per pool name."""
    steps = cache(lambda shape, sym: _shape(a, shape, sym))
    keys, table = explore(_flatten(safra_initial(a)),
                          lambda key, sym: _apply_names(a, key[1], steps(key[0], sym)),
                          len(a.alphabet), max_states)
    states = [_tree(*key) for key in keys]
    good, bad = [[] for _ in range(a.n)], [[] for _ in range(a.n)]
    for i, t in enumerate(states):
        for name in t.good:
            good[name].append(i)
        for name in t.bad:
            bad[name].append(i)
    pairs = tuple((frozenset(g), frozenset(b)) for g, b in zip(good, bad))
    return DRW(a.alphabet, tuple(f"t{i}" for i in range(len(states))), 0,
               tuple(tuple(row) for row in table),
               RabinCondition(pairs), tuple(states))


def validate_safra_tree(a: NBW, t: SafraTree) -> list[str]:
    """Tree well-formedness; violations come back as messages."""
    out = []
    n = a.n
    labels = dict(t.labels)
    kids = dict(t.children)
    if set(labels) != set(kids):
        out.append("children and labels cover different node sets")
        return out
    if t.root is None:
        if labels:
            out.append("rootless tree with nodes")
        if set(t.good):
            out.append("rootless tree with good marks")
        return out
    if t.root not in labels:
        out.append("root is not a node")
        return out
    parent = {}
    for v, cs in kids.items():
        for c in cs:
            if c in parent:
                out.append(f"node {c} has two parents")
            parent[c] = v
    reach = set()
    stack = [t.root]
    while stack:
        v = stack.pop()
        if v in reach:
            out.append(f"cycle through node {v}")
            break
        reach.add(v)
        stack.extend(kids.get(v, ()))
    if reach != set(labels):
        out.append("nodes disconnected from the root")
    for v, lab in labels.items():
        if not lab:
            out.append(f"node {v} has an empty label")
        union = set()
        for c in kids.get(v, ()):
            child_lab = set(labels.get(c, ()))
            if union & child_lab:
                out.append(f"siblings under {v} share states")
            union |= child_lab
        if not union <= set(lab):
            out.append(f"node {v} does not contain its children")
        elif kids.get(v, ()) and union == set(lab):
            out.append(f"node {v} equals the union of its children")
    good, bad = set(t.good), set(t.bad)
    if good & bad:
        out.append("good and bad marks overlap")
    if not good <= set(range(n)) or not bad <= set(range(n)):
        out.append("marks outside the name pool")
    return out
