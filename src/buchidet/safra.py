"""Safra's determinization, the independent baseline for cross-validation.

A state of the determinized automaton is a tree of state sets: every node's
label strictly contains the union of its children's labels, sibling labels
are disjoint, and siblings are ordered by age.  Node names come from the
fixed pool {0..n-1}; the good/bad name marks feed the Rabin condition.

One step is one recursive pass from the root: each child, oldest first,
keeps its image minus what older siblings took, the accepting states left
over sprout as a youngest child, and a node whose children cover its states
sheds them and turns good.  Sprouts then take the smallest free names.
"""

from dataclasses import dataclass

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


def _pack(root, kids: dict, labels: dict, good, bad) -> SafraTree:
    return SafraTree(root,
                     tuple((v, tuple(kids[v])) for v in sorted(kids)),
                     tuple((v, tuple(sorted(labels[v]))) for v in sorted(labels)),
                     tuple(sorted(good)), tuple(sorted(bad)))


def safra_initial(a: NBW) -> SafraTree:
    """Single root named 0 labeled with the initial set; all other names bad."""
    if a.needs_normalization:
        raise ValueError("automaton must be normalized first")
    return _pack(0, {0: []}, {0: set(a.initial)}, (), range(1, a.n))


def _successor(a: NBW, t: SafraTree, sym: int) -> SafraTree:
    """`grow(v, states)` builds v's subtree from v's image less what older
    siblings of v and of its ancestors took: child c keeps succ(label_c) &
    states - seen, empty children drop out, `states & Acc - seen` sprouts
    unnamed as the youngest child, and a node its children cover sheds them
    ungrown and turns good.  A preorder walk gives the sprouts the smallest
    free names; every name not kept, fresh ones included, is bad."""
    n = a.n
    old_kids, old_labels = dict(t.children), dict(t.labels)
    succ = a.succ

    def image(qs):
        return {q2 for q in qs for q2 in succ[q][sym]}

    states = image(old_labels[t.root]) if t.root is not None else None
    if not states:
        # dead tree: nothing grows, every name stays bad
        return _pack(None, {}, {}, (), range(n))
    good, kept = set(), set()

    def grow(v, states):
        kept.add(v)
        parts, seen = [], set()
        for c in old_kids[v]:
            mine = image(old_labels[c]) & states - seen
            if mine:
                parts.append((c, mine))
                seen |= mine
        sprout = states & a.acc - seen
        if sprout:
            parts.append((None, sprout))
            seen |= sprout
        if parts and seen == states:
            good.add(v)
            return v, states, []
        return v, states, [(None, s, []) if c is None else grow(c, s)
                           for c, s in parts]

    tree = grow(t.root, states)
    fresh = iter(sorted(set(range(n)) - kept))
    kids, labels = {}, {}

    def name(node):
        v, lab, children = node
        if v is None:
            v = next(fresh, None)
            if v is None:
                raise AssertionError("node pool exhausted; tree invariants broken")
        labels[v] = lab
        kids[v] = [name(c) for c in children]
        return v

    name(tree)
    return _pack(t.root, kids, labels, good, set(range(n)) - kept)


def safra_successor(a: NBW, t: SafraTree, symbol: str) -> SafraTree:
    """One transition of the tree automaton on `symbol`."""
    return _successor(a, t, a.sym_id(symbol))


def determinize_safra(a: NBW, max_states: int = 10 ** 6) -> DRW:
    """Explore all reachable Safra trees; one Rabin pair per pool name."""
    states, table = explore(safra_initial(a),
                            lambda t, s: _successor(a, t, s),
                            len(a.alphabet), max_states)
    good = [[] for _ in range(a.n)]
    bad = [[] for _ in range(a.n)]
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
