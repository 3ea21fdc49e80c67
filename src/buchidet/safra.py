"""Safra's determinization, the independent baseline for cross-validation.

A state of the determinized automaton is a tree of state sets: every node's
label strictly contains the union of its children's labels, sibling labels
are disjoint, and siblings are ordered by age.  Node names come from the
fixed pool {0..n-1}; the good/bad name marks feed the Rabin condition.
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
    n = a.n
    if t.root is None:
        # dead tree: nothing grows, every name stays bad
        return _pack(None, {}, {}, (), range(n))
    kids = {v: list(c) for v, c in t.children}
    labels = {v: a.succ_set(lab, sym) for v, lab in t.labels}

    # sprout: each node whose label meets the accepting set gets a youngest
    # child holding exactly that intersection; temporary names start at n
    acc = a._acc
    temp = n
    for v in sorted(kids):
        hit = labels[v] & acc
        if hit:
            kids[v].append(temp)
            kids[temp] = []
            labels[temp] = set(hit)
            temp += 1

    def drop_states(v, states):
        labels[v] -= states
        for c in kids[v]:
            drop_states(c, states)

    # horizontal merge: a state stays with the oldest sibling that tracks it
    stack = [t.root]
    while stack:
        v = stack.pop()
        seen: set[int] = set()
        for c in kids[v]:
            dup = labels[c] & seen
            if dup:
                drop_states(c, dup)
            seen |= labels[c]
            stack.append(c)

    # drop empty nodes (emptiness is inherited downward)
    def prune(v):
        kids[v] = [c for c in kids[v] if labels[c]]
        for c in kids[v]:
            prune(c)

    def _subtree(v):
        out = [v]
        for c in kids[v]:
            out.extend(_subtree(c))
        return out

    if not labels[t.root]:
        return _pack(None, {}, {}, (), range(n))
    prune(t.root)
    live = set(_subtree(t.root))
    kids = {v: kids[v] for v in live}
    labels = {v: labels[v] for v in live}

    # vertical merge, root first: a node fully covered by its children sheds
    # them and turns good; a shed node is never itself marked good
    good: set[int] = set()

    def merge(v):
        if kids[v] and labels[v] == set().union(*(labels[c] for c in kids[v])):
            for c in list(kids[v]):
                for x in _subtree(c):
                    del labels[x], kids[x]
            kids[v] = []
            good.add(v)
        else:
            for c in kids[v]:
                merge(c)

    merge(t.root)

    survivors = {v for v in labels if v < n}
    bad = set(range(n)) - survivors

    # rename temporaries to the smallest free pool names, in tree order
    free = sorted(set(range(n)) - survivors)
    order = [v for v in _subtree(t.root) if v >= n]
    if len(order) > len(free):
        raise AssertionError("node pool exhausted; tree invariants broken")
    rename = {v: free[i] for i, v in enumerate(order)}
    if rename:
        kids = {rename.get(v, v): [rename.get(c, c) for c in cs]
                for v, cs in kids.items()}
        labels = {rename.get(v, v): lab for v, lab in labels.items()}
    return _pack(t.root, kids, labels, good, bad)


def safra_successor(a: NBW, t: SafraTree, symbol: str) -> SafraTree:
    """One transition of the tree automaton on `symbol`."""
    return _successor(a, t, a.sym_id(symbol))


def determinize_safra(a: NBW, max_states: int = 10 ** 6) -> DRW:
    """Explore all reachable Safra trees; one Rabin pair per pool name."""
    if a.needs_normalization:
        raise ValueError("automaton must be normalized first")
    states, table = explore(safra_initial(a),
                            lambda t, s: _successor(a, t, s),
                            len(a.alphabet), max_states)
    pairs = []
    for name in range(a.n):
        g = frozenset(i for i, t in enumerate(states) if name in t.good)
        b = frozenset(i for i, t in enumerate(states) if name in t.bad)
        pairs.append((g, b))
    return DRW(a.alphabet, tuple(f"t{i}" for i in range(len(states))), 0,
               tuple(tuple(row) for row in table),
               RabinCondition(tuple(pairs)), tuple(states))


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
