"""Safra's determinization, the independent baseline for cross-validation.

A state of the determinized automaton is a tree of state sets: every node's
label strictly contains the union of its children's labels, sibling labels
are disjoint, and siblings are ordered by age.  A tree is its root node
(label, children), the label a state bitmask (bit q for state q) and the
children a tuple of nodes, oldest first; ``()`` is the dead tree.  A node
is named by its path, the child indices from the root (Schewe's history
trees); the good/bad path marks feed the Rabin condition.

One step, `_step`, is one recursive pass from the root that builds the new
tree and marks paths as it goes, each image one lookup in the automaton's
`mask_tables`.  Each child, oldest first, keeps its image minus what older
siblings took, the accepting states left over sprout as a youngest child,
and a node whose children cover its states sheds them and turns good.  A
path is bad when the node now at it does not continue the node that was at
it: every path of a subtree that dies or is shed, both paths of a node that
moves because an older sibling of it or of an ancestor died, and a sprout's
path.  A path is good when its node turned good and stayed there.  A node
that lives forever moves only finitely often, so a run is accepted iff some
path is good infinitely often and bad finitely often.

`safra_successor` runs the step afresh.  `determinize_safra` explores the
shapes, one step per edge, then keys (sid, good paths, bad paths) over that
table, and hands the trees to `explore.rabin_drw`, the pair rule shared
with the profile construction.
"""

from dataclasses import dataclass

from .automata import DRW, NBW, state_set_faults
from .explore import explore, rabin_drw


@dataclass(frozen=True, slots=True)
class SafraTree:
    """Canonical Safra tree.

    `shape` is the root node (label, children), each label a state mask, or
    ``()`` for the dead tree (all runs dead), which acts as the rejecting
    sink.  `good` and `bad` are the sorted paths marked on the step into
    the tree.
    """

    shape: tuple
    good: tuple[tuple[int, ...], ...]
    bad: tuple[tuple[int, ...], ...]


def safra_initial(a: NBW) -> SafraTree:
    """Single root labeled with the initial set, no marks."""
    if a.needs_normalization:
        raise ValueError("automaton must be normalized first")
    return SafraTree((a.mask_tables()[2], ()), (), ())


def _states(m: int) -> tuple[int, ...]:
    """The sorted state ids of the mask `m`."""
    return tuple(q for q in range(m.bit_length()) if m >> q & 1)


def _step(a: NBW, tree, sym: int):
    """One step on the root node `tree`: the new root node and the sorted
    good and bad paths.  An image is one lookup in `a.mask_tables()`.
    `grow(node, states, old, new)` builds the node at old path `old` from
    the mask `states` at new path `new`."""
    post, _, _, acc = a.mask_tables()
    image = post[sym]
    good, bad = [], set()

    def shed(node, path):
        bad.add(path)
        for j, child in enumerate(node[1]):
            shed(child, path + (j,))

    def grow(node, states, old, new):
        if old != new:
            bad.update((old, new))
        parts, free = [], states
        for j, child in enumerate(node[1]):
            mine = image(child[0]) & free
            if mine:
                parts.append((child, mine, old + (j,)))
                free ^= mine
            else:
                shed(child, old + (j,))
        sprout = free & acc
        if sprout == free:  # the children and the sprout cover states
            if old == new:
                good.append(new)
            for child, _, path in parts:
                shed(child, path)
            return states, ()
        kids = [grow(child, mine, path, new + (k,))
                for k, (child, mine, path) in enumerate(parts)]
        if sprout:
            bad.add(new + (len(kids),))
            kids.append((sprout, ()))
        return states, tuple(kids)

    states = image(tree[0]) if tree else 0
    if not states:  # the whole tree dies, or was dead
        if tree:
            shed(tree, ())
        return (), (), tuple(sorted(bad))
    root = grow(tree, states, (), ())
    return root, tuple(good), tuple(sorted(bad))  # good is met in preorder


def safra_successor(a: NBW, t: SafraTree, symbol: str) -> SafraTree:
    """One transition of the tree automaton on `symbol`."""
    return SafraTree(*_step(a, t.shape, a.sym_id(symbol)))


def determinize_safra(a: NBW, max_states: int = 10 ** 6) -> DRW:
    """Explore all reachable Safra trees; `rabin_drw` gives one Rabin pair
    per path that is good on some step, in sorted path order.

    Two explorations, both capped at `max_states`.  The first explores the
    shapes, running `_step` once per (shape, symbol) and recording its
    marks, each distinct mark tuple one object.  The second explores keys
    (sid, good, bad) over that table, sid indexing the shapes; a key is
    equal to another exactly when their trees are.  The edges are dropped,
    and each key becomes its `SafraTree` field for field, sharing the
    explored shape.
    """
    k = len(a.alphabet)
    shared: dict = {}  # one object per distinct mark tuple
    marks: list = []  # (good, bad) per step, in the order `explore` calls it

    def step(shape, sym: int):
        shape2, good, bad = _step(a, shape, sym)
        marks.append((shared.setdefault(good, good), shared.setdefault(bad, bad)))
        return shape2

    shapes, edges = explore(safra_initial(a).shape, step, k, max_states)
    keys, table = explore((0, (), ()), lambda key, sym: (
        edges[key[0]][sym], *marks[key[0] * k + sym]), k, max_states)
    del edges, marks
    return rabin_drw(a.alphabet, "t", table,
                     [SafraTree(shapes[sid], good, bad) for sid, good, bad in keys])


def _preorder(path, node):
    """(path, node) for `node` at `path` and its descendants, in preorder; a
    node that is not a (nonnegative int label, children) pair comes as
    (path, None)."""
    if not (type(node) is tuple and len(node) == 2 and type(node[0]) is int
            and node[0] >= 0 and type(node[1]) is tuple):
        yield path, None
        return
    yield path, node
    for j, child in enumerate(node[1]):
        yield from _preorder(path + (j,), child)


def validate_safra_tree(a: NBW, t: SafraTree) -> list[str]:
    """Tree well-formedness; violations come back as messages.  The root's
    label and each node's child labels, decoded to state ids, are checked
    by `state_set_faults`."""
    if t.shape == ():
        return ["rootless tree with good marks"] if t.good else []
    nodes = list(_preorder((), t.shape))
    out = [f"node {p} is not a (label, children) pair"
           for p, node in nodes if node is None]
    if out:
        return out
    out = state_set_faults(a, [_states(t.shape[0])], lambda _: "node ()")
    for p, (label, children) in nodes:
        if not children:
            continue
        labels = [child[0] for child in children]
        out += state_set_faults(a, list(map(_states, labels)),
                                lambda i: f"node {p + (i,)}")
        union = 0
        for m in labels:
            union |= m
        if union & ~label:
            out.append(f"node {p} does not contain its children")
        elif union == label:
            out.append(f"node {p} equals the union of its children")
    good = set(t.good)
    if good & set(t.bad):
        out.append("good and bad marks overlap")
    for p in sorted(good - {p for p, _ in nodes}):
        out.append(f"good path {p} is not a node")
    return out
