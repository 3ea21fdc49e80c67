"""Safra's determinization, the independent baseline for cross-validation.

A state of the determinized automaton is a tree of state sets: every node's
label strictly contains the union of its children's labels, sibling labels
are disjoint, and siblings are ordered by age.  A node is named by its
path, the child indices from the root (Schewe's history trees); the
good/bad path marks feed the Rabin condition.

One step is one recursive pass from the root: each child, oldest first,
keeps its image minus what older siblings took, the accepting states left
over sprout as a youngest child, and a node whose children cover its states
sheds them and turns good.  A path is bad when the node now at it does not
continue the node that was at it: the node died, moved because an older
sibling of it or of an ancestor died, or sprouted.  A path is good when its
node turned good and stayed there.  A node that lives forever moves only
finitely often, so a run is accepted iff some path is good infinitely often
and bad finitely often.

A tree is kept in preorder, as its shape: each node's label and child
count.  `_shape` runs the pass on a shape and `_marks` reads the step's
marks off the two shapes, so a whole step depends on the shape and symbol
alone.  `safra_successor` composes the two afresh on every step.
`determinize_safra` explores keys (sid, good paths, bad paths), where sid
numbers the distinct shapes of one call and the paths are the sorted
tuples `_marks` returns, computes each step once per (sid, symbol), and
hands the trees to `explore.rabin_drw`, the pair rule shared with the
profile construction.
"""

from dataclasses import dataclass
from functools import cache
from itertools import accumulate

from .automata import DRW, NBW, state_set_faults
from .explore import explore, rabin_drw


@dataclass(frozen=True, slots=True)
class SafraTree:
    """Canonical Safra tree, in preorder.

    `shape` lists every node as (label, child count), the label a sorted
    state-id tuple.  `good` and `bad` are the sorted paths marked on the
    step into the tree.  The empty tree (all runs dead) has no nodes and
    acts as the rejecting sink.
    """

    shape: tuple
    good: tuple[tuple[int, ...], ...]
    bad: tuple[tuple[int, ...], ...]


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


def _paths(kids) -> list[tuple[int, ...]]:
    """The path of every preorder position: its child indices from the root."""
    paths = [()] * len(kids)
    for i, cs in enumerate(kids):
        for j, c in enumerate(cs):
            paths[c] = paths[i] + (j,)
    return paths


def safra_initial(a: NBW) -> SafraTree:
    """Single root labeled with the initial set, no marks."""
    if a.needs_normalization:
        raise ValueError("automaton must be normalized first")
    return SafraTree(((tuple(sorted(a.initial)), 0),), (), ())


def _shape(a: NBW, shape, kids, sym: int):
    """The name-free step on a shape and its child positions `kids`: the new
    shape, for each new position the old one it continues (None for a
    sprout), and the old positions that turn good.  `grow(i, states)`
    builds old position i's subtree from `states`."""
    succ, acc = a.succ, a.acc

    def image(qs):
        return {q2 for q in qs for q2 in succ[q][sym]}

    states = image(shape[0][0]) if shape else None
    if not states:
        # dead tree: nothing grows
        return (), (), ()
    new, origin, good = [], [], []

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


def _marks(paths, paths2, origin, good):
    """The sorted good and bad paths of a step from a tree with preorder
    `paths` to one with `paths2`, given the step's `origin` and `good`."""
    kept = {p for p, i in zip(paths2, origin) if i is not None and paths[i] == p}
    return (tuple(sorted(paths[i] for i in good if paths[i] in kept)),
            tuple(sorted(set(paths).union(paths2) - kept)))


def safra_successor(a: NBW, t: SafraTree, symbol: str) -> SafraTree:
    """One transition of the tree automaton on `symbol`."""
    kids = _kids(t.shape)
    shape2, origin, good = _shape(a, t.shape, kids, a.sym_id(symbol))
    return SafraTree(shape2, *_marks(_paths(kids), _paths(_kids(shape2)),
                                     origin, good))


def determinize_safra(a: NBW, max_states: int = 10 ** 6) -> DRW:
    """Explore all reachable Safra trees; `rabin_drw` gives one Rabin pair
    per path that is good on some step, in sorted path order.

    The exploration runs on keys (sid, good, bad), where sid numbers the
    distinct shapes met in this call and good and bad are the sorted path
    tuples marked on the step into the tree; a key is equal to another
    exactly when their trees are.  Each distinct path and each distinct
    tuple of them is kept as one object.  A step depends only on the shape
    and symbol, so it is computed once per (sid, symbol).  After
    exploration the step memo and each shape's child positions and paths
    are dropped, and each key becomes its `SafraTree` field for field.
    """
    sids: dict = {}
    shapes: list = []  # sid -> (shape, kids, paths)
    shared: dict = {}  # one object per distinct path and per mark tuple

    def intern(shape) -> int:
        sid = sids.get(shape)
        if sid is None:
            sid = sids[shape] = len(shapes)
            kids = _kids(shape)
            shapes.append((shape, kids,
                           [shared.setdefault(p, p) for p in _paths(kids)]))
        return sid

    @cache
    def steps(sid: int, sym: int):
        shape, kids, paths = shapes[sid]
        shape2, origin, good = _shape(a, shape, kids, sym)
        sid2 = intern(shape2)
        good, bad = _marks(paths, shapes[sid2][2], origin, good)
        return sid2, shared.setdefault(good, good), shared.setdefault(bad, bad)

    keys, table = explore((intern(safra_initial(a).shape), (), ()),
                          lambda key, sym: steps(key[0], sym),
                          len(a.alphabet), max_states)
    steps.cache_clear()
    shapes[:] = [shape for shape, _, _ in shapes]  # from here on, sid -> shape
    return rabin_drw(a.alphabet, "t", table,
                     [SafraTree(shapes[sid], good, bad) for sid, good, bad in keys])


def validate_safra_tree(a: NBW, t: SafraTree) -> list[str]:
    """Tree well-formedness; violations come back as messages.  The root's
    label and each node's child labels are checked by `state_set_faults`."""
    if not t.shape:
        return ["rootless tree with good marks"] if t.good else []
    # slots[i]: the child slots open before node i, the root's included.
    # The counts describe one tree iff some slot is open for every node and
    # the last node closes them all.
    counts = [count for _, count in t.shape]
    slots = list(accumulate((c - 1 for c in counts), initial=1))
    if min(counts) < 0 or min(slots[:-1]) < 1 or slots[-1]:
        return ["child counts do not describe exactly one tree"]
    kids = _kids(t.shape)
    paths = _paths(kids)
    out = state_set_faults(a, [t.shape[0][0]], lambda _: "node ()")
    for (lab, _), p, cs in zip(t.shape, paths, kids):
        if not cs:
            continue
        labs = [t.shape[c][0] for c in cs]
        out += state_set_faults(a, labs, lambda i: f"node {paths[cs[i]]}")
        union = set().union(*labs)
        if not union <= set(lab):
            out.append(f"node {p} does not contain its children")
        elif union == set(lab):
            out.append(f"node {p} equals the union of its children")
    good = set(t.good)
    if good & set(t.bad):
        out.append("good and bad marks overlap")
    for p in sorted(good - set(paths)):
        out.append(f"good path {p} is not a node")
    return out
