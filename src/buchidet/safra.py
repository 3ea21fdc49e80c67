"""Safra's determinization, the independent baseline for cross-validation.

A state of the determinized automaton is a tree of state sets: every node's
label strictly contains the union of its children's labels, sibling labels
are disjoint, and siblings are ordered by age.  Node names come from the
fixed pool {0..n-1}; the good/bad name marks feed the Rabin condition.

One step is one recursive pass from the root: each child, oldest first,
keeps its image minus what older siblings took, the accepting states left
over sprout as a youngest child, and a node whose children cover its states
sheds them and turns good.

A tree is kept in preorder, as the pair the step works on: its name-free
shape, each node's label and child count, and its names.  `_shape` runs the
pass on the shape.  `_apply_names` is the one naming step: it puts a tree's
names on the result as bits of an n-bit name mask.  Continued nodes keep
their names, sprouts take the lowest free names in preorder, and every name
not kept is bad.  `safra_successor` composes the two afresh on every step.
`determinize_safra` explores compact keys (sid, names, good mask, bad
mask), where sid numbers the distinct shapes of one call, computes each
shape's step once per (sid, symbol), and builds each `SafraTree` once after
exploration, on the shape object it interned.
"""

from dataclasses import dataclass
from functools import cache
from itertools import accumulate

from .automata import DRW, NBW, RabinCondition
from .explore import explore


@dataclass(frozen=True, slots=True)
class SafraTree:
    """Canonical Safra tree, in preorder.

    `shape` lists every node as (label, child count), the label a sorted
    state-id tuple; `names` gives the nodes' pool names in the same order.
    `good` and `bad` are the sorted names marked on the step into the tree.
    The empty tree (all runs dead) has no nodes and acts as the rejecting
    sink.
    """

    shape: tuple
    names: tuple[int, ...]
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


def _names(mask: int) -> tuple[int, ...]:
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def safra_initial(a: NBW) -> SafraTree:
    """Single root named 0 labeled with the initial set; all other names bad."""
    if a.needs_normalization:
        raise ValueError("automaton must be normalized first")
    return SafraTree(((tuple(sorted(a.initial)), 0),), (0,), (),
                     tuple(range(1, a.n)))


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


def _apply_names(a: NBW, names, origin, good):
    """Put a tree's preorder `names` on a step's `origin` and `good`
    positions: continued nodes keep their names, sprouts take the lowest
    free names in preorder, and every name not kept is bad, fresh ones too.
    Returns the new preorder names and the good and bad name masks."""
    kept = 0
    for i in origin:
        if i is not None:
            kept |= 1 << names[i]
    free = bad = ((1 << a.n) - 1) & ~kept
    if origin.count(None) > free.bit_count():
        raise AssertionError("node pool exhausted; tree invariants broken")
    names2 = []
    for i in origin:
        if i is None:
            low = free & -free
            free ^= low
            names2.append(low.bit_length() - 1)
        else:
            names2.append(names[i])
    good_mask = 0
    for i in good:
        good_mask |= 1 << names[i]
    return tuple(names2), good_mask, bad


def safra_successor(a: NBW, t: SafraTree, symbol: str) -> SafraTree:
    """One transition of the tree automaton on `symbol`."""
    shape2, origin, good = _shape(a, t.shape, _kids(t.shape), a.sym_id(symbol))
    names2, good_mask, bad_mask = _apply_names(a, t.names, origin, good)
    return SafraTree(shape2, names2, _names(good_mask), _names(bad_mask))


def determinize_safra(a: NBW, max_states: int = 10 ** 6) -> DRW:
    """Explore all reachable Safra trees; one Rabin pair per pool name.

    The exploration runs on keys (sid, names, good mask, bad mask), where
    sid numbers the distinct shapes met in this call; a key is equal to
    another exactly when their trees are.  Each step's shape is computed
    once per (sid, symbol), and only `_apply_names` runs on every step.
    Each `SafraTree` is built once after exploration, sharing its sid's
    shape and one good/bad name tuple per mask with every tree that holds
    them.
    """
    sids: dict = {}
    shapes: list = []  # sid -> (shape, kids)

    def intern(shape) -> int:
        sid = sids.get(shape)
        if sid is None:
            sid = sids[shape] = len(shapes)
            shapes.append((shape, _kids(shape)))
        return sid

    @cache
    def steps(sid: int, sym: int):
        shape2, origin, good = _shape(a, *shapes[sid], sym)
        return intern(shape2), origin, good

    def step(key, sym: int):
        sid2, origin, good = steps(key[0], sym)
        return (sid2, *_apply_names(a, key[1], origin, good))

    t0 = safra_initial(a)  # no good marks yet
    keys, table = explore((intern(t0.shape), t0.names, 0,
                           sum(1 << v for v in t0.bad)),
                          step, len(a.alphabet), max_states)
    name_tuple = cache(_names)
    states = []
    good, bad = [[] for _ in range(a.n)], [[] for _ in range(a.n)]
    for i, (sid, names, good_mask, bad_mask) in enumerate(keys):
        t = SafraTree(shapes[sid][0], names, name_tuple(good_mask),
                      name_tuple(bad_mask))
        states.append(t)
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
    n = a.n
    if len(t.names) != len(t.shape):
        return ["names and shape differ in length"]
    if not t.shape:
        return ["rootless tree with good marks"] if t.good else []
    # slots[i]: the child slots open before node i, the root's included.
    # The counts describe one tree iff some slot is open for every node and
    # the last node closes them all.
    counts = [count for _, count in t.shape]
    slots = list(accumulate((c - 1 for c in counts), initial=1))
    if min(counts) < 0 or min(slots[:-1]) < 1 or slots[-1]:
        return ["child counts do not describe exactly one tree"]
    out = []
    if len(set(t.names)) != len(t.names):
        out.append("node names are not distinct")
    for (lab, _), v, kids in zip(t.shape, t.names, _kids(t.shape)):
        if not 0 <= v < n:
            out.append(f"node name {v} outside the name pool")
        if not lab:
            out.append(f"node {v} has an empty label")
        if list(lab) != sorted(set(lab)):
            out.append(f"node {v} label is not a sorted state set")
        for q in lab:
            if not 0 <= q < n:
                out.append(f"state id {q} out of range")
        union = set()
        for c in kids:
            child_lab = set(t.shape[c][0])
            if union & child_lab:
                out.append(f"siblings under {v} share states")
            union |= child_lab
        if not union <= set(lab):
            out.append(f"node {v} does not contain its children")
        elif kids and union == set(lab):
            out.append(f"node {v} equals the union of its children")
    good, bad = set(t.good), set(t.bad)
    if good & bad:
        out.append("good and bad marks overlap")
    if not good <= set(range(n)) or not bad <= set(range(n)):
        out.append("marks outside the name pool")
    for v in sorted(good - set(t.names)):
        out.append(f"good name {v} is not a node")
    return out
