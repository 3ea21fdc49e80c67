"""Brute-force reference implementations used only to check the real ones,
whole lists of run-DAG levels and explicit walks over them, per-lasso
readers of verdict rows, an exact DRW language comparison, a flattening of
nested Safra trees, and a helper that builds test automata from names."""

import itertools
from typing import Sequence

from buchidet import DRW, NBW, Lasso, parse_nbw
from buchidet.run_dag import ProfileLevel, initial_level, step_level


def nbw(alphabet, states, initial, accepting, transitions) -> NBW:
    """An NBW from names, transitions as (src, symbol, dst) triples, read
    through the native format so names resolve where documents resolve."""
    lines = ["nbw", "alphabet: " + " ".join(alphabet),
             "states: " + " ".join(states), "initial: " + " ".join(initial),
             "accepting: " + " ".join(accepting)]
    lines += [f"trans: {src} {sym} {dst}" for src, sym, dst in transitions]
    return parse_nbw("\n".join(lines) + "\n")


def unroll(w: Lasso, length: int) -> tuple[str, ...]:
    """First `length` symbols of the infinite word `w`."""
    out = list(w.prefix)
    while len(out) < length:
        out.extend(w.period)
    return tuple(out[:length])


def profile_tree(a: NBW, prefix) -> list[ProfileLevel]:
    """Labeled levels 0..len(prefix) of the run DAG, each stepped from the
    last."""
    levels = [initial_level(a)]
    for symbol in prefix:
        levels.append(step_level(a, levels[-1], symbol))
    return levels


def preorder(tree) -> tuple:
    """A nested Safra tree `(label, children)` flattened to its preorder of
    (label, child count) pairs, each state-mask label decoded to its sorted
    state tuple; the dead tree ``()`` stays ``()``."""
    if not tree:
        return ()
    mask, children = tree
    label = tuple(q for q in range(mask.bit_length()) if mask >> q & 1)
    return ((label, len(children)),) + tuple(
        node for child in children for node in preorder(child))


def all_initial_paths(a: NBW, prefix) -> list[tuple[int, ...]]:
    """Every run of the automaton on the prefix, as a state tuple."""
    syms = [a.sym_id(s) for s in prefix]
    paths = [(q,) for q in a.initial]
    for s in syms:
        paths = [p + (q2,) for p in paths for q2 in a.succ[p[-1]][s]]
    return paths


def path_profile(a: NBW, path) -> str:
    return "".join("1" if q in a.acc else "0" for q in path)


def node_profiles(a: NBW, prefix) -> list[dict]:
    """Per level, the lexicographically maximal acceptance history of each
    alive state, obtained by enumerating every initial path."""
    syms = list(prefix)
    out = []
    for i in range(len(syms) + 1):
        best: dict[int, str] = {}
        for path in all_initial_paths(a, syms[:i]):
            h = path_profile(a, path)
            q = path[-1]
            if q not in best or h > best[q]:
                best[q] = h
        out.append(best)
    return out


def brute_ranks(a: NBW, prefix) -> list[dict]:
    """Per level, state -> rank obtained by sorting the brute-force profiles."""
    out = []
    for best in node_profiles(a, prefix):
        order = {h: i for i, h in enumerate(sorted(set(best.values())))}
        out.append({q: order[h] for q, h in best.items()})
    return out


def brute_member(a: NBW, w: Lasso) -> bool:
    """Membership via a period-step matrix closure, independent of the
    product-graph search used by the library.

    One period maps state s to state t either plainly or through an
    accepting state; the closure of that annotated relation decides whether
    some reachable state returns to itself with an accepting visit.
    """
    u = [a.sym_id(s) for s in w.prefix]
    v = [a.sym_id(s) for s in w.period]
    reach = set(a.initial)
    for s in u:
        reach = {q2 for q in reach for q2 in a.succ[q][s]}
    # single-period relation with an "accepting visit inside" flag
    step: dict[int, dict[int, bool]] = {}
    for src in range(a.n):
        frontier = {src: False}
        for s in v:
            nxt: dict[int, bool] = {}
            for q, seen in frontier.items():
                for q2 in a.succ[q][s]:
                    flag = seen or q2 in a.acc
                    nxt[q2] = nxt.get(q2, False) or flag
            frontier = nxt
        step[src] = frontier
    # transitive closure over whole periods, keeping the best flag
    closure = {s: dict(step[s]) for s in range(a.n)}
    changed = True
    while changed:
        changed = False
        for s in range(a.n):
            for mid, flag1 in list(closure[s].items()):
                for t, flag2 in closure[mid].items():
                    flag = flag1 or flag2
                    if closure[s].get(t) is None or (flag and not closure[s][t]):
                        closure[s][t] = flag
                        changed = True
    anchors = set(reach)
    for s in reach:
        anchors |= set(closure[s])
    return any(closure[t].get(t) for t in anchors)


def all_lassos(alphabet, max_u, max_v):
    syms = tuple(alphabet)
    for lu in range(max_u + 1):
        for u in itertools.product(syms, repeat=lu):
            for lv in range(1, max_v + 1):
                for v in itertools.product(syms, repeat=lv):
                    yield Lasso(u, v)


def lasso_axes(lassos: list[Lasso]):
    """The distinct prefixes and the distinct periods of `lassos`, each in
    first-seen order: the axes of the verdict rows."""
    return (list(dict.fromkeys([w.prefix for w in lassos])),
            list(dict.fromkeys([w.period for w in lassos])))


def rotation_class(v: tuple) -> tuple[tuple, tuple]:
    """``(x, c)`` with ``v^w = x . c^w``, found by trying words rather than
    by rotating: c is the shortest, then least, word whose power spells
    ``v^w`` from some shift below |v| on, and x is ``v^w`` up to the first
    such shift."""
    span = 2 * len(v) * len(v)
    word = unroll(Lasso((), v), len(v) + span)
    shifted = [(length, word[i:i + length], i)
               for i in range(len(v)) for length in range(1, len(v) + 1)
               if unroll(Lasso((), word[i:i + length]), span) == word[i:i + span]]
    _, c, shift = min(shifted)
    return word[:shift], c


def per_lasso(row_lists, lassos: list[Lasso], prefixes, periods) -> list[tuple]:
    """Per lasso, its verdict in each of `row_lists`, each a list of verdict
    rows over `prefixes` and `periods`."""
    row = {u: i for i, u in enumerate(prefixes)}
    col = {v: j for j, v in enumerate(periods)}
    return [tuple(bool(rows[row[w.prefix]] >> col[w.period] & 1) for rows in row_lists)
            for w in lassos]


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


def first_classes(labeled: Sequence[ProfileLevel]) -> dict:
    """Birth coordinates (level, rank) of every global label that ever occurs."""
    firsts: dict = {}
    for i, ll in enumerate(labeled):
        for j, m in enumerate(ll.gl):
            if m not in firsts:
                firsts[m] = (i, j)
    return firsts


def descendant_ranks(labeled: Sequence[ProfileLevel], m: int, i: int) -> frozenset:
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
        level = labeled[lvl]
        ranks = {j for j in range(len(level.classes)) if level.parents[j] in ranks}
    return frozenset(ranks)


def labels_of_class(labeled: Sequence[ProfileLevel], i: int, class_rank: int) -> frozenset:
    """Global labels, born on earlier levels, whose minimal descendant at
    level `i` is the class of the given rank."""
    if not 0 <= i < len(labeled):
        raise ValueError(f"level {i} out of range")
    if not 0 <= class_rank < len(labeled[i].classes):
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


def _cycles(nodes: set, succ) -> list[set]:
    """The strongly connected components of the subgraph on `nodes` that
    hold a cycle, by an iterative Tarjan over the successor lists `succ`."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    out = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in nodes:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in low:  # still on the stack
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = set()
                    while v not in comp:
                        w = stack.pop()
                        comp.add(w)
                        del low[w]
                    if len(comp) > 1 or v in succ[v]:
                        out.append(comp)
    return out


def drw_included(d1: DRW, d2: DRW) -> bool:
    """Whether L(d1) ⊆ L(d2), decided exactly: no reachable cycle of the
    product meets G and avoids B of some pair of d1 while failing every
    pair of d2.  The failing side is a Streett condition, refined in the
    Emerson–Lei way: a cycle set that meets some G of d2 but not its B
    loses those G states and is searched again."""
    if d1.alphabet != d2.alphabet:
        raise ValueError("alphabets differ")
    n2 = len(d2.states)
    start = d1.initial * n2 + d2.initial
    succ, todo = {start: None}, [start]
    while todo:
        q1, q2 = divmod(todo.pop(), n2)
        succ[q1 * n2 + q2] = row = [t1 * n2 + t2 for t1, t2
                                    in zip(d1.trans[q1], d2.trans[q2])]
        for v in row:
            if v not in succ:
                succ[v] = None
                todo.append(v)

    def on1(qs):
        return {v for v in succ if v // n2 in qs}

    def on2(qs):
        return {v for v in succ if v % n2 in qs}

    streett = [(on2(g), on2(b)) for g, b in d2.acceptance]
    for g, b in d1.acceptance:
        g1, pending = on1(g), _cycles(set(succ) - on1(b), succ)
        while pending:
            comp = pending.pop()
            if not comp & g1:
                continue
            drop = set().union(*(g2 for g2, b2 in streett
                                 if comp & g2 and not comp & b2))
            if not drop:
                return False
            pending += _cycles(comp - drop, succ)
    return True


def drw_equivalent(d1: DRW, d2: DRW) -> bool:
    """Whether the two DRWs accept the same language, decided exactly."""
    return drw_included(d1, d2) and drw_included(d2, d1)
