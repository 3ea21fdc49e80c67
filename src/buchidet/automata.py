"""Nondeterministic Buchi and deterministic Rabin word automata.

State and symbol names are strings; internally every state gets a dense
integer id in declaration order, so all iteration is deterministic.  All
values are immutable after construction and every operation is pure; the
lookup tables that only membership queries use are built on first use.

Lasso membership has two forms: ``nbw_member`` and ``drw_run_eval`` decide
one lasso, and the row deciders ``nbw_verdicts`` and ``drw_verdicts``
decide every lasso ``prefix . period^w`` of a list of prefixes by a list of
periods, as one int per prefix with bit j for period j.  The row deciders
write each period's word as ``x . c^w``, c the least rotation of its
primitive root, and decide each such c once.  Each runs every prefix on
its own, so the two share only that rotation map and the symbol lookup.
The single-lasso deciders run every period as given, so they are the
rows' independent reference.
"""

import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce


class ParseError(ValueError):
    """Malformed automaton document.  Carries the offending 1-based line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic word ``prefix . period^w``.  The period is nonempty."""

    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def __post_init__(self):
        if not self.period:
            raise ValueError("lasso period must be nonempty")

    @classmethod
    def parse(cls, text: str) -> "Lasso":
        """Parse the ``"u;v"`` syntax, symbols separated by dots (``a;b``, ``;a.b``)."""
        if text.count(";") != 1:
            raise ValueError(f"lasso {text!r} must have exactly one ';', between "
                             "prefix and period")
        u, _, v = text.partition(";")
        return cls(_symbols(u), _symbols(v))

    def __str__(self):
        return f"{'.'.join(self.prefix)};{'.'.join(self.period)}"


def _separator_fault(alphabet) -> str | None:
    """The complaint about the first symbol that lasso syntax cannot name,
    one containing '.' or ';'; None if there is none."""
    for s in alphabet:
        if "." in s or ";" in s:
            return f"symbol {s!r} contains a lasso separator ('.' or ';')"
    return None


def _check_names(alphabet: tuple[str, ...], states: tuple[str, ...]):
    """Raise ValueError on what no automaton may have: a repeated symbol or
    state name, an empty alphabet, or a symbol lasso syntax cannot name."""
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("duplicate alphabet symbol")
    if len(set(states)) != len(states):
        raise ValueError("duplicate state name")
    if not alphabet:
        raise ValueError("alphabet must be nonempty")
    if fault := _separator_fault(alphabet):
        raise ValueError(fault)


def _symbols(part: str) -> tuple[str, ...]:
    part = part.strip()
    symbols = tuple(s.strip() for s in part.split(".")) if part else ()
    if "" in symbols:
        raise ValueError(f"lasso part {part!r} has an empty symbol")
    return symbols


class NBW:
    """Nondeterministic Buchi word automaton.

    The transition relation may be partial: a state may have no successor
    on some symbol, in which case runs through it die.  ``succ[q][sym]`` and
    ``pred[q][sym]`` are the tuples of successor and predecessor ids, and
    ``acc`` is the accepting set.
    """

    __slots__ = ("alphabet", "states", "initial", "accepting", "edges",
                 "succ", "pred", "acc", "_sym_id", "_masks")

    def __init__(self, alphabet, states, initial, accepting, edges):
        self.alphabet: tuple[str, ...] = tuple(alphabet)
        self.states: tuple[str, ...] = tuple(states)
        self.initial: tuple[int, ...] = tuple(sorted(set(initial)))
        self.accepting: tuple[int, ...] = tuple(sorted(set(accepting)))
        self.edges: tuple[tuple[int, int, int], ...] = tuple(sorted(set(edges)))
        _check_names(self.alphabet, self.states)
        if not self.initial:
            raise ValueError("initial set must be nonempty")
        n, k = len(self.states), len(self.alphabet)
        for q in self.initial + self.accepting:
            if not 0 <= q < n:
                raise ValueError(f"state id {q} out of range")
        for src, sym, dst in self.edges:
            if not (0 <= src < n and 0 <= dst < n and 0 <= sym < k):
                raise ValueError(f"transition ({src},{sym},{dst}) out of range")
        self._sym_id = {s: i for i, s in enumerate(self.alphabet)}
        succ = [[[] for _ in range(k)] for _ in range(n)]
        pred = [[[] for _ in range(k)] for _ in range(n)]
        for src, sym, dst in self.edges:
            succ[src][sym].append(dst)
            pred[dst][sym].append(src)
        self.succ = tuple(tuple(tuple(row) for row in per) for per in succ)
        self.pred = tuple(tuple(tuple(row) for row in per) for per in pred)
        self.acc = frozenset(self.accepting)
        self._masks = None

    # -- queries ------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.states)

    def sym_id(self, symbol: str) -> int:
        return _sym_ids(self._sym_id, (symbol,))[0]

    @property
    def needs_normalization(self) -> bool:
        return bool(set(self.initial) & self.acc)

    def mask_tables(self):
        """``(post, pre, initial, accepting)`` for bitmask state sets.

        ``post[s](m)`` is the mask of s-successors of the states in the mask
        m, and ``pre[s](m)`` that of their s-predecessors; each is a lookup
        in tables over 8-state chunks (see :func:`_image_tables`).  Built on
        first use, since only membership queries and Safra's step use them.
        """
        if self._masks is None:
            self._masks = (_image_tables(self.succ, len(self.alphabet)),
                           _image_tables(self.pred, len(self.alphabet)),
                           sum(1 << q for q in self.initial),
                           sum(1 << q for q in self.accepting))
        return self._masks

    def __eq__(self, other):
        return (isinstance(other, NBW)
                and self.alphabet == other.alphabet and self.states == other.states
                and self.initial == other.initial and self.accepting == other.accepting
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.alphabet, self.states, self.initial, self.accepting, self.edges))

    def __repr__(self):
        return (f"NBW(states={len(self.states)}, alphabet={len(self.alphabet)}, "
                f"edges={len(self.edges)})")


def normalize(a: NBW) -> NBW:
    """Detach accepting states from the initial set, preserving the language.

    Every initial accepting state q is replaced in the initial set by a fresh
    non-accepting copy with the same outgoing transitions; q itself stays.
    Acceptance never depends on position 0, so the language is unchanged.
    Idempotent: an automaton with disjoint initial and accepting sets is
    returned as is.
    """
    clash = sorted(set(a.initial) & set(a.accepting))
    if not clash:
        return a
    states = list(a.states)
    copy_of = {}
    for q in clash:
        name = a.states[q] + "'"
        while name in states:
            name += "'"
        copy_of[q] = len(states)
        states.append(name)
    edges = list(a.edges)
    for q in clash:
        edges.extend((copy_of[q], sym, dst) for src, sym, dst in a.edges if src == q)
    initial = [q for q in a.initial if q not in copy_of] + [copy_of[q] for q in clash]
    return NBW(a.alphabet, states, initial, a.accepting, edges)


def state_set_faults(a: NBW, groups, name) -> list[str]:
    """The faults of the sibling state sets `groups` of `a`, group i named
    `name(i)` in the messages: each group must be nonempty, strictly
    increasing, made of state ids of `a`, and disjoint from its siblings."""
    out, n = [], a.n
    seen: set[int] = set()
    for i, group in enumerate(groups):
        if not group:
            out.append(f"{name(i)} is empty")
        if list(group) != sorted(set(group)):
            out.append(f"{name(i)} is not a sorted state set")
        for q in group:
            if not 0 <= q < n:
                out.append(f"state id {q} out of range")
        if not seen.isdisjoint(group):
            out.append(f"{name(i)} shares states with a sibling")
        seen.update(group)
    return out


# -- lasso membership ---------------------------------------------------------


def _sym_ids(ids: dict, symbols) -> list[int]:
    try:
        return [ids[s] for s in symbols]
    except KeyError as err:
        raise ValueError(f"symbol {err.args[0]!r} not in alphabet") from None


def _image_tables(adj, k: int) -> tuple:
    """Per symbol, the function from a state mask to the union of its
    states' `adj` rows, as a bitmask.

    The states are cut into chunks of 8; a chunk's table holds the union for
    every subset of it, so an image is one lookup per chunk.  Up to 8 states
    the function is the table's own ``__getitem__``, and up to 16 two
    lookups.  Equal entries are shared, which halves the tables' memory.
    """
    n = len(adj)
    seen: dict[int, int] = {}
    images = []
    for s in range(k):
        rows = [sum(1 << t for t in adj[q][s]) for q in range(n)]
        tables = []
        for base in range(0, n, 8):
            chunk = rows[base:base + 8]
            table = [0] * (1 << len(chunk))
            for m in range(1, len(table)):
                low = m & -m
                x = table[m ^ low] | chunk[low.bit_length() - 1]
                table[m] = seen.setdefault(x, x)
            tables.append(tuple(table))
        images.append(_image_function(tables))
    return tuple(images)


def _image_function(tables):
    """The image function over the per-chunk `tables` of :func:`_image_tables`."""
    if len(tables) == 1:
        return tables[0].__getitem__
    if len(tables) == 2:
        t0, t1 = tables
        return lambda m: t0[m & 255] | t1[m >> 8]

    def image(m):
        out = 0
        for table in tables:
            if not m:
                break
            out |= table[m & 255]
            m >>= 8
        return out
    return image


def nbw_member(a: NBW, w: Lasso) -> bool:
    """Decide whether the automaton accepts ``u . v^w``.

    Runs the prefix to the mask of states it can reach, and accepts iff that
    mask meets the period core's mask of states from which some run accepts
    ``v^w`` (see :func:`_nbw_period`).  Exact, never a step-capped heuristic.
    """
    u = _sym_ids(a._sym_id, w.prefix)
    v = _sym_ids(a._sym_id, w.period)
    post, _, reach, _ = a.mask_tables()
    for s in u:
        reach = post[s](reach)
        if not reach:
            return False
    return bool(reach & _nbw_period(a, v))


def nbw_verdicts(a: NBW, prefixes, periods) -> list[int]:
    """One verdict row per prefix: bit j of row i is set iff the automaton
    accepts ``prefixes[i] . periods[j]^w``.

    The period core runs once per rotation class (see :func:`_rotations`):
    for ``v^w = x . c^w`` the states from which some run accepts ``v^w`` are
    the x-predecessors of those for ``c^w``.  A start mask after a prefix
    is accepted iff it meets them, and each distinct start mask is decided
    once.
    """
    post, pre, initial, _ = a.mask_tables()
    starts = [reduce(lambda m, s: post[s](m), _sym_ids(a._sym_id, u), initial)
              for u in prefixes]
    cores, members = _rotations(a.alphabet, tuple(map(tuple, periods)))
    core_wins = [_nbw_period(a, c) for c in cores]
    wins = [reduce(lambda m, s: pre[s](m), reversed(x), core_wins[k])
            for x, k in members]
    rows = {m: sum(1 << j for j, good in enumerate(wins) if m & good)
            for m in set(starts)}
    return [rows[m] for m in starts]


@lru_cache(maxsize=16)
def _rotations(alphabet: tuple[str, ...], periods: tuple) -> tuple[tuple, tuple]:
    """The rotation classes of `periods`, as symbol ids: ``(cores,
    members)``, with one ``(x, k)`` member per period v such that ``v^w =
    x . cores[k]^w`` and ``|x| < |cores[k]|``.

    A core is the least rotation of a primitive root, so all the periods of
    one ultimately periodic word share it; cores are listed in first-seen
    order.  Symbols become ids before any rotation, so an unknown one
    raises the error that the single-lasso deciders raise; an empty period
    raises the error that :class:`Lasso` raises.
    """
    ids = {s: i for i, s in enumerate(alphabet)}
    cores: dict[tuple, int] = {}
    members = []
    for v in periods:
        v = tuple(_sym_ids(ids, v))
        if not v:
            raise ValueError("lasso period must be nonempty")
        root = next(v[:n] for n in range(1, len(v) + 1)
                    if len(v) % n == 0 and v[:n] * (len(v) // n) == v)
        i = min(range(len(root)), key=lambda i: root[i:] + root[:i])
        members.append((root[:i], cores.setdefault(root[i:] + root[:i], len(cores))))
    return tuple(cores), tuple(members)


def _nbw_period(a: NBW, v: Sequence[int]) -> int:
    """The mask of states from which some run accepts ``v^w``; 0 if none.

    One state mask per period position, all states at first.  The Emerson-Lei
    greatest fixpoint Z := Z ∩ pre⁺(Z ∩ Acc) keeps exactly the (state,
    position) nodes that lie on or lead to a cycle through an accepting node.
    """
    _, pre, _, acc = a.mask_tables()
    back = [pre[s] for s in v]
    lv = len(v)
    last = lv - 1
    z = [(1 << a.n) - 1] * lv
    while True:
        t = [x & acc for x in z]
        if not any(t):
            return 0
        # b[i]: nodes of z with a path of one or more steps inside z to t,
        # swept backwards until lv positions in a row add nothing.
        b = [0] * lv
        i, idle = last, 0
        while idle < lv:
            j = i + 1 if i < last else 0
            new = z[i] & back[i](t[j] | b[j]) & ~b[i]
            if new:
                b[i] |= new
                idle = 0
            else:
                idle += 1
            i = i - 1 if i else last
        # every accepting node reaches another: an accepting cycle exists
        if all(x & y == x for x, y in zip(t, b)):
            return b[0]
        z = b


# -- deterministic Rabin automata ---------------------------------------------


# Ordered (G, B) pairs over state ids; ``RabinCondition(pairs)`` builds the tuple.
RabinCondition = tuple[tuple[frozenset[int], frozenset[int]], ...]


@dataclass(frozen=True)
class DRW:
    """Deterministic Rabin word automaton with a total transition function.

    ``trans[q][sym]`` is the unique successor.  ``payloads`` optionally keeps
    the construction artifact (macrostate or Safra tree) behind each state.
    """

    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initial: int
    trans: tuple[tuple[int, ...], ...]
    acceptance: RabinCondition
    payloads: tuple | None = None

    def __post_init__(self):
        _check_names(self.alphabet, self.states)
        n, k = len(self.states), len(self.alphabet)
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        if len(self.trans) != n or any(len(row) != k for row in self.trans):
            raise ValueError("transition table must be total")
        for row in self.trans:
            for dst in row:
                if not 0 <= dst < n:
                    raise ValueError(f"transition target {dst} out of range")
        for g, b in self.acceptance:
            if any(not 0 <= q < n for q in g | b):
                raise ValueError("acceptance pair references unknown state")

        # not fields, so equality, hashing and repr stay those of the fields
        object.__setattr__(self, "_sym_id", {s: i for i, s in enumerate(self.alphabet)})
        object.__setattr__(self, "_marks", None)

    def pair_marks(self) -> tuple[int, ...]:
        """Per state, a bitmask with bit j set if it is in B_j and bit
        k + j if it is in G_j, for k pairs.  Built on first use."""
        if self._marks is None:
            k = len(self.acceptance)
            marks = [0] * len(self.states)
            for j, (g, b) in enumerate(self.acceptance):
                for q in b:
                    marks[q] |= 1 << j
                for q in g:
                    marks[q] |= 1 << (k + j)
            object.__setattr__(self, "_marks", tuple(marks))
        return self._marks


def drw_run_eval(d: DRW, w: Lasso) -> bool:
    """Evaluate the unique run of a DRW on ``u . v^w``.

    Follows the prefix, then runs whole periods until the state at a period
    start repeats.  The periods from that state on form the run's cycle; one
    more pass over them collects the pair marks of its states.  Accepts iff
    some Rabin pair has G visited and B avoided on the cycle.
    """
    u = _sym_ids(d._sym_id, w.prefix)
    v = _sym_ids(d._sym_id, w.period)
    q = d.initial
    for s in u:
        q = d.trans[q][s]
    return _drw_period(d, q, v)


def drw_verdicts(d: DRW, prefixes, periods) -> list[int]:
    """One verdict row per prefix: bit j of row i is set iff the run on
    ``prefixes[i] . periods[j]^w`` accepts.

    For ``v^w = x . c^w`` (see :func:`_rotations`), each distinct state
    after a prefix is run along x and then decided on c, in first-seen
    order.  The verdicts found so far are kept by period start, one memo
    per rotation class: a start that an earlier walk on c passed takes its
    verdict, and any other start's walk stops at the first known start it
    meets.
    """
    trans = d.trans
    starts = [reduce(lambda q, s: trans[q][s], _sym_ids(d._sym_id, u), d.initial)
              for u in prefixes]
    cores, members = _rotations(d.alphabet, tuple(map(tuple, periods)))
    memos = [{} for _ in cores]
    rows = dict.fromkeys(starts, 0)
    for j, (x, k) in enumerate(members):
        c, memo = cores[k], memos[k]
        for q in rows:
            p = q
            for s in x:
                p = trans[p][s]
            if memo[p] if p in memo else _drw_period(d, p, c, memo):
                rows[q] |= 1 << j
    return [rows[q] for q in starts]


def _drw_period(d: DRW, q: int, v: Sequence[int], memo: dict | None = None) -> bool:
    """Whether the run from state `q` accepts ``v^w``.

    Every period start on the walk from `q` leads to the same cycle, so it
    has the same verdict.  `memo`, when given, maps the period starts of
    earlier walks on this `v` to their verdicts: the walk stops at the
    first start it knows, and every start the walk visited is added to it.
    """
    trans = d.trans
    known = () if memo is None else memo
    starts: dict[int, int] = {}
    while q not in starts and q not in known:
        starts[q] = len(starts)
        for s in v:
            q = trans[q][s]
    if q in starts:
        marks = d.pair_marks()
        seen = 0
        for p in list(starts)[starts[q]:]:
            for s in v:
                seen |= marks[p]
                p = trans[p][s]
        # some pair with a G bit seen and its B bit not seen
        verdict = bool((seen >> len(d.acceptance)) & ~seen)
    else:
        verdict = memo[q]
    if memo is not None:
        memo.update(dict.fromkeys(starts, verdict))
    return verdict


# -- native text format --------------------------------------------------------


def _parse_sections(text: str, kind: str):
    """Check the grammar both native formats share: the header, the
    sections, the alphabet, the state names and the ``trans:`` lines.

    One pass over the lines files each directive in ``sections``: ``trans:``
    and ``pair:`` map to lists of ``(lineno, tokens)``, and each single
    section present to its ``(lineno, tokens)``.  Returns ``(sections, sid,
    trans)``, with ``sid`` the id of each state name and ``trans`` every
    ``trans:`` line as ``(lineno, src, sym, dst)`` ids.
    """
    sections: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        key = tokens[0]
        if not sections:  # the first content line is the header
            if tokens != [kind]:
                raise ParseError(f"expected header {kind!r}", lineno)
            sections = {"trans:": [], "pair:": []}
        elif key in ("trans:", "pair:"):
            sections[key].append((lineno, tokens[1:]))
        elif key not in ("alphabet:", "states:", "initial:", "accepting:"):
            raise ParseError(f"unknown directive {key!r}", lineno)
        elif key in sections:
            raise ParseError(f"duplicate {key[:-1]} section", lineno)
        else:
            sections[key] = (lineno, tokens[1:])
    if not sections:
        raise ParseError("empty document")
    for key in ("alphabet:", "states:", "initial:"):
        if key not in sections:
            raise ParseError(f"missing {key[:-1]} section")
    lineno, alphabet = sections["alphabet:"]
    if not alphabet:
        raise ParseError("alphabet must list at least one symbol", lineno)
    if len(set(alphabet)) != len(alphabet):
        raise ParseError("duplicate alphabet symbol", lineno)
    if fault := _separator_fault(alphabet):
        raise ParseError(fault, lineno)
    lineno, states = sections["states:"]
    if not states:
        raise ParseError("states must list at least one name", lineno)
    if len(set(states)) != len(states):
        raise ParseError("duplicate state name", lineno)
    sid = {s: i for i, s in enumerate(states)}
    aid = {s: i for i, s in enumerate(alphabet)}
    trans = []
    for lineno, rest in sections["trans:"]:
        if len(rest) != 3:
            raise ParseError("trans expects exactly: source symbol target", lineno)
        src, sym, dst = rest
        if sym not in aid:
            raise ParseError(f"undeclared symbol {sym!r}", lineno)
        if src not in sid or dst not in sid:
            _state_ids(sid, (src, dst), lineno)  # raises
        trans.append((lineno, sid[src], aid[sym], sid[dst]))
    return sections, sid, trans


def _state_ids(sid: dict, names, lineno: int | None) -> list[int]:
    """The ids of the state `names` in `sid`; a :class:`ParseError` on
    `lineno` names the first undeclared one."""
    for name in names:
        if name not in sid:
            raise ParseError(f"undeclared state {name!r}", lineno)
    return [sid[s] for s in names]


_UNWRITABLE = re.compile(r"[\s#]")
_BAR_STATE = "state name '|' cannot be used in a drw: pair lines split G from B with it"


def _head(kind: str, alphabet, states, initial) -> list[str]:
    """The lines a native document opens with, up to ``initial:``.  Raises
    ValueError naming the first name the reader would not read back as
    itself: an empty one, or one with whitespace or ``#``."""
    names = (*alphabet, *states)
    if "" in names or _UNWRITABLE.search("".join(names)):
        bad = next(s for s in names if not s or _UNWRITABLE.search(s))
        raise ValueError(f"name {bad!r} cannot be written: names must be "
                         "nonempty and contain no whitespace or '#'")
    return [kind, "alphabet: " + " ".join(alphabet), "states: " + " ".join(states),
            "initial: " + " ".join(states[q] for q in initial)]


def parse_nbw(text: str) -> NBW:
    """Parse the native NBW format.

    The result may still have initial accepting states; callers that need the
    disjointness guarantee run :func:`normalize`.
    """
    sections, sid, trans = _parse_sections(text, "nbw")
    if sections["pair:"]:
        raise ParseError("pair: lines are not allowed in an nbw document",
                         sections["pair:"][0][0])
    lineno, names = sections["initial:"]
    if not names:
        raise ParseError("initial set must be nonempty", lineno)
    initial = _state_ids(sid, names, lineno)
    lineno, names = sections.get("accepting:", (None, ()))
    return NBW(sections["alphabet:"][1], sections["states:"][1], initial,
               _state_ids(sid, names, lineno), [t[1:] for t in trans])


def format_nbw(a: NBW) -> str:
    lines = _head("nbw", a.alphabet, a.states, a.initial)
    lines.append(("accepting: " + " ".join(a.states[q] for q in a.accepting)).rstrip())
    for src, sym, dst in a.edges:
        lines.append(f"trans: {a.states[src]} {a.alphabet[sym]} {a.states[dst]}")
    return "\n".join(lines) + "\n"


def parse_drw(text: str) -> DRW:
    """Parse the native DRW format (single initial state, total transitions).
    The ``trans:`` lines fill one flat row-major table: a line that finds its
    cell filled is a duplicate, and the first cell left None is missing."""
    sections, sid, trans = _parse_sections(text, "drw")
    if "accepting:" in sections:
        raise ParseError("accepting: is not allowed in a drw document",
                         sections["accepting:"][0])
    if "|" in sid:
        raise ParseError(_BAR_STATE, sections["states:"][0])
    lineno, names = sections["initial:"]
    if len(names) != 1:
        raise ParseError("drw requires exactly one initial state", lineno)
    initial = _state_ids(sid, names, lineno)[0]
    alphabet, states = sections["alphabet:"][1], sections["states:"][1]
    k = len(alphabet)
    table = [None] * (len(states) * k)
    for lineno, src, sym, dst in trans:
        if table[src * k + sym] is not None:
            raise ParseError(
                f"duplicate transition for {states[src]} {alphabet[sym]}", lineno)
        table[src * k + sym] = dst
    if None in table:
        src, sym = divmod(table.index(None), k)
        raise ParseError(f"missing transition for {states[src]} {alphabet[sym]}")
    by_idx = {}
    for lineno, rest in sections["pair:"]:
        bar = rest.index("|") if "|" in rest else len(rest)
        if len(rest) < 3 or rest[1] != "G" or rest[bar + 1:bar + 2] != ["B"]:
            raise ParseError("pair expects: <idx> G <state>* | B <state>*", lineno)
        if not (rest[0].isascii() and rest[0].isdigit()):
            raise ParseError(f"pair index {rest[0]!r} must be a nonnegative "
                             "integer in ASCII digits", lineno)
        idx = int(rest[0])
        if idx in by_idx:
            raise ParseError(f"duplicate pair index {idx}", lineno)
        by_idx[idx] = (frozenset(_state_ids(sid, rest[2:bar], lineno)),
                       frozenset(_state_ids(sid, rest[bar + 2:], lineno)))
    if set(by_idx) != set(range(len(by_idx))):
        raise ParseError("pair indices must be contiguous from 0")
    pairs = tuple(by_idx[i] for i in range(len(by_idx)))
    return DRW(tuple(alphabet), tuple(states), initial,
               tuple(tuple(table[i:i + k]) for i in range(0, len(table), k)), pairs)


def format_drw(d: DRW) -> str:
    lines = _head("drw", d.alphabet, d.states, (d.initial,))
    if "|" in d.states:
        raise ValueError(_BAR_STATE)
    for qi, row in enumerate(d.trans):
        for si, dst in enumerate(row):
            lines.append(f"trans: {d.states[qi]} {d.alphabet[si]} {d.states[dst]}")
    for idx, (g, b) in enumerate(d.acceptance):
        tokens = ["pair:", str(idx), "G", *(d.states[q] for q in sorted(g)),
                  "|", "B", *(d.states[q] for q in sorted(b))]
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"
