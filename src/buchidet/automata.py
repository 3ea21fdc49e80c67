"""Nondeterministic Buchi and deterministic Rabin word automata.

State and symbol names are strings; internally every state gets a dense
integer id in declaration order, so all iteration is deterministic.  All
values are immutable after construction and every operation is pure; the
lookup tables that only membership queries use are built on first use.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence


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
        if ";" not in text:
            raise ValueError(f"lasso {text!r} must contain ';' between prefix and period")
        u, _, v = text.partition(";")
        return cls(_symbols(u), _symbols(v))

    def unroll(self, length: int) -> tuple[str, ...]:
        """First `length` symbols of the denoted infinite word."""
        out = list(self.prefix)
        while len(out) < length:
            out.extend(self.period)
        return tuple(out[:length])

    def __str__(self):
        return f"{'.'.join(self.prefix)};{'.'.join(self.period)}"


def _symbols(part: str) -> tuple[str, ...]:
    part = part.strip()
    symbols = tuple(part.split(".")) if part else ()
    if "" in symbols:
        raise ValueError(f"lasso part {part!r} has an empty symbol")
    return symbols


class NBW:
    """Nondeterministic Buchi word automaton.

    The transition relation may be partial: a state may have no successor
    on some symbol, in which case runs through it die.
    """

    __slots__ = ("alphabet", "states", "initial", "accepting", "edges",
                 "_sym_id", "_state_id", "_succ", "_pred", "_acc", "_masks")

    def __init__(self, alphabet, states, initial, accepting, edges):
        self.alphabet: tuple[str, ...] = tuple(alphabet)
        self.states: tuple[str, ...] = tuple(states)
        self.initial: tuple[int, ...] = tuple(sorted(set(initial)))
        self.accepting: tuple[int, ...] = tuple(sorted(set(accepting)))
        self.edges: tuple[tuple[int, int, int], ...] = tuple(sorted(set(edges)))
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate alphabet symbol")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state name")
        if not self.alphabet:
            raise ValueError("alphabet must be nonempty")
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
        self._state_id = {s: i for i, s in enumerate(self.states)}
        succ = [[[] for _ in range(k)] for _ in range(n)]
        pred = [[[] for _ in range(k)] for _ in range(n)]
        for src, sym, dst in self.edges:
            succ[src][sym].append(dst)
            pred[dst][sym].append(src)
        self._succ = tuple(tuple(tuple(row) for row in per) for per in succ)
        self._pred = tuple(tuple(tuple(row) for row in per) for per in pred)
        self._acc = frozenset(self.accepting)
        self._masks = None

    @classmethod
    def build(cls, alphabet: Sequence[str], states: Sequence[str],
              initial: Iterable[str], accepting: Iterable[str],
              transitions: Iterable[tuple[str, str, str]]) -> "NBW":
        """Construct from names; transitions are (src, symbol, dst) triples."""
        sid = {s: i for i, s in enumerate(states)}
        aid = {a: i for i, a in enumerate(alphabet)}

        def state(name):
            if name not in sid:
                raise ValueError(f"undeclared state {name!r}")
            return sid[name]

        edges = []
        for src, sym, dst in transitions:
            if sym not in aid:
                raise ValueError(f"undeclared symbol {sym!r}")
            edges.append((state(src), aid[sym], state(dst)))
        return cls(alphabet, states, [state(s) for s in initial],
                   [state(s) for s in accepting], edges)

    # -- queries ------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.states)

    def sym_id(self, symbol: str) -> int:
        try:
            return self._sym_id[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet") from None

    def succ(self, q: int, sym: int) -> tuple[int, ...]:
        return self._succ[q][sym]

    def pred(self, q: int, sym: int) -> tuple[int, ...]:
        return self._pred[q][sym]

    def succ_set(self, qs: Iterable[int], sym: int) -> set[int]:
        out = set()
        for q in qs:
            out.update(self._succ[q][sym])
        return out

    def is_accepting(self, q: int) -> bool:
        return q in self._acc

    @property
    def needs_normalization(self) -> bool:
        return bool(set(self.initial) & self._acc)

    def _mask_tables(self):
        """``(post, pre, initial, accepting)`` for bitmask state sets.

        ``post[s][c][m]`` is the mask of s-successors of the states 4c..4c+3
        selected by the 4-bit mask m; ``pre`` is the same for predecessors.
        Built on first use, since only membership queries need them.
        """
        if self._masks is None:
            self._masks = (_nibble_tables(self._succ, len(self.alphabet)),
                           _nibble_tables(self._pred, len(self.alphabet)),
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


# -- lasso membership ---------------------------------------------------------


def _sym_ids(ids: dict, symbols) -> list[int]:
    try:
        return [ids[s] for s in symbols]
    except KeyError as err:
        raise ValueError(f"symbol {err.args[0]!r} not in alphabet") from None


def _nibble_tables(adj, k: int) -> tuple:
    """Per symbol and per chunk of 4 states, the union of the `adj` rows of
    every subset of the chunk, as bitmasks (see :meth:`NBW._mask_tables`)."""
    n = len(adj)
    tables = []
    for s in range(k):
        rows = [sum(1 << t for t in adj[q][s]) for q in range(n)]
        rows += [0] * (-n % 4)
        chunks = []
        for base in range(0, n, 4):
            row = [0] * 16
            for m in range(1, 16):
                low = m & -m
                row[m] = row[m ^ low] | rows[base + low.bit_length() - 1]
            chunks.append(tuple(row))
        tables.append(tuple(chunks))
    return tuple(tables)


def _image(chunks, m: int) -> int:
    """Union of the table rows selected by the state mask `m`."""
    out = 0
    for row in chunks:
        if not m:
            break
        out |= row[m & 15]
        m >>= 4
    return out


def nbw_member(a: NBW, w: Lasso) -> bool:
    """Decide whether the automaton accepts ``u . v^w``.

    Runs the prefix, then works on the finite product over (state, position
    mod |v|) pairs, one bitmask of states per position.  The reachable part
    is computed to a fixpoint; the Emerson-Lei greatest fixpoint
    Z := Z ∩ pre⁺(Z ∩ Acc) then keeps exactly the nodes that lie on or lead
    to a cycle through an accepting node, and the word is accepted iff it
    keeps any.  Exact, never a step-capped heuristic.
    """
    u = _sym_ids(a._sym_id, w.prefix)
    v = _sym_ids(a._sym_id, w.period)
    post, pre, reach, acc = a._mask_tables()
    for s in u:
        reach = _image(post[s], reach)
        if not reach:
            return False
    lv = len(v)
    last = lv - 1
    # z[i]: reachable states at period position i.  todo[i] holds the states
    # of z[i] whose successors are not yet in z[i + 1]; the sweep goes round
    # the period until lv positions in a row have nothing to push.
    z = [0] * lv
    todo = [0] * lv
    z[0] = todo[0] = reach
    i = idle = 0
    while idle < lv:
        j = i + 1 if i < last else 0
        f = todo[i]
        if f:
            todo[i] = 0
            new = _image(post[v[i]], f) & ~z[j]
            if new:
                z[j] |= new
                todo[j] |= new
            idle = 0
        else:
            idle += 1
        i = j
    while True:
        t = [x & acc for x in z]
        if not any(t):
            return False
        # b[i]: nodes of z with a path of one or more steps inside z to t,
        # closed by the same sweep run backwards.
        b = [0] * lv
        todo = t[:]
        i, idle = last, 0
        while idle < lv:
            j = i + 1 if i < last else 0
            f = todo[j]
            if f:
                todo[j] = 0
                new = z[i] & _image(pre[v[i]], f) & ~b[i]
                if new:
                    b[i] |= new
                    todo[i] |= new & ~t[i]
                idle = 0
            else:
                idle += 1
            i = i - 1 if i else last
        # every accepting node reaches another: an accepting cycle exists
        if all(x & y == x for x, y in zip(t, b)):
            return True
        z = b


# -- deterministic Rabin automata ---------------------------------------------


@dataclass(frozen=True)
class RabinCondition:
    """Ordered list of (G, B) pairs over state ids."""

    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


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

    def sym_id(self, symbol: str) -> int:
        try:
            return self._sym_id[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in alphabet") from None

    def _pair_marks(self) -> tuple[int, ...]:
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
    trans = d.trans
    q = d.initial
    for s in u:
        q = trans[q][s]
    starts: dict[int, int] = {}
    while q not in starts:
        starts[q] = len(starts)
        for s in v:
            q = trans[q][s]
    marks = d._pair_marks()
    seen = 0
    for p in list(starts)[starts[q]:]:
        for s in v:
            seen |= marks[p]
            p = trans[p][s]
    # some pair with a G bit seen and its B bit not seen
    return bool((seen >> len(d.acceptance)) & ~seen)


# -- native text format --------------------------------------------------------


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _parse_sections(text: str, kind: str):
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty document")
    lineno, tokens = lines[0]
    if tokens != [kind]:
        raise ParseError(f"expected header {kind!r}", lineno)
    single = {"alphabet:": None, "states:": None, "initial:": None, "accepting:": None}
    trans: list[tuple[int, list[str]]] = []
    pairs: list[tuple[int, list[str]]] = []
    for lineno, tokens in lines[1:]:
        key, rest = tokens[0], tokens[1:]
        if key in single:
            if single[key] is not None:
                raise ParseError(f"duplicate {key[:-1]} section", lineno)
            single[key] = (lineno, rest)
        elif key == "trans:":
            trans.append((lineno, rest))
        elif key == "pair:":
            pairs.append((lineno, rest))
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    return single, trans, pairs


def parse_nbw(text: str) -> NBW:
    """Parse the native NBW format.

    The result may still have initial accepting states; callers that need the
    disjointness guarantee run :func:`normalize`.
    """
    single, trans, pairs = _parse_sections(text, "nbw")
    if pairs:
        raise ParseError("pair: lines are not allowed in an nbw document", pairs[0][0])
    for key in ("alphabet:", "states:", "initial:"):
        if single[key] is None:
            raise ParseError(f"missing {key[:-1]} section")
    lineno, alphabet = single["alphabet:"]
    if not alphabet:
        raise ParseError("alphabet must list at least one symbol", lineno)
    lineno, states = single["states:"]
    if not states:
        raise ParseError("states must list at least one name", lineno)
    if len(set(states)) != len(states):
        raise ParseError("duplicate state name", lineno)
    if len(set(alphabet)) != len(alphabet):
        raise ParseError("duplicate alphabet symbol", single["alphabet:"][0])
    sid = {s: i for i, s in enumerate(states)}
    aid = {s: i for i, s in enumerate(alphabet)}

    def state(name, lineno):
        if name not in sid:
            raise ParseError(f"undeclared state {name!r}", lineno)
        return sid[name]

    lineno, init_names = single["initial:"]
    if not init_names:
        raise ParseError("initial set must be nonempty", lineno)
    initial = [state(s, lineno) for s in init_names]
    if single["accepting:"] is None:
        accepting = []
    else:
        lineno, acc_names = single["accepting:"]
        accepting = [state(s, lineno) for s in acc_names]
    edges = []
    for lineno, rest in trans:
        if len(rest) != 3:
            raise ParseError("trans expects exactly: source symbol target", lineno)
        src, sym, dst = rest
        if sym not in aid:
            raise ParseError(f"undeclared symbol {sym!r}", lineno)
        edges.append((state(src, lineno), aid[sym], state(dst, lineno)))
    return NBW(alphabet, states, initial, accepting, edges)


def format_nbw(a: NBW) -> str:
    lines = ["nbw",
             "alphabet: " + " ".join(a.alphabet),
             "states: " + " ".join(a.states),
             "initial: " + " ".join(a.states[q] for q in a.initial),
             ("accepting: " + " ".join(a.states[q] for q in a.accepting)).rstrip()]
    for src, sym, dst in a.edges:
        lines.append(f"trans: {a.states[src]} {a.alphabet[sym]} {a.states[dst]}")
    return "\n".join(lines) + "\n"


def parse_drw(text: str) -> DRW:
    """Parse the native DRW format (single initial state, total transitions)."""
    single, trans, pair_lines = _parse_sections(text, "drw")
    for key in ("alphabet:", "states:", "initial:"):
        if single[key] is None:
            raise ParseError(f"missing {key[:-1]} section")
    if single["accepting:"] is not None:
        raise ParseError("accepting: is not allowed in a drw document",
                         single["accepting:"][0])
    lineno, alphabet = single["alphabet:"]
    if not alphabet or len(set(alphabet)) != len(alphabet):
        raise ParseError("alphabet must list distinct symbols", lineno)
    lineno, states = single["states:"]
    if not states or len(set(states)) != len(states):
        raise ParseError("states must list distinct names", lineno)
    sid = {s: i for i, s in enumerate(states)}
    aid = {s: i for i, s in enumerate(alphabet)}
    lineno, init_names = single["initial:"]
    if len(init_names) != 1:
        raise ParseError("drw requires exactly one initial state", lineno)
    if init_names[0] not in sid:
        raise ParseError(f"undeclared state {init_names[0]!r}", lineno)
    initial = sid[init_names[0]]
    table: list[list[int | None]] = [[None] * len(alphabet) for _ in states]
    for lineno, rest in trans:
        if len(rest) != 3:
            raise ParseError("trans expects exactly: source symbol target", lineno)
        src, sym, dst = rest
        if src not in sid or dst not in sid:
            raise ParseError(f"undeclared state in transition", lineno)
        if sym not in aid:
            raise ParseError(f"undeclared symbol {sym!r}", lineno)
        if table[sid[src]][aid[sym]] is not None:
            raise ParseError(f"duplicate transition for {src} {sym}", lineno)
        table[sid[src]][aid[sym]] = sid[dst]
    for qi, row in enumerate(table):
        for si, dst in enumerate(row):
            if dst is None:
                raise ParseError(
                    f"missing transition for {states[qi]} {alphabet[si]}")
    by_idx = {}
    for lineno, rest in pair_lines:
        if len(rest) < 3 or rest[1] != "G" or "|" not in rest:
            raise ParseError("pair expects: <idx> G <state>* | B <state>*", lineno)
        try:
            idx = int(rest[0])
        except ValueError:
            raise ParseError(f"pair index {rest[0]!r} is not an integer", lineno)
        if idx in by_idx:
            raise ParseError(f"duplicate pair index {idx}", lineno)
        bar = rest.index("|")
        if bar + 1 >= len(rest) or rest[bar + 1] != "B":
            raise ParseError("pair expects: <idx> G <state>* | B <state>*", lineno)
        g_names, b_names = rest[2:bar], rest[bar + 2:]
        for name in g_names + b_names:
            if name not in sid:
                raise ParseError(f"undeclared state {name!r}", lineno)
        by_idx[idx] = (frozenset(sid[s] for s in g_names),
                       frozenset(sid[s] for s in b_names))
    if set(by_idx) != set(range(len(by_idx))):
        raise ParseError("pair indices must be contiguous from 0")
    pairs = tuple(by_idx[i] for i in range(len(by_idx)))
    return DRW(tuple(alphabet), tuple(states), initial,
               tuple(tuple(row) for row in table), RabinCondition(pairs))


def format_drw(d: DRW) -> str:
    lines = ["drw",
             "alphabet: " + " ".join(d.alphabet),
             "states: " + " ".join(d.states),
             "initial: " + d.states[d.initial]]
    for qi, row in enumerate(d.trans):
        for si, dst in enumerate(row):
            lines.append(f"trans: {d.states[qi]} {d.alphabet[si]} {d.states[dst]}")
    for idx, (g, b) in enumerate(d.acceptance):
        tokens = ["pair:", str(idx), "G", *(d.states[q] for q in sorted(g)),
                  "|", "B", *(d.states[q] for q in sorted(b))]
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"
