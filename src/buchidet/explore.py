"""Breadth-first exploration of a deterministic transition system, and the
one rule that turns an explored system's good/bad events into Rabin pairs."""

from typing import Callable, Sequence, TypeVar

from .automata import DRW

T = TypeVar("T")


class StateLimitExceeded(RuntimeError):
    """The exploration hit its configured state cap."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"exploration exceeded the cap of {limit} states")


def explore(initial: T, step: Callable[[T, int], T], n_symbols: int,
            max_states: int = 10 ** 6) -> tuple[list[T], list[list[int]]]:
    """Explore all states reachable from `initial` under `step`.

    States must be hashable; discovery order (breadth-first, symbols in
    order) defines their indices, so the result is deterministic.  `step`
    runs exactly once per (state index, symbol), in index order, then
    symbol order.  Returns the state list and the dense transition table.
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    states: list[T] = [initial]
    index: dict[T, int] = {initial: 0}
    table: list[list[int]] = []
    i = 0
    while i < len(states):
        row = []
        for sym in range(n_symbols):
            nxt = step(states[i], sym)
            j = index.get(nxt)
            if j is None:
                if len(states) >= max_states:
                    raise StateLimitExceeded(max_states)
                j = len(states)
                index[nxt] = j
                states.append(nxt)
            row.append(j)
        table.append(row)
        i += 1
    return states, table


def rabin_drw(alphabet, prefix: str, table, payloads: Sequence) -> DRW:
    """The DRW of an explored system whose payloads carry `good` and `bad`
    events (labels or paths): one Rabin pair per event that is good on some
    state, in sorted event order, with G the states where it is good and B
    those where it is bad.  State i is named `prefix` followed by i and
    keeps payload i."""
    good: dict = {}
    bad: dict = {}
    for i, p in enumerate(payloads):
        for e in p.good:
            good.setdefault(e, []).append(i)
        for e in p.bad:
            bad.setdefault(e, []).append(i)
    pairs = tuple((frozenset(good[e]), frozenset(bad.get(e, ())))
                  for e in sorted(good))
    return DRW(alphabet, tuple(f"{prefix}{i}" for i in range(len(payloads))), 0,
               tuple(tuple(row) for row in table), pairs, tuple(payloads))
