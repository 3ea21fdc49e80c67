"""Memoized breadth-first exploration of a deterministic transition system."""

from typing import Callable, TypeVar

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
    order) defines their indices, so the result is deterministic.  Returns
    the state list and the dense transition table.
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
