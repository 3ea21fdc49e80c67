"""The universal automata of the full-automaton technique (Yan, ICALP 2006
and LMCS 2008).

U(n, I, F) has states 0..n-1, initial set I, accepting set F, and one letter
per relation r ⊆ Q × Q: the letter ``r<bits>``, with bit ``p * n + q`` of
``bits`` set iff (p, q) ∈ r, whose edges are r.  An NBW A over the same
states, I and F maps each of its letters a to the letter h(a) of the
relation {(p, q) : q ∈ succ(p, a)}, and L(A) = h⁻¹(L(U)).
"""

from buchidet import NBW


def universal_nbw(n: int, initial, accepting) -> NBW:
    """U(n, initial, accepting), with 2 ** (n * n) letters."""
    letters = range(1 << (n * n))
    edges = [(p, bits, q) for bits in letters for p in range(n) for q in range(n)
             if bits >> (p * n + q) & 1]
    return NBW([f"r{bits}" for bits in letters], [f"s{q}" for q in range(n)],
               initial, accepting, edges)


def universal_classes(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """One (I, F) per class up to renaming states, I nonempty and F disjoint
    from it as `normalize` requires: I = {0..i-1} and F = {i..i+f-1} for
    each size pair, so 1, 3 and 6 classes for n = 1, 2 and 3."""
    return [(tuple(range(i)), tuple(range(i, i + f)))
            for i in range(1, n + 1) for f in range(n - i + 1)]


def relation_letter(a: NBW, symbol: str) -> str:
    """h(symbol): the letter of U(a.n, ·, ·) whose relation is the edges of
    `symbol` in `a`."""
    s = a.sym_id(symbol)
    return f"r{sum(1 << (p * a.n + q) for p in range(a.n) for q in a.succ[p][s])}"
