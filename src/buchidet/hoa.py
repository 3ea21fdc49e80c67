"""HOA v1 export for deterministic Rabin automata.

Each alphabet symbol becomes one atomic proposition; a letter is the
valuation where exactly its proposition holds.  Rabin pair j is encoded as
Fin(2j) & Inf(2j+1) with state-based marks: a state carries mark 2j when it
is in B_j and 2j+1 when it is in G_j.
"""

from .automata import DRW


def _quote(name: str) -> str:
    """HOA string literal: backslash and double quote are escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_hoa(d: DRW) -> str:
    k = len(d.acceptance)
    if k:
        acc = " | ".join(f"Fin({2 * j})&Inf({2 * j + 1})" for j in range(k))
        acceptance = f"Acceptance: {2 * k} {acc}"
    else:
        acceptance = "Acceptance: 0 f"
    lines = [
        "HOA: v1",
        f"States: {len(d.states)}",
        f"Start: {d.initial}",
        "AP: %d %s" % (len(d.alphabet), " ".join(map(_quote, d.alphabet))),
        f"acc-name: Rabin {k}",
        acceptance,
        "properties: trans-labels explicit-labels state-acc deterministic complete",
        "--BODY--",
    ]
    n_ap = len(d.alphabet)
    letters = ["&".join(("" if t == s else "!") + str(t) for t in range(n_ap))
               for s in range(n_ap)]
    heads = {}  # pair mask -> its marks as HOA text; few masks recur often
    for i, m in enumerate(d.pair_marks()):
        if m not in heads:
            # bit j of m (B_j) gives mark 2j, bit k + j (G_j) gives 2j + 1
            marks = [2 * j + g for j in range(k) for g in (0, 1) if m >> (g * k + j) & 1]
            heads[m] = " {" + " ".join(map(str, marks)) + "}" if marks else ""
        lines.append(f"State: {i}{heads[m]}")
        for s in range(n_ap):
            lines.append(f"[{letters[s]}] {d.trans[i][s]}")
    lines += ["--END--", ""]
    return "\n".join(lines)
