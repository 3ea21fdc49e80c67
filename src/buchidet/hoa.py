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
    for i in range(len(d.states)):
        marks = sorted([2 * j for j, (_, b) in enumerate(d.acceptance) if i in b]
                       + [2 * j + 1 for j, (g, _) in enumerate(d.acceptance) if i in g])
        head = f"State: {i}"
        if marks:
            head += " {" + " ".join(map(str, marks)) + "}"
        lines.append(head)
        for s in range(n_ap):
            lines.append(f"[{letters[s]}] {d.trans[i][s]}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"
