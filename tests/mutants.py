"""A catalogue of deliberate faults, and how often each checker catches them.

Each mutant is (name, target, wrapper): `target` names an attribute of a
`buchidet` module as ``"module.attr"``, and ``wrapper(original)`` returns
the faulty stand-in used while the mutant is active.  The checkers are the
parts of the cross-check that judges every change: the lasso verdicts of
the NBW against the profile DRW and against the Safra DRW, the invariant
sweep, and the per-state validators of both constructions.  Two more stand
beside it: ``exact`` compares the profile and Safra DRWs' languages
exactly, and ``reference`` checks the verdict rows of the lasso check,
read per lasso, against the single-lasso deciders run one lasso at a time.

    PYTHONPATH=src python tests/mutants.py

rewrites MUTANTS.json at the repository root: per mutant, how many corpus
automata each checker flagged.  `test_mutants.py` asserts that every kill
recorded there still holds; survivors are data, not assertions.  Extend the
catalogue only: a mutant leaves with the code it mutates.
"""

import importlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from buchidet import Lasso, drw_run_eval, harness, nbw_member, normalize
from buchidet.harness import GenSpec, check_automaton, gen_nbw, sweep_invariants
from oracles import drw_equivalent, per_lasso

RECORD = Path(__file__).resolve().parents[1] / "MUTANTS.json"
CHECKERS = ("lassos_profile", "lassos_safra", "sweep", "validators", "exact",
            "reference")
MAX_U, MAX_V, DEPTH = 3, 4, 4
SPECS = [GenSpec(n, 2, 0.5, 0.3, 20_260_000 + 1000 * n + i)
         for n in range(2, 5) for i in range(60)]


# -- wrappers ------------------------------------------------------------------


def _no_bad(apply):
    """The profile label step `_apply_labels` reporting no bad events."""
    def mutant(*args):
        new, good_mask, _ = apply(*args)
        return new, good_mask, 0
    return mutant


def _no_bad_paths(step):
    """The Safra step `_step` reporting no bad paths."""
    def mutant(*args):
        tree2, good, _ = step(*args)
        return tree2, good, ()
    return mutant


def _mirror(mask: int, top: int) -> int:
    return sum(1 << (top - v) for v in range(top + 1) if mask >> v & 1)


def _highest_free(pool):
    """A naming step that gives fresh values from the top of the pool of
    ``pool(a)`` values: it runs the real step on mirrored values."""
    def wrapper(apply):
        def mutant(a, values, positions, good):
            top = pool(a) - 1
            new, good_mask, bad_mask = apply(a, tuple(top - v for v in values),
                                             positions, good)
            return (tuple(top - v for v in new), _mirror(good_mask, top),
                    _mirror(bad_mask, top))
        return mutant
    return wrapper


def _good_ignores_acceptance(shape):
    """The profile step with good uncles only where the heir changed parent."""
    def mutant(a, classes, cousin, sym):
        classes2, pairs, heirs, _ = shape(a, classes, cousin, sym)
        rank = {q: i for i, group in enumerate(classes) for q in group}
        parent = [max(rank[p] for p in a.pred[group[0]][sym] if p in rank)
                  for group in classes2]
        good = tuple(x for j, x in enumerate(heirs)
                     if x is not None and parent[j] != x)
        return classes2, pairs, heirs, good
    return mutant


def _keep_good(select):
    """The Safra step with its good paths passed through `select`."""
    def wrapper(step):
        def mutant(*args):
            tree2, good, bad = step(*args)
            return tree2, select(good), bad
        return mutant
    return wrapper


def _symbol_zero(shape):
    """The profile shape step answering every symbol with symbol 0's shape."""
    def mutant(a, classes, cousin, sym):
        return shape(a, classes, cousin, 0)
    return mutant


def _prefix_by_first_symbol(verdicts):
    """Verdict rows of one decider that read every prefix as its first
    symbol repeated."""
    def mutant(aut, prefixes, periods):
        return verdicts(aut, [u[:1] * len(u) for u in prefixes], periods)
    return mutant


def _dead_start_accepted(verdicts):
    """NBW verdict rows that accept every period after a prefix that kills
    all runs."""
    def alive(a, prefix):
        qs = set(a.initial)
        for symbol in prefix:
            qs = {q2 for q in qs for q2 in a.succ[q][a.sym_id(symbol)]}
        return bool(qs)

    def mutant(a, prefixes, periods):
        every = (1 << len(periods)) - 1
        return [row if alive(a, u) else every
                for row, u in zip(verdicts(a, prefixes, periods), prefixes)]
    return mutant


def _every_start_wins(period):
    """The NBW period core returning all states whenever some state wins."""
    def mutant(a, v):
        return (1 << a.n) - 1 if period(a, v) else 0
    return mutant


def _reversed_classes(slice_):
    """The level step's slice listing the classes of every level with two or
    more in reverse rank order, parents and acceptance bits alike."""
    def mutant(*args):
        classes, parents, f_class = slice_(*args)
        if len(classes) < 2:
            return classes, parents, f_class
        return classes[::-1], parents[::-1], f_class[::-1]
    return mutant


def _core_for_every_period(rotations):
    """The rotation map reading every period as its rotation class core:
    each member becomes ``((), k)``, so the row deciders drop the rotation
    offset of every period that is not already its class's core."""
    def mutant(alphabet, periods):
        cores, members = rotations(alphabet, periods)
        return cores, tuple(((), k) for _, k in members)
    return mutant


def _first_class_twice(shape):
    """The profile step listing the first state of its first new class twice."""
    def mutant(*args):
        classes2, *rest = shape(*args)
        if classes2:
            classes2 = ((classes2[0][0],) + classes2[0],) + classes2[1:]
        return (classes2, *rest)
    return mutant


def _root_copy_as_child(step):
    """The Safra step giving a live root a copy of itself as its youngest
    child."""
    def mutant(*args):
        tree2, good, bad = step(*args)
        if tree2:
            label, kids = tree2
            tree2 = (label, kids + ((label, ()),))
        return tree2, good, bad
    return mutant


MUTANTS = [
    ("profile: good ignores acceptance", "determinize._shape",
     _good_ignores_acceptance),
    ("profile: no bad events", "determinize._apply_labels", _no_bad),
    ("profile: fresh labels from the highest free bit", "determinize._apply_labels",
     _highest_free(lambda a: 2 * a.n + 1)),
    ("safra: no bad events", "safra._step", _no_bad_paths),
    ("safra: only the first good node per step", "safra._step",
     _keep_good(lambda good: good[:1])),
    ("safra: never good", "safra._step", _keep_good(lambda good: ())),
    ("profile: preorder step ignores the symbol", "determinize._shape",
     _symbol_zero),
    ("nbw: dead start mask accepted", "harness.nbw_verdicts", _dead_start_accepted),
    ("nbw: every start wins once some state does", "automata._nbw_period",
     _every_start_wins),
    ("levels: classes in reverse rank order", "run_dag._slice",
     _reversed_classes),
    ("profile: a class lists its first state twice", "determinize._shape",
     _first_class_twice),
    ("safra: a live root gets a copy of itself as its youngest child",
     "safra._step", _root_copy_as_child),
    ("nbw rows: each prefix read as its first symbol repeated",
     "harness.nbw_verdicts", _prefix_by_first_symbol),
    ("drw rows: each prefix read as its first symbol repeated",
     "harness.drw_verdicts", _prefix_by_first_symbol),
    ("rows: each period read as its rotation class core", "automata._rotations",
     _core_for_every_period),
]


# -- running the checkers --------------------------------------------------------


@contextmanager
def active(mutant):
    """Put the mutant's stand-in in place of its target for the duration."""
    _, target, wrapper = mutant
    module_name, attr = target.split(".")
    module = importlib.import_module(f"buchidet.{module_name}")
    original = getattr(module, attr)
    setattr(module, attr, wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def corpus():
    return [normalize(gen_nbw(spec)) for spec in SPECS]


def _batch_differs(a, profile, safra, prefixes, periods) -> bool:
    """Whether the verdict rows that `check_automaton` compares, read per
    lasso, differ on some lasso of the grid from `nbw_member` and
    `drw_run_eval` on that lasso alone."""
    rows = (harness.nbw_verdicts(a, prefixes, periods),
            harness.drw_verdicts(profile, prefixes, periods),
            harness.drw_verdicts(safra, prefixes, periods))
    lassos = [Lasso(u, v) for u in prefixes for v in periods]
    batch = per_lasso(rows, lassos, prefixes, periods)
    return any(row != (nbw_member(a, w), drw_run_eval(profile, w),
                       drw_run_eval(safra, w))
               for w, row in zip(lassos, batch))


def flagged(a, grid, checkers) -> set:
    """The checkers among `checkers` that find fault with `a`, judging the
    lassos of `grid`, a (prefixes, periods) pair."""
    out = set()
    if "sweep" in checkers and sweep_invariants(a, DEPTH):
        out.add("sweep")
    if set(checkers) - {"sweep"}:
        profile = harness.determinize_profile(a)
        safra = harness.determinize_safra(a)
        if "exact" in checkers and not drw_equivalent(profile, safra):
            out.add("exact")
        if "reference" in checkers and _batch_differs(a, profile, safra, *grid):
            out.add("reference")
        if {"lassos_profile", "lassos_safra", "validators"} & set(checkers):
            rep = check_automaton(a, *grid, profile, safra)
            for d in rep.disagreements:
                v = d["verdicts"]
                if v["nbw"] != v["profile"]:
                    out.add("lassos_profile")
                if v["nbw"] != v["safra"]:
                    out.add("lassos_safra")
            if rep.violations:
                out.add("validators")
    return out & set(checkers)


def kill_counts(automata, grid, checkers=CHECKERS) -> dict:
    """Per checker, the number of automata it flags; ``errors`` counts the
    automata on which the checks raised, a construction past its state cap
    included."""
    counts = dict.fromkeys(checkers, 0) | {"errors": 0}
    for i, a in enumerate(automata):
        try:
            for c in flagged(a, grid, checkers):
                counts[c] += 1
        except Exception as err:  # a mutant may break anything
            counts["errors"] += 1
            print(f"automaton {i}: {err!r}", file=sys.stderr)
    return counts


def first_kills(automata, grid, checkers) -> set:
    """The checkers among `checkers` that flag some automaton, each looked
    for only until its first flagged automaton."""
    pending, found = set(checkers), set()
    for a in automata:
        if not pending:
            break
        try:
            hit = flagged(a, grid, pending)
        except Exception:  # an error is no kill; kill_counts tallies it
            continue
        found |= hit
        pending -= hit
    return found


def record() -> dict:
    automata = corpus()
    grid = harness._grid(automata[0].alphabet, MAX_U, MAX_V)
    out = {"corpus": {"automata": "GenSpec(n, 2, 0.5, 0.3, 20_260_000 + 1000n + i)"
                                  " for n = 2..4, i < 60",
                      "count": len(automata), "max_u": MAX_U, "max_v": MAX_V,
                      "sweep_depth": DEPTH},
           "unmutated": kill_counts(automata, grid),
           "mutants": []}
    for mutant in MUTANTS:
        with active(mutant):
            counts = kill_counts(automata, grid)
        out["mutants"].append({"name": mutant[0], "target": mutant[1],
                               "flagged": counts})
        print(f"{mutant[0]}: {counts}", file=sys.stderr)
    return out


if __name__ == "__main__":
    RECORD.write_text(json.dumps(record(), indent=2) + "\n", encoding="utf-8")
