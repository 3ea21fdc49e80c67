"""Randomized and exhaustive cross-validation of the two determinizers.

Three deciders answer every membership query: the NBW cycle oracle, the
macrostate DRW, and the Safra DRW.  A check's lassos form a grid, every
prefix with every period, whose order `_grid` alone defines.  Each decider
returns one verdict row per prefix, bit j for period j; the check compares
the rows prefix by prefix and reads a prefix's bits period by period only
when its rows differ.  Periods that spell one word up to a shift, ``v^w =
x . c^w`` with c the least rotation of v's primitive root, are settled
together.  The NBW settles each such c once, as the mask of states from
which some run accepts it; a period's mask is the x-predecessors of c's,
met by the start mask after each prefix.  A DRW's verdict depends only on
the state after the prefix and the period, and all the period starts of
one walk share it: each DRW runs a start along x and walks c on from there
only if no earlier walk on c passed through it.  Any disagreement is a
genuine counterexample, replayable from the seed.  Bounded agreement is
evidence, not proof; every report records the bounds it used.
`check_automaton` only judges the DRWs it is given: `cross_check` builds
them and turns a construction that hits its state cap into a violation.

The invariant sweep rebuilds each word's macrostate from the run-DAG side
and compares it with the payload of the state the word reaches in the
profile DRW, walking the DRW's transitions: the same DRW whose lasso
verdicts the check compares.  Its step, `_sweep_step`, depends only on the
word's view (labeled level, DRW state, walk) and the symbol, so it checks
each distinct step once and names its faults under every word that takes it.
"""

import random
import string
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from itertools import product

from .automata import DRW, NBW, Lasso, drw_verdicts, format_nbw, nbw_verdicts, \
    normalize
from .determinize import Macrostate, determinize_profile, validate_macrostate
from .explore import StateLimitExceeded
from .labeling import initial_labeled, next_labeled
from .run_dag import check_level, initial_level, step_level
from .safra import SafraTree, determinize_safra, validate_safra_tree


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one seeded random automaton."""

    n_states: int
    alphabet_size: int
    density: float
    accepting_fraction: float
    seed: int

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("n_states must be at least 1")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        if not 0 < self.density <= 1:
            raise ValueError("density must be in (0, 1]")
        if not 0 <= self.accepting_fraction <= 1:
            raise ValueError("accepting_fraction must be in [0, 1]")


def _alphabet(size: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[i] if i < 26 else f"x{i}" for i in range(size))


def gen_nbw(spec: GenSpec) -> NBW:
    """Seeded random NBW: state s0 is initial, every transition is drawn
    independently with the given density, and accepting states are sampled
    from the non-initial states only."""
    rng = random.Random(spec.seed)
    states = [f"s{i}" for i in range(spec.n_states)]
    edges = []
    for q in range(spec.n_states):
        for s in range(spec.alphabet_size):
            for q2 in range(spec.n_states):
                if rng.random() < spec.density:
                    edges.append((q, s, q2))
    accepting = [q for q in range(1, spec.n_states)
                 if rng.random() < spec.accepting_fraction]
    return NBW(_alphabet(spec.alphabet_size), states, [0], accepting, edges)


def enumerate_lassos(alphabet, max_u: int, max_v: int) -> list[Lasso]:
    """All lassos with |u| <= max_u and 1 <= |v| <= max_v, shortest first:
    each prefix of :func:`_grid`, in order, with each of its periods.

    Each call returns a fresh list of the same frozen lassos, built once
    per (alphabet, max_u, max_v).
    """
    return list(_lassos(tuple(alphabet), max_u, max_v))


@lru_cache(maxsize=16)
def _lassos(syms: tuple[str, ...], max_u: int, max_v: int) -> tuple[Lasso, ...]:
    prefixes, periods = _grid(syms, max_u, max_v)
    return tuple(Lasso(u, v) for u in prefixes for v in periods)


@lru_cache(maxsize=16)
def _grid(syms: tuple[str, ...], max_u: int, max_v: int) -> tuple[tuple, tuple]:
    """The prefixes with |u| <= max_u and the periods with 1 <= |v| <= max_v,
    each shortest first, then in symbol order: the axes of every check's
    verdict rows, and so the order of its records."""
    if max_u < 0:
        raise ValueError("max_u must be at least 0")
    if max_v < 1:
        raise ValueError("max_v must be at least 1")
    return (tuple(w for n in range(max_u + 1) for w in product(syms, repeat=n)),
            tuple(w for n in range(1, max_v + 1) for w in product(syms, repeat=n)))


def _require_payloads(drw: DRW, kind: type, need: str):
    """Raise ValueError(`need`) unless `drw` carries one `kind` payload per
    state."""
    if (drw.payloads is None or len(drw.payloads) != len(drw.states)
            or not all(isinstance(p, kind) for p in drw.payloads)):
        raise ValueError(need)


# -- invariant sweeps ----------------------------------------------------------


def _level_faults(a: NBW, lab, prev_width: int | None, m: Macrostate) -> list[str]:
    """How the macrostate `m` differs from the labeled level `lab`, field by
    field, then the faults of its level (`prev_width` None at the root)."""
    pl, msgs = lab.base, []
    if m.classes != pl.classes:
        msgs.append(f"macrostate classes {m.classes} != levels {pl.classes}")
    if m.labels != lab.lbl:
        msgs.append(f"macrostate labels {m.labels} != level labels {lab.lbl}")
    if m.cousin != lab.cousin:
        msgs.append("macrostate cousin order differs from the level order")
    if m.good != lab.good:
        msgs.append(f"macrostate good {sorted(m.good)} != level {sorted(lab.good)}")
    if m.bad != lab.bad:
        msgs.append(f"macrostate bad {sorted(m.bad)} != level {sorted(lab.bad)}")
    return msgs + check_level(a, pl, prev_width)


def _sweep_step(a: NBW, drw: DRW, view, symbol: str):
    """The view after one more symbol, and the faults of that step.

    A view is (labeled level, DRW state, walk): the run-DAG level is the
    labeled level's `base`, and the walk is a tuple of (label, ranks) pairs.
    """
    lab, q, walk = view
    pl2 = step_level(a, lab.base, symbol)
    lab2 = next_labeled(lab, pl2, a.n)
    q2 = drw.trans[q][a.sym_id(symbol)]
    # a label's walk that has emptied stays empty: drop its entry
    walk2 = {g: row for g, ranks in walk
             if (row := frozenset(j for j, p in enumerate(pl2.parents)
                                  if p in ranks))}
    msgs = []
    # per-level injectivity of the global labeling
    if len(set(lab2.gl)) != len(lab2.gl):
        msgs.append(f"duplicate global labels {lab2.gl}")
    # a surviving label must have been in use on the previous level
    for g in lab2.gl:
        if g < lab.gl_watermark and g not in lab.gl:
            msgs.append(f"label {g} reappeared after vanishing")
    # an inherited label sits on the minimal class of its walk
    for j, g in enumerate(lab2.gl):
        lowest = min(walk2.get(g, ()), default=None)
        if g < lab.gl_watermark and lowest != j:
            msgs.append(f"label {g} sits on class {j}, descendant walk "
                        f"says {lowest}")
    # a class has inherited labels iff it is some walk's minimum
    lmd_hits = {min(r) for r in walk2.values()}
    inherited = {j for j, g in enumerate(lab2.gl) if g < lab.gl_watermark}
    if lmd_hits != inherited:
        msgs.append(f"label-carrying classes {sorted(lmd_hits)} != "
                    f"classes with inherited labels {sorted(inherited)}")
    # a fresh label's walk starts at the first class that carries it
    for j, g in enumerate(lab2.gl):
        if g >= lab.gl_watermark:
            walk2.setdefault(g, frozenset({j}))
    # the whole cousin order is the descendant walk of each label
    pairs = {(j, b) for j, g in enumerate(lab2.gl) for b in walk2.get(g, ())}
    if pairs != lab2.cousin:
        msgs.append(f"cousin pairs {sorted(lab2.cousin ^ pairs)} differ "
                    "from the descendant walk")
    msgs += _level_faults(a, lab2, len(lab.base.classes), drw.payloads[q2])
    return (lab2, q2, tuple(walk2.items())), msgs


def sweep_invariants(a: NBW, depth: int = 4, drw: DRW | None = None) -> list[str]:
    """Walk every word up to `depth` and cross-check all three views.

    Along each word the labeled levels, whose bases are the run-DAG levels,
    are extended together with a walk of the classes descending from each
    label's birth class, while the word is followed through the transitions
    of `drw`, the profile DRW of `a` (built here when None).
    The sweep checks each level once, where it makes it, with
    :func:`check_level`; the label laws (per-level injectivity,
    persistence, each inherited label on the minimal class of its walk, the
    empty-labels equivalence); the whole cousin order against the walk; and
    that the payload of the DRW state the word reaches equals the
    independently computed level view, field by field.  So it checks the
    payloads and transitions of the DRW that the lassos judge.

    A step's view and faults depend only on the view it starts from and its
    symbol (:func:`_sweep_step`), so each distinct step is checked once per
    call, and every word that ends on it gets its faults under its own name.
    """
    if depth < 0:
        raise ValueError("sweep depth must be at least 0")
    if drw is None:
        drw = determinize_profile(a)
    if drw.alphabet != a.alphabet:
        raise ValueError(f"DRW alphabet {drw.alphabet} is not the automaton's "
                         f"{a.alphabet}")
    _require_payloads(drw, Macrostate, "the sweep needs a DRW with one "
                      "macrostate payload per state")
    lab0 = initial_labeled(initial_level(a))
    out = [f"word=<empty>: {msg}"
           for msg in _level_faults(a, lab0, None, drw.payloads[drw.initial])]
    view0 = (lab0, drw.initial, ((0, frozenset({0})),))
    # The words still to check, each with the view of the word it extends,
    # popped so that a word is checked just before its extensions, in symbol order.
    pending = [((symbol,), view0) for symbol in reversed(a.alphabet) if depth]
    steps = {}
    while pending:
        word, view = pending.pop()
        if (key := (view, word[-1])) not in steps:
            steps[key] = _sweep_step(a, drw, *key)
        view2, msgs = steps[key]
        out.extend(f"word={'.'.join(word)}: {msg}" for msg in msgs)
        if len(word) < depth:
            pending.extend((word + (symbol,), view2)
                           for symbol in reversed(a.alphabet))
    return out


# -- three-way language checks ---------------------------------------------------


@dataclass
class CheckReport:
    """Findings and bounds of a check, over one automaton or a corpus."""

    automata: int = 0
    lassos: int = 0
    max_profile_states: int = 0
    max_safra_states: int = 0
    bounds: dict = field(default_factory=dict)
    disagreements: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.disagreements and not self.violations

    def to_json(self) -> dict:
        return {"pass": self.passed, **asdict(self)}

    def absorb(self, other: "CheckReport"):
        """Add `other`'s counts and findings; `bounds` stay this report's."""
        self.automata += other.automata
        self.lassos += other.lassos
        self.disagreements.extend(other.disagreements)
        self.violations.extend(other.violations)
        self.max_profile_states = max(self.max_profile_states, other.max_profile_states)
        self.max_safra_states = max(self.max_safra_states, other.max_safra_states)


def check_automaton(a: NBW, prefixes, periods, drw_profile: DRW,
                    drw_safra: DRW) -> CheckReport:
    """Compare the NBW oracle with both determinizations of `a` on every
    lasso ``u . v^w`` with `u` in `prefixes` and `v` in `periods`.

    Both DRWs are built by the caller; injecting another is the corruption
    hook of the mutation tests.  Returns a one-automaton
    :class:`CheckReport`, with the two DRW sizes as its state maxima, which
    :func:`cross_check` absorbs into its corpus report.  Every construction
    state is validated: each Safra tree, and each macrostate's labels and
    events, with the faults of each distinct (classes, cousin) pair of the
    profile DRW checked once and named under every state that carries it.
    A DRW without one payload of its construction per state is refused
    with a ValueError.

    The three deciders each return one verdict row per prefix, bit j for
    period j, each deciding once per rotation class of the periods (see
    :func:`automata.nbw_verdicts`), and the rows are compared prefix by
    prefix; only a prefix whose rows differ is read period by period, for
    the records, in grid order, of the lassos whose three verdicts differ.
    """
    _require_payloads(drw_profile, Macrostate, "the check needs a profile DRW "
                      "with one macrostate payload per state")
    _require_payloads(drw_safra, SafraTree, "the check needs a Safra DRW with "
                      "one Safra tree payload per state")
    res = CheckReport(automata=1, lassos=len(prefixes) * len(periods),
                      max_profile_states=len(drw_profile.states),
                      max_safra_states=len(drw_safra.states))
    preorders = {}  # (classes, cousin) -> their faults, for this DRW only
    for i, m in enumerate(drw_profile.payloads):
        for msg in validate_macrostate(a, m, preorders):
            res.violations.append(f"macrostate {i}: {msg}")
    for i, t in enumerate(drw_safra.payloads):
        for msg in validate_safra_tree(a, t):
            res.violations.append(f"safra tree {i}: {msg}")
    rows = zip(nbw_verdicts(a, prefixes, periods),
               drw_verdicts(drw_profile, prefixes, periods),
               drw_verdicts(drw_safra, prefixes, periods))
    for u, row in zip(prefixes, rows):
        if len(set(row)) == 1:
            continue
        for j, v in enumerate(periods):
            bits = [bool(r >> j & 1) for r in row]
            if len(set(bits)) != 1:
                verdicts = dict(zip(("nbw", "profile", "safra"), bits))
                res.disagreements.append({"lasso": str(Lasso(u, v)), "verdicts": verdicts})
    return res


def cross_check(spec: GenSpec, max_u: int, max_v: int, count: int,
                max_states: int = 10 ** 6, sweep_depth: int = 4) -> CheckReport:
    """Generate `count` automata from consecutive seeds and check them all.

    Per automaton: the profile DRW, built once; the invariant sweep along
    its transitions; the Safra DRW; then :func:`check_automaton` on both
    DRWs over the lasso grid of `max_u` and `max_v`.  Their findings are
    tagged with the seed and absorbed into the report.  A construction that
    hits `max_states` ends the automaton's check with one violation, after
    the sweep's findings when the profile DRW was built.  Failures become
    report content, never exceptions.
    """
    report = CheckReport(bounds={
        "n_states": spec.n_states, "alphabet_size": spec.alphabet_size,
        "density": spec.density, "accepting_fraction": spec.accepting_fraction,
        "base_seed": spec.seed, "count": count,
        "max_u": max_u, "max_v": max_v,
        "max_states": max_states, "sweep_depth": sweep_depth,
    })
    if count < 1:
        raise ValueError("count must be at least 1")
    prefixes, periods = _grid(_alphabet(spec.alphabet_size), max_u, max_v)
    for seed in range(spec.seed, spec.seed + count):
        aut = normalize(gen_nbw(replace(spec, seed=seed)))
        swept = []
        try:
            dp = determinize_profile(aut, max_states)
            swept = sweep_invariants(aut, sweep_depth, dp)
            ds = determinize_safra(aut, max_states)
        except StateLimitExceeded as err:
            one = CheckReport(automata=1,
                              violations=[f"determinization aborted: {err}"])
        else:
            one = check_automaton(aut, prefixes, periods, dp, ds)
        one.violations = [f"seed={seed}: {msg}" for msg in swept + one.violations]
        one.disagreements = [{"seed": seed, "automaton": format_nbw(aut), **rec}
                             for rec in one.disagreements]
        report.absorb(one)
    return report
