"""Randomized and exhaustive cross-validation of the two determinizers.

Three deciders answer every membership query: the NBW cycle oracle, the
macrostate DRW, and the Safra DRW.  The NBW settles a check's lassos once
per period, as the mask of states from which some run accepts it, met by
the start mask after each prefix.  A DRW's verdict depends only on the
state after the prefix and the period, and all the period starts of one
walk share it: each DRW walks a period on from a state only if no earlier
walk on that period passed through it.  Any disagreement is a genuine
counterexample, replayable from the seed.  Bounded agreement is evidence,
not proof; every report records the bounds it used.

The invariant sweep rebuilds each word's macrostate from the run-DAG side
and compares it with the payload of the state the word reaches in the
profile DRW, walking the DRW's transitions: the same DRW whose lasso
verdicts the check compares.  A step of the sweep depends only on where it
starts, so it checks each distinct step once and names its faults under
every word that takes it.
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
from .safra import determinize_safra, validate_safra_tree


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


def _alphabet(size: int) -> list[str]:
    return [string.ascii_lowercase[i] if i < 26 else f"x{i}" for i in range(size)]


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
    """All lassos with |u| <= max_u and 1 <= |v| <= max_v, shortest first.

    Each call returns a fresh list of the same frozen lassos, built once
    per (alphabet, max_u, max_v).
    """
    if max_u < 0:
        raise ValueError("max_u must be at least 0")
    if max_v < 1:
        raise ValueError("max_v must be at least 1")
    return list(_lassos(tuple(alphabet), max_u, max_v))


@lru_cache(maxsize=16)
def _lassos(syms: tuple[str, ...], max_u: int, max_v: int) -> tuple[Lasso, ...]:
    prefixes = [w for n in range(max_u + 1) for w in product(syms, repeat=n)]
    periods = [w for n in range(1, max_v + 1) for w in product(syms, repeat=n)]
    return tuple(Lasso(u, v) for u in prefixes for v in periods)


# -- invariant sweeps ----------------------------------------------------------


def sweep_invariants(a: NBW, depth: int = 4, drw: DRW | None = None) -> list[str]:
    """Walk every word up to `depth` and cross-check all three views.

    Along each word the run-DAG levels and the labeled levels are extended
    in lockstep, together with an explicit walk of the classes descending
    from each label's birth class, while the word is followed through the
    transitions of `drw`, the profile DRW of `a` (built here when None).
    The sweep checks each level once, where it makes it, with
    :func:`check_level`; the label laws (per-level injectivity,
    persistence, each inherited label on the minimal class of its walk, the
    empty-labels equivalence); the whole cousin order against the walk; and
    that the payload of the DRW state the word reaches equals the
    independently computed level view, field by field.  So it checks the
    payloads and transitions of the DRW that the lassos judge.

    An edge's successor views and faults depend only on where it starts:
    the level, the labeled level, the DRW state, the walk and the symbol.
    So each distinct edge is checked once per call, and every word that
    ends on it gets its faults, under its own name and in the same order.
    """
    if depth < 0:
        raise ValueError("sweep depth must be at least 0")
    if drw is None:
        drw = determinize_profile(a)
    if drw.alphabet != a.alphabet:
        raise ValueError(f"DRW alphabet {drw.alphabet} is not the automaton's "
                         f"{a.alphabet}")
    if (drw.payloads is None or len(drw.payloads) != len(drw.states)
            or not all(isinstance(m, Macrostate) for m in drw.payloads)):
        raise ValueError("the sweep needs a DRW with one macrostate payload "
                         "per state")
    trans, payloads = drw.trans, drw.payloads
    out = []

    def note(word, msgs):
        name = ".".join(word) or "<empty>"
        out.extend(f"word={name}: {msg}" for msg in msgs)

    def compare(pl, prev_width, lab, m):
        msgs = []
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

    def edge(pl, lab, q, desc, symbol):
        """The views after one more symbol, and the faults of that step.

        `desc` and the returned walk are tuples of (label, ranks) pairs.
        """
        pl2 = step_level(a, pl, symbol)
        lab2 = next_labeled(lab, pl2, a.n)
        q2 = trans[q][a.sym_id(symbol)]
        k2 = len(pl2.classes)
        # a label's walk that has emptied stays empty: drop its entry
        desc2 = {lab_id: row for lab_id, ranks in desc
                 if (row := frozenset(j for j in range(k2)
                                      if pl2.parents[j] in ranks))}
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
            lowest = min(desc2.get(g, ()), default=None)
            if g < lab.gl_watermark and lowest != j:
                msgs.append(f"label {g} sits on class {j}, descendant walk "
                            f"says {lowest}")
        # a class has inherited labels iff it is some walk's minimum
        lmd_hits = {min(r) for r in desc2.values()}
        inherited = {j for j, g in enumerate(lab2.gl) if g < lab.gl_watermark}
        if lmd_hits != inherited:
            msgs.append(f"label-carrying classes {sorted(lmd_hits)} != "
                        f"classes with inherited labels {sorted(inherited)}")

        for g in lab2.gl:
            if g >= lab.gl_watermark:
                desc2[g] = frozenset({lab2.gl.index(g)})
        # the whole cousin order is the descendant walk of each label
        walk = {(j, b) for j, g in enumerate(lab2.gl) for b in desc2.get(g, ())}
        if walk != lab2.cousin:
            msgs.append(f"cousin pairs {sorted(lab2.cousin ^ walk)} differ "
                        "from the descendant walk")
        msgs += compare(pl2, len(pl.classes), lab2, payloads[q2])
        return (pl2, lab2, q2, tuple(desc2.items())), msgs

    pl0 = initial_level(a)
    lab0 = initial_labeled(pl0)
    note((), compare(pl0, None, lab0, payloads[drw.initial]))

    # The words still to check, each with the views, DRW state and walk of
    # the word it extends, popped so that a word is checked just before its
    # extensions, in symbol order.
    pending = []
    edges = {}

    def extend(word, views):
        if len(word) < depth:
            for symbol in reversed(a.alphabet):
                pending.append((word + (symbol,), views))

    extend((), (pl0, lab0, drw.initial, ((0, frozenset({0})),)))
    while pending:
        word2, views = pending.pop()
        key = (*views, word2[-1])
        if key not in edges:
            edges[key] = edge(*key)
        views2, msgs = edges[key]
        note(word2, msgs)
        extend(word2, views2)
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


def check_automaton(a: NBW, lassos: list[Lasso], max_states: int = 10 ** 6,
                    drw_profile=None) -> CheckReport:
    """Compare the NBW oracle with both determinizations on the given lassos.

    Returns a one-automaton :class:`CheckReport`, with the two DRW sizes as
    its state maxima, which :func:`cross_check` absorbs into its corpus
    report.  A prebuilt profile DRW may be injected, which is also the
    corruption hook used by the mutation tests.  Every explored construction
    state is validated.
    """
    res = CheckReport(automata=1)
    try:
        if drw_profile is None:
            drw_profile = determinize_profile(a, max_states)
        drw_safra = determinize_safra(a, max_states)
    except StateLimitExceeded as err:
        res.violations.append(f"determinization aborted: {err}")
        return res
    res.max_profile_states = len(drw_profile.states)
    res.max_safra_states = len(drw_safra.states)
    if drw_profile.payloads:
        for i, m in enumerate(drw_profile.payloads):
            for msg in validate_macrostate(a, m):
                res.violations.append(f"macrostate {i}: {msg}")
    if drw_safra.payloads:
        for i, t in enumerate(drw_safra.payloads):
            for msg in validate_safra_tree(a, t):
                res.violations.append(f"safra tree {i}: {msg}")
    res.lassos = len(lassos)
    nv = nbw_verdicts(a, lassos)
    pv = drw_verdicts(drw_profile, lassos)
    sv = drw_verdicts(drw_safra, lassos)
    if nv != pv or pv != sv:
        for w, *row in zip(lassos, nv, pv, sv):
            if len(set(row)) != 1:
                verdicts = dict(zip(("nbw", "profile", "safra"), row))
                res.disagreements.append({"lasso": str(w), "verdicts": verdicts})
    return res


def cross_check(spec: GenSpec, max_u: int, max_v: int, count: int,
                max_states: int = 10 ** 6, sweep_depth: int = 4) -> CheckReport:
    """Generate `count` automata from consecutive seeds and check them all.

    Per automaton: the profile DRW, built once; the invariant sweep along
    its transitions; then :func:`check_automaton` on the same DRW.  Their
    findings are tagged with the seed and absorbed into the report.  A
    profile construction that hits `max_states` leaves one violation and
    no sweep.  Failures become report content, never exceptions.
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
    lassos = enumerate_lassos(_alphabet(spec.alphabet_size), max_u, max_v)
    for seed in range(spec.seed, spec.seed + count):
        aut = normalize(gen_nbw(replace(spec, seed=seed)))
        try:
            dp = determinize_profile(aut, max_states)
        except StateLimitExceeded as err:
            one = CheckReport(automata=1,
                              violations=[f"determinization aborted: {err}"])
        else:
            swept = sweep_invariants(aut, sweep_depth, dp)
            one = check_automaton(aut, lassos, max_states, drw_profile=dp)
            one.violations = swept + one.violations
        one.violations = [f"seed={seed}: {msg}" for msg in one.violations]
        one.disagreements = [{"seed": seed, "automaton": format_nbw(aut), **rec}
                             for rec in one.disagreements]
        report.absorb(one)
    return report
