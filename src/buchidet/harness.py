"""Randomized and exhaustive cross-validation of the two determinizers.

Three deciders answer every membership query: the NBW cycle oracle, the
macrostate DRW, and the Safra DRW.  Any disagreement on any enumerated lasso
is a genuine counterexample, replayable from the seed.  Agreement on bounded
lassos is evidence, not proof; every report records the bounds it used.
"""

import random
import string
from dataclasses import dataclass, field, replace

from .automata import NBW, Lasso, drw_run_eval, format_nbw, nbw_member, normalize
from .determinize import determinize_profile, initial_macrostate, sigma_successor, \
    validate_macrostate
from .explore import StateLimitExceeded
from .labeling import initial_labeled, lsf_classes, next_labeled
from .run_dag import check_level_invariants, initial_level, step_level
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


def gen_nbw(spec: GenSpec) -> NBW:
    """Seeded random NBW: state s0 is initial, every transition is drawn
    independently with the given density, and accepting states are sampled
    from the non-initial states only."""
    rng = random.Random(spec.seed)
    states = [f"s{i}" for i in range(spec.n_states)]
    alphabet = [string.ascii_lowercase[i] if i < 26 else f"x{i}"
                for i in range(spec.alphabet_size)]
    edges = []
    for q in range(spec.n_states):
        for s in range(spec.alphabet_size):
            for q2 in range(spec.n_states):
                if rng.random() < spec.density:
                    edges.append((q, s, q2))
    accepting = [q for q in range(1, spec.n_states)
                 if rng.random() < spec.accepting_fraction]
    return NBW(alphabet, states, [0], accepting, edges)


def _words(alphabet, lengths):
    for length in lengths:
        stack = [()]
        for _ in range(length):
            stack = [w + (s,) for w in stack for s in alphabet]
        yield from stack


def enumerate_lassos(alphabet, max_u: int, max_v: int) -> list[Lasso]:
    """All lassos with |u| <= max_u and 1 <= |v| <= max_v, shortest first."""
    if max_u < 0:
        raise ValueError("max_u must be at least 0")
    if max_v < 1:
        raise ValueError("max_v must be at least 1")
    syms = tuple(alphabet)
    prefixes = list(_words(syms, range(max_u + 1)))
    periods = list(_words(syms, range(1, max_v + 1)))
    return [Lasso(u, v) for u in prefixes for v in periods]


# -- invariant sweeps ----------------------------------------------------------


def sweep_invariants(a: NBW, depth: int = 4) -> list[str]:
    """Walk every word up to `depth` and cross-check all three views.

    Along each word the run-DAG levels, the labeled levels, and the
    macrostate sequence are extended in lockstep.  The sweep checks the level
    structure, the label laws (per-level injectivity, persistence, the
    nephew shortcut against a brute-force descendant walk, the empty-labels
    equivalence), and that the macrostate equals the independently computed
    level view, field by field.
    """
    if depth < 0:
        raise ValueError("sweep depth must be at least 0")
    out = []
    syms = range(len(a.alphabet))

    def note(word, msg):
        out.append(f"word={'.'.join(word) or '<empty>'}: {msg}")

    pl0 = initial_level(a)
    lab0 = initial_labeled(pl0)
    m0 = initial_macrostate(a)
    desc0 = {0: frozenset({0})}

    def compare(word, pl, lab, m):
        if m.classes != pl.classes:
            note(word, f"macrostate classes {m.classes} != levels {pl.classes}")
        if m.labels != lab.lbl:
            note(word, f"macrostate labels {m.labels} != level labels {lab.lbl}")
        if m.cousin != lab.cousin:
            note(word, "macrostate cousin order differs from the level order")
        if m.good != lab.good:
            note(word, f"macrostate good {sorted(m.good)} != level {sorted(lab.good)}")
        if m.bad != lab.bad:
            note(word, f"macrostate bad {sorted(m.bad)} != level {sorted(lab.bad)}")
        for j, group in enumerate(pl.classes):
            bits = {1 if a.is_accepting(q) else 0 for q in group}
            if bits != {pl.f_class[j]}:
                note(word, f"class {j} acceptance bit is inconsistent")

    compare((), pl0, lab0, m0)

    def extend(word, levels, lab, m, desc, budget):
        for s in syms:
            symbol = a.alphabet[s]
            word2 = word + (symbol,)
            pl2 = step_level(a, levels[-1], symbol)
            lab2 = next_labeled(lab, pl2, a.n)
            m2 = sigma_successor(a, m, symbol)
            k2 = len(pl2.classes)
            desc2 = {lab_id: frozenset(j for j in range(k2)
                                       if pl2.parents[j] in ranks)
                     for lab_id, ranks in desc.items()}

            # per-level injectivity of the global labeling
            if len(set(lab2.gl)) != len(lab2.gl):
                note(word2, f"duplicate global labels {lab2.gl}")
            # a surviving label must have been in use on the previous level
            for g in lab2.gl:
                if g < lab.gl_watermark and g not in lab.gl:
                    note(word2, f"label {g} reappeared after vanishing")
            # nephew shortcut vs the explicit descendant walk
            lsf = lsf_classes(lab, pl2)
            for a_idx, g in enumerate(lab.gl):
                ranks = desc2.get(g, frozenset())
                expect = min(ranks) if ranks else None
                if lsf[a_idx] != expect:
                    note(word2, f"nephew of class {a_idx} is {lsf[a_idx]}, "
                                f"descendant walk says {expect}")
            # a class has valid labels iff it has uncles
            lmd_hits = {min(r) for r in desc2.values() if r}
            uncle_hits = {j for j in lsf if j is not None}
            if lmd_hits != uncle_hits:
                note(word2, f"label-carrying classes {sorted(lmd_hits)} != "
                            f"uncle-backed classes {sorted(uncle_hits)}")

            for g in lab2.gl:
                if g >= lab.gl_watermark:
                    desc2[g] = frozenset({lab2.gl.index(g)})

            compare(word2, pl2, lab2, m2)
            levels2 = levels + [pl2]
            if budget > 1:
                extend(word2, levels2, lab2, m2, desc2, budget - 1)
            else:
                for msg in check_level_invariants(levels2, a.n):
                    note(word2, msg)

    if depth > 0:
        extend((), [pl0], lab0, m0, desc0, depth)
    return out


# -- three-way language checks ---------------------------------------------------


@dataclass
class AutomatonCheck:
    """Result of checking one automaton against the lasso suite."""

    lassos: int = 0
    disagreements: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    profile_states: int = 0
    safra_states: int = 0


def check_automaton(a: NBW, max_u: int, max_v: int, max_states: int = 10 ** 6,
                    drw_profile=None, drw_safra=None) -> AutomatonCheck:
    """Compare the NBW oracle with both determinizations on all bounded lassos.

    Prebuilt DRWs may be injected, which is also the corruption hook used by
    the mutation tests.  Every explored construction state is validated.
    """
    res = AutomatonCheck()
    lassos = enumerate_lassos(a.alphabet, max_u, max_v)
    try:
        if drw_profile is None:
            drw_profile = determinize_profile(a, max_states)
        if drw_safra is None:
            drw_safra = determinize_safra(a, max_states)
    except StateLimitExceeded as err:
        res.violations.append(f"determinization aborted: {err}")
        return res
    res.profile_states = len(drw_profile.states)
    res.safra_states = len(drw_safra.states)
    if drw_profile.payloads:
        for i, m in enumerate(drw_profile.payloads):
            for msg in validate_macrostate(a, m):
                res.violations.append(f"macrostate {i}: {msg}")
    if drw_safra.payloads:
        for i, t in enumerate(drw_safra.payloads):
            for msg in validate_safra_tree(a, t):
                res.violations.append(f"safra tree {i}: {msg}")
    for w in lassos:
        res.lassos += 1
        verdicts = {"nbw": nbw_member(a, w),
                    "profile": drw_run_eval(drw_profile, w),
                    "safra": drw_run_eval(drw_safra, w)}
        if len(set(verdicts.values())) != 1:
            res.disagreements.append({"lasso": str(w), "verdicts": verdicts})
    return res


@dataclass
class CheckReport:
    """Aggregate over a corpus of seeded automata."""

    automata: int = 0
    lassos: int = 0
    disagreements: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    max_profile_states: int = 0
    max_safra_states: int = 0
    bounds: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.disagreements and not self.violations

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "automata": self.automata,
            "lassos": self.lassos,
            "max_profile_states": self.max_profile_states,
            "max_safra_states": self.max_safra_states,
            "bounds": dict(self.bounds),
            "disagreements": list(self.disagreements),
            "violations": list(self.violations),
        }

    def absorb(self, other: "CheckReport"):
        self.automata += other.automata
        self.lassos += other.lassos
        self.disagreements.extend(other.disagreements)
        self.violations.extend(other.violations)
        self.max_profile_states = max(self.max_profile_states, other.max_profile_states)
        self.max_safra_states = max(self.max_safra_states, other.max_safra_states)


def cross_check(spec: GenSpec, max_u: int, max_v: int, count: int,
                max_states: int = 10 ** 6, sweep_depth: int = 4) -> CheckReport:
    """Generate `count` automata from consecutive seeds and check them all.

    Per automaton: the invariant sweep, both determinizations with their
    per-state validation, and the three-way verdicts on every enumerated
    lasso.  Failures become report content, never exceptions.
    """
    report = CheckReport(bounds={
        "n_states": spec.n_states, "alphabet_size": spec.alphabet_size,
        "density": spec.density, "accepting_fraction": spec.accepting_fraction,
        "base_seed": spec.seed, "count": count,
        "max_u": max_u, "max_v": max_v,
        "max_states": max_states, "sweep_depth": sweep_depth,
    })
    for i in range(count):
        sub = replace(spec, seed=spec.seed + i)
        aut = normalize(gen_nbw(sub))
        report.automata += 1
        for msg in sweep_invariants(aut, sweep_depth):
            report.violations.append(f"seed={sub.seed}: {msg}")
        chk = check_automaton(aut, max_u, max_v, max_states)
        report.lassos += chk.lassos
        report.max_profile_states = max(report.max_profile_states, chk.profile_states)
        report.max_safra_states = max(report.max_safra_states, chk.safra_states)
        for msg in chk.violations:
            report.violations.append(f"seed={sub.seed}: {msg}")
        for rec in chk.disagreements:
            report.disagreements.append({"seed": sub.seed,
                                         "automaton": format_nbw(aut), **rec})
    return report
