"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` and then
runs passes over a fixed job list.  A pass is a closed loop: the next job
starts when the previous one returns.  ``run_pass`` calls the program the way
its users do and times every job; ``traced_pass`` makes the same calls
through the modules' public functions, with spans around them.  Both return
the pass's exact counts, which the runner compares across passes and across
interpreters started with different hash seeds.

* ``corpus``: the acceptance recipe through ``harness.cross_check``.  It is
  the system's own judge of correctness; its DRWs are tiny, so membership,
  the invariant sweep and validation dominate.
* ``determinize``: command-line ``determinize`` jobs on fixed automata whose
  state ids are permuted and renamed by the seed, which keeps every DRW
  isomorphic.  Construction and ``explore`` do nearly all the work; profile
  steps are many and cheap, Safra steps few and costly.
* ``membership``: every short lasso against fixed 16-state automata whose
  states the seed permutes and renames, decided by ``nbw_member`` and by
  ``drw_run_eval`` on the automaton's Safra DRW.  The product graphs are
  large, so the quadratic cycle search dominates, and ``determinize_profile``
  is not on the path.
"""

import hashlib
from array import array
import os
import random
import re
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import buchidet.cli
from buchidet import (DRW, NBW, GenSpec, RabinCondition, cross_check,
                      determinize_profile, determinize_safra, drw_run_eval,
                      enumerate_lassos, format_drw, format_nbw, gen_nbw,
                      initial_macrostate, nbw_member, normalize, parse_drw,
                      safra_initial, safra_successor, sigma_successor,
                      sweep_invariants)
from buchidet.determinize import validate_macrostate
from buchidet.explore import StateLimitExceeded, explore
from buchidet.hoa import format_hoa
from buchidet.safra import validate_safra_tree

from tracing import Tracer

STATE_CAP = 10 ** 6


@dataclass
class Pass:
    """What one pass did.  `counts` are exact and must repeat; `layer_counts`
    are exact counts only the traced pass can see."""

    jobs: array = field(default_factory=lambda: array("d"))  # start, end, ...
    counts: dict = field(default_factory=dict)
    layer_counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    rows: list = field(default_factory=list)        # exact counts per job


def _tally(layer_counts: dict, kind: str, drw: DRW):
    """Add a construction's exact size to the traced counts."""
    c = layer_counts.setdefault(kind, {"states": 0, "transitions": 0,
                                       "pairs": 0, "label_high_water": 0})
    c["states"] += len(drw.states)
    c["transitions"] += len(drw.states) * len(drw.alphabet)
    c["pairs"] += len(drw.acceptance)
    if kind == "profile":
        high = max(max(m.labels, default=0) for m in drw.payloads)
        c["label_high_water"] = max(c["label_high_water"], high)


def _replay(tr: Tracer, a: NBW, drw: DRW, kind: str) -> list:
    """Re-explore `a` with traced public successor functions.  This splits
    construction time into successor steps and ``explore`` bookkeeping; the
    replay must reproduce the DRW's payloads in order."""
    if kind == "profile":
        init, step = initial_macrostate(a), tr.hot("determinize.sigma_successor",
                                                   sigma_successor)
    else:
        init, step = safra_initial(a), tr.hot("safra.safra_successor",
                                              safra_successor)
    syms = a.alphabet
    with tr.span("explore.explore"):
        states, _ = explore(init, lambda x, s: step(a, x, syms[s]),
                            len(syms), STATE_CAP)
    if tuple(states) != drw.payloads:
        return [f"{kind} replay does not reproduce the DRW payloads"]
    return []


def _permuted(a: NBW, rng: random.Random) -> NBW:
    """`a` with its state ids shuffled and its states renamed: the same
    language and isomorphic DRWs, from a different input file."""
    perm = list(range(a.n))
    rng.shuffle(perm)
    names = [None] * a.n
    for q in range(a.n):
        names[perm[q]] = f"q{rng.randrange(10 ** 6)}x{q}"
    return NBW(a.alphabet, names, [perm[q] for q in a.initial],
               [perm[q] for q in a.accepting],
               [(perm[s], sym, perm[d]) for s, sym, d in a.edges])


# -- corpus ----------------------------------------------------------------------


class Corpus:
    """``GenSpec(n, 2, 0.5, 0.3, base + 1000·n + i)`` for n = 2..5 and
    i < `count_each`, with base = seed·10000; every lasso with |u| ≤ 3 and
    |v| ≤ 4 (450 per automaton) and sweep depth 4.  Sizes are interleaved
    so that any prefix of the pass has the corpus's size mix."""

    name = "corpus"
    setup_reps = 10
    SIZES = (2, 3, 4, 5)
    MAX_U, MAX_V, DEPTH = 3, 4, 4
    LASSOS = 450

    def __init__(self, seed: int, count_each: int = 150):
        base = seed * 10_000
        self.specs = [GenSpec(n, 2, 0.5, 0.3, base + 1000 * n + i)
                      for i in range(count_each) for n in self.SIZES]

    def setup(self, tr):
        automata = [tr.call("automata.normalize", normalize,
                            tr.call("harness.gen_nbw", gen_nbw, spec))
                    for spec in self.specs]
        return {"automata": automata,
                "digest": _digest(format_nbw(a) for a in automata)}

    def run_pass(self, inputs) -> Pass:
        res, per = Pass(), []
        for spec in self.specs:
            start = perf_counter()
            try:
                rep = cross_check(spec, self.MAX_U, self.MAX_V, 1,
                                  max_states=STATE_CAP, sweep_depth=self.DEPTH)
            except Exception as err:
                _failed(res, f"seed={spec.seed}", err)
                continue
            finally:
                res.jobs.extend((start, perf_counter()))
            per.append([spec.seed, rep.lassos, len(rep.disagreements),
                        len(rep.violations), rep.max_profile_states,
                        rep.max_safra_states])
        res.rows = per
        return res

    def traced_pass(self, inputs, tr: Tracer) -> Pass:
        """``cross_check``'s per-automaton loop, rebuilt from public calls."""
        res, per = Pass(), []
        hot = {"member": tr.hot("automata.nbw_member", nbw_member),
               "run": tr.hot("automata.drw_run_eval", drw_run_eval),
               "macro": tr.hot("determinize.validate_macrostate",
                               validate_macrostate),
               "tree": tr.hot("safra.validate_safra_tree", validate_safra_tree)}
        for spec, a in zip(self.specs, inputs["automata"]):
            start = perf_counter()
            try:
                with tr.span("corpus.automaton"):
                    violations = len(tr.call("harness.sweep_invariants",
                                             sweep_invariants, a, self.DEPTH))
                    row = self._traced_check(tr, a, hot, res)
            except Exception as err:
                _failed(res, f"seed={spec.seed}", err)
                continue
            finally:
                res.jobs.extend((start, perf_counter()))
            row[2] += violations
            per.append([spec.seed] + row)
        res.layer_counts["sweep_words"] = len(per) * sum(
            2 ** k for k in range(1, self.DEPTH + 1))
        res.rows = per
        return res

    def _traced_check(self, tr, a, hot, res):
        """``check_automaton``, step by step."""
        try:
            dp = tr.call("determinize.determinize_profile",
                         determinize_profile, a, STATE_CAP)
            ds = tr.call("safra.determinize_safra", determinize_safra, a, STATE_CAP)
        except StateLimitExceeded:
            return [0, 0, 1, 0, 0]
        _tally(res.layer_counts, "profile", dp)
        _tally(res.layer_counts, "safra", ds)
        res.failures += _replay(tr, a, dp, "profile") + _replay(tr, a, ds, "safra")
        violations = sum(len(hot["macro"](a, m)) for m in dp.payloads)
        violations += sum(len(hot["tree"](a, t)) for t in ds.payloads)
        lassos = tr.call("harness.enumerate_lassos", enumerate_lassos,
                         a.alphabet, self.MAX_U, self.MAX_V)
        member, run = hot["member"], hot["run"]
        disagreements = 0
        for w in lassos:
            x, y, z = member(a, w), run(dp, w), run(ds, w)
            if not x == y == z:
                disagreements += 1
        return [len(lassos), disagreements, violations,
                len(dp.states), len(ds.states)]

    def check(self, inputs, res: Pass):
        """Every automaton must pass with exactly 450 lassos."""
        per = res.rows
        for seed, lassos, disagreements, violations, _, _ in per:
            if disagreements or violations or lassos != self.LASSOS:
                res.failures.append(
                    f"seed={seed}: lassos={lassos} disagreements="
                    f"{disagreements} violations={violations}")
        res.counts = {
            "inputs": inputs["digest"], "automata": len(per),
            "lassos": sum(r[1] for r in per),
            "disagreements": sum(r[2] for r in per),
            "violations": sum(r[3] for r in per),
            "profile_states": sum(r[4] for r in per),
            "safra_states": sum(r[5] for r in per),
            "per_automaton": per,
        }


# -- determinize ------------------------------------------------------------------


def read_hoa(text: str) -> DRW:
    """Read back the HOA subset that ``format_hoa`` writes: one atomic
    proposition per symbol, state-based Rabin marks."""
    head, _, body = text.partition("--BODY--\n")
    fields = dict(line.split(": ", 1) for line in head.splitlines())
    n = int(fields["States"])
    alphabet = tuple(re.findall(r'"([^"]*)"', fields["AP"]))
    k = int(fields["acc-name"].split()[1])
    trans = [[None] * len(alphabet) for _ in range(n)]
    good = [set() for _ in range(k)]
    bad = [set() for _ in range(k)]
    state = None
    for line in body.splitlines():
        if line.startswith("State: "):
            idx, _, marks = line[7:].partition(" ")
            state = int(idx)
            for mark in map(int, marks.strip("{}").split()):
                (good if mark % 2 else bad)[mark // 2].add(state)
        elif line.startswith("["):
            label, dst = line[1:].split("] ")
            sym, = (int(t) for t in label.split("&") if not t.startswith("!"))
            trans[state][sym] = int(dst)
    return DRW(alphabet, tuple(f"h{i}" for i in range(n)), int(fields["Start"]),
               tuple(map(tuple, trans)),
               RabinCondition(tuple((frozenset(g), frozenset(b))
                                    for g, b in zip(good, bad))))


class Determinize:
    """A fixed list of ``cli.main(["determinize", ...])`` jobs, each parsing
    a file, building the DRW and writing it out.  Profile jobs give 2,460 /
    5,087 / 25,980 / 1,484 states, Safra jobs 11,945 / 3,413 trees.  The seed
    only permutes and renames the input states."""

    name = "determinize"
    setup_reps = 10
    JOBS = (("profile", "native", GenSpec(8, 2, 0.3, 0.3, 777)),
            ("profile", "hoa", GenSpec(10, 2, 0.25, 0.3, 777)),
            ("profile", "native", GenSpec(10, 2, 0.25, 0.3, 778)),
            ("profile", "hoa", GenSpec(10, 2, 0.25, 0.3, 779)),
            ("safra", "hoa", GenSpec(10, 3, 0.15, 0.3, 777)),
            ("safra", "native", GenSpec(10, 3, 0.2, 0.3, 777)))
    TINY_JOBS = (("profile", "native", GenSpec(4, 2, 0.5, 0.3, 777)),
                 ("profile", "hoa", GenSpec(4, 2, 0.5, 0.3, 778)),
                 ("safra", "hoa", GenSpec(4, 3, 0.4, 0.3, 777)),
                 ("safra", "native", GenSpec(4, 2, 0.5, 0.3, 779)))
    ORACLE_U, ORACLE_V = 2, 3

    def __init__(self, seed: int, workdir: str, jobs=JOBS):
        self.seed, self.workdir, self.jobs = seed, workdir, jobs
        self.names = [f"{method}/{fmt} GenSpec({spec.n_states},"
                      f"{spec.alphabet_size},{spec.density},"
                      f"{spec.accepting_fraction},{spec.seed})"
                      for method, fmt, spec in jobs]
        self.argv = [["determinize", "--method", method,
                      "--in", os.path.join(workdir, f"in{k}.nbw"),
                      "--out", os.path.join(workdir, f"out{k}.{fmt}"),
                      "--format", fmt]
                     for k, (method, fmt, _) in enumerate(jobs)]

    def setup(self, tr):
        rng = random.Random(self.seed)
        os.makedirs(self.workdir, exist_ok=True)
        automata = []
        for argv, (_, _, spec) in zip(self.argv, self.jobs):
            a = _permuted(tr.call("harness.gen_nbw", gen_nbw, spec), rng)
            with open(argv[4], "w", encoding="utf-8") as fh:
                fh.write(format_nbw(a))
            automata.append(a)
        return {"automata": automata,
                "digest": _digest(format_nbw(a) for a in automata)}

    def run_pass(self, inputs) -> Pass:
        res = Pass()
        for name, argv in zip(self.names, self.argv):
            start = perf_counter()
            try:
                code = buchidet.cli.main(argv)
            except Exception as err:
                _failed(res, name, err)
                continue
            finally:
                res.jobs.extend((start, perf_counter()))
            if code != 0:
                res.failures.append(f"{name}: exit code {code}")
        return res

    def traced_pass(self, inputs, tr: Tracer) -> Pass:
        """The same jobs, with a span around each public function that
        ``cli.main`` calls, then a traced replay of each construction."""
        res = Pass()
        seen: dict = {}

        def keep(key, fn):
            def kept(*args):
                seen[key] = fn(*args)
                return seen[key]
            return kept

        def sized(key, fn):
            def measured(*args):
                text = fn(*args)
                res.layer_counts[key] = (res.layer_counts.get(key, 0)
                                         + len(text.encode("utf-8")))
                return text
            return measured

        cli = buchidet.cli
        patches = {
            "parse_nbw": tr.wrap("automata.parse_nbw", cli.parse_nbw),
            "normalize": keep("nbw", tr.wrap("automata.normalize", cli.normalize)),
            "determinize_profile": keep("drw", tr.wrap(
                "determinize.determinize_profile", cli.determinize_profile)),
            "determinize_safra": keep("drw", tr.wrap(
                "safra.determinize_safra", cli.determinize_safra)),
            "format_drw": sized("format_drw_bytes", tr.wrap(
                "automata.format_drw", cli.format_drw)),
            "format_hoa": sized("format_hoa_bytes", tr.wrap(
                "hoa.format_hoa", cli.format_hoa)),
        }
        saved = {name: getattr(cli, name) for name in patches}
        try:
            for name, fn in patches.items():
                setattr(cli, name, fn)
            for (kind, _, _), name, argv in zip(self.jobs, self.names, self.argv):
                seen.clear()
                start = perf_counter()
                try:
                    with tr.span("determinize.job"):
                        try:
                            code = tr.call("cli.main", cli.main, argv)
                        finally:
                            res.jobs.extend((start, perf_counter()))
                        if code == 0:
                            _tally(res.layer_counts, kind, seen["drw"])
                            res.failures += _replay(tr, seen["nbw"], seen["drw"],
                                                    kind)
                except Exception as err:
                    _failed(res, name, err)
                    continue
                if code != 0:
                    res.failures.append(f"{name}: exit code {code}")
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)
        return res

    def check(self, inputs, res: Pass):
        """Read every written DRW back, round-trip it through ``parse_drw``,
        and compare it with ``nbw_member`` on a bounded lasso set."""
        per_job = []
        for k, (name, argv, a) in enumerate(zip(self.names, self.argv,
                                                inputs["automata"])):
            kind, fmt, _ = self.jobs[k]
            try:
                with open(argv[6], "rb") as fh:
                    raw = fh.read()
                text = raw.decode("utf-8")
                d = read_hoa(text) if fmt == "hoa" else parse_drw(text)
                written = format_hoa(d) if fmt == "hoa" else format_drw(d)
                if written != text or parse_drw(format_drw(d)) != d:
                    res.failures.append(f"{name}: output does not round-trip")
                wrong = [w for w in enumerate_lassos(a.alphabet, self.ORACLE_U,
                                                     self.ORACLE_V)
                         if drw_run_eval(d, w) != nbw_member(a, w)]
                if wrong:
                    res.failures.append(f"{name}: disagrees with nbw_member on "
                                        f"{len(wrong)} lassos, first {wrong[0]}")
            except Exception as err:
                _failed(res, f"{name} output", err)
                continue
            per_job.append([kind, len(d.states), len(d.states) * len(d.alphabet),
                            len(d.acceptance), len(raw),
                            hashlib.sha256(raw).hexdigest()])
        res.counts = {
            "inputs": inputs["digest"],
            "profile_states": sum(j[1] for j in per_job if j[0] == "profile"),
            "safra_states": sum(j[1] for j in per_job if j[0] == "safra"),
            "per_job": per_job,
        }
        for kind in ("profile", "safra"):
            if kind in res.layer_counts and (res.layer_counts[kind]["states"]
                                             != res.counts[f"{kind}_states"]):
                res.failures.append(f"{kind} states in memory differ from the "
                                    "written DRWs")


# -- membership -------------------------------------------------------------------


class Membership:
    """NBWs from ``GenSpec(16, 2, 0.15, 0.1, j)`` for j < `count`, their
    states permuted and renamed by the seed, each with every lasso where
    |u| ≤ `max_u` and |v| ≤ `max_v` (1,778 for the defaults).  Each
    automaton's Safra DRW is built, written and read back through
    ``parse_drw`` during set-up.

    The automata are fixed because drawing them from the seed made a run's
    memory and query tail depend on the draw: one seed in ten drew an
    18,200-state Safra DRW and tripled the resident set."""

    name = "membership"
    setup_reps = 2

    def __init__(self, seed: int, count: int = 80, max_u: int = 2, max_v: int = 7):
        self.seed = seed
        self.specs = [GenSpec(16, 2, 0.15, 0.1, j) for j in range(count)]
        self.max_u, self.max_v = max_u, max_v

    def setup(self, tr):
        """In a traced set-up, each Safra construction is also replayed."""
        out = {"pairs": [], "layer_counts": {}, "failures": []}
        digest = hashlib.sha256()
        rng = random.Random(self.seed)
        for spec in self.specs:
            a = tr.call("automata.normalize", normalize, _permuted(
                tr.call("harness.gen_nbw", gen_nbw, spec), rng))
            built = tr.call("safra.determinize_safra", determinize_safra, a,
                            STATE_CAP)
            text = tr.call("automata.format_drw", format_drw, built)
            out["pairs"].append((a, tr.call("automata.parse_drw", parse_drw, text)))
            digest.update(format_nbw(a).encode("utf-8"))
            digest.update(text.encode("utf-8"))
            if isinstance(tr, Tracer):
                counts = out["layer_counts"]
                counts["format_drw_bytes"] = (counts.get("format_drw_bytes", 0)
                                              + len(text.encode("utf-8")))
                _tally(counts, "safra", built)
                out["failures"] += _replay(tr, a, built, "safra")
        out["lassos"] = tr.call("harness.enumerate_lassos", enumerate_lassos,
                                ("a", "b"), self.max_u, self.max_v)
        out["digest"] = digest.hexdigest()
        return out

    def run_pass(self, inputs) -> Pass:
        return self._pass(inputs, nbw_member, drw_run_eval, None)

    def traced_pass(self, inputs, tr: Tracer) -> Pass:
        res = self._pass(inputs, tr.hot("automata.nbw_member", nbw_member),
                         tr.hot("automata.drw_run_eval", drw_run_eval), tr)
        res.layer_counts = inputs["layer_counts"]
        res.failures += inputs["failures"]
        return res

    def _pass(self, inputs, member, run, tr) -> Pass:
        res, per = Pass(), []
        jobs, lassos = res.jobs, inputs["lassos"]
        for spec, (a, d) in zip(self.specs, inputs["pairs"]):
            accepted = 0
            with tr.span("membership.automaton") if tr else nullcontext():
                for w in lassos:
                    start = perf_counter()
                    try:
                        x = member(a, w)
                        y = run(d, w)
                    except Exception as err:
                        _failed(res, f"seed={spec.seed} {w}", err)
                        continue
                    finally:
                        jobs.extend((start, perf_counter()))
                    if x != y:
                        res.failures.append(f"seed={spec.seed} {w}: nbw_member="
                                            f"{x} drw_run_eval={y}")
                    accepted += x
            per.append([len(d.states), accepted])
        res.rows = per
        return res

    def check(self, inputs, res: Pass):
        """Verdicts were compared query by query; this records the counts."""
        per = res.rows
        res.counts = {"inputs": inputs["digest"], "queries": len(res.jobs) // 2,
                      "accepted": sum(p[1] for p in per),
                      "safra_states": sum(p[0] for p in per),
                      "per_automaton": per}


def _failed(res: Pass, what: str, err: Exception):
    """An exception inside one job fails that job, not the run."""
    traceback.print_exception(err, file=sys.stderr)
    res.failures.append(f"{what}: {type(err).__name__}: {err}")


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


WORKLOADS = ("corpus", "determinize", "membership")


def make(name: str, seed: int, workdir: str, tiny: bool = False):
    """Workload `name` for `seed`; `tiny` shrinks it for the benchmark's own
    tests."""
    if name == "corpus":
        return Corpus(seed, count_each=2 if tiny else 150)
    if name == "determinize":
        return Determinize(seed, workdir,
                           Determinize.TINY_JOBS if tiny else Determinize.JOBS)
    if name == "membership":
        return Membership(seed, count=2, max_v=3) if tiny else Membership(seed)
    raise ValueError(f"unknown workload {name!r}")
