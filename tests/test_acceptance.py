"""Acceptance suite: one test per release criterion, each printing a verdict.

The corpus criteria share one cross-validation run over 1000 seeded random
automata (250 each for 2..5 states, two symbols, all lassos with prefix up
to 3 and period up to 4).
"""

import json
import os
import subprocess
import sys
import time

import pytest

from buchidet import (CheckReport, GenSpec, Lasso, cross_check, normalize,
                      parse_nbw, sweep_invariants)
from buchidet.determinize import (Macrostate, determinize_profile,
                                  initial_macrostate, sigma_successor)
from buchidet.harness import gen_nbw

from conftest import TWO_STATE_TEXT
from oracles import label_levels, labels_of_class, profile_strings, profile_tree

LASSO_U, LASSO_V = 3, 4
STATE_CAP = 10 ** 6
CORPUS_SIZES = (2, 3, 4, 5)
CORPUS_COUNT_EACH = 250


def _verdict(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def two_state():
    return normalize(parse_nbw(TWO_STATE_TEXT))


@pytest.fixture(scope="module")
def corpus_report() -> CheckReport:
    agg = CheckReport(bounds={
        "n_states": "2..5", "alphabet_size": 2, "density": 0.5,
        "accepting_fraction": 0.3, "count": len(CORPUS_SIZES) * CORPUS_COUNT_EACH,
        "max_u": LASSO_U, "max_v": LASSO_V, "max_states": STATE_CAP,
        "sweep_depth": 4})
    start = time.perf_counter()
    for n in CORPUS_SIZES:
        agg.absorb(cross_check(GenSpec(n, 2, 0.5, 0.3, 20_260_000 + 1000 * n),
                               LASSO_U, LASSO_V, CORPUS_COUNT_EACH,
                               max_states=STATE_CAP, sweep_depth=4))
    agg.bounds["elapsed_seconds"] = round(time.perf_counter() - start, 1)
    assert agg.bounds["elapsed_seconds"] < 300, "corpus run exceeded five minutes"
    return agg


def test_determinized_run_golden_trace(two_state):
    """The macrostate run on a,b,b reproduces the worked trace exactly:
    labels 0/1 then 0/2 then 0/1 on the two singleton classes, the cousin
    pair between them, good {0} from step 2 on, and bad {1} then {2}."""
    start = time.perf_counter()
    full = frozenset({(0, 0), (0, 1), (1, 1)})
    expected = [
        Macrostate(((0,),), (0,), frozenset({(0, 0)}), frozenset(), frozenset()),
        Macrostate(((0,), (1,)), (0, 1), full, frozenset(), frozenset()),
        Macrostate(((0,), (1,)), (0, 2), full, frozenset({0}), frozenset({1})),
        Macrostate(((0,), (1,)), (0, 1), full, frozenset({0}), frozenset({2})),
    ]
    got = [initial_macrostate(two_state)]
    for symbol in "abb":
        got.append(sigma_successor(two_state, got[-1], symbol))
    drw = determinize_profile(two_state)
    state = drw.initial
    via_drw = [drw.payloads[state]]
    for symbol in "abb":
        state = drw.trans[state][drw.alphabet.index(symbol)]
        via_drw.append(drw.payloads[state])
    elapsed = time.perf_counter() - start
    _verdict("determinized-run-golden-trace",
             got == expected == via_drw and elapsed < 1.0, f"{elapsed:.3f}s")


def test_labeled_tree_golden_trace(two_state):
    """Tree levels 0-3 on the prefix abb reproduce the printed histories
    (0 / 00,01 / 010,011 / 0110,0111), the label sets, and the global
    labels (0 / 0,1 / 0,2 / 0,3)."""
    start = time.perf_counter()
    levels = profile_tree(two_state, ["a", "b", "b"])
    lab = label_levels(levels, two_state.n)
    ok = profile_strings(levels) == [
        ("0",), ("00", "01"), ("010", "011"), ("0110", "0111")]
    ok = ok and [ll.gl for ll in lab] == [(0,), (0, 1), (0, 2), (0, 3)]
    printed = [sorted(labels_of_class(lab, i, j))
               for i in range(4) for j in range(len(levels[i].classes))]
    ok = ok and printed == [[], [0], [], [0, 1], [], [0, 1, 2], []]
    elapsed = time.perf_counter() - start
    _verdict("labeled-tree-golden-trace", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_language_agreement_corpus(corpus_report):
    """1000 seeded automata, all bounded lassos: the NBW oracle and both
    determinizations agree on every word."""
    rep = corpus_report
    expected_lassos = 1000 * 15 * 30
    ok = (rep.automata == 1000 and rep.lassos == expected_lassos
          and not rep.disagreements)
    _verdict("language-agreement-1000", ok,
             f"automata={rep.automata} lassos={rep.lassos} "
             f"disagreements={len(rep.disagreements)}")


def test_invariant_suite_corpus(corpus_report):
    """Zero violations across the corpus sweeps: level structure (single
    parent class, width bound, child limits), per-level label injectivity,
    the nephew shortcut versus the descendant walk, the empty-labels
    equivalence, and validity of every explored macrostate and tree."""
    rep = corpus_report
    _verdict("invariant-suite", not rep.violations,
             f"violations={len(rep.violations)}"
             + (f" first={rep.violations[0]!r}" if rep.violations else ""))


def test_macrostate_level_correspondence(two_state):
    """For every word up to length 8 over automata with up to 4 states, the
    macrostate equals the independently computed labeled level, field by
    field (states, order, labels, cousins, good/bad)."""
    start = time.perf_counter()
    corpus = [two_state]
    for n in (2, 3, 4):
        for i in range(8):
            corpus.append(normalize(gen_nbw(
                GenSpec(n, 2, 0.55, 0.35, 31_000_000 + 100 * n + i))))
    bad = []
    for idx, aut in enumerate(corpus):
        bad.extend(f"automaton {idx}: {v}" for v in sweep_invariants(aut, 8))
    elapsed = time.perf_counter() - start
    _verdict("macrostate-level-correspondence", not bad,
             f"{len(corpus)} automata, depth 8, {elapsed:.1f}s"
             + (f" first={bad[0]!r}" if bad else ""))


def test_state_count_sanity(corpus_report):
    """Exploration of every corpus automaton terminates under the state cap;
    the observed maxima are informational."""
    rep = corpus_report
    aborted = [v for v in rep.violations if "aborted" in v]
    ok = not aborted and rep.max_profile_states < STATE_CAP
    _verdict("state-count-sanity", ok,
             f"max-profile-states={rep.max_profile_states} "
             f"max-safra-states={rep.max_safra_states}")


def test_cli_byte_determinism(tmp_path):
    """Every CLI command yields byte-identical output across two fresh
    interpreter runs with different hash seeds, standing in for two
    machines."""
    nbw_path = tmp_path / "two_state.nbw"
    nbw_path.write_text(TWO_STATE_TEXT, encoding="utf-8")

    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

    def run_all(tag: str, hashseed: str):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p)
        outdir = tmp_path / tag
        outdir.mkdir()
        blobs = []
        commands = [
            ["determinize", "--method", "profile", "--in", str(nbw_path),
             "--out", str(outdir / "p.drw")],
            ["determinize", "--method", "safra", "--in", str(nbw_path),
             "--out", str(outdir / "s.drw")],
            ["determinize", "--method", "profile", "--format", "hoa",
             "--in", str(nbw_path), "--out", str(outdir / "p.hoa")],
            ["member", "--in", str(nbw_path), "--word", "a;b"],
            ["trace", "--in", str(nbw_path), "--word", "a;b",
             "--levels", "5", "--labels"],
            ["gen", "--states", "4", "--seed", "9"],
            ["check", "--states", "3", "--count", "3", "--seed", "5",
             "--max-u", "2", "--max-v", "2", "--sweep-depth", "2",
             "--json", str(outdir / "report.json")],
        ]
        for cmd in commands:
            proc = subprocess.run([sys.executable, "-m", "buchidet.cli"] + cmd,
                                  capture_output=True, env=env, check=True)
            blobs.append((tuple(cmd[:1]), proc.stdout))
        for name in ("p.drw", "s.drw", "p.hoa", "report.json"):
            blobs.append((name, (outdir / name).read_bytes()))
        return blobs

    first = run_all("one", "0")
    second = run_all("two", "13571113")
    ok = first == second
    detail = ""
    if not ok:
        for (na, a), (nb, b) in zip(first, second):
            if a != b:
                detail = f"first difference in {na}"
                break
    _verdict("cli-byte-determinism", ok, detail or "7 commands compared")


def test_report_documents_bounds(corpus_report):
    payload = corpus_report.to_json()
    json.dumps(payload)
    assert payload["lassos"] == corpus_report.lassos
    assert payload["bounds"]["max_u"] == LASSO_U
    assert payload["bounds"]["max_v"] == LASSO_V
