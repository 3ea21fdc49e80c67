"""The judge keeps its recorded strength: every checker that flagged a
mutant in MUTANTS.json still flags it on some corpus automaton."""

import hashlib
import importlib
import json

import pytest

import mutants
from buchidet import harness
from buchidet.harness import sweep_invariants

RECORD = json.loads(mutants.RECORD.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def corpus():
    automata = mutants.corpus()
    return automata, harness._grid(automata[0].alphabet, mutants.MAX_U,
                                   mutants.MAX_V)


def test_record_matches_the_catalogue():
    assert [(m["name"], m["target"]) for m in RECORD["mutants"]] == \
        [m[:2] for m in mutants.MUTANTS]
    assert RECORD["corpus"]["count"] == len(mutants.SPECS)
    assert RECORD["unmutated"] == dict.fromkeys(mutants.CHECKERS, 0) | {"errors": 0}
    for name, target, _ in mutants.MUTANTS:
        module, attr = target.split(".")
        assert hasattr(importlib.import_module(f"buchidet.{module}"), attr), name
    # the rows share no prefix code, so a row decider that misreads its
    # prefixes is caught by both lasso columns
    flagged = {m["name"]: m["flagged"] for m in RECORD["mutants"]}
    for rows in ("nbw", "drw"):
        counts = flagged[f"{rows} rows: each prefix read as its first symbol repeated"]
        assert counts["lassos_profile"] > 0 and counts["lassos_safra"] > 0


@pytest.mark.parametrize("mutant, recorded",
                         zip(mutants.MUTANTS, RECORD["mutants"]),
                         ids=[m[0] for m in mutants.MUTANTS])
def test_recorded_kills_still_hold(corpus, mutant, recorded):
    killers = {c for c in mutants.CHECKERS if recorded["flagged"][c]}
    with mutants.active(mutant):
        assert mutants.first_kills(*corpus, killers) == killers


def test_sweep_replays_its_messages_under_a_level_mutant(corpus, monkeypatch):
    """Under the reversed-classes level step, the sweep over the corpus
    gives the messages, in the order, that it gave when it checked every
    edge of every word, and steps each distinct edge once."""
    mutant = next(m for m in mutants.MUTANTS
                  if m[0] == "levels: classes in reverse rank order")
    automata, _ = corpus
    step, steps = harness.step_level, []

    def counted(*args):
        steps.append(args)
        return step(*args)
    # the counter wraps the whole level step, the mutant only its slice
    monkeypatch.setattr(harness, "step_level", counted)
    with mutants.active(mutant):
        found = [sweep_invariants(a, mutants.DEPTH) for a in automata]
    assert sum(map(len, found)) == 6774
    assert hashlib.sha256(json.dumps(found).encode("utf-8")).hexdigest() == \
        "cc4e1cead7e3db140d6941b41ffa4c4643e85e8e2a3fecad89927d7bf2ef6de8"
    edges = len(automata) * sum(2 ** k for k in range(1, mutants.DEPTH + 1))
    assert edges == 5400 and len(steps) < edges
