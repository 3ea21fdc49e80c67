"""The judge keeps its recorded strength: every checker that flagged a
mutant in MUTANTS.json still flags it on some corpus automaton."""

import json

import pytest

import mutants
from buchidet.harness import enumerate_lassos

RECORD = json.loads(mutants.RECORD.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def corpus():
    automata = mutants.corpus()
    return automata, enumerate_lassos(automata[0].alphabet, mutants.MAX_U,
                                      mutants.MAX_V)


def test_record_matches_the_catalogue():
    assert [(m["name"], m["target"]) for m in RECORD["mutants"]] == \
        [m[:2] for m in mutants.MUTANTS]
    assert RECORD["corpus"]["count"] == len(mutants.SPECS)
    assert RECORD["unmutated"] == dict.fromkeys(mutants.CHECKERS, 0) | {"errors": 0}


@pytest.mark.parametrize("mutant, recorded",
                         zip(mutants.MUTANTS, RECORD["mutants"]),
                         ids=[m[0] for m in mutants.MUTANTS])
def test_recorded_kills_still_hold(corpus, mutant, recorded):
    killers = {c for c in mutants.CHECKERS if recorded["flagged"][c]}
    with mutants.active(mutant):
        assert mutants.first_kills(*corpus, killers) == killers
