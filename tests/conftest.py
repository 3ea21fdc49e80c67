import pytest

from buchidet import normalize, parse_nbw
from oracles import nbw

TWO_STATE_TEXT = """\
nbw
alphabet: a b
states: q p
initial: q
accepting: p
trans: q a q
trans: q a p
trans: p b q
trans: p a p
trans: p b p
"""


@pytest.fixture
def two_state_text():
    return TWO_STATE_TEXT


@pytest.fixture
def two_state():
    """Two-state automaton: q loops on a and may jump to accepting p,
    which loops on a,b and may return to q on b.  Language: words with
    infinitely many a's or a b-tail reached through p."""
    return normalize(parse_nbw(TWO_STATE_TEXT))


@pytest.fixture
def selfloop_accepting():
    """One accepting initial state looping on a; needs normalization."""
    return nbw(["a"], ["q"], ["q"], ["q"], [("q", "a", "q")])


@pytest.fixture
def det_chain():
    """Deterministic non-accepting a-loop (single run, never accepting)."""
    return nbw(["a"], ["x"], ["x"], [], [("x", "a", "x")])
