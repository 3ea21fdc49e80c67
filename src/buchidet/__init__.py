"""Determinization of Buchi word automata into Rabin automata.

The package offers a determinization construction whose states are doubly
preordered sets of input states, Safra's classical tree construction as an
independent baseline, exact lasso-word membership oracles for both automaton
kinds, and a randomized cross-validation harness tying them together.
"""

__version__ = "0.1.0"

from .automata import (DRW, NBW, Lasso, ParseError, RabinCondition,
                       drw_run_eval, drw_verdicts, format_drw, format_nbw,
                       nbw_member, nbw_verdicts, normalize, parse_drw, parse_nbw)
from .determinize import Macrostate, determinize_profile, initial_macrostate, \
    sigma_successor
from .explore import StateLimitExceeded
from .harness import CheckReport, GenSpec, check_automaton, cross_check, \
    enumerate_lassos, gen_nbw, sweep_invariants
from .labeling import LabeledLevel
from .run_dag import ProfileLevel, check_level, initial_level, step_level
from .safra import SafraTree, determinize_safra, safra_initial, safra_successor

__all__ = [
    "DRW", "NBW", "Lasso", "ParseError", "RabinCondition", "Macrostate",
    "SafraTree", "LabeledLevel", "ProfileLevel", "GenSpec",
    "CheckReport", "StateLimitExceeded", "parse_nbw", "parse_drw", "format_nbw",
    "format_drw", "normalize", "nbw_member", "drw_run_eval", "nbw_verdicts",
    "drw_verdicts", "initial_level", "step_level", "check_level",
    "initial_macrostate", "sigma_successor", "determinize_profile",
    "safra_initial", "safra_successor", "determinize_safra", "gen_nbw",
    "enumerate_lassos", "check_automaton", "cross_check", "sweep_invariants",
    "__version__",
]
