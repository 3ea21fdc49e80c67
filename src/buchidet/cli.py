"""Command-line front end.

Exit codes: 0 success, 1 failed check, 2 usage or parse error, 3 state cap
exceeded.  All outputs are byte-deterministic for fixed inputs and seeds.
"""

import argparse
import json
import sys
from itertools import chain, cycle

from . import __version__
from .automata import Lasso, format_drw, format_nbw, nbw_member, normalize, \
    parse_nbw
from .determinize import determinize_profile, initial_macrostate, sigma_successor
from .explore import StateLimitExceeded
from .harness import GenSpec, cross_check, gen_nbw
from .hoa import format_hoa
from .run_dag import initial_level, step_level
from .safra import determinize_safra


def _fmt_set(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


def _macrostate_line(aut, i, m) -> str:
    cls = ",".join("{" + ",".join(aut.states[q] for q in group) + "}^"
                   + str(m.labels[j]) for j, group in enumerate(m.classes))
    cousin = ",".join(f"({x},{y})" for x, row in enumerate(m.cousin)
                      for y in sorted(row))
    return (f"macro level={i} classes=[{cls}] cousin=[{cousin}] "
            f"G={_fmt_set(m.good)} B={_fmt_set(m.bad)}")


def _read_nbw(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return normalize(parse_nbw(fh.read()))


def _cmd_determinize(args) -> int:
    if args.max_states < 1:
        raise ValueError("--max-states must be at least 1")
    aut = _read_nbw(args.infile)
    if args.method == "profile":
        drw = determinize_profile(aut, args.max_states)
    else:
        drw = determinize_safra(aut, args.max_states)
    text = format_hoa(drw) if args.format == "hoa" else format_drw(drw)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def _cmd_member(args) -> int:
    aut = _read_nbw(args.infile)
    word = Lasso.parse(args.word)
    print("accept" if nbw_member(aut, word) else "reject")
    return 0


def _cmd_trace(args) -> int:
    if args.levels < 1:
        raise ValueError("--levels must be at least 1")
    aut = _read_nbw(args.infile)
    word = Lasso.parse(args.word)
    for symbol in word.prefix + word.period:  # refuse any unknown symbol first
        aut.sym_id(symbol)
    lv, macro = initial_level(aut), initial_macrostate(aut)
    symbols = chain(word.prefix, cycle(word.period))
    for i in range(args.levels):
        if i:
            symbol = next(symbols)
            lv = step_level(aut, lv, symbol)
            macro = sigma_successor(aut, macro, symbol)
        for j in range(len(lv.classes)):
            parent = "-" if lv.parents[j] is None else str(lv.parents[j])
            line = (f"level={i} rank={j} f={lv.f_class[j]} parent={parent} "
                    "states={" + ",".join(aut.states[q] for q in lv.classes[j]) + "}")
            if args.labels:
                line += (f" gl={lv.gl[j]} lbl={lv.lbl[j]}"
                         f" good={_fmt_set(lv.good)} bad={_fmt_set(lv.bad)}"
                         f" succ={_fmt_set(lv.successful)}")
            print(line)
        print(_macrostate_line(aut, i, macro))
    return 0


def _gen_spec(args) -> GenSpec:
    """The GenSpec of the generator flags; a bad value's error names its flag."""
    try:
        return GenSpec(args.states, args.alphabet, args.density, args.acc, args.seed)
    except ValueError as err:
        field, rest = str(err).split(" ", 1)
        flag = {"n_states": "--states", "alphabet_size": "--alphabet",
                "density": "--density", "accepting_fraction": "--acc"}[field]
        raise ValueError(f"{flag} {rest}") from None


def _cmd_gen(args) -> int:
    text = format_nbw(gen_nbw(_gen_spec(args)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(args) -> int:
    bounds = (("--count", args.count, 1), ("--max-u", args.max_u, 0),
              ("--max-v", args.max_v, 1), ("--max-states", args.max_states, 1),
              ("--sweep-depth", args.sweep_depth, 0))
    for flag, value, low in bounds:
        if value < low:
            raise ValueError(f"{flag} must be at least {low}")
    report = cross_check(_gen_spec(args), args.max_u, args.max_v, args.count,
                         max_states=args.max_states, sweep_depth=args.sweep_depth)
    print(f"automata={report.automata} lassos={report.lassos} "
          f"disagreements={len(report.disagreements)} "
          f"violations={len(report.violations)} "
          f"max-profile-states={report.max_profile_states} "
          f"max-safra-states={report.max_safra_states}")
    print("PASS" if report.passed else "FAIL")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if report.passed else 1


# tracemalloc peak per state: about 0.8 KiB per profile macrostate of
# GenSpec(10, 2, 0.25, 0.3, 778) (0.5 KiB retained), up to about 1.3 KiB per
# Safra tree of GenSpec(13, 3, 0.12, 0.3, 777) (0.9 KiB retained)
_MAX_STATES_HELP = ("most DRW states explored per automaton; a profile "
                    "macrostate takes about 0.8 KiB and a Safra tree up to "
                    "1.3 KiB, so the default of 10**6 can take about 0.8 GiB "
                    "for profile and 1.2 GiB for Safra")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buchidet",
        description="Determinize Buchi word automata into Rabin automata "
                    "and cross-validate the constructions.")
    parser.add_argument("--version", action="version",
                        version=f"buchidet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("determinize", help="translate an NBW file into a DRW file")
    p.add_argument("--method", choices=["profile", "safra"], default="profile")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--format", choices=["native", "hoa"], default="native")
    p.add_argument("--max-states", type=int, default=10 ** 6,
                   help=_MAX_STATES_HELP)
    p.set_defaults(func=_cmd_determinize)

    p = sub.add_parser("member", help="decide membership of a lasso word")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--word", required=True, metavar="U;V")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("trace", help="print labeled tree levels and macrostates")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--word", required=True, metavar="U;V")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--labels", action="store_true")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("gen", help="generate a seeded random NBW")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--acc", type=float, default=0.3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="cross-validate on seeded random automata")
    p.add_argument("--states", type=int, default=3)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--acc", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-u", type=int, default=3)
    p.add_argument("--max-v", type=int, default=4)
    p.add_argument("--max-states", type=int, default=10 ** 6,
                   help=_MAX_STATES_HELP)
    p.add_argument("--sweep-depth", type=int, default=4)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.func(args)
    except StateLimitExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
