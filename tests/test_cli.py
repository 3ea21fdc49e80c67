import contextlib
import hashlib
import json
import os
import random
import tracemalloc

import pytest

from buchidet import (GenSpec, Lasso, format_nbw, gen_nbw, normalize, parse_drw,
                      parse_nbw)
from buchidet.cli import main
from oracles import profile_tree, unroll


@pytest.fixture
def two_state_file(tmp_path, two_state_text):
    path = tmp_path / "two_state.nbw"
    path.write_text(two_state_text, encoding="utf-8")
    return str(path)


def test_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "buchidet 0.1.0"


def test_public_names_resolve():
    import buchidet
    assert len(set(buchidet.__all__)) == len(buchidet.__all__)
    for name in buchidet.__all__:
        assert hasattr(buchidet, name), name
    namespace: dict = {}
    exec("from buchidet import *", namespace)
    assert set(buchidet.__all__) <= set(namespace)


def test_usage_error_exit_code(capsys):
    assert main(["determinize", "--bogus"]) == 2
    assert main(["nosuchcommand"]) == 2
    assert main([]) == 2


def test_member_refuses_a_symbol_lasso_syntax_cannot_name(tmp_path, capsys):
    """With a symbol `a.b`, the word `;a.b` would read as (a·b)^ω, not as
    (a.b)^ω: the automaton is refused before any verdict."""
    path = tmp_path / "dotted.nbw"
    path.write_text("nbw\nalphabet: a b a.b\nstates: x y\ninitial: x\n"
                    "accepting: y\ntrans: x a.b y\ntrans: y a.b y\n",
                    encoding="utf-8")
    assert main(["member", "--in", str(path), "--word", ";a.b"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: line 2: symbol 'a.b' contains a lasso "
                            "separator ('.' or ';')\n")


def test_determinize_native_deterministic(two_state_file, tmp_path):
    out1, out2 = tmp_path / "one.drw", tmp_path / "two.drw"
    assert main(["determinize", "--method", "profile",
                 "--in", two_state_file, "--out", str(out1)]) == 0
    assert main(["determinize", "--method", "profile",
                 "--in", two_state_file, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    drw = parse_drw(out1.read_text(encoding="utf-8"))
    assert len(drw.states) >= 4


def test_determinize_safra(two_state_file, tmp_path):
    out = tmp_path / "safra.drw"
    assert main(["determinize", "--method", "safra",
                 "--in", two_state_file, "--out", str(out)]) == 0
    parse_drw(out.read_text(encoding="utf-8"))


def test_determinize_hoa(two_state_file, tmp_path):
    out = tmp_path / "aut.hoa"
    assert main(["determinize", "--method", "profile", "--format", "hoa",
                 "--in", two_state_file, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("HOA: v1\n")
    assert 'AP: 2 "a" "b"' in text
    assert "acc-name: Rabin" in text
    assert "Fin(0)&Inf(1)" in text
    assert text.rstrip().endswith("--END--")


def test_determinize_state_cap_exit_code(two_state_file, tmp_path, capsys):
    rc = main(["determinize", "--in", two_state_file,
               "--out", str(tmp_path / "x.drw"), "--max-states", "2"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_determinize_max_states_below_one_is_usage_error(tmp_path, capsys):
    path, out = tmp_path / "loop.nbw", tmp_path / "loop.drw"
    path.write_text("nbw\nalphabet: a\nstates: q\ninitial: q\naccepting:\n"
                    "trans: q a q\n", encoding="utf-8")
    assert main(["determinize", "--in", str(path), "--out", str(out),
                 "--max-states", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: --max-states must be at least 1")
    assert not out.exists()


def test_member_accept_and_reject(two_state_file, capsys):
    assert main(["member", "--in", two_state_file, "--word", "a;b"]) == 0
    assert capsys.readouterr().out == "accept\n"
    assert main(["member", "--in", two_state_file, "--word", ";b"]) == 0
    assert capsys.readouterr().out == "reject\n"


def test_member_bad_word_exit_code(two_state_file, capsys):
    assert main(["member", "--in", two_state_file, "--word", "z;z"]) == 2
    assert main(["member", "--in", two_state_file, "--word", "a;"]) == 2
    assert main(["member", "--in", two_state_file, "--word", ";."]) == 2
    assert main(["member", "--in", two_state_file, "--word", "a..b;a"]) == 2
    assert capsys.readouterr().out == ""
    assert main(["member", "--in", two_state_file, "--word", "a;b;c"]) == 2
    assert "lasso 'a;b;c' must have exactly one ';'" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.nbw"
    path.write_text("nbw\nalphabet: a\nstates: x\ninitial: zz\n")
    assert main(["member", "--in", str(path), "--word", ";a"]) == 2
    assert "line 4" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["member", "--in", str(tmp_path / "absent.nbw"),
                 "--word", ";a"]) == 2


def test_trace_reference_lines(two_state_file, capsys):
    assert main(["trace", "--in", two_state_file, "--word", "a;b",
                 "--levels", "4", "--labels"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("level=0 rank=0 f=0 parent=- states={q} "
                        "gl=0 lbl=0 good={} bad={} succ={}")
    assert lines[1] == ("macro level=0 classes=[{q}^0] cousin=[(0,0)] "
                        "G={} B={}")
    assert ("level=2 rank=1 f=1 parent=1 states={p} "
            "gl=2 lbl=2 good={0} bad={1} succ={0}") in lines
    assert ("macro level=2 classes=[{q}^0,{p}^2] "
            "cousin=[(0,0),(0,1),(1,1)] G={0} B={1}") in lines
    # levels and macrostates agree line by line: 2 classes + 1 macro per
    # level after the root
    assert len(lines) == 2 + 3 * 3


GOLDEN_TRACE_SEED7 = """\
level=0 rank=0 f=0 parent=- states={s0} gl=0 lbl=0 good={} bad={} succ={}
macro level=0 classes=[{s0}^0] cousin=[(0,0)] G={} B={}
level=1 rank=0 f=0 parent=0 states={s0,s1} gl=0 lbl=0 good={} bad={} succ={}
level=1 rank=1 f=1 parent=0 states={s3} gl=1 lbl=1 good={} bad={} succ={}
macro level=1 classes=[{s0,s1}^0,{s3}^1] cousin=[(0,0),(0,1),(1,1)] G={} B={}
level=2 rank=0 f=0 parent=0 states={s1} gl=0 lbl=0 good={} bad={} succ={}
level=2 rank=1 f=1 parent=0 states={s2} gl=2 lbl=2 good={} bad={} succ={}
level=2 rank=2 f=0 parent=1 states={s0} gl=1 lbl=1 good={} bad={} succ={}
level=2 rank=3 f=1 parent=1 states={s3} gl=3 lbl=3 good={} bad={} succ={}
macro level=2 classes=[{s1}^0,{s2}^2,{s0}^1,{s3}^3] cousin=[(0,0),(0,1),(0,2),(0,3),(1,1),(2,2),(2,3),(3,3)] G={} B={}
level=3 rank=0 f=1 parent=2 states={s3} gl=0 lbl=0 good={0} bad={1,2} succ={0}
level=3 rank=1 f=0 parent=3 states={s0,s1} gl=3 lbl=3 good={0} bad={1,2} succ={0}
level=3 rank=2 f=1 parent=3 states={s2} gl=4 lbl=4 good={0} bad={1,2} succ={0}
macro level=3 classes=[{s3}^0,{s0,s1}^3,{s2}^4] cousin=[(0,0),(0,1),(0,2),(1,1),(1,2),(2,2)] G={0} B={1,2}
level=4 rank=0 f=0 parent=1 states={s0} gl=0 lbl=0 good={0} bad={3} succ={0}
level=4 rank=1 f=1 parent=1 states={s2} gl=5 lbl=1 good={0} bad={3} succ={0}
level=4 rank=2 f=0 parent=2 states={s1} gl=4 lbl=4 good={0} bad={3} succ={0}
level=4 rank=3 f=1 parent=2 states={s3} gl=6 lbl=2 good={0} bad={3} succ={0}
macro level=4 classes=[{s0}^0,{s2}^1,{s1}^4,{s3}^2] cousin=[(0,0),(0,1),(0,2),(0,3),(1,1),(2,2),(2,3),(3,3)] G={0} B={3}
level=5 rank=0 f=1 parent=2 states={s3} gl=0 lbl=0 good={0} bad={1,4} succ={0}
level=5 rank=1 f=0 parent=3 states={s0,s1} gl=6 lbl=2 good={0} bad={1,4} succ={0}
level=5 rank=2 f=1 parent=3 states={s2} gl=7 lbl=3 good={0} bad={1,4} succ={0}
macro level=5 classes=[{s3}^0,{s0,s1}^2,{s2}^3] cousin=[(0,0),(0,1),(0,2),(1,1),(1,2),(2,2)] G={0} B={1,4}
"""


def test_trace_golden_up_to_four_classes(tmp_path, capsys):
    path = str(tmp_path / "seed7.nbw")
    assert main(["gen", "--states", "4", "--density", "0.5", "--seed", "7",
                 "--out", path]) == 0
    assert main(["trace", "--in", path, "--word", "a;b.a", "--levels", "6",
                 "--labels"]) == 0
    assert capsys.readouterr().out == GOLDEN_TRACE_SEED7


def test_trace_without_labels(two_state_file, capsys):
    assert main(["trace", "--in", two_state_file, "--word", "a;b",
                 "--levels", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "level=0 rank=0 f=0 parent=- states={q}"
    assert all("gl=" not in line for line in lines)


def test_trace_golden_digest_of_sixty_levels(tmp_path, capsys):
    path = str(tmp_path / "seed11.nbw")
    assert main(["gen", "--states", "6", "--alphabet", "3", "--seed", "11",
                 "--out", path]) == 0
    assert main(["trace", "--in", path, "--word", "a.b;c.a.b", "--levels", "60",
                 "--labels"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 293
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "80cba509a032c84f15c68d8dbf34ce3e1ec891d4f25e8f91d29f122de4ea722f"


def test_trace_level_lines_match_the_whole_level_lists(tmp_path, capsys):
    """The streamed level lines carry the classes, parents and labels of
    the level lists built whole, on 20 seeded automata and words."""
    rng = random.Random(37)
    path = tmp_path / "aut.nbw"

    def braces(values):
        return "{" + ",".join(map(str, values)) + "}"
    for seed in range(20):
        text = format_nbw(gen_nbw(GenSpec(rng.randint(2, 6), 3, 0.4, 0.3, seed)))
        path.write_text(text, encoding="utf-8")
        a = normalize(parse_nbw(text))
        word = Lasso(tuple(rng.choices("abc", k=rng.randint(0, 3))),
                     tuple(rng.choices("abc", k=rng.randint(1, 4))))
        expected = [
            f"level={i} rank={j} f={lv.f_class[j]} "
            f"parent={'-' if lv.parents[j] is None else lv.parents[j]} "
            f"states={braces(a.states[q] for q in lv.classes[j])} "
            f"gl={lv.gl[j]} lbl={lv.lbl[j]} good={braces(sorted(lv.good))} "
            f"bad={braces(sorted(lv.bad))} succ={braces(sorted(lv.successful))}"
            for i, lv in enumerate(profile_tree(a, unroll(word, 11)))
            for j in range(len(lv.classes))]
        assert main(["trace", "--in", str(path), "--word", str(word),
                     "--levels", "12", "--labels"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("level=")] == expected
        assert len(lines) == len(expected) + 12


def test_trace_refuses_an_unknown_symbol_before_any_output(two_state_file, capsys):
    """The whole word is checked against the alphabet first, as `member`
    checks it, so the verdict does not depend on --levels."""
    for levels in ("1", "4"):
        assert main(["trace", "--in", two_state_file, "--word", "a;a.z",
                     "--levels", levels]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: symbol 'z' not in alphabet\n"


def test_trace_memory_does_not_grow_with_levels(tmp_path):
    """Each level is printed before the next is stepped, so ten times the
    levels peak at most 256 KiB higher under tracemalloc (about 2.5 KiB
    more per level when the levels were kept)."""
    path = tmp_path / "seed3.nbw"
    path.write_text(format_nbw(gen_nbw(GenSpec(5, 2, 0.5, 0.3, 3))), encoding="utf-8")

    def peak(levels: int) -> int:
        with open(os.devnull, "w", encoding="utf-8") as sink, \
                contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["trace", "--in", str(path), "--word", "a;a.b",
                             "--levels", str(levels), "--labels"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    peak(50)  # fill the caches a first run fills
    assert peak(500) - peak(50) <= 256 * 1024


def test_trace_rejects_levels_before_reading_input(monkeypatch, capsys):
    def fail(path):
        raise AssertionError("the input was read before --levels was checked")

    monkeypatch.setattr("buchidet.cli._read_nbw", fail)
    assert main(["trace", "--in", "missing.nbw", "--word", "a;b",
                 "--levels", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: --levels must be at least 1")


def test_gen_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "g1.nbw", tmp_path / "g2.nbw"
    args = ["gen", "--states", "3", "--alphabet", "2", "--density", "0.5",
            "--acc", "0.3", "--seed", "42"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    parse_nbw(out1.read_text(encoding="utf-8"))
    assert main(args) == 0
    assert capsys.readouterr().out == out1.read_text(encoding="utf-8")


def test_check_pass_and_json(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main(["check", "--states", "3", "--alphabet", "2", "--count", "5",
               "--seed", "11", "--max-u", "2", "--max-v", "2",
               "--json", str(report_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.endswith("PASS\n")
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["pass"] is True
    assert payload["automata"] == 5
    assert payload["bounds"]["max_v"] == 2


def test_check_failure_exit_code(capsys):
    # an unreachable state cap forces reported failures and exit code 1
    rc = main(["check", "--states", "4", "--count", "1", "--seed", "3",
               "--max-u", "1", "--max-v", "1", "--max-states", "2",
               "--sweep-depth", "0"])
    assert rc == 1
    assert capsys.readouterr().out.endswith("FAIL\n")


def test_check_profile_abort_fails_before_the_sweep(tmp_path, capsys):
    """At the default sweep depth, a profile construction past the cap is
    the automaton's one violation, and the check fails."""
    report_path = tmp_path / "report.json"
    rc = main(["check", "--states", "4", "--count", "1", "--seed", "3",
               "--max-u", "1", "--max-v", "1", "--max-states", "2",
               "--json", str(report_path)])
    assert rc == 1
    assert capsys.readouterr().out.endswith("FAIL\n")
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["violations"] == ["seed=3: determinization aborted: "
                                     "exploration exceeded the cap of 2 states"]


def test_check_deep_sweep_passes(capsys):
    rc = main(["check", "--states", "2", "--alphabet", "1", "--count", "1",
               "--sweep-depth", "1500"])
    assert rc == 0
    assert capsys.readouterr().out.endswith("PASS\n")


@pytest.mark.parametrize("flag, value", [("--max-u", "-1"), ("--max-v", "0"),
                                         ("--sweep-depth", "-1")])
def test_check_negative_bound_is_usage_error(flag, value, capsys):
    assert main(["check", "--count", "1", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be at least ")


def test_check_max_states_below_one_is_usage_error(capsys):
    assert main(["check", "--count", "1", "--max-states", "-3", "--states", "1",
                 "--density", "1", "--acc", "0", "--max-u", "0", "--max-v", "1",
                 "--sweep-depth", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --max-states must be at least 1")


def test_check_rejects_max_states_before_any_work(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("cross_check ran before the bound was checked")

    monkeypatch.setattr("buchidet.cli.cross_check", fail)
    assert main(["check", "--count", "1", "--max-states", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: --max-states must be at least 1")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_check_count_below_one_is_usage_error(count, capsys):
    assert main(["check", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--count" in captured.err


@pytest.mark.parametrize("command", [["gen", "--seed", "1"], ["check", "--count", "1"]],
                         ids=["gen", "check"])
@pytest.mark.parametrize("flag, value, message", [
    ("--states", "0", "must be at least 1"),
    ("--alphabet", "0", "must be at least 1"),
    ("--density", "0", "must be in (0, 1]"),
    ("--acc", "2", "must be in [0, 1]"),
], ids=["states", "alphabet", "density", "acc"])
def test_generator_flag_errors_name_the_flag(command, flag, value, message, capsys):
    args = command + (["--states", "2"] if flag != "--states" else []) + [flag, value]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} {message}\n"
