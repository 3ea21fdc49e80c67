import json

import pytest

from buchidet import parse_drw, parse_nbw
from buchidet.cli import main


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


@pytest.mark.parametrize("flag, name", [("--max-u", "max_u"),
                                        ("--sweep-depth", "depth")])
def test_check_negative_bound_is_usage_error(flag, name, capsys):
    assert main(["check", "--count", "1", flag, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_check_count_below_one_is_usage_error(count, capsys):
    assert main(["check", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--count" in captured.err
