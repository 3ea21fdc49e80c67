"""The benchmark's own tests, on tiny workloads.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from buchidet import GenSpec, determinize_profile, gen_nbw, normalize
from buchidet.hoa import format_hoa

import workloads
from tracing import NoTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_clean_and_prints_the_declared_metrics(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def _pass(workload, seed, workdir, tracer=None):
    wl = workloads.make(workload, seed, str(workdir), tiny=True)
    if tracer is None:
        inputs = wl.setup(NoTracer)
        res = wl.run_pass(inputs)
    else:
        inputs = wl.setup(tracer)
        res = wl.traced_pass(inputs, tracer)
    wl.check(inputs, res)
    assert res.failures == []
    return res


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_and_counts_repeat(workload, tmp_path):
    first = _pass(workload, 1, tmp_path).counts
    assert _pass(workload, 1, tmp_path).counts == first
    other = _pass(workload, 2, tmp_path).counts
    assert other["inputs"] != first["inputs"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_reproduces_untraced_counts(workload, tmp_path):
    tr = Tracer()
    traced = _pass(workload, 3, tmp_path, tr)
    assert traced.counts == _pass(workload, 3, tmp_path).counts
    assert tr.layers()


def test_determinize_counts_do_not_depend_on_the_seed(tmp_path):
    counts = [_pass("determinize", seed, tmp_path).counts for seed in (1, 2)]
    assert counts[0]["inputs"] != counts[1]["inputs"]
    assert counts[0]["per_job"] == counts[1]["per_job"]


def test_self_time_excludes_child_spans_and_hot_calls():
    tr = Tracer()
    leaf = tr.hot("leaf", lambda x: x > 0)
    with tr.span("outer") as outer:
        with tr.span("inner") as inner:
            leaf(1)
            leaf(-1)
    layers = tr.layers()
    assert layers["leaf"]["calls"] == 2 and layers["leaf"]["true"] == 1
    inner_s, outer_s = inner[4] - inner[3], outer[4] - outer[3]
    assert layers["inner"]["self_s"] == pytest.approx(
        inner_s - layers["leaf"]["wall_s"])
    assert layers["outer"]["self_s"] == pytest.approx(outer_s - inner_s)


def test_read_hoa_inverts_format_hoa():
    d = determinize_profile(normalize(gen_nbw(GenSpec(4, 2, 0.5, 0.3, 7))))
    back = workloads.read_hoa(format_hoa(d))
    assert format_hoa(back) == format_hoa(d)
    assert (back.initial, back.trans, back.acceptance) == (
        d.initial, d.trans, d.acceptance)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "corpus", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
