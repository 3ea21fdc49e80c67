"""Benchmark of buchidet: one workload, one seed, one run.

    python3 bench/run.py --workload corpus|determinize|membership \
        --seed N --seconds S --trace 0|1

A run starts two fresh interpreters, one after the other, with different
PYTHONHASHSEED values, and gives each half of the seconds.  Each builds the
workload's inputs from the seed, measures whole passes over the workload's
job list in a closed loop and checks every output.  Their exact counts must
agree with each other and across passes.  With --trace 1 the second
interpreter runs one traced pass instead, and the run reports per-layer
metrics and the tracing overhead.  The report is printed as text, and its
last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The metric names and units are those of BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus", "determinize", "membership")
CHILD_TIMEOUT_S = 85
# The bounded per-job tail is p90, which leaves over a hundred samples beyond
# it in every run.  On membership, p99 is printed too but not bounded: it
# comes from the queries that accept late, and which ones those are changes
# with the state numbering the seed picks.  Determinize has six distinct
# jobs, too few for a percentile: its median and tail are those of the
# per-job median times.
TAIL_PERCENTILE = 90


def run_child(workload, seed, budget, hashseed, traced, tiny) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--budget", str(budget)]
    cmd += ["--traced"] * traced + ["--tiny"] * tiny
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def quantile(samples, pct) -> float:
    return statistics.quantiles(samples, n=100)[pct - 1]


def end_to_end(workload, kids) -> tuple[dict, list]:
    """The BENCHMARK.json end-to-end metrics, and report lines in the terms
    of each workload."""
    setups = [x for k in kids for x in k["setup_s"]]
    walls = [x for k in kids for x in k["pass_s"]]
    passes = [p for k in kids for p in k["job_s"]]
    samples = [x for p in passes for x in p]
    raw = [x for k in kids for x in k["wall_pass_s"]]
    counts = kids[0]["counts"]
    if workload == "determinize":
        per_job = [statistics.median(s) for s in zip(*passes)]
        p50, tail = statistics.median(per_job), max(per_job)
    else:
        p50 = statistics.median(samples)
        tail = quantile(samples, TAIL_PERCENTILE)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(walls),
        "job_p50_ms": p50 * 1e3,
        "job_tail_ms": tail * 1e3,
        "peak_rss_mib": max(k["peak_rss_kib"] for k in kids) / 1024,
    }
    rate = len(samples) / sum(walls)
    n = f"(n={len(samples)})"
    lines = [f"setup_s {metrics['setup_s']:.6f} s (median of {len(setups)} set-ups)"]
    if workload == "corpus":
        lines += [f"automata_per_s {rate:.3f} 1/s",
                  f"check_p50_ms {metrics['job_p50_ms']:.3f} ms {n}",
                  f"check_p90_ms {metrics['job_tail_ms']:.3f} ms {n}"]
    elif workload == "determinize":
        lines += [f"determinize_s {metrics['pass_s']:.4f} s "
                  f"(median of {len(walls)} passes)"]
        lines += [f"  job {name}: {sec:.4f} s, {job[1]} states, {job[4]} bytes"
                  for name, sec, job in zip(kids[0]["job_names"], per_job,
                                            counts["per_job"])]
    else:
        lines += [f"queries_per_s {rate:.1f} 1/s",
                  f"query_p50_us {metrics['job_p50_ms'] * 1e3:.2f} us {n}",
                  f"query_p90_us {metrics['job_tail_ms'] * 1e3:.2f} us {n}",
                  f"query_p99_us {quantile(samples, 99) * 1e6:.2f} us {n}",
                  f"accepted {counts['accepted']} of {counts['queries']} queries"]
    if workload != "membership":
        lines.append(f"profile_states {counts['profile_states']} count")
    lines += [f"safra_states {counts['safra_states']} count",
              f"peak_rss_mib {metrics['peak_rss_mib']:.2f} MiB",
              f"uncalibrated pass wall time {statistics.median(raw):.3f} s "
              f"(min {min(raw):.3f}, max {max(raw):.3f})",
              "reference loop: " + ", ".join(
                  f"{k['reference_s'] * 1e3:.3f} ms" for k in kids)
              + " (calibrated times assume 3 ms)"]
    return metrics, lines


def per_layer(traced: dict, untraced_wall: float) -> dict:
    """The BENCHMARK.json per-layer metrics from one traced pass.  A layer
    the workload does not call reads 0."""
    layers, counts = traced["layers"], traced["layer_counts"]

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for name in ("automata.nbw_member", "automata.drw_run_eval"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.us_per_call"] = per(get(name, "self_s"), get(name, "calls"), 1e6)
    m["automata.nbw_member.accept_ratio"] = per(
        get("automata.nbw_member", "true"), get("automata.nbw_member", "calls"))
    for kind, name in (("profile", "determinize.determinize_profile"),
                       ("safra", "safra.determinize_safra")):
        c = counts.get(kind, {})
        m[f"{name}.s"] = get(name, "wall_s")
        m[f"{name}.states"] = c.get("states", 0)
        m[f"{name}.us_per_transition"] = per(get(name, "wall_s"),
                                             c.get("transitions", 0), 1e6)
        if kind == "profile":
            for key in ("transitions", "pairs", "label_high_water"):
                m[f"{name}.{key}"] = c.get(key, 0)
    for name in ("determinize.sigma_successor", "safra.safra_successor",
                 "determinize.validate_macrostate", "safra.validate_safra_tree",
                 "harness.sweep_invariants"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["harness.sweep_invariants.words"] = counts.get("sweep_words", 0)
    m["explore.explore.self_s"] = get("explore.explore", "self_s")
    m["cli.main.self_s"] = get("cli.main", "self_s")
    for name in ("automata.parse_nbw", "automata.parse_drw", "automata.format_drw",
                 "hoa.format_hoa", "harness.gen_nbw", "automata.normalize",
                 "harness.enumerate_lassos"):
        m[f"{name}.s"] = get(name, "wall_s")
    m["automata.format_drw.bytes"] = counts.get("format_drw_bytes", 0)
    m["hoa.format_hoa.bytes"] = counts.get("format_hoa_bytes", 0)
    m["trace.overhead_ratio"] = traced["pass_s"][0] / untraced_wall
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (for the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "buchidet" / "__init__.py").is_file():
        print(f"error: no buchidet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    hashseeds = [(2 * args.seed + i) % 2 ** 32 for i in (1, 2)]
    try:
        kids = [run_child(args.workload, args.seed, args.seconds / 2, h,
                          traced=bool(args.trace and i == 1), tiny=args.tiny)
                for i, h in enumerate(hashseeds)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    failures = kids[0]["failures"] + kids[1]["failures"]
    if kids[0]["counts"] != kids[1]["counts"]:
        failures.append("exact counts differ between PYTHONHASHSEED="
                        f"{hashseeds[0]} and {hashseeds[1]}")
    attempted = kids[0]["attempted"] + kids[1]["attempted"]
    print(f"workload {args.workload} seed {args.seed} "
          f"PYTHONHASHSEED {hashseeds[0]},{hashseeds[1]} "
          f"trace {args.trace}")
    if args.trace:
        metrics = per_layer(kids[1], statistics.median(kids[0]["pass_s"]))
        lines = [f"{name} {value} {units.get(name, '?')}"
                 for name, value in metrics.items()]
    else:
        metrics, lines = end_to_end(args.workload, kids)
    lines.append(f"fail_ratio {len(failures) / attempted:.6f} "
                 f"({len(failures)} of {attempted} operations)")
    for line in lines + [f"FAILED {msg}" for msg in failures[:20]]:
        print("  " + line)
    if set(metrics) != set(units):
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
