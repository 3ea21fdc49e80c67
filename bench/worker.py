"""One interpreter of a benchmark run; ``run.py`` starts it.

Untraced, it sets the workload up several times, then runs whole passes
until the time budget is spent, at least one, and checks each pass.  Traced,
it sets up once and runs one pass, both under spans, and adds per-layer
totals.  Times are calibrated for the machine's drifting speed, and the
peak resident set size is sampled during the passes (calibration.py).  It
prints one JSON object on standard output.  It needs ``src`` of the same
checkout on ``PYTHONPATH``.
"""

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from calibration import Calibrator, rss_kib
from tracing import NoTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def measure(wl, budget: float, traced: bool) -> dict:
    """Set-up and passes inside one calibrated region; see calibration.py."""
    tr = Tracer() if traced else None
    setups, walls, passes, end_rss = [], [], [], []
    with Calibrator() as cal:
        for _ in range(1 if traced else wl.setup_reps):
            inputs = None
            gc.collect()
            start = perf_counter()
            if traced:
                with tr.span("setup"):
                    inputs = wl.setup(tr)
            else:
                inputs = wl.setup(NoTracer)
            setups.append((start, perf_counter()))

        begun = perf_counter()
        while not passes or (not traced and perf_counter() - begun + statistics.median(
                end - start for start, end in walls) <= budget):
            gc.collect()
            start = perf_counter()
            if traced:
                with tr.span("pass"):
                    res = wl.traced_pass(inputs, tr)
            else:
                res = wl.run_pass(inputs)
            walls.append((start, perf_counter()))
            end_rss.append(rss_kib())
            wl.check(inputs, res)
            passes.append(res)

    failures = [msg for res in passes for msg in res.failures]
    failures += [f"pass {i}: exact counts differ from pass 0"
                 for i, res in enumerate(passes) if res.counts != passes[0].counts]
    out = {
        "setup_s": cal.calibrated(setups),
        "pass_s": cal.calibrated(walls),
        "wall_pass_s": [end - start for start, end in walls],
        "job_s": [cal.calibrated(zip(res.jobs[::2], res.jobs[1::2]))
                  for res in passes],
        "reference_s": cal.reference_s(),
        "counts": passes[0].counts,
        "attempted": sum(len(res.jobs) // 2 for res in passes),
        "failures": failures,
        "peak_rss_kib": max(cal.peak_rss_kib(walls), *end_rss),
    }
    if traced:
        out["layers"] = tr.layers()
        out["layer_counts"] = passes[0].layer_counts
        WORK.mkdir(exist_ok=True)
        tr.dump(WORK / f"trace-{wl.name}.jsonl")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import buchidet
    if Path(buchidet.__file__).resolve().parent != ROOT / "src" / "buchidet":
        print(f"error: buchidet was imported from {buchidet.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, args.seed,
                        str(WORK / args.workload), args.tiny)
    out = measure(wl, args.budget, args.traced)
    if hasattr(wl, "names"):
        out["job_names"] = wl.names
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
