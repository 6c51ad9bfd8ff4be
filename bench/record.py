#!/usr/bin/env python3
"""Run bench/run.py over workloads and seeds and summarise the runs.

Run from the repository root:

    python3 bench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/BENCH_label.json

Each workload runs once per seed untraced, then twice traced on the first
seed. For every metric the table shows the median over the runs, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median. The two traced runs must report identical counts. One
run at a time, each in its own process, so peak memory is per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import WORKLOADS, is_count  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; its metric lines, digests and provenance."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: {workload} seed {seed} trace {trace} "
                         f"exited {proc.returncode}")
    result = json.loads(lines[-1])
    run = {"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
           "metrics": {}, "units": {}}
    for line in lines[:-1]:
        if line.startswith("  "):
            name, value, unit = line.split()[:3]
            run["metrics"][name] = float(value)
            run["units"][name] = unit
        elif line.startswith(("digests ", "provenance ")):
            key, payload = line.split(" ", 1)
            run[key] = json.loads(payload)
    # The JSON line carries every digit; prefer it over the printed value.
    for name, entry in result["metrics"].items():
        run["metrics"][name] = entry["value"]
    return run


def summarise(runs: list) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        summary[name] = {
            "unit": runs[0]["units"][name],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--traced", type=int, default=2,
                        help="traced runs per workload on the first seed")
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args(argv)

    record = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        untraced = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {"provenance": untraced[0]["provenance"],
                 "untraced": {"summary": summarise(untraced), "runs": untraced}}
        print(f"{workload}: {len(untraced)} untraced runs, seeds {args.seeds}, "
              f"host probe ms {[round(r['provenance']['host_probe_ms'], 1) for r in untraced]}")
        for name, s in entry["untraced"]["summary"].items():
            print(f"  {name:<16} {s['median']:>14.6g} {s['unit']:<6} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.2%}")
        if args.traced:
            traced = [run_once(workload, args.seeds[0], args.seconds, 1)
                      for _ in range(args.traced)]
            counts = [{k: v for k, v in r["metrics"].items() if is_count(k)}
                      for r in traced]
            repeat = all(c == counts[0] for c in counts)
            entry["traced"] = {"summary": summarise(traced), "runs": traced,
                               "counts_repeat": repeat}
            print(f"{workload}: {len(traced)} traced runs, seed {args.seeds[0]}, "
                  f"counts repeat exactly: {repeat}")
            for name, s in entry["traced"]["summary"].items():
                print(f"  {name:<46} {s['median']:>14.6g} {s['unit']}")
            if not repeat:
                raise SystemExit(f"error: {workload} traced counts differ between runs")
        for run in untraced + entry.get("traced", {}).get("runs", []):
            provenance = run.pop("provenance")
            run["host_probe_ms"] = provenance["host_probe_ms"]
            if "raw_medians" in provenance:
                run["raw_medians"] = provenance["raw_medians"]
            del run["units"]
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
