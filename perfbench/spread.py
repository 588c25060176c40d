"""Run one workload over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workload sparse_wide --seeds 1-10 --seconds 50

Runs ``run.py`` once per seed, one after another, from the checkout root,
and prints for every metric the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median.  The summary also goes to
``perfbench/out/spread-<workload>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0,
                     "values": vals}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "trace": args.trace,
               "correct": all(r["correct"] for r in results),
               "attempted": [r["attempted"] for r in results],
               "failed": [r["failed"] for r in results],
               "metrics": summarise(results)}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.workload}-t{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    for name, m in summary["metrics"].items():
        print(f"{name:42s} {m['median']:14.6g} {m['unit']:6s} "
              f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} iqr/median {m['iqr_share']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
