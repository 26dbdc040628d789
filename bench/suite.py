"""Run every workload of the benchmark over several seeds and summarize.

Usage (from the root of a checkout):

    python3 bench/suite.py [--seeds 1-10] [--workloads a,b] [--trace]
                           [--record FILE] [--against FILE]

Workloads are interleaved round-robin (seed 1 of every workload, then seed
2, ...), so that a slow phase of the host falls on all of them alike.  Each
run is one `bench/run.py` process with the run_seconds of BENCHMARK.json.
For every end-to-end metric the summary gives the median, the quartiles and
their distance as a share of the median, next to the metric's bound.
--trace adds one traced run per workload on the first seed.  --record writes
the summary with the interpreter, core count and seeds to FILE; --against
compares the medians with such a file.  Exits non-zero when any run fails
its oracles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout + proc.stderr)
        return None
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median, quartiles, and the interquartile distance over the median."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def worse_by(metric: dict, new: float, old: float) -> float:
    """How much worse new is than old, as a share of old (negative: better)."""
    change = (new - old) / old if old else 0.0
    return change if metric["better"] == "lower" else -change


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    chosen = args.workloads.split(",")
    seconds = spec["run_seconds"]

    ok = True
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in chosen}
    for seed in args.seeds:
        for w in chosen:
            result = run_once(w, seed, seconds, 0)
            if result is None or not result["correct"]:
                ok = False
                print(f"{w} seed {seed}: FAILED {result}")
                continue
            for name, metric in result["metrics"].items():
                values[w][name].append(metric["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)

    old = json.loads(args.against.read_text())["workloads"] if args.against else {}
    summary = {}
    for w in chosen:
        summary[w] = {"end_to_end": {}}
        print(f"\n{w}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if not values[w][name]:
                continue
            s = spread(values[w][name])
            summary[w]["end_to_end"][name] = dict(s, unit=metric["unit"])
            verdict = ("steady" if s["spread"] <= bound / 3
                       else "within bound" if s["spread"] <= bound else "WIDE")
            line = (f"  {name:13s} median {s['median']:.5g} {metric['unit']}  "
                    f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  n {len(s['values'])}  "
                    f"spread {s['spread']:.3f} (bound {bound}, {verdict})")
            prior = old.get(w, {}).get("end_to_end", {}).get(name)
            if prior:
                change = worse_by(metric, s["median"], prior["median"])
                line += (f"  vs recorded {prior['median']:.5g}: worse by "
                         f"{change:+.3f}" + (" OVER BOUND" if change > bound else ""))
            print(line)
        if args.trace:
            result = run_once(w, args.seeds[0], seconds, 1)
            if result is None or not result["correct"]:
                ok = False
                print(f"  traced run FAILED {result}")
                continue
            summary[w]["per_layer"] = {
                k: v["value"] for k, v in result["metrics"].items()}
            print("  traced: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()))

    if args.record:
        args.record.write_text(json.dumps({
            "environment": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "machine": platform.machine(),
                "nproc": os.cpu_count(),
                "ARTIN_MUTATE_THREADS": "unset in every child",
            },
            "run_seconds": seconds,
            "seeds": args.seeds,
            "workloads": summary,
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
