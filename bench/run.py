"""Verifier benchmark: real artin-mutate invocations, each in a fresh process.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from --seed (see workloads.py) and every
invocation's output is checked against oracles independent of the program.
Invocations run one at a time, as a user runs them, with
ARTIN_MUTATE_THREADS removed so that the default serial path is measured.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the exit code is non-zero when any
output disagrees with its oracle.

--trace 0 reports the end-to-end metrics.  The whole workload is run again
and again while the next run still fits in --seconds (at least once), and
`wall_s` and `peak_rss_mb` are medians over those runs.  Before each run,
a few fresh interpreters import cluster_artin.cli and load the inputs;
`setup_s` is the median of all of them, so that its samples fall in
several of the host's speed phases.

--trace 1 runs the workload once plainly and once under traced_cli.py,
requires byte-identical stdout, and reports the per-layer metrics of
layers.py, including the tracing overhead (traced minus plain wall time).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
# Every run must exit within 180 s; children are killed past this point.
HARD_LIMIT_S = 170.0
SETUP_SAMPLES = 5  # per workload run
SETUP_CODE = (
    "import json, sys, cluster_artin.cli\n"
    "from cluster_artin.diagram import Diagram\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as fh:\n"
    "        Diagram.from_json(json.load(fh))\n"
)


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    cpu_s: float
    exit_code: int | None
    stdout: bytes


@dataclass
class WorkloadRun:
    """All invocations of a workload, once."""

    wall_s: float = 0.0
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    tally: workloads.Tally = field(default_factory=workloads.Tally)
    stdouts: list[bytes] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)


class Runner:
    """Starts the benchmark's children, one at a time."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.started = perf_counter()
        self.env = dict(os.environ)
        self.env.pop("ARTIN_MUTATE_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def child(self, argv: list[str]) -> Child:
        """Run argv to completion, or kill it at the run's hard limit."""
        remaining = HARD_LIMIT_S - (perf_counter() - self.started)
        if remaining <= 0:
            return Child(0.0, 0.0, 0.0, None, b"")
        out_path = self.workdir / "stdout"
        with open(out_path, "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime,
                     code if wall < remaining else None, out_path.read_bytes())


    def workload(self, invocations, traced: bool) -> WorkloadRun:
        run = WorkloadRun()
        spans_path = self.workdir / "spans.json"
        for inv in invocations:
            if traced:
                argv = [sys.executable, str(BENCH / "traced_cli.py"),
                        str(spans_path), *inv.args]
            else:
                argv = [sys.executable, "-m", "cluster_artin.cli", *inv.args]
            child = self.child(argv)
            run.wall_s += child.wall_s
            run.cpu_s += child.cpu_s
            run.rss_mb = max(run.rss_mb, child.rss_mb)
            run.stdouts.append(child.stdout)
            run.tally.add(inv.judge(child.exit_code, child.stdout))
            if traced and child.exit_code is not None and spans_path.exists():
                run.spans.append(json.loads(spans_path.read_text()))
                spans_path.unlink()
        return run


def end_to_end(runner: Runner, invocations, seconds: float):
    setup_argv = [sys.executable, "-c", SETUP_CODE,
                  *(inv.args[1] for inv in invocations)]
    runner.child(setup_argv)  # warm-up: file cache, and bytecode where written
    setups, runs = [], []
    start = perf_counter()
    while True:
        began = perf_counter()
        setups += [runner.child(setup_argv) for _ in range(SETUP_SAMPLES)]
        runs.append(runner.workload(invocations, traced=False))
        now = perf_counter()
        if now - start + (now - began) > seconds:
            break
    tally = workloads.Tally(problems=[f"setup exit code {c.exit_code}"
                                      for c in setups if c.exit_code != 0])
    for run in runs:
        tally.add(run.tally)
    walls = [run.wall_s for run in runs]
    metrics = {
        "setup_s": statistics.median(c.wall_s for c in setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(run.rss_mb for run in runs),
        "decided_frac": tally.decided / tally.attempted,
    }
    notes = [f"{len(runs)} workload runs, wall_s each: "
             + " ".join(f"{w:.3f}" for w in walls),
             f"failed_frac {tally.failed / tally.attempted:.6g} "
             f"({tally.failed} of {tally.attempted} items)"]
    return metrics, tally, notes


def per_layer(runner: Runner, invocations):
    plain = runner.workload(invocations, traced=False)
    traced = runner.workload(invocations, traced=True)
    tally = workloads.Tally()
    tally.add(plain.tally)
    tally.add(traced.tally)
    for inv, a, b in zip(invocations, plain.stdouts, traced.stdouts):
        if a != b:
            tally.problems.append(f"{inv.label}: traced stdout differs")
    if len(traced.spans) != len(invocations):
        tally.problems.append("a traced invocation wrote no spans")
    metrics = layers.per_layer(traced.spans, plain.cpu_s,
                               sum(len(out) for out in plain.stdouts),
                               traced.wall_s - plain.wall_s)
    notes = [f"plain wall {plain.wall_s:.3f} s, traced wall {traced.wall_s:.3f} s",
             "self-time shares: " + ", ".join(
                 f"{k} {v:.1%}" for k, v in layers.shares(traced.spans).items())]
    return metrics, tally, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= HARD_LIMIT_S / 2:
        parser.error(f"--seconds must be in (0, {HARD_LIMIT_S / 2:g}]")
    if not (SRC / "cluster_artin" / "cli.py").is_file() or not SPEC.is_file():
        sys.stderr.write(f"error: no cluster_artin sources under {SRC}\n")
        return 2
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    # A terminated run still kills its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        runner = Runner(workdir)
        invocations = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            metrics, tally, notes = per_layer(runner, invocations)
        else:
            metrics, tally, notes = end_to_end(runner, invocations, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    for note in notes:
        print(f"  {note}")
    for problem in tally.problems[:20]:
        print(f"  MISMATCH {problem}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    correct = not tally.problems and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
