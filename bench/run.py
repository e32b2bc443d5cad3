"""Benchmark of the sturmjsr library: one run of a workload for a seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of inputs.py, or `all` for the four in turn.

Run from the root of a checkout.  The inputs of the run are made from the
seed (see inputs.py).  The run repeats the workload's call sequence, each
repetition in a fresh interpreter started by `child.py`, one at a time:
a closed loop with a single caller and no worker threads or processes.  It
makes at least MIN_REPS repetitions and starts another while one more still
fits in S seconds.  SETUP_SAMPLES interpreters that only set up are spread
over the run.  Call latencies are divided by the machine's slowness around
them (see child.py), so run_s and op_*_ms read as at reference speed.

With --trace 0 it prints the end-to-end metrics; with --trace 1 the
per-layer split of traced repetitions, and the tracing overhead against
untraced ones.  Each metric is printed by name with its unit, and the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is non-zero, with no JSON
line, when the library cannot be found or an output check cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, write_inputs  # noqa: E402

MIN_REPS = 3
SETUP_SAMPLES = 6
DEADLINE_S = 170.0
TAIL_BEYOND = 10

# name -> unit, in the order the metrics are printed.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "ok_share": "share",
    "decided_share": "share",
}


class BenchError(Exception):
    pass


def spawn(plan: Path, mode: str, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline passed")
    cmd = [sys.executable, str(HERE / "child.py"), str(plan), str(time.monotonic_ns()), mode]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a repetition overran the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with code {proc.returncode} in mode {mode}")
    return json.loads(lines[-1])


def tail_percentile(n_calls: int) -> int:
    """Highest whole percentile that keeps TAIL_BEYOND calls beyond it."""
    return max(0, math.floor(100 * (1 - TAIL_BEYOND / n_calls)))


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def run_reps(plan: Path, modes: list[str], seconds: float, deadline: float):
    """Run the given modes in order, then keep cycling them while time allows.

    A set-up-only interpreter goes before each repetition until there are
    SETUP_SAMPLES, so set-up is sampled across the run, not in one burst.
    """
    reps, setups, walls = [], [], []
    start = time.monotonic()
    while len(reps) < len(modes) or time.monotonic() - start + statistics.median(walls) <= seconds:
        t = time.monotonic()
        if len(setups) < SETUP_SAMPLES:
            setups.append(spawn(plan, "setup", deadline))
        reps.append(spawn(plan, modes[len(reps) % len(modes)], deadline))
        walls.append(time.monotonic() - t)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(plan, "setup", deadline))
    return reps, setups


def at_reference_ms(rep: dict) -> list[float]:
    """Call latencies of a repetition at reference speed."""
    return [ms / slow for ms, slow in zip(rep["latencies_ms"], rep["slowness"])]


def run_s(rep: dict) -> float:
    return sum(at_reference_ms(rep)) / 1e3


def summarize(reps: list[dict], setups: list[dict], n_calls: int) -> tuple[dict, dict]:
    statuses = [s for r in reps for s in r["statuses"]]
    latencies = [x for r in reps for x in at_reference_ms(r)]
    raw = [x for r in reps for x in r["latencies_ms"]]
    failed = sum(s != "ok" for s in statuses)
    certify_calls = sum(r["certify_calls"] for r in reps)
    undecided = sum(r["undecided"] for r in reps)
    pct = tail_percentile(MIN_REPS * n_calls)
    figures = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "run_s": statistics.median(run_s(r) for r in reps),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": percentile(latencies, pct),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_share": 1 - failed / len(statuses),
        "decided_share": 1 - undecided / certify_calls if certify_calls else 1.0,
    }
    info = {
        "reps": len(reps),
        "calls": len(statuses),
        "failed": failed,
        "tail_pct": pct,
        "undecided": undecided,
        "certify_calls": certify_calls,
        "kinds": sorted({s for s in statuses if s != "ok"}),
        "setups": len(setups),
        "wall": {
            "run_s": statistics.median(sum(r["latencies_ms"]) / 1e3 for r in reps),
            "op_p50_ms": statistics.median(raw),
            "op_tail_ms": percentile(raw, pct),
        },
        "slowness": statistics.median(x for r in reps for x in r["slowness"]),
    }
    return figures, info


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "per_search", "per_certificate")):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="'all' runs the four workloads in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "sturmjsr" / "__init__.py").is_file():
        print(f"bench: no sturmjsr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args.seed, args.seconds, args.trace) for name in names)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        plan = write_inputs(workload, seed, work)
        n_calls = len(json.loads(plan.read_text(encoding="utf-8"))["calls"])
        spawn(plan, "setup", deadline)  # warm-up: byte-compiles and fills the file cache
        modes = ["trace", "run", "trace"] if trace else ["run"] * MIN_REPS
        reps, setups = run_reps(plan, modes, seconds, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = sorted({p for r in reps for p in r["problems"]})
    untraced = [r for r in reps if "layers" not in r]
    traced = [r for r in reps if "layers" in r]
    figures, info = summarize(reps, setups, n_calls)

    print(f"workload {workload}  seed {seed}  python {sys.version.split()[0]}  "
          f"nproc {os.cpu_count()}  repetitions {info['reps']} ({len(traced)} traced)  "
          f"calls {info['calls']}")
    if trace:
        base = statistics.median(run_s(r) for r in untraced)
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_share"] = statistics.median(run_s(r) for r in traced) / base - 1
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
        for name, v in layers.items():
            print(f"  {name:<40} {v:>14.6g} {layer_unit(name)}")
    else:
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, unit in END_TO_END.items():
            print(f"  {name:<16} {figures[name]:>12.6g} {unit}")
        print(f"  {'failed_share':<16} {1 - figures['ok_share']:>12.6g} share  "
              f"({info['failed']} of {info['calls']} calls: {', '.join(info['kinds']) or 'none'})")
        print(f"  {'undecided_share':<16} {1 - figures['decided_share']:>12.6g} share  "
              f"({info['undecided']} of {info['certify_calls']} certify calls Inconclusive)")
        print(f"  op_tail_ms is p{info['tail_pct']} of {info['calls']} calls; "
              f"setup_s is the median of {info['setups']} set-ups")
        print(f"  run_s and op_*_ms are at reference speed; the machine ran {info['slowness']:.4g}x "
              f"slower (median); wall time less speed probes: "
              + "  ".join(f"{k} {v:.6g}" for k, v in info["wall"].items()))
    for p in problems:
        print(f"  check failed: {p}")
    print(json.dumps({
        "correct": not problems and "crash" not in info["kinds"],
        "attempted": info["calls"],
        "failed": info["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
