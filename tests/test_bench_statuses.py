"""Every call of the benchmark's plans, issued in-process: which ones raise.

A plan's calls, and so the calls that fail, are fixed by its seed.  A call
that starts raising shows up here before a benchmark run counts it as a
failed operation.  Every call that returns goes through the benchmark's own
output check, so a wrong output shows up here too.
"""

import contextlib
import json
import runpy
from pathlib import Path

import pytest

import sturmjsr
import sturmjsr.cli  # noqa: F401  (child.issue runs the CLI as sturmjsr.cli)

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = (1, 2, 3)

# (seed, call index, exception) of every raising call; the counterexample
# plateaus are 97/141, 39/61, 7/54, 49/130, 73/88 and 16/51.
RAISING = {
    "staircase": [],
    "counterexample": [
        (1, 5, "PlateauNotFound"),
        (1, 16, "PlateauNotFound"),
        (2, 17, "PlateauNotFound"),
        (2, 23, "PlateauNotFound"),
        (3, 6, "PlateauNotFound"),
        (3, 12, "PlateauNotFound"),
    ],
    "certify": [],
    "bruteforce": [],
}


class _NullTracer:
    def span(self, name):
        return contextlib.nullcontext()


@pytest.fixture(scope="module")
def bench():
    # run_path compiles the files without caching them.
    return runpy.run_path(str(BENCH / "inputs.py")), runpy.run_path(str(BENCH / "child.py"))


@pytest.mark.parametrize("workload", sorted(RAISING))
def test_raising_benchmark_calls_are_pinned(bench, tmp_path, workload):
    inputs, child = bench
    raising, problems = [], []
    for seed in SEEDS:
        plan_path = inputs["write_inputs"](workload, seed, tmp_path / str(seed))
        plan = json.loads(plan_path.read_text(encoding="utf-8"))
        pairs = {name: sturmjsr.load_pair(path) for name, path in plan["pairs"].items()}
        for index, call in enumerate(plan["calls"]):
            try:
                out = child["issue"](sturmjsr, pairs, plan, call, _NullTracer())
            except sturmjsr.SturmJsrError as exc:
                raising.append((seed, index, type(exc).__name__))
                continue
            bad = child["check"](sturmjsr, pairs, plan, call, out)
            problems.extend(f"seed {seed}, call {index}: {problem}" for problem in bad)
    assert raising == RAISING[workload]
    assert problems == []
