"""Seeded input generator for the benchmark workloads.

Everything a workload feeds the library is made here from the workload name
and the seed: scales, windows, targets, plateau rationals and offsets.  Only
the three matrix pairs are fixed.  The generator imports nothing from
`sturmjsr`, so the program under test sees only the generated inputs.

Numbers are written to the plan as JSON floats (float path) or as "p/q"
strings (exact rational path); `child.py` decodes them.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

# The reference pair and the d2 fixture d2_pair(1/4, 3/2) of tests/conftest.py.
REF = {"A0": [["5/8", "3/112"], ["7/8", "15/16"]], "A1": [["15/16", "1"], ["1/128", "7/8"]]}
D2 = {"A0": [["1", "1/4"], ["3/2", "1"]], "A1": [["1", "3/2"], ["1/4", "1"]]}


def _to_float(entry: str) -> float:
    num, _, den = entry.partition("/")
    return int(num) / int(den or 1)


PAIRS = {
    "ref": REF,
    "d2": D2,
    "ref_float": {k: [[_to_float(x) for x in row] for row in rows] for k, rows in REF.items()},
}

# Thresholds t0 < t1 of the fixed pairs as `sturmjsr.thresholds` gives them.
# Inputs are placed relative to these constants, so the inputs of a seed do
# not depend on the code under test; set-up checks the program against them.
THRESHOLDS = {
    "ref": (Fraction(24, 77), Fraction(61, 8)),
    "d2": (0.3449489742783179, 2.8989794855663567),
    "ref_float": (0.3116883116883117, 7.625000000000002),
}

STAIRCASE_CAP = 40
STAIRCASE_SAMPLES = 200
STAIRCASE_WINDOWS = 8  # per pair: 6 inside (t0, t1), 2 across both thresholds
README_ARGV = ["--t-min", "0.15", "--t-max", "16", "--samples", "200", "--max-den", "40"]

SEARCH_CAP = 150
SEARCH_TOL = 1e-10
SEARCH_TARGETS = 16
CF_TERMS = 24
PLATEAU_BANDS = 8  # geometric q bands covering 2..SEARCH_CAP
# p/q for which plateau_bounds on the reference pair at SEARCH_CAP returns,
# without an error, an edge at which parameter_map reads another parameter
# (1/40 reads [1/40, 1/41]; 95/96 reads [96/97, 95/96]).  These are wrong
# outputs of the library, which a run must not report as correct, so they
# are not drawn.  A survey of every p/q with q <= SEARCH_CAP found no other:
# each either passes its check or raises PlateauNotFound.
WRONG_PLATEAUS = {(1, 40)} | {(q - 1, q) for q in (96, 97, 98, 99, 101, 102, 107, 108, 111, 112)}

CERTIFY_DECADES = range(3, 10)  # relative offsets 1e-3 .. 1e-9 from t0 and t1
# Grids of the interior scales per pair, by stratum.  With these the median
# call falls in the middle of the reference pair's grid-256 group.
CERTIFY_GRIDS = {"ref": (256, 1024, 256, 256, 1024, 256), "d2": (1024,) * 6}
CHECK_CAP = 40  # denominator cap of the parameter_map used to check certify

BRUTE_LEN = 15
BRUTE_LONG = 16  # one call per pair; sets the run's peak memory


def encode(x) -> float | str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def _log_position(pair: str, u: float) -> float:
    t0, t1 = (float(v) for v in THRESHOLDS[pair])
    return t0 * (t1 / t0) ** u


def _interior_scale(rng: random.Random, pair: str, exact: bool, stratum=(0, 1)):
    """A scale inside (t0, t1), log-uniform within stratum k of n."""
    k, n = stratum
    t = _log_position(pair, 0.05 + 0.9 * (k + rng.random()) / n)
    return Fraction(t).limit_denominator(10_000) if exact else t


def _near_threshold(rng: random.Random, pair: str, side: int, decade: int):
    """t0 (1 + d) or t1 (1 - d) with d in [1, 3) * 10^-decade; exact when t_i is."""
    d = Fraction(rng.randrange(100, 300), 10 ** (decade + 2))
    t_i = THRESHOLDS[pair][side]
    factor = 1 + d if side == 0 else 1 - d
    if isinstance(t_i, Fraction):
        return t_i * factor
    return t_i * float(factor)


def _continued_fraction(terms: list[int]) -> Fraction:
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a + 1 / value
    return value


def _plateau_rationals(rng: random.Random) -> list[tuple[int, int]]:
    """One reduced p/q per geometric q band, so q spans 2..cap every seed.

    Large q are kept on purpose: at this cap plateau_bounds raises
    PlateauNotFound for most of them, a defect the workload must show.
    """
    out = []
    edges = [2 * (SEARCH_CAP / 2) ** (i / PLATEAU_BANDS) for i in range(PLATEAU_BANDS + 1)]
    for lo, hi in zip(edges, edges[1:]):
        q = rng.randint(math.ceil(lo), max(math.ceil(lo), math.floor(hi)))
        p = rng.choice([p for p in range(1, q)
                        if math.gcd(p, q) == 1 and (p, q) not in WRONG_PLATEAUS])
        out.append((p, q))
    return out


def staircase_calls(rng: random.Random) -> list[dict]:
    calls = []
    for pair in PAIRS:
        t0, t1 = (float(v) for v in THRESHOLDS[pair])
        for w in range(STAIRCASE_WINDOWS):
            if w < STAIRCASE_WINDOWS - 2:
                u_lo = rng.uniform(0.02, 0.6)
                u_hi = min(u_lo + rng.uniform(0.15, 0.35), 0.98)
                t_min, t_max = _log_position(pair, u_lo), _log_position(pair, u_hi)
            else:
                t_min, t_max = t0 * rng.uniform(0.4, 0.9), t1 * rng.uniform(1.1, 2.5)
            calls.append({
                "op": "staircase_scan", "pair": pair, "t_min": t_min, "t_max": t_max,
                "samples": STAIRCASE_SAMPLES, "max_den": STAIRCASE_CAP,
                "spot": sorted(rng.sample(range(STAIRCASE_SAMPLES), 3)),
            })
    rng.shuffle(calls)
    calls.append({"op": "cli_staircase", "pair": "ref", "argv": README_ARGV})
    return calls


def counterexample_calls(rng: random.Random) -> list[dict]:
    def search() -> dict:
        target = _continued_fraction([0] + [rng.randint(1, 3) for _ in range(CF_TERMS)])
        return {"op": "counterexample_search", "pair": "ref", "target": encode(target),
                "tol": SEARCH_TOL, "max_den": SEARCH_CAP}

    # The first search builds the Sturmian table at the cap; it stays first.
    first = search()
    rest = [search() for _ in range(SEARCH_TARGETS - 1)]
    rest += [
        {"op": "plateau_bounds", "pair": "ref", "param": [p, q],
         "resolution": SEARCH_TOL, "max_den": SEARCH_CAP}
        for p, q in _plateau_rationals(rng)
    ]
    rng.shuffle(rest)
    return [first] + rest


def certify_calls(rng: random.Random) -> list[dict]:
    calls = []
    for pair in ("ref", "d2"):
        for side in (0, 1):
            for decade in CERTIFY_DECADES:
                t = _near_threshold(rng, pair, side, decade)
                calls.append({"op": "certify", "pair": pair, "t": encode(t), "grid": 256,
                              "check_cap": CHECK_CAP})
        # Stratified, since the cost of a certificate grows towards t1.
        grids = CERTIFY_GRIDS[pair]
        for k, grid in enumerate(grids):
            t = _interior_scale(rng, pair, exact=k % 2 == 0, stratum=(k, len(grids)))
            calls.append({"op": "certify", "pair": pair, "t": encode(t), "grid": grid,
                          "check_cap": CHECK_CAP})
    rng.shuffle(calls)
    return calls


def bruteforce_calls(rng: random.Random) -> list[dict]:
    calls = []
    for pair in ("ref", "d2"):
        t0, t1 = THRESHOLDS[pair]
        scales = [
            float(t0) * rng.uniform(0.3, 0.9),
            _interior_scale(rng, pair, exact=True),
            _interior_scale(rng, pair, exact=False),
            float(t1) * rng.uniform(1.1, 3.0),
        ]
        long_at = rng.randrange(len(scales))
        for k, t in enumerate(scales):
            calls.append({"op": "jsr_lower_bruteforce", "pair": pair, "t": encode(t),
                          "max_len": BRUTE_LONG if k == long_at else BRUTE_LEN})
    rng.shuffle(calls)
    return calls


WORKLOADS = {
    "staircase": staircase_calls,
    "counterexample": counterexample_calls,
    "certify": certify_calls,
    "bruteforce": bruteforce_calls,
}


def write_inputs(workload: str, seed: int, work_dir: Path) -> Path:
    """Write the pair files and the call plan of one run; returns the plan path."""
    rng = random.Random(f"{workload}:{seed}")
    work_dir.mkdir(parents=True, exist_ok=True)
    pair_paths = {}
    for name, data in PAIRS.items():
        path = work_dir / f"{name}.json"
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        pair_paths[name] = str(path)
    plan = {
        "workload": workload,
        "seed": seed,
        "pairs": pair_paths,
        "thresholds": {k: [encode(v) for v in th] for k, th in THRESHOLDS.items()},
        "calls": WORKLOADS[workload](rng),
    }
    plan_path = work_dir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    return plan_path
