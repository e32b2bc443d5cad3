"""One repetition of a workload, in a fresh interpreter.

    python3 bench/child.py PLAN SPAWN_NS {run,trace,setup}

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
interpreter, so set-up time counts interpreter start.  Set-up imports
`sturmjsr` from the checkout's `src`, reads the pair files with `load_pair`
and computes each pair's `pair_report` and `thresholds`.  The calls of the
plan are then issued one at a time, each waited for before the next, and
checked afterwards by an independent route.  Around and during the calls the
machine's slowness is sampled, so the parent can bring each latency to
reference speed.  The result is one JSON object on the last line of standard
output.  Exits 3 when an output check cannot run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# sha256 of the README staircase CSV, recorded at the seed commit.
README_CSV_SHA256 = "1cd26843f532ea8ceaf4ebcf1c4d45bb6a7ea38e2afce754bd45d635d60b4c85"
VALUE_TOL = 1e-9
BALANCED_TOL = 1e-12
# Time of one calibration round at reference speed: the fastest round seen on
# an idle moment of the machine the baseline was recorded on.
CALIBRATION_REF_S = 1.07e-3
PROBE_PERIOD_S = 0.1


class CheckCannotRun(Exception):
    pass


def decode(x):
    if isinstance(x, str):
        num, _, den = x.partition("/")
        return Fraction(int(num), int(den or 1))
    return float(x)


def _calibration_round() -> None:
    acc = 0.0
    for i in range(1, 6000):
        acc += math.log(i) / (i + 0.5)
    q = Fraction(0)
    for i in range(1, 120):
        q += Fraction(1, i * (i + 1))


def slowness() -> float:
    """How much slower than reference speed the machine runs right now.

    Best of three timings of a fixed pure-Python loop that touches nothing
    of the library, divided by its time at reference speed.
    """
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        _calibration_round()
        best = min(best, time.perf_counter() - t)
    return best / CALIBRATION_REF_S


class SpeedProbe:
    """Samples slowness() from a timer signal every PROBE_PERIOD_S.

    A call of a second or more is then normalised by the speed during it,
    not only by the speed at its two ends.  The time spent in the samples is
    kept, so it can be taken out of the call's latency.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(slowness())
        self.spent_s += time.perf_counter() - t

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(plan: dict):
    t = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import sturmjsr

    import_s = time.perf_counter() - t
    if Path(sturmjsr.__file__).resolve().parent != SRC / "sturmjsr":
        raise CheckCannotRun(f"sturmjsr imported from {sturmjsr.__file__}, not {SRC}")
    # cli is imported here, so that tracing also rebinds its module attributes.
    from sturmjsr import classify, cli  # noqa: F401

    pairs, problems, load_s = {}, [], 0.0
    for name, path in plan["pairs"].items():
        t = time.perf_counter()
        pair = sturmjsr.load_pair(path)
        load_s += time.perf_counter() - t
        pairs[name] = pair
        report = classify.pair_report(pair)
        th = sturmjsr.thresholds(pair)
        want = [decode(v) for v in plan["thresholds"][name]]
        got = [th.t0, th.t1]
        close = all(abs(float(g) - float(w)) <= 1e-12 * float(w) for g, w in zip(got, want))
        if not report.in_D:
            problems.append(f"{name}: not in the Sturmian class")
        if not (got == want if isinstance(want[0], Fraction) else close):
            problems.append(f"{name}: thresholds {got} differ from {want}")
    return sturmjsr, pairs, import_s, load_s, problems


def issue(S, pairs, plan, call, tracer):
    """Make one public call; the function is looked up at call time."""
    op = call["op"]
    pair = pairs[call["pair"]]
    if op == "staircase_scan":
        return S.staircase_scan(pair, call["t_min"], call["t_max"], call["samples"], call["max_den"])
    if op == "cli_staircase":
        out = io.StringIO()
        argv = ["staircase", plan["pairs"][call["pair"]], *call["argv"]]
        with contextlib.redirect_stdout(out), tracer.span("cli.main"):
            code = S.cli.main(argv)
        return code, out.getvalue()
    if op == "counterexample_search":
        return S.counterexample_search(pair, decode(call["target"]), call["tol"], call["max_den"])
    if op == "plateau_bounds":
        param = S.RationalParameter(*call["param"])
        return S.plateau_bounds(pair, param, call["resolution"], call["max_den"])
    if op == "certify":
        return S.certify(pair, decode(call["t"]), grid_size=call["grid"])
    if op == "jsr_lower_bruteforce":
        return S.jsr_lower_bruteforce(pair, decode(call["t"]), call["max_len"], compute_upper=True)
    raise CheckCannotRun(f"unknown operation {op!r}")


def check(S, pairs, plan, call, out) -> list[str]:
    """Problems found in one call's output; empty when the output is right."""
    op = call["op"]
    pair = pairs.get(call["pair"])
    bad = []
    if op == "staircase_scan":
        t0, t1 = (decode(v) for v in plan["thresholds"][call["pair"]])
        if len(out) != call["samples"]:
            bad.append(f"{len(out)} samples, asked for {call['samples']}")
        ts = [float(s.t) for s in out]
        params = [s.parameter.as_fraction() for s in out]
        if ts != sorted(ts) or params != sorted(params):
            bad.append("samples not monotone in t and parameter")
        for s in out:
            if s.t <= t0 and s.parameter.as_fraction() != 0:
                bad.append(f"parameter {s.parameter} at t = {s.t} <= t0")
            if s.t >= t1 and s.parameter.as_fraction() != 1:
                bad.append(f"parameter {s.parameter} at t = {s.t} >= t1")
        for k in call["spot"]:
            s = out[k]
            p, q = s.parameter.p, s.parameter.q
            if len(s.word) != q or s.word.count("1") != p or not S.is_balanced(s.word):
                bad.append(f"word {s.word!r} is not a balanced word of {s.parameter}")
            ref = S.sturmian_value(pair, s.t, s.parameter)
            if abs(ref - s.value) > VALUE_TOL:
                bad.append(f"value {s.value} at t = {s.t}, word product gives {ref}")
    elif op == "cli_staircase":
        code, text = out
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if code != 0 or digest != README_CSV_SHA256:
            bad.append(f"README staircase: exit {code}, sha256 {digest}")
    elif op == "counterexample_search":
        target = decode(call["target"])
        lo = S.parameter_map(pair, out.t_lo, call["max_den"]).parameter.as_fraction()
        hi = S.parameter_map(pair, out.t_hi, call["max_den"]).parameter.as_fraction()
        if not (out.t_lo <= out.t <= out.t_hi and lo <= target <= hi):
            bad.append(f"bracket [{out.t_lo}, {out.t_hi}] reads [{lo}, {hi}], target {target}")
    elif op == "plateau_bounds":
        want = Fraction(*call["param"])
        lo = S.parameter_map(pair, out.t_lo, call["max_den"]).parameter.as_fraction()
        hi = S.parameter_map(pair, out.t_hi, call["max_den"]).parameter.as_fraction()
        if not (out.t_lo <= out.t_hi and lo == want == hi):
            bad.append(f"plateau [{out.t_lo}, {out.t_hi}] reads [{lo}, {hi}], want {want}")
    elif op == "certify":
        t = decode(call["t"])
        floor = S.parameter_map(pair, t, call["check_cap"]).value - VALUE_TOL
        if not out.constant_value >= floor:
            bad.append(f"constant {out.constant_value} below restricted maximum {floor}")
    elif op == "jsr_lower_bruteforce":
        if not out.lower <= out.upper:
            bad.append(f"lower {out.lower} above upper {out.upper}")
        if out.argmax_parameter is not None:
            ref = S.sturmian_value(pair, decode(call["t"]), out.argmax_parameter)
            if abs(ref - out.lower) > BALANCED_TOL:
                bad.append(f"lower {out.lower} but Sturmian value {ref}")
    return bad


def main(argv: list[str]) -> int:
    plan_path, spawn_ns, mode = argv[0], int(argv[1]), argv[2]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    S, pairs, import_s, load_s, problems = set_up(plan)
    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    result = {"setup_s": setup_s, "import_s": import_s, "load_s": load_s, "problems": problems}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer

    tracer = Tracer()
    if mode == "trace":
        tracer.install()
    records, slow, before = [], [], slowness()
    with SpeedProbe() as probe:
        for call in plan["calls"]:
            n, spent = len(probe.samples), probe.spent_s
            tracer.on = mode == "trace"
            t = time.perf_counter()
            try:
                out, status = issue(S, pairs, plan, call, tracer), "ok"
            except S.SturmJsrError as exc:
                out, status = None, type(exc).__name__
            except Exception:
                out, status = None, "crash"
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - t - (probe.spent_s - spent)
            tracer.on = False
            after = slowness()
            seen = [before, *probe.samples[n:], after]
            records.append((call, out, status, elapsed))
            slow.append(sum(seen) / len(seen))
            before = after

    statuses, undecided, certified = [], 0, 0
    for call, out, status, _ in records:
        if status == "ok":
            try:
                bad = check(S, pairs, plan, call, out)
            except S.SturmJsrError as exc:
                bad = [f"check raised {type(exc).__name__}: {exc}"]
            if bad:
                status = "check_failed"
                problems.append(f"{call['op']} {json.dumps(call)}: {'; '.join(bad)}")
            if call["op"] == "certify":
                undecided += out.verdict is S.Verdict.INCONCLUSIVE
        certified += call["op"] == "certify"
        statuses.append(status)

    result.update(
        latencies_ms=[r[3] * 1e3 for r in records],
        slowness=slow,
        statuses=statuses,
        certify_calls=certified,
        undecided=undecided,
        peak_rss_mb=peak_rss_mb(),
    )
    if mode == "trace":
        layers = tracer.metrics()
        layers["setup.import_s"] = import_s
        layers["pairfile.load_pair.busy_s"] += load_s
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except CheckCannotRun as exc:
        print(f"child: {exc}", file=sys.stderr)
        sys.exit(3)
