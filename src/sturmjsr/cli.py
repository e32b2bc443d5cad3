"""Command-line interface.

Exit codes: 0 success, 1 usage or flag parse error, 2 input not in the
class a command requires (for `classify`, an unreadable pair file), 3
certificate inconclusive, 4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import math
import sys
from fractions import Fraction

from . import classify as cls
from . import jsr as jsrmod
from . import staircase as st
from .certify import TAIL_TOL, Verdict, certify
from .dynamics import Interval, classified
from .errors import (
    NoConvergence,
    NotInClassC,
    NotInClassD,
    OutOfInteriorRange,
    PairFileError,
    PlateauNotFound,
    SturmJsrError,
)
from .pairfile import load_pair
from .scalar import Number, format_scalar, parse_scalar
from .words import RationalParameter

USAGE_EXIT = 1
CLASS_EXIT = 2
INCONCLUSIVE_EXIT = 3
NOCONV_EXIT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (int, Fraction)):
        return format_scalar(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, RationalParameter):
        return str(obj)
    if isinstance(obj, Interval):
        return [_jsonable(obj.lo), _jsonable(obj.hi)]
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.repr}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    raise TypeError(f"cannot render {type(obj)} as JSON")


def _emit(obj) -> None:
    print(json.dumps(_jsonable(obj), indent=2))


def _parse_param(text: str) -> RationalParameter:
    num, sep, den = text.partition("/")
    if not sep:
        raise ValueError(f"parameter must look like p/q, got {text!r}")
    return RationalParameter(int(num), int(den))


def _parse_target(text: str) -> Number:
    if text.startswith("cf:"):
        terms = [int(x) for x in text[3:].split(",") if x != ""]
        if not terms or any(a < 1 for a in terms[1:]):
            raise ValueError(f"continued fraction needs a0,a1,... with a1,... >= 1: {text!r}")
        value = Fraction(terms[-1])
        for a in reversed(terms[:-1]):
            value = a + 1 / value
        return value
    return parse_scalar(text)


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def cmd_classify(args) -> int:
    try:
        pair = load_pair(args.pair)
    except PairFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CLASS_EXIT
    report, unit = classified(pair)
    out = {
        "A0": cls.classify_matrix(pair.A0),
        "A1": cls.classify_matrix(pair.A1),
        "pair": report,
        "thresholds": unit.thresholds if unit else None,
    }
    _emit(out)
    return 0


def cmd_jsr(args) -> int:
    pair = load_pair(args.pair)
    estimate = jsrmod.jsr_lower_bruteforce(
        pair, parse_scalar(args.t), args.max_len, compute_upper=args.upper
    )
    _emit(estimate)
    return 0


def cmd_sturmian_value(args) -> int:
    pair = load_pair(args.pair)
    value = jsrmod.sturmian_value(pair, parse_scalar(args.t), _parse_param(args.param))
    print(_fmt17(value))
    return 0


def cmd_staircase(args) -> int:
    pair = load_pair(args.pair)
    rows = st.staircase_scan(
        pair,
        parse_scalar(args.t_min),
        parse_scalar(args.t_max),
        args.samples,
        args.max_den,
    )
    lines = ["t,parameter_num,parameter_den,value,word"]
    for row in rows:
        lines.append(
            f"{_fmt17(float(row.t))},{row.parameter.p},{row.parameter.q},"
            f"{_fmt17(row.value)},{row.word}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return USAGE_EXIT
    else:
        sys.stdout.write(text)
    return 0


def cmd_certify(args) -> int:
    pair = load_pair(args.pair)
    report = certify(pair, parse_scalar(args.t), grid_size=args.grid, tail_tol=args.tail_tol)
    _emit(report)
    return 0 if report.verdict is Verdict.CERTIFIED else INCONCLUSIVE_EXIT


def cmd_plateau(args) -> int:
    pair = load_pair(args.pair)
    estimate = st.plateau_bounds(
        pair, _parse_param(args.param), float(parse_scalar(args.resolution)), args.max_den
    )
    _emit(estimate)
    return 0


def cmd_counterexample(args) -> int:
    pair = load_pair(args.pair)
    result = st.counterexample_search(
        pair, _parse_target(args.target), float(parse_scalar(args.tol)), args.max_den
    )
    _emit(result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sturmjsr",
        description="Joint spectral radius of positive 2x2 matrix pairs "
        "via Sturmian maximizing measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[], help="class membership and thresholds")
    p.add_argument("pair")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("jsr", help="brute-force bounds on the joint spectral radius")
    p.add_argument("pair")
    p.add_argument("--t", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--upper", action="store_true", help="also compute the norm upper bound")
    p.set_defaults(func=cmd_jsr)

    p = sub.add_parser("sturmian-value", help="value of one Sturmian parameter")
    p.add_argument("pair")
    p.add_argument("--t", required=True)
    p.add_argument("--param", required=True)
    p.set_defaults(func=cmd_sturmian_value)

    p = sub.add_parser("staircase", help="scan the scale-to-parameter staircase")
    p.add_argument("pair")
    p.add_argument("--t-min", required=True)
    p.add_argument("--t-max", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--max-den", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_staircase)

    p = sub.add_parser("certify", help="grid certificate of the maximizing measure")
    p.add_argument("pair")
    p.add_argument("--t", required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tail-tol", type=float, default=TAIL_TOL)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("plateau", help="scale interval of one rational parameter")
    p.add_argument("pair")
    p.add_argument("--param", required=True)
    p.add_argument("--resolution", required=True)
    p.add_argument("--max-den", type=int, required=True)
    p.set_defaults(func=cmd_plateau)

    p = sub.add_parser("counterexample", help="bracket the scale of a target parameter")
    p.add_argument("pair")
    p.add_argument("--target", required=True)
    p.add_argument("--tol", required=True)
    p.add_argument("--max-den", type=int, required=True)
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PairFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (NotInClassC, NotInClassD, OutOfInteriorRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CLASS_EXIT
    except (NoConvergence, PlateauNotFound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NOCONV_EXIT
    except (SturmJsrError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
