"""Matrix-pair input files.

Format: a JSON object with exactly the keys "A0" and "A1", each a 2x2
row-major array.  Entries are JSON numbers or strings "p/q" with arbitrary
precision integers; strings and integers stay on the exact rational path,
other finite numbers go to floats.  An exact entry whose float is infinite,
or 0 while the entry is not, is rejected.
"""

from __future__ import annotations

import json
import math

from .errors import PairFileError
from .matrices import Matrix2, MatrixPair
from .scalar import Number, parse_exact


def _parse_entry(value) -> Number:
    if isinstance(value, float):
        if not math.isfinite(value):  # json.load reads NaN, Infinity and 1e400
            raise PairFileError(f"matrix entry must be finite: {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise PairFileError(f"matrix entry must be a number or 'p/q' string: {value!r}")
    try:
        return parse_exact(str(value))
    except ValueError as exc:
        raise PairFileError(f"bad rational entry {value!r}: {exc}") from exc


def _parse_matrix(rows, name: str) -> Matrix2:
    if (
        not isinstance(rows, list)
        or len(rows) != 2
        or any(not isinstance(r, list) or len(r) != 2 for r in rows)
    ):
        raise PairFileError(f"{name} must be a 2x2 array")
    return Matrix2(
        _parse_entry(rows[0][0]),
        _parse_entry(rows[0][1]),
        _parse_entry(rows[1][0]),
        _parse_entry(rows[1][1]),
    )


def parse_pair(data) -> MatrixPair:
    if not isinstance(data, dict):
        raise PairFileError("pair file must be a JSON object")
    unknown = set(data) - {"A0", "A1"}
    if unknown:
        raise PairFileError(f"unknown keys in pair file: {sorted(unknown)}")
    if "A0" not in data or "A1" not in data:
        raise PairFileError("pair file needs both A0 and A1")
    return MatrixPair(_parse_matrix(data["A0"], "A0"), _parse_matrix(data["A1"], "A1"))


def load_pair(path: str) -> MatrixPair:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise PairFileError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or an integer literal over the digit limit
        raise PairFileError(f"{path} is not valid JSON: {exc}") from exc
    return parse_pair(data)
