import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sturmjsr.cli import main
from sturmjsr.errors import PairFileError
from sturmjsr.pairfile import load_pair

REFERENCE = {
    "A0": [["5/8", "3/112"], ["7/8", "15/16"]],
    "A1": [["15/16", "1"], ["1/128", "7/8"]],
}
# An exact integer whose float overflows.
HUGE = "1" + "0" * 400


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(REFERENCE))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_command(pair_file, capsys):
    code, out, _ = run(capsys, ["classify", pair_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["A0"]["convexity"] == "ProjectivelyConcave"
    assert doc["A1"]["convexity"] == "ProjectivelyConvex"
    assert doc["pair"]["in_D"] is True
    assert doc["thresholds"] == {"t0": "24/77", "t1": "61/8"}


def test_classify_invalid_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["classify", str(bad)])
    assert code == 2 and "error" in err


def test_classify_unknown_keys_rejected(tmp_path, capsys):
    doc = dict(REFERENCE)
    doc["extra"] = 1
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, ["classify", str(path)])
    assert code == 2


def test_jsr_command(pair_file, capsys):
    code, out, _ = run(capsys, ["jsr", pair_file, "--t", "1/4", "--max-len", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["argmax_word"] == "0"
    assert abs(doc["lower"]) <= 1e-12
    assert doc["upper"] is None

    code, out, _ = run(
        capsys, ["jsr", pair_file, "--t", "1/4", "--max-len", "8", "--upper"]
    )
    doc = json.loads(out)
    assert doc["upper"] is not None and doc["upper"] >= doc["lower"]


def test_jsr_invalid_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    code, _, _ = run(capsys, ["jsr", str(bad), "--t", "1", "--max-len", "4"])
    assert code == 1


def test_sturmian_value_command(pair_file, capsys):
    code, out, _ = run(
        capsys, ["sturmian-value", pair_file, "--t", "1", "--param", "0/1"]
    )
    assert code == 0
    assert abs(float(out.strip())) <= 1e-12


def test_sturmian_value_outside_class_c_exits_2(tmp_path, capsys):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"A0": [[2, 1], [1, 2]], "A1": [[2, 1], [1, 2]]}))
    code, out, err = run(capsys, ["sturmian-value", str(path), "--t", "1", "--param", "1/2"])
    assert (code, out) == (2, "") and err.startswith("error: pair is not concave-convex")


# sha256 of classify's stdout on the README pair file and on its float copy.
CLASSIFY_STDOUT_SHA256 = {
    "exact": "8ba511a6d2af19a4a4baa968f87d23ee00c48e20e3957ec379ecc00f4681b54d",
    "float": "1e2ce18e2ed959da32bc96a02998c4f13fbc31ddf8b30a933d20c8f3875c9256",
}


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_classify_stdout_is_pinned(tmp_path, capsys, kind):
    doc = REFERENCE
    if kind == "float":
        doc = {k: [[float(Fraction(x)) for x in row] for row in rows] for k, rows in doc.items()}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["classify", str(path)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_STDOUT_SHA256[kind]


def test_staircase_command_csv(pair_file, capsys, tmp_path):
    argv = [
        "staircase", pair_file,
        "--t-min", "0.2", "--t-max", "16", "--samples", "12", "--max-den", "12",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,parameter_num,parameter_den,value,word"
    assert len(lines) == 13
    first = lines[1].split(",")
    assert (first[1], first[2], first[4]) == ("0", "1", "0")

    # Determinism, and --out writes the identical bytes.
    code2, out2, _ = run(capsys, argv)
    assert out2 == out
    target = tmp_path / "scan.csv"
    code3, _, _ = run(capsys, argv + ["--out", str(target)])
    assert code3 == 0
    assert target.read_text() == out


def test_certify_command_exit_codes(pair_file, capsys):
    code, out, _ = run(capsys, ["certify", pair_file, "--t", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Certified"
    assert doc["flatness"] <= 1e-6


def test_certify_inconclusive_exits_3(pair_file, capsys):
    # A loose series tail leaves visible ripple on the matched interval.
    code, out, _ = run(capsys, ["certify", pair_file, "--t", "1", "--tail-tol", "1e-3"])
    assert code == 3
    assert json.loads(out)["verdict"] == "Inconclusive"


@pytest.mark.parametrize(
    "t",
    [Fraction(24, 77) + Fraction(1, 10**30), Fraction(61, 8) - Fraction(1, 10**30)],
    ids=["above-t0", "below-t1"],
)
def test_certify_sub_ulp_interior_scale_exits_4(pair_file, capsys, t):
    code, out, err = run(capsys, ["certify", pair_file, "--t", f"{t.numerator}/{t.denominator}"])
    assert (code, out) == (4, "") and "does not bracket" in err


def test_certify_class_failure_exits_2(tmp_path, capsys):
    not_c = {"A0": [[2, 1], [1, 1]], "A1": [[2, 1], [1, 1]]}
    c_not_d = {"A0": [["2/3", "1/4"], ["5/8", "1"]], "A1": [["1", "8/5"], ["1/6", "8/9"]]}
    commands = [
        ["certify", "--t", "1"],
        ["certify", "--t", "-1"],  # the class failure wins over the bad scale
        ["staircase", "--t-min", "0.2", "--t-max", "16", "--samples", "12", "--max-den", "12"],
        ["plateau", "--param", "1/2", "--resolution", "1e-6", "--max-den", "20"],
        ["counterexample", "--target", "0.38", "--tol", "1e-6", "--max-den", "20"],
    ]
    for doc in (not_c, c_not_d):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        for argv in commands:
            code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
            assert (code, out) == (2, ""), argv
            assert err.startswith("error:")


def test_plateau_command(pair_file, capsys):
    code, out, _ = run(
        capsys,
        ["plateau", pair_file, "--param", "0/1", "--resolution", "1e-9", "--max-den", "10"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["t_hi"] == "24/77"


def test_plateau_of_the_top_parameter_is_unbounded(pair_file, capsys):
    code, out, _ = run(
        capsys,
        ["plateau", pair_file, "--param", "1/1", "--resolution", "1e-6", "--max-den", "20"],
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["t_lo"], doc["t_hi"]) == ("61/8", "inf")


def test_plateau_not_found_exits_4(pair_file, capsys):
    code, _, _ = run(
        capsys,
        ["plateau", pair_file, "--param", "13/34", "--resolution", "1e-6", "--max-den", "40"],
    )
    assert code == 4


def test_counterexample_command(pair_file, capsys):
    code, out, _ = run(
        capsys,
        [
            "counterexample", pair_file,
            "--target", "cf:0,2,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1",
            "--tol", "1e-6", "--max-den", "20",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bracket"]["lower"] == "3/8"
    assert doc["bracket"]["upper"] == "5/13"
    assert doc["interior"] is True
    assert doc["t_lo"] < doc["t"] < doc["t_hi"]
    target = (3 - math.sqrt(5)) / 2
    assert 3 / 8 < target < 5 / 13


@pytest.mark.parametrize(
    "argv",
    [
        ["staircase", "--t-min", "0.2", "--t-max", "16", "--samples", "12", "--max-den", "0"],
        ["plateau", "--param", "1/2", "--resolution", "1e-6", "--max-den", "0"],
        ["counterexample", "--target", "0.38", "--tol", "1e-6", "--max-den", "0"],
        ["counterexample", "--target", "cf:0,0", "--tol", "1e-6", "--max-den", "20"],
        ["counterexample", "--target", "cf:0,2,-2", "--tol", "1e-6", "--max-den", "20"],
        ["jsr", "--t", "1/0", "--max-len", "3"],
        ["counterexample", "--target", "1/0", "--tol", "1e-6", "--max-den", "20"],
        ["jsr", "--t", "inf", "--max-len", "3", "--upper"],
        ["jsr", "--t", "nan", "--max-len", "3"],
        ["jsr", "--t", "1e400", "--max-len", "3"],
        ["staircase", "--t-min", "1", "--t-max", "inf", "--samples", "12", "--max-den", "12"],
        ["staircase", "--t-min", "0", "--t-max", "16", "--samples", "12", "--max-den", "12"],
        ["staircase", "--t-min", "1e-200", "--t-max", "1e200", "--samples", "3", "--max-den", "10"],
        ["staircase", "--t-min", "0.2", "--t-max", "16", "--samples", "3", "--max-den", "10",
         "--out", "/"],
        ["certify", "--t", "1", "--tail-tol", "inf"],
        ["certify", "--t", "3", "--tail-tol", "1e400"],
        ["certify", "--t", HUGE],
        ["certify", "--t", "1/1" + HUGE[1:]],
        ["staircase", "--t-min", "1", "--t-max", HUGE, "--samples", "3", "--max-den", "10"],
        ["jsr", "--t", HUGE, "--max-len", "3"],
        ["sturmian-value", "--t", HUGE, "--param", "1/2"],
    ],
    ids=[
        "staircase-cap-0",
        "plateau-cap-0",
        "counterexample-cap-0",
        "cf-zero",
        "cf-negative",
        "jsr-t-zero-denominator",
        "target-zero-denominator",
        "jsr-t-inf",
        "jsr-t-nan",
        "jsr-t-overflow",
        "staircase-t-max-inf",
        "staircase-t-min-zero",
        "staircase-ratio-overflow",
        "staircase-out-unwritable",
        "certify-tail-tol-inf",
        "certify-tail-tol-overflow",
        "certify-t-exact-overflow",
        "certify-t-exact-underflow",
        "staircase-t-max-exact-overflow",
        "jsr-t-exact-overflow",
        "sturmian-value-t-exact-overflow",
    ],
)
def test_bad_flag_values_exit_1(pair_file, capsys, argv):
    code, out, err = run(capsys, [argv[0], pair_file, *argv[1:]])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "literal",
    [
        "NaN",
        "Infinity",
        "-Infinity",
        "1e400",
        pytest.param(f'"{HUGE}"', id="exact-string-overflow"),
        pytest.param(HUGE, id="exact-integer-overflow"),
        pytest.param(f'"1/{HUGE}"', id="exact-underflow"),
        # More digits than Python converts to an int.
        pytest.param("1" + "0" * 5000, id="integer-literal-over-digit-limit"),
        pytest.param('"3/"', id="empty-denominator"),
    ],
)
def test_non_finite_pair_entries_rejected(tmp_path, capsys, literal):
    text = json.dumps(REFERENCE).replace('"5/8"', literal)
    path = tmp_path / "pair.json"
    path.write_text(text)
    with pytest.raises(PairFileError):
        load_pair(str(path))
    code, out, err = run(capsys, ["classify", str(path)])
    assert (code, out) == (2, "") and err.startswith("error:")
    for argv in (["jsr", "--t", "1", "--max-len", "4"], ["certify", "--t", "1"]):
        code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
        assert (code, out) == (1, "") and err.startswith("error:")


def test_usage_error_exits_1(pair_file, capsys):
    code, _, _ = run(capsys, ["jsr", pair_file, "--t", "1"])  # missing --max-len
    assert code == 1


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_cli_import_pulls_in_no_numeric_stack():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = (
        "import sys, sturmjsr.cli; "
        "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"
