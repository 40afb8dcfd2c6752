"""Command-line behavior: golden outputs, JSON schema, precision, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import wittpadics
from wittpadics import (
    ExactExponent,
    PAdicInt,
    PAdicNumber,
    fermat_quotient,
    padic_to_witt,
    pexp,
    plog,
    polar,
    ppow,
    teichmuller,
)
from wittpadics.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ golden outputs

GOLDEN = [
    (
        ["root", "--p", "11", "--degree", "11", "--value", "3", "--precision", "3"],
        "root: 113 ≡ -8 (mod 11^2)\n",
    ),
    (
        ["fermat-quotient", "--p", "11", "--value", "3", "--precision", "3"],
        "44 (mod 11^2)\n",
    ),
    (
        ["flt-witness", "--p", "7", "--precision", "6"],
        "x = 1, y = 2, sum = 129\nroot: 12057 ≡ -4750 (mod 7^5)\n",
    ),
    (
        ["wieferich", "--base", "2", "--limit", "10000"],
        "1093 3511\n",
    ),
]


@pytest.mark.parametrize("argv,expected", GOLDEN)
def test_golden_outputs_are_stable(capsys, argv, expected):
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == expected
    code2, out2, _ = run(capsys, argv)
    assert (code2, out2) == (0, expected)  # byte-identical across runs


# Every command in both output modes: results, each no-root reason, usage
# errors and library failures.  Each entry holds an argv and the exit code,
# stdout and stderr the CLI gave for it when the corpus was recorded.
GOLDEN_CORPUS = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN_CORPUS, ids=[case["argv"] for case in GOLDEN_CORPUS])
def test_golden_corpus(capsys, case):
    assert run(capsys, case["argv"].split()) == (case["code"], case["out"], case["err"])


def test_flt_witness_root_reduces_correctly():
    assert 12057 % 49 == 3
    assert pow(12057, 7, 7**6) == 129


# -------------------------------------------------------------------- convert


def test_convert_to_witt(capsys):
    code, out, _ = run(capsys, ["convert", "--p", "3", "--value", "2", "--precision", "3", "--to", "witt"])
    assert code == 0
    assert out == "(2,1,0]\n"


def test_convert_json_round_trip(capsys):
    code, out, _ = run(
        capsys,
        ["convert", "--p", "3", "--value", "2", "--precision", "3", "--to", "witt", "--output", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["precision"] == 3
    assert payload["result"]["witt"] == padic_to_witt(PAdicInt(3, 3, 2)).to_json_dict()


def test_convert_rational_value(capsys):
    code, out, _ = run(capsys, ["convert", "--p", "5", "--value", "2/3", "--precision", "2"])
    assert code == 0
    assert out == "(4,2]\n"


@pytest.mark.parametrize(
    "command,p,K,value",
    [
        ("log", 5, 3, "6/11"),
        ("log", 2, 6, "1/5"),
        ("teichmuller", 5, 3, "1/2"),
        ("teichmuller", 7, 4, "-3/4"),
        ("exp", 3, 5, "3/2"),
        ("exp", 2, 6, "4/3"),
        ("exp", 5, 8, "1/2"),  # 3 (mod 5): a domain failure, the same for both spellings
    ],
)
def test_rational_value_reads_as_its_residue(capsys, command, p, K, value):
    m, n = map(int, value.split("/"))
    residue = m * pow(n, -1, p**K) % p**K
    common = [command, "--p", str(p), "--precision", str(K), "--output", "json"]
    assert run(capsys, [*common, "--value", value]) == run(capsys, [*common, "--value", str(residue)])


def test_rational_log_and_denominator_divisible_by_p(capsys):
    code, out, _ = run(capsys, ["log", "--p", "5", "--value", "6/11", "--precision", "3", "--output", "json"])
    assert (code, json.loads(out)["result"]["residue"]) == (0, 95)
    for command in ("teichmuller", "log", "exp"):
        code, out, err = run(capsys, [command, "--p", "5", "--value", "1/5"])
        assert (code, out, err) == (2, "", "error: denominator 5 must not be divisible by p = 5\n")


def test_convert_to_padic(capsys):
    code, out, _ = run(capsys, ["convert", "--p", "11", "--value", "-8", "--precision", "2", "--to", "padic"])
    assert code == 0
    assert out == "113 ≡ -8 (mod 11^2)\n"


# --------------------------------------------------------------- other cmds


def test_log_exp_polar(capsys):
    code, out, _ = run(capsys, ["log", "--p", "5", "--value", "6", "--precision", "3"])
    assert (code, out) == (0, "55 (mod 5^3)\n")
    code, out, _ = run(capsys, ["exp", "--p", "5", "--value", "55", "--precision", "3"])
    assert (code, out) == (0, "6 (mod 5^3)\n")
    code, out, _ = run(capsys, ["polar", "--p", "5", "--value", "6", "--precision", "3"])
    assert code == 0
    assert out == "valuation: 0\nteichmuller digit: 1\nargument: 55 (mod 5^3)\n"


def test_pow_with_fractional_exponent(capsys):
    code, out, _ = run(
        capsys, ["pow", "--p", "11", "--value", "3", "--exponent", "1/11", "--precision", "3"]
    )
    assert code == 0
    assert out == "113 ≡ -8 (mod 11^2)\n"


def test_sqrt_at_two(capsys):
    code, out, _ = run(capsys, ["root", "--p", "2", "--degree", "2", "--value", "17", "--precision", "10"])
    assert code == 0
    assert out == "root: 233 (mod 2^9)\nroot: 279 ≡ -233 (mod 2^9)\n"


def test_json_large_integers_become_strings(capsys):
    code, out, _ = run(
        capsys,
        ["teichmuller", "--p", "13", "--value", "2", "--precision", "16", "--output", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload["result"]["modulus"], str)
    assert int(payload["result"]["modulus"]) == 13**16


def _residue_json(x: PAdicInt) -> dict:
    return {"p": x.p, "precision": x.precision, "residue": x.residue, "modulus": x.modulus}


def _large_p_cases(p: int, K: int):
    """(argv, the library's result) for each command, with integers left raw."""
    unit = PAdicInt(p, K, -5)
    number = PAdicNumber.from_integer(-5, p, K)
    cube = ppow(number, ExactExponent(3))
    form = polar(number)
    return [
        (["convert", "--value", "-5", "--to", "padic"], _residue_json(unit)),
        (["convert", "--value", "-5", "--to", "witt"], {"witt": padic_to_witt(unit).to_json_dict()}),
        (["teichmuller", "--value", "-5"], _residue_json(teichmuller(unit))),
        (["log", "--value", str(p + 1)], _residue_json(plog(PAdicInt(p, K, p + 1)))),
        (["exp", "--value", str(p)], _residue_json(pexp(PAdicInt(p, K, p)))),
        (
            ["polar", "--value", "-5"],
            {"valuation": 0, "teich_digit": p - 5, "argument": _residue_json(form.argument)},
        ),
        (
            ["pow", "--value", "-5", "--exponent", "3"],
            {"p": p, "zero": False, "valuation": 0, "unit": _residue_json(cube.unit)},
        ),
        (["fermat-quotient", "--value", "-5"], _residue_json(fermat_quotient(number))),
    ]


def _assert_json_encodes(got, want):
    # Every integer below 2^53 in absolute value stays a JSON integer; every
    # other one is the decimal string of the library's value.
    if type(want) is int:
        assert got == (want if abs(want) < 2**53 else str(want))
        assert type(got) is (int if abs(want) < 2**53 else str)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _assert_json_encodes(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_json_encodes(g, w)
    else:
        assert got == want


@pytest.mark.parametrize("p", [2**61 - 1, 2**64 - 59], ids=["2^61-1", "2^64-59"])
def test_json_integers_past_2_53_are_strings_in_every_field(capsys, p):
    for argv, want in _large_p_cases(p, 3):
        code, out, err = run(capsys, argv + ["--p", str(p), "--precision", "3", "--output", "json"])
        assert (code, err) == (0, ""), argv
        payload = json.loads(out)
        assert payload["ok"] is True and payload["precision"] == 3
        _assert_json_encodes(payload["result"], want)


@pytest.mark.parametrize("output", ["human", "json"])
@pytest.mark.parametrize(
    "value_text, value, precision",
    [("2", 2, 4200), ("1" + "0" * 4398 + "7", 10**4399 + 7, 8)],
    ids=["4374-digit-residue", "4400-digit-value"],
)
def test_integers_past_the_4300_digit_conversion_limit(capsys, output, value_text, value, precision):
    argv = ["teichmuller", "--p", "11", "--value", value_text, "--precision", str(precision), "--output", output]
    code, out, _ = run(capsys, argv)
    assert code == 0
    residue = json.loads(out)["result"]["residue"] if output == "json" else out.split()[0]
    assert int(residue) == teichmuller(PAdicInt(11, precision, value)).residue


# ------------------------------------------------------------------ failures


def test_missing_root_is_a_domain_failure(capsys):
    code, out, err = run(capsys, ["root", "--p", "5", "--degree", "5", "--value", "2", "--precision", "4"])
    assert code == 1
    assert out == ""
    assert "Witt digit 1 nonzero" in err
    assert "q_1(2) ≡ 3 (mod 5)" in err


def test_missing_root_json(capsys):
    code, out, _ = run(
        capsys,
        ["root", "--p", "5", "--degree", "5", "--value", "2", "--precision", "4", "--output", "json"],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert "Witt digit 1 nonzero" in payload["reason"]


@pytest.mark.parametrize("output", ["human", "json"])
def test_unit_5_mod_8_has_no_square_root(capsys, output):
    # 5 = 1 + 4 has its first nonzero Witt digit at index 2, which no golden case reaches
    argv = ["root", "--p", "2", "--degree", "2", "--value", "5", "--precision", "5", "--output", output]
    code, out, err = run(capsys, argv)
    assert code == 1
    if output == "json":
        assert (json.loads(out), err) == ({"ok": False, "precision": 5, "reason": "unit is not 1 mod 8"}, "")
    else:
        assert (out, err) == ("", "no root: unit is not 1 mod 8\n")


@pytest.mark.parametrize("p, value, k", [(5, 25, 1), (5, 2, 1), (7, 50, 2), (2, 3, 1), (2, 5, 2)])
def test_pow_and_root_report_a_failed_root_alike(capsys, p, value, k):
    # x^(1/p^k) and the degree-p^k root of x fail on one condition, with one text
    common = ["--p", str(p), "--value", str(value), "--precision", "6"]
    pow_argv = ["pow", "--exponent", f"1/{p**k}", *common]
    root_argv = ["root", "--degree", str(p**k), *common]
    pow_code, pow_out, pow_err = run(capsys, pow_argv)
    root_code, root_out, root_err = run(capsys, root_argv)
    assert (pow_code, pow_out) == (root_code, root_out) == (1, "")
    assert pow_err == root_err and root_err.startswith("no root: ")
    pow_json = json.loads(run(capsys, [*pow_argv, "--output", "json"])[1])
    root_json = json.loads(run(capsys, [*root_argv, "--output", "json"])[1])
    assert pow_json["reason"] == root_json["reason"] == root_err[len("no root: ") : -1]


def _root_reason(capsys, argv):
    code, out, err = run(capsys, argv)
    code_json, out_json, _ = run(capsys, [*argv, "--output", "json"])
    assert (code, code_json, out) == (1, 1, "")
    assert err == f"no root: {json.loads(out_json)['reason']}\n"
    return err


def test_root_failure_text_does_not_depend_on_how_the_value_is_written(capsys):
    # 9 = 2/3 (mod 25), and q_1 reads the value mod p^2 alone
    argv = ["root", "--p", "5", "--degree", "5", "--precision", "4", "--value"]
    assert _root_reason(capsys, [*argv, "2/3"]) == _root_reason(capsys, [*argv, "9"])
    # the residue test names the unit mod p, not the 478-digit value
    argv = ["root", "--p", "3", "--degree", "2", "--value", str(2 * 3**1000)]
    assert _root_reason(capsys, argv) == "no root: 2 is not a 2-th power residue mod 3\n"


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12])
def test_root_at_p2_matches_brute_force_on_every_small_unit(capsys, m):
    # every odd unit mod 2^K, K <= 7: the roots are the brute-force m-th roots
    # read mod 2^(K - v), v = v_2(m), or the unit is not 1 mod 2^(v + 2)
    v = (m & -m).bit_length() - 1
    for K in range(1, 8):
        for u in range(1, 2**K, 2):
            argv = ["root", "--p", "2", "--degree", str(m), "--value", str(u), "--precision", str(K)]
            code, out, err = run(capsys, argv + ["--output", "json"])
            payload = json.loads(out)
            if v and K < v + 2:
                reason = f"need {v + 2} digits to read Witt digits 1..{v + 1}, have {K}"
                assert (code, payload["reason"]) == (1, reason), (K, u)
                continue
            expected = sorted({r % 2 ** (K - v) for r in oracles.brute_force_roots(2, K, m, u)})
            if code == 0:
                roots = payload["result"]["roots"]
                assert [r["unit"]["residue"] for r in roots] == expected, (K, u)
                assert all(r["valuation"] == 0 and r["unit"]["precision"] == K - v for r in roots)
            else:
                assert (code, payload["reason"]) == (1, f"unit is not 1 mod {2 ** (v + 2)}"), (K, u)
                assert expected == []
            assert (code == 0) == (u % 2 ** (v + 2) == 1 or not v), (K, u)


@pytest.mark.parametrize("output", ["human", "json"])
def test_square_root_of_a_2adic_non_unit(capsys, output):
    # 4 = 2^2 has the square roots 2 * (+-1); the unit path alone rejected it
    argv = ["root", "--p", "2", "--degree", "2", "--value", "4", "--precision", "8", "--output", output]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    if output == "json":
        roots = json.loads(out)["result"]["roots"]
        assert [(r["valuation"], r["unit"]["residue"], r["unit"]["precision"]) for r in roots] == [(1, 1, 7), (1, 127, 7)]
    else:
        assert out == "root: 2^1 * 1 (mod 2^7)\nroot: 2^1 * 127 ≡ -1 (mod 2^7)\n"


def test_domain_error_exits_one(capsys):
    code, _, err = run(capsys, ["log", "--p", "5", "--value", "2", "--precision", "3"])
    assert code == 1
    assert "log requires" in err


@pytest.mark.parametrize("output", ["human", "json"])
def test_failed_self_check_exits_one_without_a_traceback(capsys, monkeypatch, output):
    # With the lift table planted as t[d] = d and every carry forced to 0, the
    # search takes y = 1, and 1 + 1^5 = 2 has no 5th root in Z_5: the witness
    # check fails as a typed error, exit 1.
    monkeypatch.setattr(wittpadics.roots, "_group_table", lambda p, n: list(range(p)))
    monkeypatch.setattr(wittpadics.roots, "factor_system_phi1", lambda p, x, y: 0)
    code, out, err = run(capsys, ["flt-witness", "--p", "5", "--output", output])
    assert code == 1
    assert "Traceback" not in out + err
    if output == "json":
        assert err == ""
        assert json.loads(out) == {"ok": False, "precision": 8, "reason": "phi_1(1, 1) = 0 but 1 + 1^5 has no 5-th root"}
    else:
        assert out == ""
        assert err == "error: phi_1(1, 1) = 0 but 1 + 1^5 has no 5-th root\n"


@pytest.mark.parametrize("output", ["human", "json"])
def test_table_hit_that_phi1_rejects_exits_one(capsys, monkeypatch, output):
    # The planted table claims (1 + 1)^5 = 1 + 1^5 mod 25; phi_1(1, 1) = 1 at p = 5.
    monkeypatch.setattr(wittpadics.roots, "_group_table", lambda p, n: list(range(p)))
    code, out, err = run(capsys, ["flt-witness", "--p", "5", "--output", output])
    message = "the lifts mod 5^2 give (1 + 1)^5 = 1 + 1^5 but phi_1(1, 1) != 0"
    assert code == 1
    if output == "json":
        assert (json.loads(out), err) == ({"ok": False, "precision": 8, "reason": message}, "")
    else:
        assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("output", ["human", "json"])
def test_flt_witness_precision_one_is_too_low_for_every_p(capsys, p, output):
    code, out, err = run(capsys, ["flt-witness", "--p", str(p), "--precision", "1", "--output", output])
    message = "need 2 digits to read Witt digits 1..1, have 1"
    assert code == 1
    if output == "json":
        assert (json.loads(out), err) == ({"ok": False, "precision": 1, "reason": message}, "")
    else:
        assert (out, err) == ("", f"error: {message}\n")


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, ["convert", "--p", "4", "--value", "2"])
    assert code == 2 and "not prime" in err

    code, _, err = run(capsys, ["pow", "--p", "5", "--value", "7", "--exponent", "2/3"])
    assert code == 2 and "power of p" in err

    code, _, err = run(capsys, ["convert", "--p", "5", "--value", "x"])
    assert code == 2 and "decimal integer" in err

    code, _, err = run(capsys, ["root", "--p", "2", "--degree", "0", "--value", "17"])
    assert code == 2 and "degree must be >= 1" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["wieferich", "--base", "1", "--limit", "100"], "base must be >= 2, got 1"),
        (["wieferich", "--base", "2", "--limit", "2"], "limit must be >= 3, got 2"),
        (["root", "--p", "5", "--degree", "0", "--value", "2"], "degree must be >= 1, got 0"),
        (["root", "--p", "5", "--degree", "-5", "--value", "2"], "degree must be >= 1, got -5"),
        (["wieferich", "--base", "2", "--limit", str(10**13)], f"limit must be <= 2^40, got {10**13}"),
        (["flt-witness", "--p", "65537"], "p must be <= 2^16, got 65537"),
        (["flt-witness", "--p", str(2**64 - 59)], f"p must be <= 2^16, got {2**64 - 59}"),
    ],
)
@pytest.mark.parametrize("output", ["human", "json"])
def test_bad_numeric_arguments_are_usage_errors(capsys, argv, message, output):
    assert run(capsys, argv + ["--output", output]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,flag,operand",
    [
        (["convert", "--p", "7"], "--value", "-1/2"),
        (["convert", "--p", "7", "--to", "padic"], "--value", "-3"),
        (["convert", "--p", "7"], "--value", "-1/7"),
        (["pow", "--p", "5", "--value", "26", "--precision", "4"], "--exponent", "-1/5"),
        (["pow", "--p", "5", "--value", "7", "--precision", "4"], "--exponent", "-1/5"),
        (["pow", "--p", "5", "--value", "3", "--exponent", "-2"], "--value", "-2/3"),
        (["root", "--p", "5", "--degree", "3"], "--value", "-1/2"),
    ],
)
@pytest.mark.parametrize("output", ["human", "json"])
def test_negative_operand_after_a_space_reads_like_the_equals_form(capsys, argv, flag, operand, output):
    argv = argv + ["--output", output]
    assert run(capsys, argv + [flag, operand]) == run(capsys, argv + [f"{flag}={operand}"])


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_cli_import_loads_no_class_machinery():
    # Each command is one process, so the import is paid on every call.
    # -S keeps site .pth files, which may import typing, out of the child.
    package_root = str(Path(wittpadics.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {package_root!r}); import wittpadics.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def test_closed_stdout_exits_one_without_a_traceback():
    # 11^80000 - 1 prints as about 83 kB, more than a pipe holds, so the child
    # is still writing when the reader closes the pipe after 10 bytes.
    package_root = str(Path(wittpadics.__file__).resolve().parents[1])
    argv = ["convert", "--to", "padic", "--p", "11", "--precision", "80000", "--value", "-1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "wittpadics.cli", *argv],
        env={**os.environ, "PYTHONPATH": package_root},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


# ---------------------------------------------------------------- precision


def test_default_precision_is_eight(capsys):
    code, out, _ = run(capsys, ["teichmuller", "--p", "5", "--value", "1"])
    assert (code, out) == (0, "1 (mod 5^8)\n")


def test_precision_and_output_come_from_flags_alone(capsys, tmp_path, monkeypatch):
    # Neither the environment nor a file in HOME changes the precision or the output format.
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("WITTPADICS_PRECISION", "3")
    (tmp_path / ".wittpadics.conf").write_text("precision = 2\noutput = json\n")
    code, out, _ = run(capsys, ["teichmuller", "--p", "5", "--value", "1"])
    assert (code, out) == (0, "1 (mod 5^8)\n")
