"""The cli workload: how to run a command line and how to check its output.

Every line runs twice, once printing human text and once JSON.  Both are
parsed into the same plain form and checked by the oracles, so a wrong
number fails in either format.
"""

import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from oracles import (
    check_flt_witness,
    check_roots,
    check_wieferich,
    check_witt_digits,
    exp_mod,
    fermat_quotient_mod,
    log_mod,
    split_degree,
    teichmuller_mod,
)

def _argv(argv, fmt):
    return list(argv) + (["--output", "json"] if fmt == "json" else [])


def run_cli_subprocess(env, argv, fmt):
    """One `python -m wittpadics.cli` process; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "wittpadics.cli", *_argv(argv, fmt)],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(cli_module, argv, fmt):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_module.main(_argv(argv, fmt))
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------------ parsing

_RESIDUE = re.compile(r"^(?:(\d+)\^(-?\d+) \* )?(\d+)(?: ≡ -?\d+)? \(mod (\d+)\^(\d+)\)$")


def _human_residue(text):
    """'R (mod p^K)', 'R ≡ S (mod p^K)' or 'p^v * ...' -> (valuation, residue, precision)."""
    m = _RESIDUE.match(text.strip())
    if not m:
        raise ValueError(f"unparsed residue {text!r}")
    return int(m.group(2) or 0), int(m.group(3)), int(m.group(5))


# The reasons the CLI gives when a root does not exist.  Any other failure,
# such as a library error, is not a correct "no root".
_NO_ROOT = re.compile(
    r"^(?:valuation \d+ is not divisible by \d+"
    r"|Witt digit \d+ nonzero(?:; q_1\(.*\) ≡ \d+ \(mod \d+\))?"
    r"|.+ is not a \d+-th power residue mod \d+"
    r"|unit is not 1 mod 8)$"
)


def _no_root(reason: str):
    """None for a no-root reason; the reason itself otherwise, which fails the check."""
    return None if _NO_ROOT.match(reason) else reason


def _json_residue(obj):
    return 0, int(obj["residue"]), obj["precision"]


def _json_number(obj):
    return obj["valuation"], int(obj["unit"]["residue"]), obj["unit"]["precision"]


def parse(name, fmt, code, out, err):
    """Plain form of one CLI result: (exit code, value), with value None for a no-root reason."""
    if fmt == "json":
        doc = json.loads(out)
        if not doc["ok"]:
            return code, _no_root(doc["reason"])
        res = doc["result"]
        if name in ("convert-padic", "teichmuller", "log", "exp", "fermat-quotient"):
            return code, _json_residue(res)
        if name == "pow":
            return code, _json_number(res)
        if name == "convert-witt":
            return code, tuple(res["witt"]["digits"])
        if name == "polar":
            return code, (res["valuation"], res["teich_digit"], _json_residue(res["argument"]))
        if name == "root":
            return code, (res["output_precision"], [_json_number(r) for r in res["roots"]])
        if name == "wieferich":
            return code, list(res)
        if name == "flt-witness":
            if res is None:
                return code, "none"
            root = _json_residue(res["root"])
            return code, (res["x"], res["y"], int(res["sum"]), root[1], root[2])
        raise ValueError(name)
    lines = out.splitlines()
    if code == 1:
        prefix = "no root: "
        return code, _no_root(err.rstrip("\n")[len(prefix):]) if err.startswith(prefix) else err
    if name in ("convert-padic", "teichmuller", "log", "exp", "fermat-quotient", "pow"):
        return code, _human_residue(lines[0])
    if name == "convert-witt":
        return code, tuple(int(d) for d in lines[0].strip("(]").split(","))
    if name == "polar":
        val = int(lines[0].split(": ")[1])
        digit = int(lines[1].split(": ")[1])
        return code, (val, digit, _human_residue(lines[2].split(": ", 1)[1]))
    if name == "root":
        roots = [_human_residue(line.split(": ", 1)[1]) for line in lines]
        return code, (roots[0][2], roots)
    if name == "wieferich":
        return code, [] if lines[0] == "(none)" else [int(q) for q in lines[0].split()]
    if name == "flt-witness":
        if lines[0].startswith("no witness"):
            return code, "none"
        fields = dict(part.split(" = ") for part in lines[0].split(", "))
        _, root, prec = _human_residue(lines[1].split(": ", 1)[1])
        return code, (int(fields["x"]), int(fields["y"]), int(fields["sum"]), root, prec)
    raise ValueError(name)


def check(checker, op, result) -> bool:
    """Oracle check of one cli op; result is (exit code, stdout, stderr)."""
    _, name, _, fmt, params = op
    code, value = parse(name, fmt, *result)
    if name == "root":
        p, K, m, u = params
        if code == 1:
            return value is None and check_roots(p, K, u, m, [], K)
        out_prec, roots = value
        if out_prec != K - split_degree(m, p)[0]:
            return False
        if any(val or prec != out_prec for val, _, prec in roots):
            return False
        return code == 0 and check_roots(p, K, u, m, [r for _, r, _ in roots], out_prec)
    if code != 0:
        return False
    if name == "convert-witt":
        p, K, x = params
        return check_witt_digits(checker.witt, p, K, x, value)
    if name == "convert-padic":
        p, K, expect = params
        return value == (0, expect, K)
    if name == "teichmuller":
        p, K, a = params
        return value == (0, teichmuller_mod(p, K, a), K)
    if name == "log":
        p, K, x = params
        return value == (0, log_mod(p, K, x), K)
    if name == "exp":
        p, K, theta = params
        return value == (0, exp_mod(p, K, theta), K)
    if name == "pow":
        p, K, v, e = params
        val, r, prec = value
        return val == 0 and prec == K - 1 and pow(r, p, p**K) == pow(v, e, p**K)
    if name == "polar":
        p, K, u = params
        mod = p**K
        principal = u * pow(teichmuller_mod(p, K, u), -1, mod) % mod
        return value == (0, u % p, (0, log_mod(p, K, principal), K))
    if name == "fermat-quotient":
        p, K, u = params
        return value == (0, fermat_quotient_mod(p, K, u), K - 1)
    if name == "wieferich":
        base, limit = params
        return check_wieferich(checker.wieferich, base, limit, value)
    if name == "flt-witness":
        q, K = params
        return check_flt_witness(q, K, None if value == "none" else value)
    raise ValueError(name)
