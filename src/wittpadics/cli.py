"""Command-line front end.

Exit codes: 0 on success, 1 on a domain failure (say, the requested root
does not exist) or when stdout closes early, 2 on usage errors.
Precision and output format come from the command-line flags alone.
"""

import argparse
import json
import os
import re
import sys

from .analytic import ExactExponent, pexp, plog, polar, ppow
from .errors import NotPrime, PadicError
from .padic import PAdicInt, PAdicNumber, Record, padic_valuation, teichmuller
from .primes import check_prime
from .roots import (
    RootReason,
    fermat_quotient,
    flt_local_witness,
    general_root,
    wieferich_search,
)
from .witt import padic_to_witt

DEFAULT_PRECISION = 8

# JSON integers at or above this in absolute value are emitted as decimal strings.
_JSON_INT_LIMIT = 2**53


class UsageError(Exception):
    pass


def _jsonable(v):
    """v with every integer of absolute value >= 2^53, at any depth, as a decimal string."""
    if type(v) is int:  # not bool
        return v if abs(v) < _JSON_INT_LIMIT else str(v)
    if isinstance(v, dict):
        return {key: _jsonable(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _padic_int_json(x: PAdicInt) -> dict:
    return {
        "p": x.p,
        "precision": x.precision,
        "residue": x.residue,
        "modulus": x.modulus,
    }


def _padic_number_json(x: PAdicNumber) -> dict:
    if x.is_zero:
        return {"p": x.p, "zero": True}
    return {
        "p": x.p,
        "zero": False,
        "valuation": x.valuation,
        "unit": _padic_int_json(x.unit),
    }


def parse_integer(text: str, what: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise UsageError(f"{what} must be a decimal integer, got {text!r}") from None


def parse_value(text: str, p: int, precision: int) -> PAdicNumber:
    """Accept an integer or a rational written m/n with p not dividing n."""
    if "/" in text:
        num_text, _, den_text = text.partition("/")
        m = parse_integer(num_text, "numerator")
        n = parse_integer(den_text, "denominator")
        if n == 0:
            raise UsageError("denominator must be nonzero")
        if n % p == 0:
            raise UsageError(f"denominator {n} must not be divisible by p = {p}")
        return PAdicNumber.from_rational(m, n, p, precision)
    return PAdicNumber.from_integer(parse_integer(text, "value"), p, precision)


def parse_exponent(text: str, p: int) -> ExactExponent:
    """Accept u or u/d where d is a power of p."""
    if "/" not in text:
        return ExactExponent(parse_integer(text, "exponent"), 0)
    num_text, _, den_text = text.partition("/")
    u = parse_integer(num_text, "exponent numerator")
    d = parse_integer(den_text, "exponent denominator")
    if d < 1:
        raise UsageError(f"exponent denominator must be positive, got {d}")
    k = padic_valuation(d, p)
    if d != p**k:
        raise UsageError(f"exponent denominator must be a power of p = {p}")
    return ExactExponent(u, k)


def _require_p(args) -> int:
    if args.p is None:
        raise UsageError("--p is required for this command")
    check_prime(args.p)
    return args.p


def _root_failure_reason(report, value: PAdicNumber, value_text: str, degree: int) -> str:
    p = value.p
    if report.reason is RootReason.VALUATION_NOT_DIVISIBLE:
        return f"valuation {value.valuation} is not divisible by {degree}"
    if report.reason is RootReason.WITT_DIGIT_NONZERO:
        if p == 2:
            # A 2^v-th power of a unit is 1 mod 2^(v+2); fermat_quotient raises at p = 2.
            return f"unit is not 1 mod {2 ** (padic_valuation(degree, 2) + 2)}"
        msg = f"Witt digit {report.digit_index} nonzero"
        if report.digit_index == 1 and not value.is_zero and value.valuation == 0:
            q = fermat_quotient(value)
            msg += f"; q_1({value_text}) ≡ {q.residue % p} (mod {p})"
        return msg
    if report.reason is RootReason.NOT_KTH_RESIDUE:
        return f"{value_text} is not a {degree}-th power residue mod {p}"
    return report.reason.value


class _NoRoot(PadicError):
    """The requested root does not exist; the message says which condition failed."""


# Each command handler takes (args, p, precision) and returns (json_result, human_lines).


def _residue(x: PAdicInt):
    return _padic_int_json(x), [str(x)]


def _on_integer(fn):
    """Handler applying fn to --value read as an integer residue."""
    return lambda args, p, precision: _residue(fn(PAdicInt(p, precision, parse_integer(args.value, "value"))))


def _convert(args, p: int, precision: int):
    value = parse_value(args.value, p, precision)
    x = PAdicInt(p, precision, 0) if value.is_zero else value.to_padic_int().with_precision(precision)
    if args.to == "padic":
        return _residue(x)
    w = padic_to_witt(x)
    return {"witt": w.to_json_dict()}, [str(w)]


def _pow(args, p: int, precision: int):
    result = ppow(parse_value(args.value, p, precision), parse_exponent(args.exponent, p))
    return _padic_number_json(result), [str(result)]


def _polar(args, p: int, precision: int):
    form = polar(parse_value(args.value, p, precision))
    result = {
        "valuation": form.valuation,
        "teich_digit": form.teich_digit,
        "argument": _padic_int_json(form.argument),
    }
    lines = [
        f"valuation: {form.valuation}",
        f"teichmuller digit: {form.teich_digit}",
        f"argument: {form.argument}",
    ]
    return result, lines


def _root(args, p: int, precision: int):
    value = parse_value(args.value, p, precision)
    report = general_root(value, args.degree)
    if not report.exists:
        raise _NoRoot(_root_failure_reason(report, value, args.value, args.degree))
    result = {
        "degree": args.degree,
        "output_precision": report.output_precision,
        "roots": [_padic_number_json(r) for r in report.roots],
    }
    return result, [f"root: {r}" for r in report.roots]


def _wieferich(args, p: int, precision: int):
    hits = wieferich_search(args.base, args.limit)
    return hits, [" ".join(str(q) for q in hits) if hits else "(none)"]


def _flt_witness(args, p: int, precision: int):
    witness = flt_local_witness(p, precision)
    if witness is None:
        return None, [f"no witness for p = {p}"]
    result = {
        "p": witness.p,
        "x": witness.x,
        "y": witness.y,
        "sum": witness.sum,
        "root": _padic_int_json(witness.root),
    }
    return result, [f"x = {witness.x}, y = {witness.y}, sum = {witness.sum}", f"root: {witness.root}"]


class Command(Record):
    """One subcommand: its help text, extra arguments, handler, and whether it needs --p.

    help (str), arguments (tuple of (flag, add_argument keywords) pairs),
    handler (called with the parsed arguments, p and precision), needs_p (bool).
    """

    __slots__ = ("help", "arguments", "handler", "needs_p")
    _defaults = {"needs_p": True}


_VALUE = ("--value", {"required": True, "help": "integer, or rational m/n where accepted"})

COMMANDS = {
    "convert": Command(
        "convert between residue and Witt form",
        (_VALUE, ("--to", {"choices": ("witt", "padic"), "default": "witt"})),
        _convert,
    ),
    "teichmuller": Command("multiplicative digit lift", (_VALUE,), _on_integer(teichmuller)),
    "log": Command("truncated p-adic logarithm", (_VALUE,), _on_integer(plog)),
    "exp": Command("truncated p-adic exponential", (_VALUE,), _on_integer(pexp)),
    "pow": Command("power with integer or u/p^k exponent", (_VALUE, ("--exponent", {"required": True})), _pow),
    "polar": Command("module/argument decomposition", (_VALUE,), _polar),
    "root": Command(
        "all m-th roots, or a failure reason", (_VALUE, ("--degree", {"type": int, "required": True})), _root
    ),
    "fermat-quotient": Command(
        "(x^(p-1) - 1)/p",
        (_VALUE,),
        lambda args, p, precision: _residue(fermat_quotient(parse_value(args.value, p, precision))),
    ),
    "wieferich": Command(
        "primes with base^(p-1) = 1 mod p^2",
        (("--base", {"type": int, "required": True}), ("--limit", {"type": int, "required": True})),
        _wieferich,
        needs_p=False,
    ),
    "flt-witness": Command("local Fermat-equation witness", (), _flt_witness),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittpadics",
        description="Exact p-adic arithmetic on truncated Witt vectors.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=False, help="prime p")
    common.add_argument("--precision", type=int, default=DEFAULT_PRECISION, help="digits of precision (default 8)")
    common.add_argument("--output", choices=("human", "json"), default="human", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd_parser = sub.add_parser(name, parents=[common], help=command.help)
        for flag, options in command.arguments:
            cmd_parser.add_argument(flag, **options)
    return parser


# argparse reads a token such as -1/2 as an unknown option, not as a value.
_NEGATIVE_OPERAND = re.compile(r"-\d+(/\d+)?")


def _join_negative_operands(argv: list[str]) -> list[str]:
    """Write `--value -m/n` and `--exponent -m/n` as `--flag=-m/n`."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--value", "--exponent") and _NEGATIVE_OPERAND.fullmatch(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # Values and residues may run past the interpreter's 4300-digit default.
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(_join_negative_operands(sys.argv[1:] if argv is None else argv))
    command = COMMANDS[args.command]
    precision, output = args.precision, args.output
    try:
        if precision < 1:
            raise UsageError(f"precision must be >= 1, got {precision}")
        p = _require_p(args) if command.needs_p else None
        result, lines = command.handler(args, p, precision)
    except (UsageError, ValueError, NotPrime) as exc:
        # ValueError is how the library rejects an out-of-range argument,
        # such as a root degree below 1 or a Wieferich base below 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PadicError as exc:
        if output == "json":
            print(json.dumps({"ok": False, "reason": str(exc), "precision": precision}, sort_keys=True))
        else:
            print(f"{'no root' if isinstance(exc, _NoRoot) else 'error'}: {exc}", file=sys.stderr)
        return 1

    if output == "json":
        print(json.dumps({"ok": True, "result": _jsonable(result), "precision": precision}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early: send the flush at exit to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
