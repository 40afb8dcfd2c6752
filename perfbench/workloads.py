"""Seeded inputs, library calls and result checks for each workload.

An operation is a plain tuple ``(kind, *args)`` of integers and strings; the
library only ever sees the values generated here.  Inputs are built in
blocks: each block draws one operation per stratum of every grid the
workload covers, then shuffles.  Stratifying keeps the cost mix of a run
nearly the same from seed to seed, so seeds change the values, not the
weight of the slow cells.
"""

import math
from math import gcd

from cli_ops import check as check_cli
from oracles import (
    WieferichScan,
    WittValue,
    check_flt_witness,
    check_roots,
    check_sqrt_2adic,
    check_wieferich,
    check_witt_digits,
    fermat_quotient_mod,
    is_prime,
    prime_at_or_above,
    split_degree,
)

WORKLOADS = ("deep-roots", "wide-primes", "search", "cli")

# deep-roots (p, K) grid.  Left out because one witt_mul there takes about a
# second or more today: (101, 128) and (1000003, K >= 64).  The report mode
# of run.py records them instead.
DEEP_GRID = {
    2: (16, 32, 64, 128),
    3: (16, 32, 64, 128),
    11: (16, 32, 64, 128),
    101: (16, 32, 64),
    1000003: (16, 32),
}
# general_root(x, p*m') scans all of Z/p for the m'-th roots; that O(p) scan
# belongs to wide-primes, so deep-roots uses it only for small p.
DEEP_GENERAL_ROOT_MAX_P = 101

WIDE_STRATA = 24
WIDE_ROOT_P = (3, 10**6)  # general_root: the mod-p scan is O(p)
WIDE_PRIME_P = (3, 2**64)  # pk_root and fermat_quotient
WIDE_K = (4, 8)
WIDE_DEGREES = (2, 3, 4, 6)

SEARCH_STRATA = 10
SEARCH_LIMITS = (10**4, 3 * 10**6)
SEARCH_BASES = (2, 3)
FLT_PRIMES = (100, 1000)
FLT_PRECISION = 6
# The 143 primes in FLT_PRIMES sorted by search length y* * p, where y* is the
# first y with phi_1(1, y) = 0 (p - 2 if none), so that strata follow cost.
# selftest.py recomputes the order from the oracle.
FLT_BY_SEARCH_LENGTH = (
    179, 619, 157, 757, 127, 211, 337, 241, 103, 151, 109, 857, 307, 139, 271, 227, 421, 181,
    223, 971, 163, 463, 101, 331, 691, 107, 283, 113, 911, 397, 193, 601, 701, 131, 887, 457,
    199, 137, 379, 229, 409, 547, 149, 631, 167, 173, 367, 313, 523, 787, 277, 373, 419, 191,
    197, 613, 349, 919, 443, 907, 233, 751, 239, 571, 251, 257, 263, 499, 541, 269, 439, 281,
    293, 433, 311, 977, 317, 829, 811, 991, 487, 643, 347, 577, 353, 607, 359, 967, 823, 383,
    389, 401, 709, 673, 431, 853, 661, 449, 727, 461, 467, 929, 859, 733, 479, 739, 491, 877,
    503, 509, 521, 769, 883, 937, 997, 557, 563, 569, 587, 593, 599, 617, 641, 647, 653, 659,
    677, 683, 719, 743, 761, 773, 797, 809, 821, 827, 839, 863, 881, 941, 947, 953, 983,
)

# One pass is the generated list: BLOCKS[w] blocks of 116, 96, 20 and 28
# operations.  run.py times whole passes only, so every run times the same
# operations.  A pass has at least 100 operations, so at least ten latency
# samples lie beyond p90.  On a 2-core x86-64 host one pass takes about 6, 4,
# 23 and 15 seconds.
BLOCKS = {"deep-roots": 4, "wide-primes": 16, "search": 5, "cli": 4}


def _unit(rng, p: int, K: int) -> int:
    while True:
        u = rng.randrange(1, p**K)
        if u % p:
            return u


def stratified_blocks(rng, strata: int, blocks: int) -> list[list[float]]:
    """Per block, one point in each of `strata` equal parts of [0, 1).

    Each part is split again into `blocks` sub-parts and every sub-part is used
    by exactly one block, so a block is balanced on its own and the whole list
    is stratified `strata * blocks` ways.
    """
    out = [[0.0] * strata for _ in range(blocks)]
    for s in range(strata):
        order = list(range(blocks))
        rng.shuffle(order)
        for b, sub in enumerate(order):
            out[b][s] = (s * blocks + sub + rng.random()) / (strata * blocks)
    return out


def _log_point(t: float, lo: int, hi: int) -> int:
    """The point a fraction t of the way from lo to hi on a log scale."""
    return int(math.exp(math.log(lo) + t * (math.log(hi) - math.log(lo))))


def _prime_at(t: float, lo: int, hi: int) -> int:
    return prime_at_or_above(min(_log_point(t, lo, hi), hi - 1), hi)


def _deep_block(rng) -> list[tuple]:
    ops = []
    for p, ks in DEEP_GRID.items():
        for K in ks:
            mod = p**K
            ops.append(("wmul", p, tuple(rng.randrange(p) for _ in range(K)),
                        tuple(rng.randrange(p) for _ in range(K))))
            if p == 2:
                ops.append(("polar", p, K, 4 * rng.randrange(2 ** (K - 2)) + 1))
                ops.append(("sqrt", K, pow(2 * rng.randrange(2 ** (K - 1)) + 1, 2, mod)))
                ops.append(("sqrt", K, 2 * rng.randrange(2 ** (K - 1)) + 1))
                continue
            ops.append(("polar", p, K, _unit(rng, p, K)))
            for k in (1, 2):
                ops.append(("pk", p, K, k, pow(_unit(rng, p, K), p**k, mod)))
                ops.append(("pk", p, K, k, _unit(rng, p, K)))
            if p <= DEEP_GENERAL_ROOT_MAX_P:
                m = p * rng.choice([d for d in (2, 3) if d % p])
                ops.append(("gen", p, K, m, pow(_unit(rng, p, K), m, mod)))
                ops.append(("gen", p, K, m, _unit(rng, p, K)))
    return ops


def _wide_block(rng, points) -> list[tuple]:
    ops = []
    for i, (t_res, t_non, t_pk, t_fq) in enumerate(zip(*points)):
        # general_root on an m'-th power: the residue test passes and the scan runs
        p = _prime_at(t_res, *WIDE_ROOT_P)
        K = rng.randint(*WIDE_K)
        m = rng.choice([d for d in WIDE_DEGREES if d % p])
        ops.append(("gen", p, K, m, pow(_unit(rng, p, K), m, p**K)))
        # general_root on a non-residue: returns after the residue test
        p = _prime_at(t_non, *WIDE_ROOT_P)
        K = rng.randint(*WIDE_K)
        m = rng.choice([d for d in WIDE_DEGREES if d % p and gcd(d, p - 1) > 1])
        g = gcd(m, p - 1)
        u = _unit(rng, p, K)
        while pow(u, (p - 1) // g, p) == 1:
            u = _unit(rng, p, K)
        ops.append(("gen", p, K, m, u))
        p = _prime_at(t_pk, *WIDE_PRIME_P)
        K = rng.randint(*WIDE_K)
        u = _unit(rng, p, K)
        ops.append(("pk", p, K, 1, pow(u, p, p**K) if i % 2 else u))
        p = _prime_at(t_fq, *WIDE_PRIME_P)
        K = rng.randint(*WIDE_K)
        ops.append(("fq", p, K, _unit(rng, p, K)))
    return ops


def _search_block(rng, points) -> list[tuple]:
    ops = []
    for t_limit, t_flt in zip(*points):
        ops.append(("wief", rng.choice(SEARCH_BASES), _log_point(t_limit, *SEARCH_LIMITS)))
        ops.append(("flt", FLT_BY_SEARCH_LENGTH[int(t_flt * len(FLT_BY_SEARCH_LENGTH))]))
    return ops


# The command lines README.md shows, verbatim apart from --output.
README_LINES = (
    ("root", ("root", "--p", "11", "--degree", "11", "--value", "3", "--precision", "3"),
     (11, 3, 11, 3)),
    ("convert-witt", ("convert", "--p", "3", "--value", "2", "--precision", "3", "--to", "witt"),
     (3, 3, 2)),
    ("root", ("root", "--p", "5", "--degree", "5", "--value", "2", "--precision", "4"),
     (5, 4, 5, 2)),
    ("wieferich", ("wieferich", "--base", "2", "--limit", "10000"), (2, 10000)),
)
SMALL_PRIMES = (3, 5, 7, 11, 13)
FLT_CLI_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def cli_block(rng) -> list[tuple]:
    """README lines plus one seeded line for every other command, in both formats."""
    lines = list(README_LINES)
    p, K = rng.choice(SMALL_PRIMES), rng.randint(3, 8)

    def common(*args):
        return tuple(args) + ("--p", str(p), "--precision", str(K))

    num, den = rng.randint(1, 10**6), rng.choice([d for d in range(1, 50) if d % p])
    lines.append(("convert-padic", common("convert", "--value", f"{num}/{den}", "--to", "padic"),
                  (p, K, num * pow(den, -1, p**K) % p**K)))
    a = rng.randint(1, 10**6)
    lines.append(("teichmuller", common("teichmuller", "--value", str(a)), (p, K, a)))
    x = 1 + p * rng.randrange(p ** (K - 1))
    lines.append(("log", common("log", "--value", str(x)), (p, K, x)))
    theta = p * rng.randrange(p ** (K - 1))
    lines.append(("exp", common("exp", "--value", str(theta)), (p, K, theta)))
    v = pow(_unit(rng, p, K), p, p**K)
    e = rng.choice([d for d in range(1, 20) if d % p])
    lines.append(("pow", common("pow", "--value", str(v), "--exponent", f"{e}/{p}"), (p, K, v, e)))
    u = _unit(rng, p, K)
    lines.append(("polar", common("polar", "--value", str(u)), (p, K, u)))
    u = _unit(rng, p, K)
    lines.append(("fermat-quotient", common("fermat-quotient", "--value", str(u)), (p, K, u)))
    m = rng.choice((2, 3, p))
    u = pow(_unit(rng, p, K), m, p**K) if rng.random() < 0.5 else _unit(rng, p, K)
    lines.append(("root", common("root", "--degree", str(m), "--value", str(u)), (p, K, m, u)))
    q, K2 = rng.choice(FLT_CLI_PRIMES), rng.randint(3, 8)
    lines.append(("flt-witness", ("flt-witness", "--p", str(q), "--precision", str(K2)), (q, K2)))
    base = rng.choice((2, 3, 5))
    limit = rng.randint(1000, 10000)
    lines.append(("wieferich", ("wieferich", "--base", str(base), "--limit", str(limit)), (base, limit)))
    return [("cli", name, argv, fmt, params) for name, argv, params in lines for fmt in ("human", "json")]


def generate(workload: str, rng) -> list[tuple]:
    """The operation list of one run: BLOCKS[workload] shuffled blocks."""
    blocks = BLOCKS[workload]
    if workload == "deep-roots":
        made = [_deep_block(rng) for _ in range(blocks)]
    elif workload == "wide-primes":
        streams = [stratified_blocks(rng, WIDE_STRATA, blocks) for _ in range(4)]
        made = [_wide_block(rng, [st[b] for st in streams]) for b in range(blocks)]
    elif workload == "search":
        streams = [stratified_blocks(rng, SEARCH_STRATA, blocks) for _ in range(2)]
        made = [_search_block(rng, [st[b] for st in streams]) for b in range(blocks)]
    else:
        made = [cli_block(rng) for _ in range(blocks)]
    ops = []
    for block in made:
        rng.shuffle(block)
        ops.extend(block)
    return ops


def warm_up(lib, ops) -> None:
    """Fill the library's is_prime cache for every prime the inputs use."""
    for op in ops:
        if op[0] in ("pk", "gen", "polar", "wmul", "fq", "flt"):
            lib.primes.check_prime(op[1])


# ------------------------------------------------------------------ running


def _number(lib, p, K, u):
    return lib.PAdicNumber.from_integer(u, p, K)


def make_runner(lib, cli_call):
    """fn(op) -> library result; cli ops go through cli_call(argv, fmt)."""
    roots, analytic, witt = lib.roots, lib.analytic, lib.witt
    table = {
        "pk": lambda p, K, k, u: roots.pk_root(_number(lib, p, K, u), k),
        "gen": lambda p, K, m, u: roots.general_root(_number(lib, p, K, u), m),
        "sqrt": lambda K, u: roots.sqrt_2adic(_number(lib, 2, K, u)),
        "polar": lambda p, K, u: analytic.recompose(analytic.polar(_number(lib, p, K, u))),
        "wmul": lambda p, a, b: witt.witt_mul(witt.WittVector(p, a), witt.WittVector(p, b)),
        "fq": lambda p, K, u: roots.fermat_quotient(_number(lib, p, K, u)),
        "wief": lambda base, limit: roots.wieferich_search(base, limit),
        "flt": lambda p: roots.flt_local_witness(p, FLT_PRECISION),
        "cli": lambda name, argv, fmt, params: cli_call(argv, fmt),
    }

    def run(op):
        return table[op[0]](*op[1:])

    return run


class Checker:
    """Oracle check of one result; holds the caches the oracles share in a run."""

    def __init__(self, workload: str):
        self.witt = WittValue()
        self.wieferich = WieferichScan(SEARCH_LIMITS[1] if workload == "search" else 0)

    def _report(self, p, K, m, u, rep, out_prec) -> bool:
        if rep.exists != bool(rep.roots):
            return False
        if any(r.valuation or r.unit.precision != out_prec for r in rep.roots):
            return False
        if rep.exists and rep.output_precision != out_prec:
            return False
        return check_roots(p, K, u, m, [r.unit.residue for r in rep.roots], out_prec)

    def __call__(self, op, res) -> bool:
        kind = op[0]
        if kind == "pk":
            p, K, k, u = op[1:]
            return self._report(p, K, p**k, u, res, K - k)
        if kind == "gen":
            p, K, m, u = op[1:]
            return self._report(p, K, m, u, res, K - split_degree(m, p)[0])
        if kind == "sqrt":
            K, u = op[1:]
            if res.exists and any(r.unit.precision != K - 1 for r in res.roots):
                return False
            return check_sqrt_2adic(K, u, [r.unit.residue for r in res.roots])
        if kind == "polar":
            p, K, u = op[1:]
            return (res.valuation, res.unit.precision, res.unit.residue) == (0, K, u % p**K)
        if kind == "wmul":
            p, a, b = op[1:]
            K = len(a)
            return check_witt_digits(self.witt, p, K, self.witt(p, a) * self.witt(p, b), res.digits)
        if kind == "fq":
            p, K, u = op[1:]
            return (res.precision, res.residue) == (K - 1, fermat_quotient_mod(p, K, u))
        if kind == "wief":
            return check_wieferich(self.wieferich, op[1], op[2], res)
        if kind == "flt":
            p = op[1]
            if res is not None and res.p != p:
                return False
            w = None if res is None else (res.x, res.y, res.sum, res.root.residue, res.root.precision)
            return check_flt_witness(p, FLT_PRECISION, w)
        if kind == "cli":
            return check_cli(self, op, res)
        raise ValueError(f"unknown operation kind {kind!r}")
