"""Existence tests and constructions for roots of p-adic numbers.

Covers p^k-th roots via the Witt-digit criterion, for every p, p = 2
included, general degrees by splitting off the p-part, Fermat quotients,
and the number-theoretic searches built on them.
"""

import enum
from math import prod

from .errors import NotAUnit, PrecisionTooLow, RootCondition, SelfCheckFailed, WrongPrime, ZeroInput
from .padic import PAdicInt, PAdicNumber, Record, hensel_kth_root, padic_valuation
from .padic import _lift_root
from .primes import check_prime, odd_prime_segments
from .witt import _group_table, factor_system_phi1, witt_digits


class RootReason(enum.Enum):
    OK = "ok"
    VALUATION_NOT_DIVISIBLE = "valuation not divisible"
    WITT_DIGIT_NONZERO = "witt digit nonzero"
    NOT_KTH_RESIDUE = "not a k-th power residue"


class RootCheck(Record):
    """Outcome of an existence test: ok (bool), reason (RootReason), digit_index (int or None).

    digit_index is the first nonzero Witt digit when reason is WITT_DIGIT_NONZERO.
    """

    __slots__ = ("ok", "reason", "digit_index")
    _defaults = {"digit_index": None}


class RootReport(Record):
    """Roots of a given degree, or the first obstruction met; reason and digit_index as in RootCheck.

    exists (bool) iff roots (tuple of PAdicNumber) is non-empty; every root
    raised to the degree reproduces the input at its full input precision,
    while the roots themselves are determined to output_precision (int)
    digits.  A failed report carries the input precision.
    """

    __slots__ = ("exists", "reason", "digit_index", "roots", "output_precision")


class QuotientCongruenceReport(Record):
    """Both sides of the root/quotient congruence, reduced mod p: holds (bool) and four ints in [0, p)."""

    __slots__ = ("holds", "root_quotient", "scaled_quotient", "digit_value", "digit_predicted")


class FermatWitness(Record):
    """Residue pair with vanishing carry whose p-th-power sum has a p-th root.

    p, x, y and sum = x^p + y^p are ints and root a PAdicInt with root^p = sum,
    so (x, y, -root) solves X^p + Y^p + Z^p = 0 in the p-adic integers.
    """

    __slots__ = ("p", "x", "y", "sum", "root")


def _require_unit(x: PAdicNumber) -> PAdicInt:
    if x.is_zero:
        raise ZeroInput("expected a unit, got the exact zero")
    if x.valuation != 0:
        raise NotAUnit(f"valuation {x.valuation} is nonzero")
    return x.unit


def fermat_quotient(x: PAdicNumber) -> PAdicInt:
    """(x^(p-1) - 1) / p for a unit; carries one digit less than x."""
    if x.p == 2:
        raise WrongPrime("Fermat quotients are defined for odd p")
    u = _require_unit(x)
    if u.precision < 2:
        raise PrecisionTooLow("need at least 2 digits to form the quotient")
    power = PAdicInt(x.p, u.precision, pow(u.residue, x.p - 1, u.modulus))
    return (power - 1).exact_div_p_power(1)


def _k1_cross_check(unit: PAdicInt, digit_ok: bool) -> None:
    # The three degree-p tests, equivalent for odd p, must agree; a mismatch is a
    # bug.  Each reads only the unit mod p^2.  At p = 2 a unit = 5 (mod 8) fails them.
    p = unit.p
    a = unit.residue % p**2
    quot_ok = (pow(a, p - 1, p**2) - 1) // p == 0
    power_ok = pow(a, p, p**2) == a
    l0, l1 = a % p, a // p % p
    predicted = (pow(l0, p, p**3) - l0) % p**2 // p % p
    digit_form_ok = l1 == predicted
    if not (digit_ok == quot_ok == power_ok == digit_form_ok):
        raise SelfCheckFailed(
            f"degree-p criteria disagree for {unit}: digit={digit_ok} "
            f"quotient={quot_ok} power={power_ok} digit-form={digit_form_ok}"
        )


def pk_root_exists(x: PAdicNumber, k: int) -> RootCheck:
    """Criterion for a p^k-th root of nonzero x; bad input raises, a failed condition is reported.

    A root exists iff p^k divides the valuation and Witt digits 1..k of the
    unit part are zero; at p = 2 digit k + 1 must be zero too, since the
    2^k-th powers of units are the units = 1 (mod 2^(k+2)).  One power reads
    those digits: if u = teichmuller(u_0) * (1 + p^j c) with c a unit, the
    first nonzero digit is u_j, and u^(p-1) = 1 + (p-1) p^j c + ... has
    valuation exactly j after subtracting 1.  At p = 2 the lifts are 0 and 1,
    so Witt digits are binary digits, and u^(p-1) - 1 = u - 1 reads them with
    no branch.  This needs k + 1 digits of precision (k + 2 at p = 2).
    """
    if x.is_zero:
        raise ZeroInput("zero has no root report")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p, K = x.p, x.unit.precision
    if x.valuation and padic_valuation(x.valuation, p) < k:
        return RootCheck(False, RootReason.VALUATION_NOT_DIVISIBLE, None)
    last = k + (p == 2)
    if K < last + 1:
        raise PrecisionTooLow(f"need {last + 1} digits to read Witt digits 1..{last}, have {K}")
    r = pow(x.unit.residue, p - 1, p ** (last + 1)) - 1
    if r:
        check = RootCheck(False, RootReason.WITT_DIGIT_NONZERO, padic_valuation(r, p))
    else:
        check = RootCheck(True, RootReason.OK, None)
    if k == 1 and p != 2:
        _k1_cross_check(x.unit, digit_ok=check.ok)
    return check


def pk_root(x: PAdicNumber, k: int) -> RootReport:
    """Every p^k-th root of x, sorted by residue, when the digit criterion holds.

    y, the root of y^(p^k) = unit that is the unit mod p (mod 4 at p = 2), is
    lifted by Newton's method.  The roots, to K - k digits, are p^(z/p^k) y
    and, at p = 2, where 1 and -1 are the only 2-power roots of unity, -p^(z/p^k) y.
    """
    check = pk_root_exists(x, k)
    K = x.unit.precision
    if not check.ok:
        return RootReport(False, check.reason, check.digit_index, (), K)
    y = _lift_root(x.unit, x.p**k, x.unit.residue)
    units = sorted((y, -y), key=lambda r: r.residue) if x.p == 2 else (y,)
    w = x.valuation // x.p**k
    return RootReport(True, RootReason.OK, None, tuple(PAdicNumber(x.p, w, u) for u in units), K - k)


def root_quotient_congruence_check(x: PAdicNumber, k: int) -> QuotientCongruenceReport:
    """Compare q_1(root) with q_1(x)/p^k mod p, and the digit congruence.

    Also evaluates the precursor form: Witt digit k+1 of the unit part must
    be -x_0 * (q_1(x)/p^k) mod p.  Needs precision k+2.
    """
    p = x.p
    u = _require_unit(x)
    if u.precision < k + 2:
        raise PrecisionTooLow(f"need {k + 2} digits, have {u.precision}")
    report = pk_root(x, k)
    if not report.exists:
        raise RootCondition(f"no p^{k}-th root: {report.reason.value}", report.digit_index)
    scaled = fermat_quotient(x).exact_div_p_power(k)
    rhs = scaled.residue % p
    lhs = fermat_quotient(report.roots[0]).residue % p
    digit_value = witt_digits(u, k + 2)[k + 1]
    digit_predicted = -(u.residue % p) * rhs % p
    return QuotientCongruenceReport(
        holds=(lhs == rhs and digit_value == digit_predicted),
        root_quotient=lhs,
        scaled_quotient=rhs,
        digit_value=digit_value,
        digit_predicted=digit_predicted,
    )


def sqrt_2adic(x: PAdicNumber) -> RootReport:
    """pk_root(x, 1) at p = 2: the pair +-y when the valuation is even and the unit is 1 mod 8."""
    if x.p != 2:
        raise WrongPrime(f"square-root routine is for p = 2, got p = {x.p}")
    return pk_root(x, 1)


def general_root(x: PAdicNumber, m: int) -> RootReport:
    """All m-th roots of x, splitting m into p^v times m'.

    m must divide the valuation.  pk_root gives the p^v-th roots of x, one for
    odd p and two opposite ones at p = 2.  hensel_kth_root then gives each of
    them gcd(m', p-1) m'-th roots (one at p = 2), or none when the m'-th power
    residue test fails.  The first failure is reported.  Roots are determined
    to K - v digits.
    """
    if x.is_zero:
        raise ZeroInput("zero has no root report")
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    p = x.p
    K = x.unit.precision
    v = padic_valuation(m, p)
    m_prime = m // p**v
    if x.valuation % m != 0:
        return RootReport(False, RootReason.VALUATION_NOT_DIVISIBLE, None, (), K)
    roots = (x.unit,)
    if v > 0:
        report = pk_root(x, v)
        if not report.exists:
            return RootReport(False, report.reason, report.digit_index, (), K)
        roots = [r.unit for r in report.roots]
    if m_prime > 1:
        # Each p^v-th root is x.unit mod p, so Hensel's residue test gives the verdict for x.
        roots = sorted((s for r in roots for s in hensel_kth_root(r, m_prime)), key=lambda s: s.residue)
        if not roots:
            return RootReport(False, RootReason.NOT_KTH_RESIDUE, None, (), K)
    w = x.valuation // m
    return RootReport(True, RootReason.OK, None, tuple(PAdicNumber(p, w, r) for r in roots), K - v)


#: Largest limit `wieferich_search` accepts.  Its sieve keeps the primes up to
#: isqrt(limit) between segments: 82025 of them, about 3 MB, at 2^40.
WIEFERICH_LIMIT = 2**40
_BLOCK = 8


def wieferich_search(base: int, limit: int) -> list[int]:
    """Odd primes p <= limit, coprime to base, with base^(p-1) = 1 mod p^2.

    (Z/p^2)^x is cyclic, so base^(p-1) = 1 mod p^2 exactly when
    x = base^((p-1)/2) mod p^2 is 1 or p^2 - 1; when p | base, x = 0 mod p.
    Each block of 8 consecutive primes p_1 < ... < p_8 shares one pow,
    a = base^((p_1-1)/2) mod p_1^2...p_8^2, and p_j finishes with
    a * base^((p_j-p_1)/2) mod p_j^2, a pow with a short exponent.  The
    primes stream from `odd_prime_segments`, so memory stays O(sqrt(limit));
    a limit above WIEFERICH_LIMIT raises ValueError.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    if limit > WIEFERICH_LIMIT:
        raise ValueError(f"limit must be <= 2^{WIEFERICH_LIMIT.bit_length() - 1}, got {limit}")
    hits = []
    for primes in odd_prime_segments(limit):
        for k in range(0, len(primes), _BLOCK):
            block = primes[k : k + _BLOCK]
            p1 = block[0]
            squares = [p * p for p in block]
            a = pow(base, p1 >> 1, prod(squares))
            for p, m in zip(block, squares):
                x = a * pow(base, (p - p1) >> 1, m) % m
                if x == 1 or x == m - 1:
                    hits.append(p)
    return hits


#: Largest p `flt_local_witness` accepts.  Its table holds p lifts mod p^2, and
#: the exact sum 1 + y^p has about p log2(p) bits: near 2^20 at 2^16.
FLT_LIMIT = 2**16


def flt_local_witness(p: int, precision: int = 6) -> FermatWitness | None:
    """The least 0 < y < p-1 with vanishing carry phi_1(1, y), or None.

    A hit means 1 + y^p is a p-th power sum whose degree-p digit vanishes,
    so its p-th root exists; the root is verified at the given precision,
    at least 2 to read Witt digit 1.  phi_1(1, y) = 0 exactly when
    t[y + 1] = t[y] + 1 for t[a] = a^p mod p^2, the Teichmuller lift of a, so
    y is read off one _group_table, with no pow per candidate, and confirmed
    by factor_system_phi1.  p above FLT_LIMIT raises ValueError.
    """
    check_prime(p)
    if p == 2:
        raise WrongPrime("the witness search needs p odd")
    if p > FLT_LIMIT:
        raise ValueError(f"p must be <= 2^{FLT_LIMIT.bit_length() - 1}, got {p}")
    if precision < 2:
        raise PrecisionTooLow(f"need 2 digits to read Witt digits 1..1, have {precision}")
    t, m = _group_table(p, 2), p * p
    y = next((y for y in range(1, p - 1) if t[y + 1] == (t[y] + 1) % m), None)
    if y is None:
        return None
    if factor_system_phi1(p, 1, y) != 0:
        raise SelfCheckFailed(f"the lifts mod {p}^2 give (1 + {y})^{p} = 1 + {y}^{p} but phi_1(1, {y}) != 0")
    total = 1 + y**p
    report = pk_root(PAdicNumber.from_integer(total, p, precision), 1)
    if not report.exists:
        raise SelfCheckFailed(f"phi_1(1, {y}) = 0 but 1 + {y}^{p} has no {p}-th root")
    return FermatWitness(p, 1, y, total, report.roots[0].unit)
