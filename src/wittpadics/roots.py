"""Existence tests and constructions for roots of p-adic numbers.

Covers p^k-th roots of units via the Witt-digit criterion, square roots for
p = 2, general degrees by splitting off the p-part, Fermat quotients, and
the number-theoretic searches built on them.
"""

import enum
from bisect import bisect_left
from math import prod

from .analytic import ExactExponent, _check_pk_root, pexp, plog, ppow
from .errors import (
    NotAUnit,
    PrecisionTooLow,
    RootCondition,
    ValuationCondition,
    WrongPrime,
    ZeroInput,
)
from .padic import PAdicInt, PAdicNumber, Record, _setattr, hensel_kth_root, kth_power_residue_test, padic_valuation
from .primes import check_prime, odd_prime_segments
from .witt import factor_system_phi1, witt_digits


class RootReason(enum.Enum):
    OK = "ok"
    VALUATION_NOT_DIVISIBLE = "valuation not divisible"
    WITT_DIGIT_NONZERO = "witt digit nonzero"
    NOT_KTH_RESIDUE = "not a k-th power residue"
    MOD8_FAILURE = "not 1 mod 8"


class RootCheck(Record):
    """Outcome of an existence test, before any root is constructed."""

    __slots__ = ("ok", "reason", "digit_index")

    def __init__(self, ok: bool, reason: RootReason, digit_index: int | None = None):
        _setattr(self, "ok", ok)
        _setattr(self, "reason", reason)
        _setattr(self, "digit_index", digit_index)


class RootReport(Record):
    """Roots of a given degree, or the first obstruction met.

    exists iff roots is non-empty; every root raised to the degree
    reproduces the input at its full input precision, while the roots
    themselves are determined to output_precision digits.  A failed report
    carries the input precision.
    """

    __slots__ = ("exists", "reason", "digit_index", "roots", "output_precision")

    def __init__(
        self,
        exists: bool,
        reason: RootReason,
        digit_index: int | None,
        roots: tuple[PAdicNumber, ...],
        output_precision: int,
    ):
        _setattr(self, "exists", exists)
        _setattr(self, "reason", reason)
        _setattr(self, "digit_index", digit_index)
        _setattr(self, "roots", roots)
        _setattr(self, "output_precision", output_precision)


class QuotientCongruenceReport(Record):
    """Both sides of the root/quotient congruence, reduced mod p."""

    __slots__ = ("holds", "root_quotient", "scaled_quotient", "digit_value", "digit_predicted")

    def __init__(self, holds: bool, root_quotient: int, scaled_quotient: int, digit_value: int, digit_predicted: int):
        _setattr(self, "holds", holds)
        _setattr(self, "root_quotient", root_quotient)
        _setattr(self, "scaled_quotient", scaled_quotient)
        _setattr(self, "digit_value", digit_value)
        _setattr(self, "digit_predicted", digit_predicted)


class FermatWitness(Record):
    """Residue pair with vanishing carry whose p-th-power sum has a p-th root.

    (x, y, -root) solves X^p + Y^p + Z^p = 0 in the p-adic integers: the
    root satisfies root^p = x^p + y^p, so negating it moves the sum to zero.
    """

    __slots__ = ("p", "x", "y", "sum", "root")

    def __init__(self, p: int, x: int, y: int, sum: int, root: PAdicInt):
        _setattr(self, "p", p)
        _setattr(self, "x", x)
        _setattr(self, "y", y)
        _setattr(self, "sum", sum)
        _setattr(self, "root", root)


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
    # The three equivalent degree-p tests must agree; a mismatch is a bug.
    # Each reads only the unit mod p^2.
    p = unit.p
    a = unit.residue % p**2
    quot_ok = (pow(a, p - 1, p**2) - 1) // p == 0
    power_ok = pow(a, p, p**2) == a
    l0, l1 = a % p, a // p % p
    predicted = (pow(l0, p, p**3) - l0) % p**2 // p % p
    digit_form_ok = l1 == predicted
    if not (digit_ok == quot_ok == power_ok == digit_form_ok):
        raise AssertionError(
            f"degree-p criteria disagree for {unit}: digit={digit_ok} "
            f"quotient={quot_ok} power={power_ok} digit-form={digit_form_ok}"
        )


def pk_root_exists(x: PAdicNumber, k: int) -> RootCheck:
    """Criterion for a p^k-th root: p^k | valuation and unit digits 1..k zero."""
    if x.is_zero:
        raise ZeroInput("zero has no root report")
    if x.p == 2:
        raise WrongPrime("use the p = 2 square-root routine")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    try:
        _check_pk_root(x, k)
    except ValuationCondition:
        return RootCheck(False, RootReason.VALUATION_NOT_DIVISIBLE)
    except RootCondition as exc:
        check = RootCheck(False, RootReason.WITT_DIGIT_NONZERO, exc.digit_index)
    else:
        check = RootCheck(True, RootReason.OK)
    if k == 1:
        _k1_cross_check(x.unit, digit_ok=check.ok)
    return check


def pk_root(x: PAdicNumber, k: int) -> RootReport:
    """The unique p^k-th root of x when the digit criterion holds.

    The root is p^(z/p^k) * teichmuller(x_0) * exp(log(principal part)/p^k)
    and is determined to K - k digits.
    """
    check = pk_root_exists(x, k)
    K = x.unit.precision
    if not check.ok:
        return RootReport(False, check.reason, check.digit_index, (), K)
    root = ppow(x, ExactExponent(1, k))
    return RootReport(True, RootReason.OK, None, (root,), K - k)


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
    """The two opposite square roots of a 2-adic unit congruent to 1 mod 8.

    The principal root is exp(log(x)/2); the pair is determined to K - 1
    digits, and either representative squares back to x mod 2^K.
    """
    if x.p != 2:
        raise WrongPrime(f"square-root routine is for p = 2, got p = {x.p}")
    u = _require_unit(x)
    K = u.precision
    if K < 3:
        raise PrecisionTooLow(f"need at least 3 digits to test mod 8, have {K}")
    if u.residue % 8 != 1:
        return RootReport(False, RootReason.MOD8_FAILURE, None, (), K)
    r = pexp(plog(u).exact_div_p_power(1))
    small = min(r.residue, (-r).residue)
    pair = tuple(PAdicNumber(2, 0, PAdicInt(2, K - 1, r)) for r in (small, -small))
    return RootReport(True, RootReason.OK, None, pair, K - 1)


def general_root(x: PAdicNumber, m: int) -> RootReport:
    """All m-th roots of x for odd p, splitting m into p^v times m'.

    The unit part passes in order: the digit criterion for its p^v-th root,
    the m'-th power residue test, then the one p^v-th root is taken and its
    gcd(m', p-1) m'-th roots are Hensel-lifted.  The first failure is
    reported.  Roots are determined to K - v digits.
    """
    if x.is_zero:
        raise ZeroInput("zero has no root report")
    if x.p == 2:
        raise WrongPrime("use the p = 2 square-root routine")
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    p = x.p
    K = x.unit.precision
    if m == 1:
        return RootReport(True, RootReason.OK, None, (x,), K)
    v = padic_valuation(m, p)
    m_prime = m // p**v
    if x.valuation % m != 0:
        return RootReport(False, RootReason.VALUATION_NOT_DIVISIBLE, None, (), K)
    unit = PAdicNumber(p, 0, x.unit)
    if v > 0:
        check = pk_root_exists(unit, v)
        if not check.ok:
            return RootReport(False, check.reason, check.digit_index, (), K)
    # The p^v-th root is x.unit mod p, so this is the verdict Hensel would give.
    if not kth_power_residue_test(p, x.unit.residue, m_prime):
        return RootReport(False, RootReason.NOT_KTH_RESIDUE, None, (), K)
    root = ppow(unit, ExactExponent(1, v)).unit
    roots = sorted(hensel_kth_root(root, m_prime) if m_prime > 1 else (root,), key=lambda r: r.residue)
    w = x.valuation // m
    return RootReport(True, RootReason.OK, None, tuple(PAdicNumber(p, w, r) for r in roots), K - v)


#: Largest limit `wieferich_search` accepts.  Its sieve keeps the primes up to
#: isqrt(limit) between segments: 82025 of them, about 3 MB, at 2^40.
WIEFERICH_LIMIT = 2**40
# Below this, p^2 fits one 30-bit digit of a Python int and one pow per prime
# is faster than a shared one.
_SHARED_POW_FROM = 2**15
_BLOCK = 8


def wieferich_search(base: int, limit: int) -> list[int]:
    """Odd primes p <= limit, coprime to base, with base^(p-1) = 1 mod p^2.

    (Z/p^2)^x is cyclic, so base^(p-1) = 1 mod p^2 exactly when
    x = base^((p-1)/2) mod p^2 is 1 or p^2 - 1; when p | base, x = 0 mod p.
    Primes below 2^15 take one pow each.  Above, each block of 8 consecutive
    primes p_1 < ... < p_8 shares a = base^((p_1-1)/2) mod p_1^2...p_8^2, and
    p_j finishes with a * base^((p_j-p_1)/2) mod p_j^2, a pow with a short
    exponent.  The primes stream from `odd_prime_segments`, so memory stays
    O(sqrt(limit)); a limit above WIEFERICH_LIMIT raises ValueError.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    if limit > WIEFERICH_LIMIT:
        raise ValueError(f"limit must be <= 2^{WIEFERICH_LIMIT.bit_length() - 1}, got {limit}")
    hits = []
    for primes in odd_prime_segments(limit):
        k = bisect_left(primes, _SHARED_POW_FROM)
        for p in primes[:k]:
            m = p * p
            x = pow(base, p >> 1, m)
            if x == 1 or x == m - 1:
                hits.append(p)
        for k in range(k, len(primes), _BLOCK):
            block = primes[k : k + _BLOCK]
            p1 = block[0]
            squares = [p * p for p in block]
            a = pow(base, p1 >> 1, prod(squares))
            for p, m in zip(block, squares):
                x = a * pow(base, (p - p1) >> 1, m) % m
                if x == 1 or x == m - 1:
                    hits.append(p)
    return hits


def flt_local_witness(p: int, precision: int = 6) -> FermatWitness | None:
    """Search 0 < y < p-1 for a vanishing carry phi_1(1, y).

    A hit means 1 + y^p is a p-th power sum whose degree-p digit vanishes,
    so its p-th root exists; the root is verified at the given precision.
    """
    check_prime(p)
    if p == 2:
        raise WrongPrime("the witness search needs p odd")
    for y in range(1, p - 1):
        if factor_system_phi1(p, 1, y) != 0:
            continue
        total = 1 + y**p
        report = pk_root(PAdicNumber.from_integer(total, p, precision), 1)
        if not report.exists:
            raise AssertionError(f"phi_1(1, {y}) = 0 but 1 + {y}^{p} has no {p}-th root")
        return FermatWitness(p, 1, y, total, report.roots[0].unit)
    return None
