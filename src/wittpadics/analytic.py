"""Truncated p-adic logarithm and exponential, polar form, and powers.

log(1+t) = t - t^2/2 + ... and exp(t) = 1 + t + t^2/2! + ... terminate mod
p^K once every remaining term has valuation >= K.  Terms are accumulated at
a working precision with enough guard digits that each division by j (or by
j!) is exact: the p-part of the divisor is cancelled by integer division of
the power of t, the unit part by one modular inverse at the end of the sum.
"""

from dataclasses import dataclass

from .errors import (
    DomainError,
    PrecisionTooLow,
    RootCondition,
    ValuationCondition,
    ZeroInput,
)
from .padic import PAdicInt, PAdicNumber, padic_valuation, teichmuller, unit_inverse
from .witt import witt_digits


def _floor_log(base: int, n: int) -> int:
    e = 0
    while base ** (e + 1) <= n:
        e += 1
    return e


def _factorial_valuation(n: int, p: int) -> int:
    # Legendre: v_p(n!) = sum of n // p^i
    total = 0
    q = n // p
    while q:
        total += q
        q //= p
    return total


def _require_principal(x: PAdicInt) -> None:
    if x.p == 2:
        if x.precision < 2:
            raise PrecisionTooLow("p = 2 needs two digits to check the 1 mod 4 domain")
        if x.residue % 4 != 1:
            raise DomainError(f"log requires x = 1 (mod 4), got x = {x.residue % 4} (mod 4)")
    elif x.residue % x.p != 1:
        raise DomainError(f"log requires x = 1 (mod {x.p}), got x = {x.residue % x.p} (mod {x.p})")


def _require_argument(theta: PAdicInt) -> None:
    if theta.p == 2:
        if theta.precision < 2:
            raise PrecisionTooLow("p = 2 needs two digits to check the 0 mod 4 domain")
        if theta.residue % 4 != 0:
            raise DomainError(f"exp requires theta = 0 (mod 4), got theta = {theta.residue % 4} (mod 4)")
    elif theta.residue % theta.p != 0:
        raise DomainError(f"exp requires theta = 0 (mod {theta.p})")


def plog(x: PAdicInt) -> PAdicInt:
    """Logarithm of a principal unit; the result is divisible by p.

    Term j has valuation >= j - floor(log_p j), a non-decreasing bound, so
    the series is cut at the last index where it stays below K.  The guard
    precision floor(log_p J) covers the worst division by j.  As in pexp, the
    sum is kept over the product D_J of the unit parts of 1..J, inverted once.
    """
    p, K = x.p, x.precision
    _require_principal(x)
    t = x.residue - 1
    last = 0
    while (last + 1) - _floor_log(p, last + 1) < K:
        last += 1
    guard = _floor_log(p, last) if last else 0
    m = p ** (K + guard)
    total = 0
    tpow = denom = 1
    for j in range(1, last + 1):
        tpow = tpow * t % m
        e = padic_valuation(j, p)
        u = j // p**e
        total = (total * u - (-1) ** j * (tpow // p**e) * denom) % m
        denom = denom * u % m
    return PAdicInt(p, K, total * pow(denom, -1, m))


def pexp(theta: PAdicInt) -> PAdicInt:
    """Exponential of an argument divisible by p (by 4 when p = 2).

    Term j has valuation >= j*v - v_p(j!) >= j*v - (j-1)/(p-1) with v the
    domain valuation (1 for odd p, 2 for p = 2), which gives the cutoff; the
    guard precision v_p(J!) covers the worst division by j!.  The p-part of
    j! is cancelled by integer division of t^j.  The sum is kept scaled by
    the unit part U_j of j!: S_j = S_(j-1)*u_j + t^j/p^v_p(j!), with u_j the
    unit part of j, so that S_J = U_J * sum(t^j/j!) and the series costs a
    single modular inverse, of U_J, at the end.
    """
    p, K = theta.p, theta.precision
    _require_argument(theta)
    vmin = 2 if p == 2 else 1
    t = theta.residue
    denom = vmin * (p - 1) - 1
    last = max(1, -(-(K * (p - 1) - 1) // denom))
    guard = _factorial_valuation(last, p)
    m = p ** (K + guard)
    total = 1
    tpow = 1
    fact_v = 0
    fact_unit = 1
    for j in range(1, last + 1):
        tpow = tpow * t % m
        e = padic_valuation(j, p)
        fact_v += e
        u = j // p**e
        fact_unit = fact_unit * u % m
        total = (total * u + tpow // p**fact_v) % m
    return PAdicInt(p, K, total * pow(fact_unit, -1, m))


@dataclass(frozen=True, slots=True)
class PolarForm:
    """Factorization p^valuation * teichmuller(teich_digit) * exp(argument)."""

    p: int
    valuation: int
    teich_digit: int
    argument: PAdicInt


def polar(x: PAdicNumber) -> PolarForm:
    """Split a nonzero number into its module and argument."""
    if x.is_zero:
        raise ZeroInput("zero has no polar form")
    digit = x.unit.residue % x.p
    lift = teichmuller(PAdicInt(x.p, x.unit.precision, digit))
    return PolarForm(x.p, x.valuation, digit, plog(x.unit * unit_inverse(lift)))


def recompose(form: PolarForm) -> PAdicNumber:
    """Rebuild the number a polar form was taken from."""
    k = form.argument.precision
    lift = teichmuller(PAdicInt(form.p, k, form.teich_digit))
    return PAdicNumber(form.p, form.valuation, lift * pexp(form.argument))


def de_moivre_check(x: PAdicNumber, y: PAdicNumber) -> bool:
    """Whether modules multiply and arguments add for the product x*y."""
    if x.is_zero or y.is_zero:
        raise ZeroInput("the polar identities need nonzero inputs")
    fx, fy, fxy = polar(x), polar(y), polar(x * y)
    if fxy.valuation != fx.valuation + fy.valuation:
        return False
    if fxy.teich_digit != fx.teich_digit * fy.teich_digit % x.p:
        return False
    s = fx.argument + fy.argument
    k = min(s.precision, fxy.argument.precision)
    return fxy.argument.with_precision(k) == s.with_precision(k)


@dataclass(frozen=True, slots=True)
class ExactExponent:
    """Exponent u / p^k; denominator_power 0 means a plain integer."""

    numerator: int
    denominator_power: int = 0

    def __post_init__(self):
        if self.denominator_power < 0:
            raise ValueError("denominator power must be >= 0")

    def normalized(self, p: int) -> "ExactExponent":
        """Cancel powers of p between numerator and denominator."""
        u, k = self.numerator, self.denominator_power
        if u == 0:
            return ExactExponent(0, 0)
        while k > 0 and u % p == 0:
            u //= p
            k -= 1
        return ExactExponent(u, k)


def _check_pk_root(x: PAdicNumber, k: int) -> None:
    """The p^k-th root criterion for nonzero x; raises at the first failure.

    A root exists iff p^k divides the valuation and Witt digits 1..k of the
    unit part are zero; at p = 2 digit k + 1 must be zero too, since the
    2^k-th powers of units are the units = 1 (mod 2^(k+2)).  Only those
    digits are peeled, so this needs k + 1 digits of precision (k + 2 at p = 2).
    """
    K = x.unit.precision
    if x.valuation % x.p**k != 0:
        raise ValuationCondition(f"valuation {x.valuation} is not divisible by {x.p}^{k}")
    last = k + (x.p == 2)
    if K < last + 1:
        raise PrecisionTooLow(f"need {last + 1} digits to read Witt digits 1..{last}, have {K}")
    digits = witt_digits(x.unit, last + 1)
    for i in range(1, last + 1):
        if digits[i]:
            raise RootCondition(f"Witt digit {i} of the unit part is nonzero", digit_index=i)


def ppow(x: PAdicNumber, y: ExactExponent) -> PAdicNumber:
    """x**y, with the valuation handled exactly.

    Integer exponents reduce to modular powering.  An exponent u/p^k needs
    the valuation divisible by p^k and the unit's Witt digits 1..k all zero
    (1..k+1 at p = 2);
    the polar argument is then divisible by p^(k+1), and the result is the
    polar form of x scaled by u/p^k: valuation and argument times u/p^k,
    Teichmuller digit to the power u.  It carries K - k digits.
    """
    p = x.p
    y = y.normalized(p)
    u, k = y.numerator, y.denominator_power
    if x.is_zero:
        if k == 0 and u > 0:
            return x
        raise ZeroInput("zero can only be raised to a positive integer power")
    if k == 0:
        return x.pow_int(u)
    _check_pk_root(x, k)
    form = polar(x)
    scaled = form.argument.exact_div_p_power(k) * u
    return recompose(PolarForm(p, form.valuation // p**k * u, pow(form.teich_digit, u, p), scaled))
