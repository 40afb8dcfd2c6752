"""Truncated p-adic logarithm and exponential, polar form, and powers.

log(1+t) = t - t^2/2 + ... and exp(t) = 1 + t + t^2/2! + ... terminate mod
p^K once every remaining term has valuation >= K.  Terms are accumulated at
a working precision with enough guard digits that each division by j (or by
j!) is exact: the p-part of the divisor is cancelled by integer division of
the power of t, the unit part by one modular inverse at the end of the sum.

When p is small against K, the log is taken as log(x^(p^r)) / p^r, whose
series needs about K/(r+1) terms, and exp by Newton's method on that log;
see Brent (1976), "Fast multiple-precision evaluation of elementary functions".
Roots take neither: a u/p^k-th power is the u-th power of a root of
y^(p^k) = x, lifted by Newton's method on that equation (padic._lift_root).
"""

from math import isqrt

from .errors import (
    DomainError,
    PrecisionTooLow,
    RootCondition,
    ValuationCondition,
    ZeroInput,
)
from .padic import PAdicInt, PAdicNumber, Record, _lift_root, _setattr, padic_valuation, teichmuller, unit_inverse


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


def _log(p: int, K: int, x: int) -> int:
    """log x mod p^K for x = 1 mod p (mod 4 at p = 2), as log(y) / p^r with y = x^(p^r).

    y is 1 mod p^s, s = r + 1 (r + 2 at p = 2), and x mod p^K fixes it to
    N = K + r digits.  Term j of log(1+t), t = y - 1, has valuation >= j*s -
    floor(log_p j), a non-decreasing bound, so the terms from j = (N + g)/s on
    vanish once p^(g+1) passes that index; g is also the guard, the largest
    v_p(j) kept.  As in pexp, the sum is kept over the product D of the unit
    parts of the j, inverted once.  The cost is r p-th powerings plus about
    K/(r+1) terms, least near r = sqrt(K / log2 p); r = 0, the plain series,
    once p >= 2^K.
    """
    r = isqrt(K // p.bit_length())
    N = K + r
    s = r + 1 + (p == 2)
    t = pow(x, p**r, p**N) - 1
    g = 0
    while p ** (g + 1) <= (N + g - 1) // s + 1:
        g += 1
    m = p ** (N + g)
    total = 0
    tpow = denom = 1
    for j in range(1, (N + g - 1) // s + 1):
        tpow = tpow * t % m
        u, p_part = j, 1
        while u % p == 0:
            u //= p
            p_part *= p
        term = tpow // p_part * denom
        total = (total * u + term if j & 1 else total * u - term) % m
        denom = denom * u % m
    return total * pow(denom, -1, m) % p**N // p**r


def plog(x: PAdicInt) -> PAdicInt:
    """Logarithm of a principal unit; the result is divisible by p."""
    _require_principal(x)
    return PAdicInt(x.p, x.precision, _log(x.p, x.precision, x.residue))


def pexp(theta: PAdicInt) -> PAdicInt:
    """Exponential of an argument divisible by p (by 4 when p = 2).

    The series runs at a start precision k0 of at most 6 bits(p) digits, with
    bits(p) the bit length of p; then each Newton step y <- y * (1 + theta -
    log y) takes y from e correct digits to 2e (2e - 1 at p = 2), up to K.
    So K <= 6 bits(p) is the series alone, and above it the cost is about two
    logs to K digits.

    In the series, term j has valuation >= j*v - v_p(j!) >= j*v - (j-1)/(p-1)
    with v the domain valuation (1 for odd p, 2 for p = 2), which gives the
    cutoff J; (J-1)/(p-1) guard digits cover the worst division by j!.
    The p-part of j! is cancelled by integer division of t^j.  The sum is
    kept scaled by the unit part U_j of j!: S_j = S_(j-1)*u_j + t^j/p^v_p(j!),
    with u_j the unit part of j, so that S_J = U_J * sum(t^j/j!) and the
    series costs a single modular inverse, of U_J, at the end.
    """
    p, K = theta.p, theta.precision
    _require_argument(theta)
    precisions = [K]
    while precisions[-1] > 6 * p.bit_length():
        precisions.append((precisions[-1] + 1 + (p == 2)) // 2)
    k0 = precisions.pop()
    vmin = 2 if p == 2 else 1
    t = theta.residue
    last = max(1, -(-(k0 * (p - 1) - 1) // (vmin * (p - 1) - 1)))
    m = p ** (k0 + (last - 1) // (p - 1))
    total = tpow = fact_unit = fact_p = 1
    for j in range(1, last + 1):
        tpow = tpow * t % m
        u = j
        while u % p == 0:
            u //= p
            fact_p *= p
        fact_unit = fact_unit * u % m
        total = (total * u + tpow // fact_p) % m
    y = total * pow(fact_unit, -1, m) % p**k0
    for k in reversed(precisions):
        y = y * (1 + t - _log(p, k, y)) % p**k
    return PAdicInt(p, K, y)


class PolarForm(Record):
    """Factorization p^valuation * teichmuller(teich_digit) * exp(argument)."""

    __slots__ = ("p", "valuation", "teich_digit", "argument")

    def __init__(self, p: int, valuation: int, teich_digit: int, argument: PAdicInt):
        _setattr(self, "p", p)
        _setattr(self, "valuation", valuation)
        _setattr(self, "teich_digit", teich_digit)
        _setattr(self, "argument", argument)


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


class ExactExponent(Record):
    """Exponent u / p^k; denominator_power 0 means a plain integer."""

    __slots__ = ("numerator", "denominator_power")

    def __init__(self, numerator: int, denominator_power: int = 0):
        if denominator_power < 0:
            raise ValueError("denominator power must be >= 0")
        _setattr(self, "numerator", numerator)
        _setattr(self, "denominator_power", denominator_power)

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
    2^k-th powers of units are the units = 1 (mod 2^(k+2)).  One power reads
    those digits: if u = teichmuller(u_0) * (1 + p^j c) with c a unit, the
    first nonzero digit is u_j, and u^(p-1) = 1 + (p-1) p^j c + ... has
    valuation exactly j after subtracting 1.  At p = 2 the lifts are 0 and 1,
    so Witt digits are binary digits, and u^(p-1) - 1 = u - 1 reads them with
    no branch.  This needs k + 1 digits of precision (k + 2 at p = 2).
    """
    p, K = x.p, x.unit.precision
    if x.valuation and padic_valuation(x.valuation, p) < k:
        raise ValuationCondition(f"valuation {x.valuation} is not divisible by {p}^{k}")
    last = k + (p == 2)
    if K < last + 1:
        raise PrecisionTooLow(f"need {last + 1} digits to read Witt digits 1..{last}, have {K}")
    r = pow(x.unit.residue, p - 1, p ** (last + 1)) - 1
    if r:
        i = padic_valuation(r, p)
        raise RootCondition(f"Witt digit {i} of the unit part is nonzero", digit_index=i)


def ppow(x: PAdicNumber, y: ExactExponent) -> PAdicNumber:
    """x**y, with the valuation handled exactly.

    Integer exponents reduce to modular powering.  An exponent u/p^k needs
    the valuation divisible by p^k and the unit's Witt digits 1..k all zero
    (1..k+1 at p = 2).  The unit then has exactly one p^k-th root that is
    congruent to it mod p (mod 4 at p = 2), the one its polar form scaled by
    1/p^k gives; the result is p^(valuation*u/p^k) times that root to the
    power u, and carries K - k digits.
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
    root = _lift_root(x.unit, p**k, x.unit.residue)
    return PAdicNumber(p, x.valuation // p**k * u, PAdicInt(p, root.precision, pow(root.residue, u, root.modulus)))
