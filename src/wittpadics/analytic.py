"""Truncated p-adic logarithm and exponential, polar form, and powers.

log(1+t) = t - t^2/2 + t^3/3 - ... terminates mod p^K once every remaining
term has valuation >= K.  Terms are accumulated at a working precision with
enough guard digits that each division by j is exact: the p-part of the
divisor is cancelled by integer division of the power of t, the unit part by
one modular inverse at the end of the sum.

When p is small against K, the log is taken as log(x^(p^r)) / p^r, whose
series needs about K/(r+1) terms.  exp is Newton's method on the log alone;
see Brent (1976), "Fast multiple-precision evaluation of elementary functions".
Roots take neither: a u/p^k-th power is the u-th power of the root that
roots.pk_root gives, where the Witt-digit root criterion lives
(roots.pk_root_exists).
"""

from math import isqrt

from .errors import DomainError, PrecisionTooLow, RootCondition, ValuationCondition, ZeroInput
from .padic import PAdicInt, PAdicNumber, Record, _setattr, padic_valuation, teichmuller
from .roots import RootReason, pk_root


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
    v_p(j) kept.  The sum is kept over the product D of the unit parts of
    the j, inverted once.  The cost is r p-th powerings plus about K/(r+1)
    terms, least near r = sqrt(K / log2 p); r = 0, the plain series, once
    p >= 2^K.
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

    Newton's method on the log alone: y <- y * (1 + theta - log y) takes y
    from e correct digits to 2e (2e - 1 at p = 2), up to K, so the cost is
    about two logs to K digits.  The start y = 1 + theta is exp theta to 2
    digits (3 at p = 2): for j >= 2, v(theta^j / j!) >= j - (j-1)/(p-1) >= 2
    at odd p, and >= j + 1 >= 3 at p = 2, where v(theta) >= 2.
    """
    p, K = theta.p, theta.precision
    _require_argument(theta)
    precisions = [K]
    while precisions[-1] > 2 + (p == 2):
        precisions.append((precisions[-1] + 1 + (p == 2)) // 2)
    t = theta.residue
    y = 1 + t
    for k in reversed(precisions[:-1]):
        y = y * (1 + t - _log(p, k, y)) % p**k
    return PAdicInt(p, K, y)


class PolarForm(Record):
    """Factorization p^valuation * teichmuller(teich_digit) * exp(argument); argument is a PAdicInt, the rest ints."""

    __slots__ = ("p", "valuation", "teich_digit", "argument")


def polar(x: PAdicNumber) -> PolarForm:
    """Split a nonzero number into its module and argument.

    With w the Teichmuller lift of the unit u, w^(p-1) = 1, so the argument
    log(u/w) is log(u^(p-1)) / (p-1) and takes no lift.
    """
    if x.is_zero:
        raise ZeroInput("zero has no polar form")
    p, u = x.p, x.unit
    theta = plog(PAdicInt(p, u.precision, pow(u.residue, p - 1, u.modulus)))
    return PolarForm(p, x.valuation, u.residue % p, theta * pow(p - 1, -1, u.modulus))


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
        j = min(k, padic_valuation(u, p))
        return ExactExponent(u // p**j, k - j)


def ppow(x: PAdicNumber, y: ExactExponent) -> PAdicNumber:
    """x**y, with the valuation handled exactly.

    Integer exponents reduce to modular powering.  An exponent u/p^k takes
    its root from pk_root, whose report becomes ValuationCondition or
    RootCondition when the criterion fails.  At odd p that root is the only
    one; at p = 2 it is the one of +-y that is 1 mod 4.  Either way it is
    the root the polar form scaled by 1/p^k gives.  The result is that root
    to the power u, and carries K - k digits.
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
    report = pk_root(x, k)
    if report.reason is RootReason.VALUATION_NOT_DIVISIBLE:
        raise ValuationCondition(f"valuation {x.valuation} is not divisible by {p}^{k}")
    if not report.exists:
        raise RootCondition(f"Witt digit {report.digit_index} of the unit part is nonzero", report.digit_index)
    return min(report.roots, key=lambda r: r.unit.residue % 4).pow_int(u)
