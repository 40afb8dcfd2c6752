"""Truncated Witt vectors over Z/pZ and the residue-ring isomorphism.

A length-k vector of digits in [0, p) corresponds to the residue
sum(p^i * teichmuller(x_i)) mod p^k.  Each conversion keeps a digit table
for the length of the call: a vector has at most min(p, k) distinct digits,
and each is lifted once, at the precision of its first use (k - i at index
i, the most it needs).  Ring operations round-trip through the bijection;
the length-2 factor system is kept as an independent cross-check.
"""

from .errors import MismatchedRing, NotAUnit, WrongPrime
from .padic import PAdicInt, Record, _setattr, teichmuller, unit_inverse
from .primes import check_prime


class WittVector(Record):
    __slots__ = ("p", "digits")

    def __init__(self, p: int, digits: tuple[int, ...]):
        check_prime(p)
        if len(digits) == 0:
            raise ValueError("a Witt vector needs at least one digit")
        _setattr(self, "p", p)
        _setattr(self, "digits", tuple(d % p for d in digits))

    @property
    def length(self) -> int:
        return len(self.digits)

    def truncated(self, k: int) -> "WittVector":
        if not 1 <= k <= self.length:
            raise ValueError(f"cannot truncate length {self.length} to {k}")
        return WittVector(self.p, self.digits[:k])

    def to_json_dict(self) -> dict:
        return {"p": self.p, "digits": list(self.digits)}

    def __str__(self):
        return "(" + ",".join(str(d) for d in self.digits) + "]"

    def __add__(self, other):
        return witt_add(self, other)

    def __mul__(self, other):
        return witt_mul(self, other)

    def __neg__(self):
        return witt_neg(self)


def _lift(table: dict[int, int], p: int, d: int, k: int) -> int:
    """Teichmuller lift of digit d from a one-call table that starts as {0: 0}."""
    if d not in table:
        table[d] = teichmuller(PAdicInt(p, k, d)).residue
    return table[d]


def witt_to_padic(w: WittVector) -> PAdicInt:
    """Residue mod p^k of a length-k vector: sum of p^i * teichmuller(x_i), reduced once.

    Term i is multiplied by p^i, so digit i needs its lift only to k - i
    digits.  The lifts are read from index 0 up and summed by Horner's rule.
    """
    p, k = w.p, w.length
    table, total = {0: 0}, 0
    for t in reversed([_lift(table, p, d, k - i) for i, d in enumerate(w.digits)]):
        total = total * p + t
    return PAdicInt(p, k, total)


def witt_digits(x: PAdicInt, n: int) -> tuple[int, ...]:
    """The first n Witt digits of x: digit i is r mod p, then r = (r - teichmuller(digit i)) / p.

    They depend only on x mod p^n, so r starts as x truncated to n digits; n
    above the precision of x raises PrecisionTooLow.  Digit i needs its lift to
    n - i digits, the most at its first use; each division by p is exact.
    """
    p, table = x.p, {0: 0}
    r = x.with_precision(n).residue
    digits = [r % p]
    for i in range(1, n):
        r = (r - _lift(table, p, digits[-1], n - i + 1)) // p
        digits.append(r % p)
    return tuple(digits)


def padic_to_witt(x: PAdicInt) -> WittVector:
    """All Witt digits of a residue."""
    return WittVector(x.p, witt_digits(x, x.precision))


def integer_to_witt(n: int, p: int, length: int) -> WittVector:
    """Witt digits of an integer: those of its residue mod p^length."""
    return padic_to_witt(PAdicInt(p, length, n))


def _aligned(x: WittVector, y: WittVector) -> tuple[WittVector, WittVector]:
    if x.p != y.p:
        raise MismatchedRing(f"cannot mix Witt vectors for p={x.p} and p={y.p}")
    k = min(x.length, y.length)
    return x.truncated(k), y.truncated(k)


def witt_add(x: WittVector, y: WittVector) -> WittVector:
    a, b = _aligned(x, y)
    return padic_to_witt(witt_to_padic(a) + witt_to_padic(b))


def witt_mul(x: WittVector, y: WittVector) -> WittVector:
    a, b = _aligned(x, y)
    return padic_to_witt(witt_to_padic(a) * witt_to_padic(b))


def witt_neg(x: WittVector) -> WittVector:
    return padic_to_witt(-witt_to_padic(x))


def witt_inv(x: WittVector) -> WittVector:
    if x.digits[0] == 0:
        raise NotAUnit("leading digit is zero")
    return padic_to_witt(unit_inverse(witt_to_padic(x)))


def factor_system_phi1(p: int, x0: int, y0: int) -> int:
    """Carry digit of length-2 addition: sum((-1)^i/i x0^i y0^(p-i)) mod p.

    As C(p, i)/p = (-1)^(i-1)/i mod p, this is -((x0 + y0)^p - x0^p - y0^p)/p mod p.
    """
    check_prime(p)
    if p == 2:
        raise WrongPrime("the factor-system formula needs p odd")
    x0 %= p
    y0 %= p
    q = p * p
    carry = (pow(x0 + y0, p, q) - pow(x0, p, q) - pow(y0, p, q)) % q
    return -(carry // p) % p
