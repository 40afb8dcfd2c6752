"""Truncated Witt vectors over Z/pZ and the residue-ring isomorphism.

A length-k vector of digits in [0, p) corresponds to the residue
sum(p^i * teichmuller(x_i)) mod p^k.  Ring operations round-trip through
that bijection; the explicit length-2 factor system is kept alongside as an
independent formula for cross-checking.
"""

from dataclasses import dataclass

from .errors import MismatchedRing, NotAUnit, WrongPrime
from .padic import PAdicInt, teichmuller, unit_inverse
from .primes import check_prime


@dataclass(frozen=True, slots=True)
class WittVector:
    p: int
    digits: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p)
        if len(self.digits) == 0:
            raise ValueError("a Witt vector needs at least one digit")
        object.__setattr__(self, "digits", tuple(d % self.p for d in self.digits))

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


def witt_to_padic(w: WittVector) -> PAdicInt:
    """Residue mod p^k of a length-k vector: sum of p^i * teichmuller(x_i).

    Term i is multiplied by p^i, so digit i is lifted only to k - i digits.
    """
    p, k = w.p, w.length
    total = sum(p**i * teichmuller(PAdicInt(p, k - i, d)).residue for i, d in enumerate(w.digits))
    return PAdicInt(p, k, total)


def witt_digits(x: PAdicInt, n: int) -> tuple[int, ...]:
    """The first n Witt digits of x, peeled off one Teichmuller lift at a time.

    They depend only on x mod p^n, so x is truncated to n digits first;
    n above the precision of x raises PrecisionTooLow.
    """
    cur = x.with_precision(n)
    digits = []
    while True:
        d = cur.residue % cur.p
        digits.append(d)
        if cur.precision == 1:
            return tuple(digits)
        cur = (cur - teichmuller(PAdicInt(cur.p, cur.precision, d))).exact_div_p_power(1)


def padic_to_witt(x: PAdicInt) -> WittVector:
    """All Witt digits of a residue."""
    return WittVector(x.p, witt_digits(x, x.precision))


def integer_to_witt(n: int, p: int, length: int) -> WittVector:
    """Witt digits of an integer: those of its residue mod p^length."""
    check_prime(p)
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
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
