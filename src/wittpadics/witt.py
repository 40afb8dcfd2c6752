"""Truncated Witt vectors over Z/pZ and the residue-ring isomorphism.

A length-k vector of digits in [0, p) corresponds to the residue
sum(p^i * teichmuller(x_i)) mod p^k.  Each conversion keeps a digit table
for the length of the call, or of a ring operation.  When p is small
against k, the table holds all p lifts at once, as the powers of the lift
of a primitive root mod p: one lift and p - 1 products.  Otherwise a vector
has at most k distinct digits, and each is lifted at the precision of its
first use (k - i at index i), and again if a later use needs more.  Ring
operations round-trip through the bijection; the length-2 factor system is
kept as an independent cross-check.
"""

from .errors import MismatchedRing, NotAUnit, SelfCheckFailed, WrongPrime
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


def _primitive_root(p: int) -> int:
    """The least g of order p - 1 mod p; p - 1 is factored by trial division."""
    f, q, factors = p - 1, 2, []
    while q * q <= f:
        if f % q == 0:
            factors.append(q)
            while f % q == 0:
                f //= q
        q += 1
    if f > 1:
        factors.append(f)
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def _group_table(p: int, n: int) -> list:
    """t[d] = teichmuller(d) mod p^n for every digit d in [0, p).

    The lifts are w^i for w = teichmuller(g) and g a primitive root: one lift
    and p - 1 products.  The closing product w^(p-1) = 1 (mod p^n) shows that
    every entry is fixed by the p-power map.
    """
    g = _primitive_root(p)
    w, m = teichmuller(PAdicInt(p, n, g)).residue, p**n
    table, x, d = [0] * p, 1, 1
    for _ in range(p - 1):
        table[d] = x
        x, d = x * w % m, d * g % p
    if x != 1:
        raise SelfCheckFailed(f"the lift of the primitive root {g} has order other than {p - 1} mod {p}^{n}")
    return table


def _lifts(p: int, n: int):
    """lift(d, k): the Teichmuller lift of digit d to k <= n digits, for n-digit conversions.

    If p - 1 <= (n - 1) bits(p), all p lifts are taken to n digits at once by
    _group_table: one lift and p - 1 products, against about 2.6 pows of
    log2 p squarings per lifted digit.  When p > n the table outgrows the n
    lifts a vector can use, so it is then kept below 2^26 bits.  Otherwise
    each distinct digit is lifted at the k digits of its first use, and again
    for a later use that asks for more.  A lift may hold more than k digits.
    """
    bits = p.bit_length()
    if p - 1 > (n - 1) * bits or p > n and p * n * bits > 2**26:
        table = {0: (0, n)}

        def lift(d, k):
            w, held = table.get(d, (0, 0))
            if held < k:
                w = teichmuller(PAdicInt(p, k, d)).residue
                table[d] = w, k
            return w

        return lift
    table = _group_table(p, n)
    return lambda d, k: table[d]


def witt_to_padic(w: WittVector, lift=None) -> PAdicInt:
    """Residue mod p^k of a length-k vector: sum of p^i * teichmuller(x_i), reduced once.

    Term i is multiplied by p^i, so digit i needs its lift only to k - i
    digits.  The lifts, from lift (a _lifts(p, k) table) or a new table, are
    read from index 0 up and summed by Horner's rule.
    """
    p, k = w.p, w.length
    lift, total = lift or _lifts(p, k), 0
    for t in reversed([lift(d, k - i) for i, d in enumerate(w.digits)]):
        total = total * p + t
    return PAdicInt(p, k, total)


def witt_digits(x: PAdicInt, n: int, lift=None) -> tuple[int, ...]:
    """The first n Witt digits of x: digit i is r mod p, then r = (r - teichmuller(digit i)) / p.

    They depend only on x mod p^n, so r starts as x truncated to n digits; n
    above the precision of x raises PrecisionTooLow.  Digit i needs its lift,
    from lift or a new table, to n - i digits; each division by p is exact.
    """
    p, r = x.p, x.with_precision(n).residue
    lift = lift or _lifts(p, n)
    digits = [r % p]
    for i in range(1, n):
        r = (r - lift(digits[-1], n - i + 1)) // p
        digits.append(r % p)
    return tuple(digits)


def padic_to_witt(x: PAdicInt, lift=None) -> WittVector:
    """All Witt digits of a residue, from lift as in witt_digits."""
    return WittVector(x.p, witt_digits(x, x.precision, lift))


def integer_to_witt(n: int, p: int, length: int) -> WittVector:
    """Witt digits of an integer: those of its residue mod p^length."""
    return padic_to_witt(PAdicInt(p, length, n))


def _aligned(x: WittVector, y: WittVector):
    """x and y truncated to their common length k, and one _lifts(p, k) table for the operation."""
    if x.p != y.p:
        raise MismatchedRing(f"cannot mix Witt vectors for p={x.p} and p={y.p}")
    k = min(x.length, y.length)
    return x.truncated(k), y.truncated(k), _lifts(x.p, k)


def witt_add(x: WittVector, y: WittVector) -> WittVector:
    a, b, lift = _aligned(x, y)
    return padic_to_witt(witt_to_padic(a, lift) + witt_to_padic(b, lift), lift)


def witt_mul(x: WittVector, y: WittVector) -> WittVector:
    a, b, lift = _aligned(x, y)
    return padic_to_witt(witt_to_padic(a, lift) * witt_to_padic(b, lift), lift)


def witt_neg(x: WittVector) -> WittVector:
    lift = _lifts(x.p, x.length)
    return padic_to_witt(-witt_to_padic(x, lift), lift)


def witt_inv(x: WittVector) -> WittVector:
    if x.digits[0] == 0:
        raise NotAUnit("leading digit is zero")
    lift = _lifts(x.p, x.length)
    return padic_to_witt(unit_inverse(witt_to_padic(x, lift)), lift)


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
