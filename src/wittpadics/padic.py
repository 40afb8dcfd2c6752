"""Exact arithmetic on residues mod p^K with precision tracking.

A PAdicInt is a residue modulo p^K read as a p-adic integer known to K
base-p digits of absolute precision.  A PAdicNumber scales a unit PAdicInt
by a power of p, so it covers the whole p-adic field together with a
distinguished exact zero.  Everything here is immutable and every operation
is a pure function; binary operations carry the smaller of the two operand
precisions, and exact division by p^j costs j digits.
"""

from math import gcd
from operator import attrgetter

from .errors import (
    ExactDivisionFailure,
    InvalidDegree,
    MismatchedRing,
    NotAUnit,
    PrecisionTooLow,
    SelfCheckFailed,
    ZeroInput,
)
from .primes import check_prime


def padic_valuation(n: int, p: int) -> int:
    """Largest e such that p**e divides the nonzero integer n, in O(log e) divisions.

    n is divided by p, p^2, p^4, ... while the division is exact, which takes
    out p^(2^t - 1) and leaves a valuation below 2^t; the t powers held then
    read its bits, from the largest down.
    """
    if n == 0:
        raise ValueError("the zero integer has no finite valuation")
    if n % p:
        return 0
    powers, e = [p], 0
    while n % powers[-1] == 0:
        n, e = n // powers[-1], 2 * e + 1
        powers.append(powers[-1] * powers[-1])
    for i in range(len(powers) - 2, -1, -1):
        if n % powers[i] == 0:
            n, e = n // powers[i], e + (1 << i)
    return e


# Record refuses assignment, so constructors set fields through object.__setattr__,
# bound once here so that each field costs one global lookup.
_setattr = object.__setattr__


class Record:
    """Base of the immutable value classes.

    A subclass names its fields, at least two, in __slots__, and defaults for
    trailing ones in _defaults.  __init__ binds its arguments to the fields
    in slot order and raises TypeError, naming the class, for a wrong
    argument; a subclass that reduces or validates its fields overrides it
    and sets them through _setattr.  An instance equals only an instance of
    the same class with equal fields, and hashes and prints by its fields in
    slot order.  Assignment and deletion raise AttributeError; __reduce__
    rebuilds an instance through __init__, so pickle and copy still work.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            cls, rest = self.__class__.__qualname__, names[len(args) :]
            if len(args) > len(names):
                raise TypeError(f"{cls}() takes {len(names)} arguments but {len(args)} were given")
            for name in kwargs.keys() - set(rest):
                raise TypeError(f"{cls}() got an unknown or repeated field {name!r}")
            values = {**self._defaults, **kwargs}
            for name in rest:
                if name not in values:
                    raise TypeError(f"{cls}() missing field {name!r}")
            args += tuple(values[name] for name in rest)
        for name, value in zip(names, args):
            _setattr(self, name, value)

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields(self)


class PAdicInt(Record):
    """Residue mod p**precision; the canonical representative is stored."""

    __slots__ = ("p", "precision", "residue")

    def __init__(self, p: int, precision: int, residue: int):
        check_prime(p)
        if precision < 1:
            raise ValueError(f"precision must be >= 1, got {precision}")
        _setattr(self, "p", p)
        _setattr(self, "precision", precision)
        _setattr(self, "residue", residue % p**precision)

    @property
    def modulus(self) -> int:
        return self.p**self.precision

    @property
    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def lift_signed(self) -> int:
        """Representative of least absolute value (display helper)."""
        return self.residue - self.modulus if 2 * self.residue > self.modulus else self.residue

    def with_precision(self, k: int) -> "PAdicInt":
        """Truncate to k <= precision digits."""
        if k > self.precision:
            raise PrecisionTooLow(f"cannot raise precision {self.precision} to {k}")
        return PAdicInt(self.p, k, self.residue)

    def exact_div_p_power(self, j: int) -> "PAdicInt":
        """Divide by p**j exactly; the result has j fewer digits."""
        if j == 0:
            return self
        if j < 0 or j >= self.precision:
            raise PrecisionTooLow(f"cannot divide a {self.precision}-digit value by p^{j}")
        q, r = divmod(self.residue, self.p**j)
        if r:
            raise ExactDivisionFailure(f"{self.residue} is not divisible by {self.p}^{j}")
        return PAdicInt(self.p, self.precision - j, q)

    def _binary(self, other, fn):
        if isinstance(other, int):
            other = PAdicInt(self.p, self.precision, other)
        elif not isinstance(other, PAdicInt):
            return NotImplemented
        if other.p != self.p:
            raise MismatchedRing(f"cannot mix residues for p={self.p} and p={other.p}")
        k = min(self.precision, other.precision)
        return PAdicInt(self.p, k, fn(self.residue, other.residue))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __neg__(self):
        return PAdicInt(self.p, self.precision, -self.residue)

    def __str__(self):
        signed = self.lift_signed()
        if signed != self.residue:
            return f"{self.residue} ≡ {signed} (mod {self.p}^{self.precision})"
        return f"{self.residue} (mod {self.p}^{self.precision})"


def unit_inverse(x: PAdicInt) -> PAdicInt:
    """Multiplicative inverse mod p^K of a unit."""
    if not x.is_unit:
        raise NotAUnit(f"{x.residue} is divisible by {x.p}")
    return PAdicInt(x.p, x.precision, pow(x.residue, -1, x.modulus))


def teichmuller(a: PAdicInt) -> PAdicInt:
    """The lift of a mod p that is fixed by the p-power map mod p^K.

    Newton's method on f(w) = w^p - w, from w = a mod p, doubles the number
    of correct digits per step.  Once w is right mod p^e, f'(w) =
    p*w^(p-1) - 1 is p - 1 mod p^e, and f(w) is 0 mod p^e, so the constant
    1/(p-1) = -(p^n - 1)/(p - 1) mod p^n can stand in for 1/f'(w) and still
    give 2e digits: no step takes a modular inverse.  The cost is O(log K)
    modular powers.  Residues divisible by p lift to zero.
    """
    p, K = a.p, a.precision
    w = a.residue % p
    e, m = 1, p
    while e < K:
        e, m = (2 * e, m * m) if 2 * e < K else (K, a.modulus)
        w = (w + (pow(w, p, m) - w) * ((m - 1) // (p - 1))) % m
    if pow(w, p, m) != w:
        raise SelfCheckFailed("Newton lift is not fixed by the p-power map")
    return PAdicInt(p, K, w)


def kth_power_residue_test(p: int, a: int, k: int) -> bool:
    """Whether a is a k-th power mod p; requires p not dividing k.

    a is a k-th power in the units mod p iff a^((p-1)/g) = 1 where
    g = gcd(k, p-1).
    """
    check_prime(p)
    if k % p == 0:
        raise InvalidDegree(f"p = {p} divides the degree {k}")
    a %= p
    if a == 0:
        raise NotAUnit("a must be nonzero mod p")
    g = gcd(k, p - 1)
    return pow(a, (p - 1) // g, p) == 1


def _lift_root(x: PAdicInt, n: int, r: int) -> PAdicInt:
    """The root of y^n = x that is r mod p (mod 4 at p = 2), to K - v_p(n) digits; its caller knows it exists.

    Newton's method, with 1/(n*y^(n-1)) replaced by y*w for w = 1/(qx) and q
    the part of n prime to p, takes y from e correct digits to 2e (2e - 1 at
    p = 2), and w <- w(2 - qxw) refines w alongside, so no step takes a
    modular inverse.  The cost is O(log K) modular powers with exponent n,
    plus the closing check y^n = x (mod p^K).
    """
    p, a, v = x.p, x.residue, padic_valuation(n, x.p)
    N, pv, q, e = x.precision - v, p**v, n // p**v, 2 if p == 2 else 1
    y, w = r % p**e, pow(q * a, -1, p)
    while e < N:
        e = min(2 * e - (p == 2), N)
        m = p**e
        b = a % (m * pv)
        y = (y - y * ((pow(y, n, m * pv) - b) // pv) * w) % m
        w = w * (2 - q * b * w) % m
    if pow(y, n, x.modulus) != a:
        raise SelfCheckFailed(f"the lifted root of y^{n} = x fails y^{n} = x (mod {p}^{x.precision})")
    return PAdicInt(p, N, y)


def hensel_kth_root(a: PAdicInt, k: int) -> tuple[PAdicInt, ...]:
    """All k-th roots of a unit mod p^K, for p not dividing k.

    There are exactly gcd(k, p-1) roots when the mod-p residue test passes
    and none otherwise; each lifts uniquely from its residue mod p (the one
    that is a mod 4 at p = 2) by Newton iteration, as k*x^(k-1) stays a unit.
    """
    p = a.p
    if k < 1:
        raise InvalidDegree(f"degree must be >= 1, got {k}")
    if not kth_power_residue_test(p, a.residue, k):
        return ()
    if p == 2:
        return (_lift_root(a, k, a.residue),)
    a0, g = a.residue % p, gcd(k, p - 1)
    base = []
    for r in range(1, p):
        if pow(r, k, p) == a0:
            base.append(r)
            if len(base) == g:
                break
    return tuple(_lift_root(a, k, r) for r in base)


class PAdicNumber(Record):
    """p^valuation times a unit residue, or the exact zero (unit is None)."""

    __slots__ = ("p", "valuation", "unit")

    def __init__(self, p: int, valuation: int, unit: PAdicInt | None):
        check_prime(p)
        if unit is None:
            if valuation != 0:
                raise ValueError("the exact zero must store valuation 0")
        else:
            if unit.p != p:
                raise MismatchedRing(f"unit is over p={unit.p}, expected {p}")
            if not unit.is_unit:
                raise NotAUnit(f"{unit.residue} is divisible by {p}")
        _setattr(self, "p", p)
        _setattr(self, "valuation", valuation)
        _setattr(self, "unit", unit)

    @classmethod
    def zero(cls, p: int) -> "PAdicNumber":
        return cls(p, 0, None)

    @classmethod
    def from_integer(cls, n: int, p: int, precision: int) -> "PAdicNumber":
        if n == 0:
            return cls.zero(p)
        v = padic_valuation(n, p)
        return cls(p, v, PAdicInt(p, precision, n // p**v))

    @classmethod
    def from_rational(cls, numerator: int, denominator: int, p: int, precision: int) -> "PAdicNumber":
        if denominator == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        if numerator == 0:
            return cls.zero(p)
        vn = padic_valuation(numerator, p)
        vd = padic_valuation(denominator, p)
        m = p**precision
        unit = numerator // p**vn * pow(denominator // p**vd, -1, m)
        return cls(p, vn - vd, PAdicInt(p, precision, unit))

    @property
    def is_zero(self) -> bool:
        return self.unit is None

    def to_padic_int(self) -> PAdicInt:
        """The value as a plain residue; needs valuation >= 0."""
        if self.is_zero:
            raise ZeroInput("the exact zero has no unit form")
        if self.valuation < 0:
            raise ValueError(f"valuation {self.valuation} is negative")
        return PAdicInt(
            self.p,
            self.unit.precision + self.valuation,
            self.unit.residue * self.p**self.valuation,
        )

    def __mul__(self, other):
        if not isinstance(other, PAdicNumber):
            return NotImplemented
        if other.p != self.p:
            raise MismatchedRing(f"cannot mix p={self.p} and p={other.p}")
        if self.is_zero or other.is_zero:
            return PAdicNumber.zero(self.p)
        return PAdicNumber(self.p, self.valuation + other.valuation, self.unit * other.unit)

    def inverse(self) -> "PAdicNumber":
        if self.is_zero:
            raise ZeroDivisionError("zero is not invertible")
        return PAdicNumber(self.p, -self.valuation, unit_inverse(self.unit))

    def pow_int(self, e: int) -> "PAdicNumber":
        if self.is_zero:
            if e > 0:
                return self
            raise ZeroDivisionError("zero cannot be raised to a non-positive power")
        r = pow(self.unit.residue, e, self.unit.modulus)
        return PAdicNumber(self.p, self.valuation * e, PAdicInt(self.p, self.unit.precision, r))

    def __str__(self):
        if self.is_zero:
            return "0"
        if self.valuation == 0:
            return str(self.unit)
        return f"{self.p}^{self.valuation} * {self.unit}"
