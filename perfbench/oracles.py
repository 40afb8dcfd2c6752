"""Reference checks for benchmark results, independent of the library.

Nothing here imports wittpadics.  Each check decides from first principles
whether a result is right: root existence from the power-residue criterion,
Witt digits from the Teichmuller-sum identity, the length-2 carry from its
closed form, and Wieferich hits from a separate sieve and scan.
"""

from fractions import Fraction
from math import gcd

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_at_or_above(n: int, bound: int) -> int:
    """Smallest prime >= n, or the largest prime below bound if none is left."""
    q = max(n, 2)
    while q < bound:
        if is_prime(q):
            return q
        q += 1
    q = bound - 1
    while not is_prime(q):
        q -= 1
    return q


def odd_primes_up_to(limit: int):
    """Odd primes <= limit from an odd-only sieve (index i stands for 2i+1)."""
    if limit < 3:
        return
    size = (limit - 1) // 2 + 1
    odd = bytearray([1]) * size
    odd[0] = 0
    i = 1
    while (2 * i + 1) ** 2 <= limit:
        if odd[i]:
            q = 2 * i + 1
            start = q * q // 2
            odd[start::q] = bytes(len(range(start, size, q)))
        i += 1
    for i in range(1, size):
        if odd[i]:
            yield 2 * i + 1


# ------------------------------------------------------------------ roots


def split_degree(m: int, p: int) -> tuple[int, int]:
    """(v, m') with m = p^v * m' and p not dividing m'."""
    v = 0
    while m % p == 0:
        v += 1
        m //= p
    return v, m


def root_count(p: int, K: int, u: int, m: int) -> int:
    """Number of m-th roots of the unit u in Z_p, judged mod p^K (p odd).

    With m = p^v * m' and g = gcd(m', p-1) a root exists iff
    u^((p-1)/g) = 1 (mod p^(v+1)), and then there are exactly g of them.
    """
    v, m_prime = split_degree(m, p)
    g = gcd(m_prime, p - 1)
    return g if pow(u, (p - 1) // g, p ** (v + 1)) == 1 else 0


def check_roots(p: int, K: int, u: int, m: int, roots, out_prec: int) -> bool:
    """roots are residues mod p^out_prec; each must be an m-th root of u mod p^K."""
    mod = p**K
    if len(roots) != root_count(p, K, u, m):
        return False
    if len({r % p**out_prec for r in roots}) != len(roots):
        return False
    return all(r % p and pow(r, m, mod) == u % mod for r in roots)


def check_sqrt_2adic(K: int, u: int, roots) -> bool:
    """Two roots, each squaring to u mod 2^K, exactly when u = 1 (mod 8)."""
    if u % 8 != 1:
        return len(roots) == 0
    if len(roots) != 2 or roots[0] % 2 ** (K - 1) == roots[1] % 2 ** (K - 1):
        return False
    return all(pow(r, 2, 2**K) == u % 2**K for r in roots)


# ------------------------------------------------------------------- Witt


class WittValue:
    """sum p^i * omega(d_i) mod p^K, with omega(d) = d^(p^(K-1)) mod p^K.

    Term i is multiplied by p^i, so omega(d_i) is only needed mod p^(K-i),
    where it equals d_i^(p^(K-i-1)); lifts are cached for small p, whose
    digits repeat.
    """

    def __init__(self):
        self._lift: dict[tuple[int, int, int], int] = {}

    def lift(self, p: int, n: int, d: int) -> int:
        key = (p, n, d)
        w = self._lift.get(key)
        if w is None:
            w = pow(d, p ** (n - 1), p**n)
            if p < 1000:
                self._lift[key] = w
        return w

    def __call__(self, p: int, digits) -> int:
        K = len(digits)
        return sum(p**i * self.lift(p, K - i, d) for i, d in enumerate(digits)) % p**K


def check_witt_digits(value: WittValue, p: int, K: int, x: int, digits) -> bool:
    return len(digits) == K and all(0 <= d < p for d in digits) and value(p, digits) == x % p**K


# -------------------------------------------------------- log, exp, powers


def _series_mod(total: Fraction, p: int, K: int) -> int:
    if total.denominator % p == 0:
        raise ArithmeticError("series sum is not p-integral")
    m = p**K
    return total.numerator * pow(total.denominator, -1, m) % m


def log_mod(p: int, K: int, x: int) -> int:
    """log(x) mod p^K for x = 1 (mod p), p odd, from the exact rational series.

    Every term t^j/j with j - v_p(j) >= K + 1 vanishes mod p^K; the sum runs
    to twice that cutoff so no truncation rule is shared with the library.
    """
    t = Fraction(x - 1)
    total = Fraction(0)
    for j in range(1, 2 * K + 8):
        total += (-1) ** (j + 1) * t**j / j
    return _series_mod(total, p, K)


def exp_mod(p: int, K: int, theta: int) -> int:
    """exp(theta) mod p^K for theta = 0 (mod p), p odd, from the exact series.

    Term j has valuation >= j - (j-1)/(p-1), which reaches K by
    j = K(p-1)/(p-2) + 1; the sum runs past twice that.
    """
    t = Fraction(theta)
    total, term = Fraction(1), Fraction(1)
    for j in range(1, 2 * K * (p - 1) // max(p - 2, 1) + 8):
        term = term * t / j
        total += term
    return _series_mod(total, p, K)


def teichmuller_mod(p: int, K: int, a: int) -> int:
    return pow(a % p, p ** (K - 1), p**K)


def fermat_quotient_mod(p: int, K: int, u: int) -> int:
    """(u^(p-1) - 1)/p mod p^(K-1)."""
    q, r = divmod(pow(u, p - 1, p ** (K + 1)) - 1, p)
    assert r == 0
    return q % p ** (K - 1)


# ---------------------------------------------------- number-theory searches


def phi1_closed_form(p: int, x: int, y: int) -> int:
    """Length-2 carry: phi_1(x, y) = -((x+y)^p - x^p - y^p)/p (mod p)."""
    m = p * p
    return -((pow(x + y, p, m) - pow(x, p, m) - pow(y, p, m)) % m // p) % p


def phi1_by_sum(p: int, x: int, y: int) -> int:
    """The defining sum: sum over 0<i<p of (-1)^i/i x^i y^(p-i), mod p."""
    return sum((-1) ** i * pow(i, -1, p) * x**i * y ** (p - i) for i in range(1, p)) % p


def first_vanishing_carry(p: int) -> int | None:
    """Smallest 0 < y < p-1 with phi_1(1, y) = 0 (mod p), or None."""
    for y in range(1, p - 1):
        if phi1_closed_form(p, 1, y) == 0:
            return y
    return None


def check_flt_witness(p: int, precision: int, witness) -> bool:
    """witness is None or (x, y, sum, root residue, root precision)."""
    y = first_vanishing_carry(p)
    if witness is None:
        return y is None
    x, wy, total, root, root_prec = witness
    if (x, wy, total) != (1, y, 1 + y**p) or root_prec != precision - 1:
        return False
    return pow(root, p, p**precision) == total % p**precision


class WieferichScan:
    """Hits of base^(p-1) = 1 (mod p^2) over odd primes, scanned once per base.

    The first scan for a base runs to at least `horizon`, the largest limit
    the caller expects, so later limits are answered from it.
    """

    def __init__(self, horizon: int = 0):
        self.horizon = horizon
        self._scanned: dict[int, tuple[int, list[int]]] = {}

    def hits(self, base: int, limit: int) -> list[int]:
        done, hits = self._scanned.get(base, (0, []))
        if done < limit:
            done = max(limit, self.horizon)
            hits = [q for q in odd_primes_up_to(done) if base % q and pow(base, q - 1, q * q) == 1]
            self._scanned[base] = (done, hits)
        return [q for q in hits if q <= limit]


def check_wieferich(scan: WieferichScan, base: int, limit: int, hits) -> bool:
    for q in hits:
        if not (is_prime(q) and q % 2 and base % q and pow(base, q - 1, q * q) == 1):
            return False
    return list(hits) == scan.hits(base, limit)
