"""Independent reference computations the tests check the library against.

Everything here deliberately avoids the code paths under test: inverses come
from the extended gcd, Teichmuller lifts from exhaustive search or from the
p-power map applied K - 1 times, Witt digits from peeling those lifts off one
digit at a time, ghost entries from the recursion and, independently, from
solving the ghost identity directly, roots from brute-force scans, the
length-2 carry from its defining p-term sum, and the analytic maps from exact
Fraction series, or, at high precision, from their plain term-by-term series
mod p^K.  Roots at high precision come from the polar route, the library's
own `teichmuller`, `plog` and `pexp`, which its root path does not run.
"""

from fractions import Fraction

from wittpadics import PAdicInt, pexp, plog, teichmuller


def egcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def inverse_by_egcd(a: int, m: int) -> int:
    g, s, _ = egcd(a % m, m)
    assert g == 1, f"{a} is not invertible mod {m}"
    return s % m


def teichmuller_by_search(p: int, precision: int, a: int) -> int:
    """The unique w = a (mod p) with w^p = w (mod p^K), by enumeration."""
    m = p**precision
    if a % p == 0:
        return 0
    hits = [w for w in range(m) if w % p == a % p and pow(w, p, m) == w]
    assert len(hits) == 1
    return hits[0]


def teichmuller_by_power(p: int, precision: int, a: int) -> int:
    """a^(p^(K-1)) mod p^K, or 0 when p divides a.

    Write a unit a as w*(1 + p*t) with w its Teichmuller lift: w^p = w, and
    (1 + p*t)^(p^(K-1)) = 1 mod p^K for every p, p = 2 included.
    """
    if a % p == 0:
        return 0
    return pow(a, p ** (precision - 1), p**precision)


def witt_residue_by_power(p: int, precision: int, digits) -> int:
    """sum(p^i * teichmuller(d_i)) mod p^K, each lift taken by the power oracle."""
    return sum(p**i * teichmuller_by_power(p, precision - i, d) for i, d in enumerate(digits)) % p**precision


def witt_digits_by_peel(p: int, precision: int, x: int) -> tuple[int, ...]:
    """Witt digits of x mod p^K: take d = r mod p, then r = (r - teichmuller(d)) / p, one digit less."""
    digits = []
    r = x % p**precision
    for k in range(precision, 0, -1):
        d = r % p
        digits.append(d)
        r = (r - teichmuller_by_power(p, k, d)) % p**k // p
    return tuple(digits)


def phi1_by_sum(p: int, x0: int, y0: int) -> int:
    """The length-2 carry as its defining sum: sum((-1)^i/i x0^i y0^(p-i)) mod p."""
    acc = 0
    for i in range(1, p):
        term = pow(i, -1, p) * pow(x0, i, p) * pow(y0, p - i, p)
        acc = (acc - term) if i % 2 else (acc + term)
    return acc % p


def ghost_value(p: int, entries, j: int) -> int:
    """The j-th ghost polynomial sum(p^i * a_i^(p^(j-i)), i <= j)."""
    return sum(p**i * entries[i] ** (p ** (j - i)) for i in range(j + 1))


def ghost_entries_by_solving(p: int, n: int, length: int) -> list[int]:
    """Peel a_j out of sum(p^i * a_i^(p^(j-i)), i <= j) = n directly."""
    entries: list[int] = []
    for j in range(length + 1):
        partial = sum(p**i * entries[i] ** (p ** (j - i)) for i in range(j))
        q, r = divmod(n - partial, p**j)
        assert r == 0, "ghost identity is not solvable in integers"
        entries.append(q)
    return entries


def ghost_by_recursion(p: int, n: int, length: int) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """Entries a_0 = n, ..., a_length keeping every ghost value equal to n, and q_i = -a_i / n.

    Each next entry is sum((a_i^(p^(k-i)) - a_i^(p^(k-i+1))) / p^(k-i+1), i <= k),
    every division exact.  The quotients are None when p divides n.  Entries
    grow like n^(p^k), so keep p^length small.
    """
    entries = [n]
    for k in range(length):
        acc = 0
        for i in range(k + 1):
            q, r = divmod(entries[i] ** (p ** (k - i)) - entries[i] ** (p ** (k - i + 1)), p ** (k - i + 1))
            assert r == 0, f"ghost recursion term (i={i}, k={k}) is not divisible by {p}^{k - i + 1}"
            acc += q
        entries.append(acc)
    if n % p == 0:
        return tuple(entries), None
    assert all(a_i % n == 0 for a_i in entries), f"a ghost entry is not divisible by n = {n}"
    return tuple(entries), tuple(-a_i // n for a_i in entries)


def classical_fermat_quotient(n: int, p: int) -> int:
    q, r = divmod(n ** (p - 1) - 1, p)
    assert r == 0
    return q


def brute_force_roots(p: int, precision: int, degree: int, target: int) -> list[int]:
    """All r in [0, p^K) with r^degree = target (mod p^K)."""
    m = p**precision
    t = target % m
    return sorted(r for r in range(m) if pow(r, degree, m) == t)


def _floor_log(base: int, n: int) -> int:
    e = 0
    while base ** (e + 1) <= n:
        e += 1
    return e


def log_by_fraction_series(p: int, precision: int, x: int) -> int:
    """Partial sum of log(1+t) as exact rationals, reduced mod p^K."""
    t = Fraction(x - 1)
    total = Fraction(0)
    j = 1
    while j - _floor_log(p, j) < precision:
        total += Fraction((-1) ** (j + 1)) * t**j / j
        j += 1
    assert total.denominator % p != 0
    m = p**precision
    return total.numerator * pow(total.denominator, -1, m) % m


def exp_by_fraction_series(p: int, precision: int, theta: int) -> int:
    """Partial sum of exp(t) as exact rationals, reduced mod p^K."""
    t = Fraction(theta)
    vmin = 2 if p == 2 else 1
    total = Fraction(1)
    power = Fraction(1)
    factorial = 1
    j = 1
    while Fraction(j * vmin) - Fraction(j - 1, p - 1) < precision:
        power *= t
        factorial *= j
        total += power / factorial
        j += 1
    assert total.denominator % p != 0
    m = p**precision
    return total.numerator * pow(total.denominator, -1, m) % m


def valuation_by_division(n: int, p: int) -> int:
    """v_p(n) for nonzero n, one division by p per unit of valuation."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def cancel_by_division(u: int, k: int, p: int) -> tuple[int, int]:
    """(u', k') with u'/p^k' = u/p^k, cancelling one p at a time while k' > 0 and p divides u'."""
    while k > 0 and u % p == 0:
        u //= p
        k -= 1
    return u, k


def log_by_series(p: int, precision: int, x: int) -> int:
    """log(1+t), t = x - 1, summed term by term mod p^(K + guard) with no argument reduction.

    Term j has valuation >= j - floor(log_p j), so the sum stops at the last j
    where that is below K; floor(log_p J) guard digits cover the division by j.
    The sum is kept over the product of the unit parts of 1..J, inverted once.
    """
    t = x - 1
    last = 0
    while (last + 1) - _floor_log(p, last + 1) < precision:
        last += 1
    guard = _floor_log(p, last) if last else 0
    m = p ** (precision + guard)
    total = 0
    tpow = denom = 1
    for j in range(1, last + 1):
        tpow = tpow * t % m
        e = valuation_by_division(j, p)
        u = j // p**e
        total = (total * u - (-1) ** j * (tpow // p**e) * denom) % m
        denom = denom * u % m
    return total * pow(denom, -1, m) % p**precision


def exp_by_series(p: int, precision: int, theta: int) -> int:
    """exp(t) summed term by term mod p^(K + guard), with no Newton step.

    Term j has valuation >= j*v - (j-1)/(p-1), v = 1 (2 at p = 2), which gives
    the cutoff J; v_p(J!) guard digits cover the division by j!.  The sum is
    kept scaled by the unit part of j!, inverted once.
    """
    vmin = 2 if p == 2 else 1
    last = max(1, -(-(precision * (p - 1) - 1) // (vmin * (p - 1) - 1)))
    guard = sum(last // p**i for i in range(1, _floor_log(p, last) + 1))
    m = p ** (precision + guard)
    total = tpow = fact_unit = 1
    fact_v = 0
    for j in range(1, last + 1):
        tpow = tpow * theta % m
        e = valuation_by_division(j, p)
        fact_v += e
        u = j // p**e
        fact_unit = fact_unit * u % m
        total = (total * u + tpow // p**fact_v) % m
    return total * pow(fact_unit, -1, m) % p**precision


def root_by_polar(p: int, precision: int, k: int, u: int, x: int) -> int:
    """omega(x_0)^u * exp(u * log(x / omega(x_0)) / p^k) mod p^(K - k), for a unit x with a p^k-th root.

    At p = 2, omega(1) = 1 and the value is the root that is 1 mod 4, to the power u.
    """
    n = precision - k
    lift = teichmuller(PAdicInt(p, precision, x)).residue
    principal = PAdicInt(p, precision, x * inverse_by_egcd(lift, p**precision))
    theta = plog(principal).exact_div_p_power(k) * u
    return pow(lift, u, p**n) * pexp(theta).residue % p**n
