"""Residue arithmetic, Teichmuller lifts, Hensel roots and ghost sequences."""

import random
import time

import pytest

import oracles
from wittpadics import (
    ExactDivisionFailure,
    InvalidDegree,
    MismatchedRing,
    NotAUnit,
    NotPrime,
    PAdicInt,
    PAdicNumber,
    hensel_kth_root,
    kth_power_residue_test,
    padic_valuation,
    teichmuller,
    unit_inverse,
)

PRIMES = (3, 5, 7, 11, 13)


# ---------------------------------------------------------------- construction


def test_construction_rejects_bad_primes():
    with pytest.raises(NotPrime):
        PAdicInt(4, 2, 1)
    with pytest.raises(NotPrime):
        PAdicInt(1, 2, 1)
    with pytest.raises(NotPrime):
        PAdicInt(2**64 + 13, 2, 1)


def test_residue_is_canonicalized():
    assert PAdicInt(11, 2, -8).residue == 113
    assert PAdicInt(5, 2, 26).residue == 1
    # str() shows the least-absolute representative when it differs
    assert str(PAdicInt(11, 2, -8)) == "113 ≡ -8 (mod 11^2)"
    assert str(PAdicInt(5, 2, 26)) == "1 (mod 5^2)"


def test_mixed_prime_arithmetic_is_an_error():
    with pytest.raises(MismatchedRing):
        PAdicInt(3, 2, 1) + PAdicInt(5, 2, 1)


def test_binary_operations_take_min_precision():
    a = PAdicInt(5, 4, 7)
    b = PAdicInt(5, 2, 7)
    assert (a + b).precision == 2
    assert (a * b).precision == 2
    assert (a - b).residue == 0


def test_exact_division_costs_precision():
    x = PAdicInt(5, 3, 50)
    y = x.exact_div_p_power(2)
    assert (y.precision, y.residue) == (1, 2)
    with pytest.raises(ExactDivisionFailure):
        PAdicInt(5, 3, 7).exact_div_p_power(1)


# ---------------------------------------------------------------- unit_inverse


def test_unit_inverse_examples():
    assert unit_inverse(PAdicInt(5, 2, 3)).residue == 17
    assert 3 * 17 % 25 == 1
    assert unit_inverse(PAdicInt(7, 3, 1)).residue == 1
    with pytest.raises(NotAUnit):
        unit_inverse(PAdicInt(5, 2, 10))


def test_unit_inverse_matches_extended_gcd():
    rng = random.Random(0)
    for p in PRIMES:
        for _ in range(40):
            k = rng.randint(1, 8)
            r = rng.randrange(1, p**k)
            if r % p == 0:
                continue
            assert unit_inverse(PAdicInt(p, k, r)).residue == oracles.inverse_by_egcd(r, p**k)


def test_unit_inverse_involution():
    rng = random.Random(1)
    for _ in range(100):
        p = rng.choice(PRIMES)
        k = rng.randint(1, 8)
        r = rng.randrange(1, p**k)
        if r % p == 0:
            continue
        x = PAdicInt(p, k, r)
        assert unit_inverse(unit_inverse(x)) == x
        assert (x * unit_inverse(x)).residue == 1


# ----------------------------------------------------------------- teichmuller


def test_teichmuller_examples():
    assert teichmuller(PAdicInt(5, 2, 2)).residue == 7
    assert pow(7, 5, 25) == 7
    assert teichmuller(PAdicInt(11, 2, 3)).residue == 3
    assert teichmuller(PAdicInt(7, 4, 1)).residue == 1


def test_teichmuller_matches_exhaustive_search():
    for p, k in ((3, 3), (5, 2), (7, 2), (11, 2)):
        for a in range(p):
            expected = oracles.teichmuller_by_search(p, k, a)
            assert teichmuller(PAdicInt(p, k, a)).residue == expected


# Small and wide primes, up to the largest prime below 2^64.
LIFT_PRIMES = (2, 3, 5, 11, 101, 1000003, 2**61 - 1, 18446744073709551557)


@pytest.mark.parametrize("k", (1, 2, 3, 8, 32, 64))
@pytest.mark.parametrize("p", LIFT_PRIMES)
def test_teichmuller_matches_power_oracle(p, k):
    rng = random.Random(p + k)
    m = p**k
    # unreduced residues (>= p), multiples of p, and random residues
    cases = [0, 1, p - 1, p, p + 1, 7 * p, m - 1, 2 * m + 3]
    cases += [rng.randrange(m) for _ in range(4)]
    for a in cases:
        assert teichmuller(PAdicInt(p, k, a)).residue == oracles.teichmuller_by_power(p, k, a)


def test_teichmuller_fixpoint_and_idempotent():
    rng = random.Random(2)
    for _ in range(60):
        p = rng.choice(PRIMES)
        k = rng.randint(1, 8)
        a = PAdicInt(p, k, rng.randrange(p**k))
        w = teichmuller(a)
        assert pow(w.residue, p, p**k) == w.residue
        assert w.residue % p == a.residue % p or a.residue % p == 0
        assert teichmuller(w) == w


def test_teichmuller_is_multiplicative():
    rng = random.Random(3)
    for _ in range(60):
        p = rng.choice(PRIMES)
        k = rng.randint(1, 6)
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        lhs = teichmuller(PAdicInt(p, k, a)) * teichmuller(PAdicInt(p, k, b))
        assert lhs == teichmuller(PAdicInt(p, k, a * b))


# ------------------------------------------------------- k-th power residues


def test_kth_power_residue_examples():
    assert kth_power_residue_test(5, 2, 3) is True
    assert kth_power_residue_test(7, 3, 2) is False
    assert kth_power_residue_test(7, 2, 2) is True


def test_kth_power_residue_matches_enumeration():
    for p in (3, 5, 7, 11):
        for k in range(1, 11):
            if k % p == 0:
                continue
            powers = {pow(x, k, p) for x in range(1, p)}
            for a in range(1, p):
                assert kth_power_residue_test(p, a, k) is (a in powers)


def test_kth_power_residue_rejects_p_divisible_degree():
    with pytest.raises(InvalidDegree):
        kth_power_residue_test(5, 2, 10)


# ------------------------------------------------------------------ hensel


def test_hensel_examples():
    roots = hensel_kth_root(PAdicInt(5, 3, 2), 3)
    assert [r.residue for r in roots] == [53]
    assert pow(53, 3, 125) == 2
    assert [r.residue for r in hensel_kth_root(PAdicInt(5, 3, 64), 3)] == [4]
    assert hensel_kth_root(PAdicInt(7, 2, 3), 2) == ()


def test_hensel_rejects_degree_divisible_by_p():
    with pytest.raises(InvalidDegree):
        hensel_kth_root(PAdicInt(5, 3, 2), 5)


def test_hensel_matches_brute_force():
    rng = random.Random(5)
    for p, k_max in ((3, 6), (5, 4)):
        for _ in range(30):
            prec = rng.randint(2, k_max)
            a = rng.randrange(1, p**prec)
            if a % p == 0:
                continue
            degree = rng.choice([d for d in (1, 2, 3, 4, 7, 8) if d % p])
            got = sorted(r.residue for r in hensel_kth_root(PAdicInt(p, prec, a), degree))
            assert got == oracles.brute_force_roots(p, prec, degree, a)


# ----------------------------------------------------------------- ghosts


def test_ghost_sequence_examples():
    assert oracles.ghost_by_recursion(3, 2, 2) == ((2, -2, -54), (-1, 1, 27))
    assert 2**9 + 3 * (-2) ** 3 + 9 * (-54) == 2

    entries, quotients = oracles.ghost_by_recursion(11, 3, 1)
    assert entries[1] == -16104
    assert quotients[1] == 5368
    assert 5368 % 11 == 0

    assert oracles.ghost_by_recursion(7, 1, 4) == ((1, 0, 0, 0, 0), (-1, 0, 0, 0, 0))


def test_ghost_entries_match_direct_solving():
    rng = random.Random(6)
    for p in PRIMES:
        length = 4 if p <= 7 else 3
        for _ in range(8):
            n = rng.randint(2, 60)
            if n % p == 0:
                continue
            entries, _ = oracles.ghost_by_recursion(p, n, length)
            assert list(entries) == oracles.ghost_entries_by_solving(p, n, length)
            for j in range(length + 1):
                assert oracles.ghost_value(p, entries, j) == n


def test_ghost_divisibility_and_quotients():
    rng = random.Random(7)
    for p in PRIMES:
        for _ in range(20):
            n = rng.randint(2, 10**4)
            if n % p == 0:
                continue
            entries, quotients = oracles.ghost_by_recursion(p, n, 1)
            assert all(a % n == 0 for a in entries)
            assert quotients[1] == oracles.classical_fermat_quotient(n, p)


@pytest.mark.parametrize("p", PRIMES)
def test_ghost_quotients_are_none_exactly_when_p_divides_n(p):
    for n in (p, -p, 2 * p, p * p, 0):
        entries, quotients = oracles.ghost_by_recursion(p, n, 2)
        assert quotients is None
        assert all(oracles.ghost_value(p, entries, j) == n for j in range(3))
    for n in (1, -1, p + 1, 2 * p - 1):
        assert oracles.ghost_by_recursion(p, n, 2)[1] is not None


def test_ghost_handles_negative_n():
    entries, _ = oracles.ghost_by_recursion(3, -2, 2)
    assert oracles.ghost_value(3, entries, 2) == -2
    assert all(a % 2 == 0 for a in entries)


# ------------------------------------------------------------- valuations

VALUATION_PRIMES = (2, 3, 11, 1000003, 2**61 - 1)


def test_padic_valuation_matches_the_division_loop():
    # every valuation 0..300, so every 2^i - 1, 2^i and 2^i + 1 up to 2^8, on
    # p^v itself and on a random unit times p^v, each of a random sign
    rng = random.Random(41)
    for p in VALUATION_PRIMES:
        for v in range(301):
            u = rng.randrange(1, 2**64)
            u += u % p == 0
            for n in (p**v, u * p**v):
                n *= rng.choice((1, -1))
                assert padic_valuation(n, p) == oracles.valuation_by_division(n, p) == v, (p, v, n)


def test_padic_valuation_of_zero_raises():
    for p in VALUATION_PRIMES:
        with pytest.raises(ValueError):
            padic_valuation(0, p)


def test_a_large_valuation_takes_few_divisions():
    # 2 * 3^100000 has 47 713 digits: one division per unit of valuation took
    # seconds, squaring the divisor takes about 20 divisions
    start = time.perf_counter()
    assert padic_valuation(2 * 3**100000, 3) == 100000
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------- PAdicNumber


def test_padic_number_from_integer_extracts_valuation():
    x = PAdicNumber.from_integer(375, 5, 3)  # 375 = 5^3 * 3
    assert (x.valuation, x.unit.residue) == (3, 3)
    assert str(x) == "5^3 * 3 (mod 5^3)"
    assert PAdicNumber.from_integer(0, 5, 3).is_zero
    assert str(PAdicNumber.from_integer(-1, 5, 2)) == "24 ≡ -1 (mod 5^2)"


def test_padic_number_from_rational():
    x = PAdicNumber.from_rational(2, 3, 5, 2)
    assert (x.valuation, x.unit.residue) == (0, 9)
    y = PAdicNumber.from_rational(5, 2, 3, 2)
    assert (y.valuation, y.unit.residue) == (0, 7)
    z = PAdicNumber.from_rational(3, 50, 5, 2)
    assert z.valuation == -2


def test_padic_number_multiplication_and_inverse():
    x = PAdicNumber.from_integer(6, 5, 3)
    y = PAdicNumber.from_integer(10, 5, 3)
    prod = x * y
    assert (prod.valuation, prod.unit.residue) == (1, 12)
    inv = x.inverse()
    assert (x * inv).unit.residue == 1
    assert padic_valuation(50, 5) == 2


def test_padic_number_rejects_non_unit_part():
    with pytest.raises(NotAUnit):
        PAdicNumber(5, 0, PAdicInt(5, 2, 10))
