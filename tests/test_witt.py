"""Witt-vector conversions, ring operations and the factor system."""

import json
import random

import pytest
import sympy

import oracles
from wittpadics import (
    MismatchedRing,
    NotAUnit,
    PAdicInt,
    PAdicNumber,
    PrecisionTooLow,
    SelfCheckFailed,
    WittVector,
    factor_system_phi1,
    padic_to_witt,
    witt,
    witt_add,
    witt_digits,
    witt_inv,
    witt_mul,
    witt_neg,
    witt_to_padic,
)


# ------------------------------------------------------------- conversions


def test_witt_to_padic_examples():
    assert witt_to_padic(WittVector(3, (2, 1, 0))).residue == 2
    assert witt_to_padic(WittVector(11, (3, 10))).residue == 113  # -8 mod 121
    assert witt_to_padic(WittVector(7, (1, 0, 0))).residue == 1


@pytest.mark.parametrize("p", (3, 101, 1000003))
def test_witt_to_padic_matches_power_oracle(p):
    rng = random.Random(p)
    for k in (1, 2, 5, 16, 33, 64):
        digits = [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(k)]
        expected = sum(p**i * oracles.teichmuller_by_power(p, k, d) for i, d in enumerate(digits)) % p**k
        assert witt_to_padic(WittVector(p, tuple(digits))).residue == expected


def test_padic_to_witt_examples():
    assert padic_to_witt(PAdicInt(3, 3, 2)).digits == (2, 1, 0)
    assert padic_to_witt(PAdicInt(5, 2, 9)).digits == (4, 2)
    assert padic_to_witt(PAdicInt(7, 3, 1)).digits == (1, 0, 0)
    # witt_digits peels a prefix of the same digits, and no more than K
    rng = random.Random(9)
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7, 11))
        K = rng.randint(1, 7)
        x = PAdicInt(p, K, rng.randrange(p**K))
        digits = padic_to_witt(x).digits
        for n in range(1, K + 1):
            assert witt_digits(x, n) == digits[:n]
        with pytest.raises(PrecisionTooLow):
            witt_digits(x, K + 1)


# -------------------------------------------------------------- digit table


def _check_against_oracles(p, digits):
    K = len(digits)
    w = WittVector(p, tuple(digits))
    x = witt_to_padic(w)
    assert x.residue == oracles.witt_residue_by_power(p, K, digits)
    assert oracles.witt_digits_by_peel(p, K, x.residue) == w.digits
    assert padic_to_witt(x) == w


@pytest.mark.parametrize("p", (2, 3, 5, 101, 1000003))
def test_table_all_equal_digits(p):
    for d in {0, 1, 2 % p, p - 1}:
        for K in (1, 2, 17, 64):
            _check_against_oracles(p, [d] * K)


@pytest.mark.parametrize("p", (2, 3, 11, 101))
def test_table_first_use_at_a_high_index(p):
    # The first use of d sits after j zeros and asks for K - j digits; every
    # later use asks for fewer, so the lift must be taken at the first use.
    K = 48
    for j in (1, 5, K // 2, K - 2):
        for d in {1, p - 1, p // 2 or 1}:
            _check_against_oracles(p, [0] * j + [d] * (K - j))
            _check_against_oracles(p, [0] * j + [d, 0] * ((K - j) // 2) + [d] * ((K - j) % 2))


@pytest.mark.parametrize("p", (2, 3))
def test_table_long_vectors_and_digit_prefixes(p):
    K = 300
    rng = random.Random(300 + p)
    for digits in ([rng.randrange(p) for _ in range(K)], [p - 1] * K, [0] * (K - 1) + [1]):
        _check_against_oracles(p, digits)
        x = witt_to_padic(WittVector(p, tuple(digits)))
        for n in range(1, K + 1):
            assert witt_digits(x, n) == tuple(digits[:n])


def _uses_whole_table(p, n):
    # the documented crossover: all p lifts at once when p - 1 <= (n - 1) bits(p),
    # and below 2^26 bits when there are more lifts than digits
    bits = p.bit_length()
    return p - 1 <= (n - 1) * bits and (p <= n or p * n * bits <= 2**26)


@pytest.mark.parametrize("p", (2, 3, 7, 101, 1000003))
def test_conversion_lifts_one_primitive_root_or_each_digit_at_its_first_use(p, monkeypatch):
    lifts = []
    lift = witt.teichmuller

    def counted(a):
        lifts.append((a.residue, a.precision))
        return lift(a)

    def expected(digits, K):
        # one lift of the least primitive root, to all K digits, or else each
        # distinct nonzero digit once, at the K - i digits of its first use
        if _uses_whole_table(p, K):
            return [(sympy.primitive_root(p), K)]
        return sorted({d: K - digits.index(d) for d in digits if d}.items())

    monkeypatch.setattr(witt, "teichmuller", counted)
    rng = random.Random(p)
    # p = 101 takes the whole table from K = 16 on; p = 1000003 never here
    for K in (1, 2, 15, 16, 40):
        digits = tuple(rng.choice((0, 0, 1, p - 1, rng.randrange(p))) for _ in range(K))
        lifts.clear()
        x = witt_to_padic(WittVector(p, digits))
        assert sorted(lifts) == expected(digits, K)
        # the peel needs no lift for its last digit
        lifts.clear()
        assert padic_to_witt(x).digits == digits
        assert sorted(lifts) == expected(digits[:-1], K)


@pytest.mark.parametrize("p,n,table", [(1009, 120, True), (10007, 800, False)])
def test_whole_table_for_p_above_the_length_stays_below_2_to_26_bits(p, n, table, monkeypatch):
    # p > n and the table costs fewer products in both cases; 10007 lifts of
    # 800 digits (14 bits each) pass 2^26 bits, so there each digit is lifted alone
    assert p - 1 <= (n - 1) * p.bit_length() and _uses_whole_table(p, n) == table
    lifts = []
    lift = witt.teichmuller

    def counted(a):
        lifts.append((a.residue, a.precision))
        return lift(a)

    monkeypatch.setattr(witt, "teichmuller", counted)
    digits = (2,) + (0,) * (n - 1)
    assert witt_to_padic(WittVector(p, digits)).residue == lift(PAdicInt(p, n, 2)).residue
    assert lifts == [(sympy.primitive_root(p), n) if table else (2, n)]


@pytest.mark.parametrize("p", (3, 5, 7, 11, 101))
def test_whole_group_table_matches_power_oracle(p):
    for n in (2, 3, 9, 33, 130):
        if _uses_whole_table(p, n):
            lift = witt._lifts(p, n)
            assert [lift(d, n) for d in range(p)] == [oracles.teichmuller_by_power(p, n, d) for d in range(p)]


@pytest.mark.parametrize("p", (3, 5, 7, 11, 31, 101, 257))
def test_conversions_agree_with_oracles_on_both_sides_of_the_table_crossover(p):
    first = next(n for n in range(2, 10**4) if _uses_whole_table(p, n))
    rng = random.Random(p)
    for n in (first - 1, first, first + 1):
        for _ in range(4):
            digits = tuple(rng.randrange(p) for _ in range(n))
            _check_against_oracles(p, digits)
            x = rng.randrange(p**n)
            assert witt_digits(PAdicInt(p, n, x), n) == oracles.witt_digits_by_peel(p, n, x)


@pytest.mark.parametrize("p", (3, 5, 11, 101))
def test_a_wrong_primitive_root_lift_fails_the_closing_check(p, monkeypatch):
    # off by p^(n-1), the lift still reduces to g but w^(p-1) is no longer 1 mod p^n
    lift = witt.teichmuller
    monkeypatch.setattr(witt, "teichmuller", lambda a: lift(a) + a.p ** (a.precision - 1))
    n = 40
    assert _uses_whole_table(p, n)
    with pytest.raises(SelfCheckFailed, match="primitive root"):
        witt_to_padic(WittVector(p, (1,) * n))
    with pytest.raises(SelfCheckFailed, match="primitive root"):
        padic_to_witt(PAdicInt(p, n, 2))


@pytest.mark.parametrize("op", (witt_add, witt_mul))
def test_a_ring_operation_builds_one_digit_table(op, monkeypatch):
    # at (101, 64) the table is the powers of one lifted primitive root, shared by all three conversions
    p, K = 101, 64
    assert _uses_whole_table(p, K)
    lifts = []
    lift = witt.teichmuller
    monkeypatch.setattr(witt, "teichmuller", lambda a: lifts.append(a.residue) or lift(a))
    rng = random.Random(K)
    for _ in range(3):
        a, b = (tuple(rng.randrange(p) for _ in range(K)) for _ in range(2))
        lifts.clear()
        result = op(WittVector(p, a), WittVector(p, b))
        assert lifts == [sympy.primitive_root(p)]
        x, y = (oracles.witt_residue_by_power(p, K, d) for d in (a, b))
        assert result.digits == oracles.witt_digits_by_peel(p, K, x * y if op is witt_mul else x + y)


def test_a_shared_per_digit_table_lifts_again_for_more_digits(monkeypatch):
    p, n = 1000003, 12
    assert not _uses_whole_table(p, n)
    lifts = []
    lift = witt.teichmuller
    monkeypatch.setattr(witt, "teichmuller", lambda a: lifts.append(a.precision) or lift(a))
    table = witt._lifts(p, n)
    assert table(7, 3) % p**3 == oracles.teichmuller_by_power(p, 3, 7)
    assert table(7, 2) % p**2 == oracles.teichmuller_by_power(p, 2, 7)
    assert table(7, n) == oracles.teichmuller_by_power(p, n, 7)
    assert table(7, 5) % p**5 == oracles.teichmuller_by_power(p, 5, 7)
    assert table(0, n) == 0
    assert lifts == [3, n]
    # digit 7 is lifted to 1 digit for the last index of a, then to n for index 0 of b
    a = WittVector(p, (0,) * (n - 1) + (7,))
    b = WittVector(p, (7,) + (0,) * (n - 1))
    lifts.clear()
    total = sum(oracles.witt_residue_by_power(p, n, w.digits) for w in (a, b))
    assert witt_add(a, b).digits == oracles.witt_digits_by_peel(p, n, total)
    assert lifts[:2] == [1, n]


def test_round_trips():
    rng = random.Random(10)
    for _ in range(150):
        p = rng.choice((3, 5, 7, 11))
        k = rng.randint(1, 6)
        x = PAdicInt(p, k, rng.randrange(p**k))
        assert witt_to_padic(padic_to_witt(x)) == x
        w = WittVector(p, tuple(rng.randrange(p) for _ in range(k)))
        assert padic_to_witt(witt_to_padic(w)) == w


def test_unit_first_two_digits_formula():
    # for a unit l0 + l1 p + ..., digit 1 is l1 - l0 q_1(l0) mod p
    rng = random.Random(11)
    for _ in range(80):
        p = rng.choice((3, 5, 7, 11, 13))
        k = rng.randint(2, 5)
        r = rng.randrange(1, p**k)
        if r % p == 0:
            continue
        l0, l1 = r % p, r // p % p
        q1 = oracles.classical_fermat_quotient(l0, p)
        assert padic_to_witt(PAdicInt(p, k, r)).digits[1] == (l1 - l0 * q1) % p


# --------------------------------------------------------------- embeddings


def test_integer_to_witt_examples():
    assert padic_to_witt(PAdicInt(3, 3, 2)).digits == (2, 1, 0)
    assert padic_to_witt(PAdicInt(11, 2, 3)).digits == (3, 0)
    assert padic_to_witt(PAdicInt(7, 4, 1)).digits == (1, 0, 0, 0)


def test_integer_embedding_matches_digit_peeling():
    # The paper's link to Fermat quotients: digit i of n is -n * q_i mod p,
    # with q_i = -a_i / n from the ghost sequence a_0 = n, a_1, ...
    rng = random.Random(12)
    checked = 0
    while checked < 200:
        p = rng.choice((3, 5, 7, 11))
        k = rng.randint(2, 5 if p == 3 else 4)
        n = rng.randint(2, 5000) * rng.choice((1, -1))
        if n % p == 0:
            continue
        _, quotients = oracles.ghost_by_recursion(p, n, k - 1)
        assert padic_to_witt(PAdicInt(p, k, n)).digits == tuple(-n * q % p for q in quotients)
        checked += 1


def test_integer_to_witt_multiple_of_p_falls_back():
    # p divides n, so the ghost quotients -a_i / n do not give the digits; the peel does
    assert padic_to_witt(PAdicInt(3, 3, 6)).digits == oracles.witt_digits_by_peel(3, 3, 6)


def test_integer_to_witt_of_a_large_integer():
    # ghost-sequence entries for n = 10^6 grow like n^(p^k): length 5 at p = 101 is out of reach
    for length in (4, 5):
        assert padic_to_witt(PAdicInt(101, length, 10**6)).digits == oracles.witt_digits_by_peel(101, length, 10**6)


def rational_witt(m, n, p, length):
    return padic_to_witt(PAdicNumber.from_rational(m, n, p, length).unit)


def test_rational_to_witt_examples():
    assert rational_witt(2, 3, 5, 2).digits == (4, 2)
    assert rational_witt(1, 1, 7, 3).digits == (1, 0, 0)
    assert rational_witt(5, 2, 3, 2) == padic_to_witt(PAdicInt(3, 2, 7))


def test_rational_second_digit_formula():
    # digit 1 of m/n is -(m/n)(q_1(m) - q_1(n)) mod p
    rng = random.Random(13)
    for _ in range(60):
        p = rng.choice((3, 5, 7, 11))
        m = rng.randint(1, 400)
        n = rng.randint(1, 400)
        if m % p == 0 or n % p == 0:
            continue
        w = rational_witt(m, n, p, 2)
        ratio = m * pow(n, -1, p) % p
        q1m = oracles.classical_fermat_quotient(m, p)
        q1n = oracles.classical_fermat_quotient(n, p)
        assert w.digits[1] == -ratio * (q1m - q1n) % p


# ------------------------------------------------------------------- ring ops


def test_witt_add_sum_of_seventh_powers():
    assert witt_add(WittVector(7, (1, 0)), WittVector(7, (2, 0))).digits == (3, 0)
    assert (1**7 + 2**7) % 49 == witt_to_padic(WittVector(7, (3, 0))).residue


def test_witt_mul_examples():
    assert witt_mul(WittVector(3, (2, 1)), WittVector(3, (2, 1))).digits == (1, 1)
    w = WittVector(5, (3, 1, 4))
    one = WittVector(5, (1, 0, 0))
    assert witt_mul(w, one) == w


def test_ring_isomorphism_random():
    rng = random.Random(14)
    for p in (3, 5, 7, 11):
        for _ in range(125):
            k = rng.randint(1, 6)
            a = PAdicInt(p, k, rng.randrange(p**k))
            b = PAdicInt(p, k, rng.randrange(p**k))
            assert padic_to_witt(a + b) == witt_add(padic_to_witt(a), padic_to_witt(b))
            assert padic_to_witt(a * b) == witt_mul(padic_to_witt(a), padic_to_witt(b))


def test_mixed_length_truncates():
    x = WittVector(5, (1, 2, 3, 4))
    y = WittVector(5, (2, 0))
    assert witt_add(x, y).length == 2
    with pytest.raises(MismatchedRing):
        witt_add(x, WittVector(7, (1, 0)))


def test_witt_neg_and_inv():
    w = padic_to_witt(PAdicInt(5, 3, 2))
    assert witt_add(w, witt_neg(w)).digits == (0, 0, 0)
    assert witt_mul(w, witt_inv(w)).digits == (1, 0, 0)
    with pytest.raises(NotAUnit):
        witt_inv(WittVector(5, (0, 1)))


def test_inverse_formula_digits():
    # the inverse of the integer embedding starts (n^-1, n^-1 q_1(n), ...)
    for p, n in ((5, 2), (7, 3), (11, 2), (13, 5)):
        inv = witt_inv(padic_to_witt(PAdicInt(p, 3, n)))
        n_inv = pow(n, -1, p)
        q1 = oracles.classical_fermat_quotient(n, p)
        assert inv.digits[0] == n_inv
        assert inv.digits[1] == n_inv * q1 % p


# ------------------------------------------------------------- factor system


def test_phi1_examples():
    assert factor_system_phi1(7, 1, 2) == 0
    assert factor_system_phi1(3, 1, 1) == 1
    for p in (3, 5, 7):
        for x0 in range(p):
            assert factor_system_phi1(p, x0, 0) == 0


def test_phi1_matches_length_two_addition():
    for p in (3, 5, 7):
        for x0 in range(p):
            for y0 in range(p):
                total = witt_add(WittVector(p, (x0, 0)), WittVector(p, (y0, 0)))
                expected = WittVector(p, ((x0 + y0) % p, factor_system_phi1(p, x0, y0)))
                assert total == expected


def test_phi1_matches_sum_oracle_on_every_residue_pair():
    for p in sympy.primerange(3, 102):
        for x0 in range(p):
            for y0 in range(p):
                assert factor_system_phi1(p, x0, y0) == oracles.phi1_by_sum(p, x0, y0), (p, x0, y0)


def test_phi1_reduces_negative_and_unreduced_arguments():
    for p in (3, 5, 7, 101):
        for x0 in (-2 * p - 1, -p, -2, -1, p, p + 1, 3 * p + 2, 10**30 + 7):
            for y0 in (-1, 0, 1, p - 1, 2 * p + 3, -(10**20)):
                assert factor_system_phi1(p, x0, y0) == oracles.phi1_by_sum(p, x0, y0), (p, x0, y0)
                assert factor_system_phi1(p, y0, x0) == oracles.phi1_by_sum(p, y0, x0), (p, y0, x0)


@pytest.mark.parametrize("p", (1009, 10007))
def test_phi1_matches_sum_oracle_at_large_p(p):
    rng = random.Random(p)
    for _ in range(200):
        x0, y0 = rng.randrange(p), rng.randrange(p)
        assert factor_system_phi1(p, x0, y0) == oracles.phi1_by_sum(p, x0, y0), (x0, y0)


def test_phi1_cross_check_integer_two():
    # (1,0] + (1,0] is the integer 2, whose digit 1 is phi_1(1,1)
    total = witt_add(WittVector(3, (1, 0)), WittVector(3, (1, 0)))
    assert total == padic_to_witt(PAdicInt(3, 2, 2))
    assert total.digits == (2, factor_system_phi1(3, 1, 1))


# ----------------------------------------------------------------- rendering


def test_rendering_and_json():
    w = WittVector(3, (2, 1, 0))
    assert str(w) == "(2,1,0]"
    blob = json.dumps(w.to_json_dict())
    assert json.loads(blob) == {"p": 3, "digits": [2, 1, 0]}
