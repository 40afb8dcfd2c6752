"""Log/exp series, polar decomposition, De Moivre identities and powers."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import wittpadics
from wittpadics import (
    DomainError,
    ExactExponent,
    PAdicInt,
    PAdicNumber,
    PolarForm,
    RootCondition,
    ValuationCondition,
    WittVector,
    de_moivre_check,
    padic_to_witt,
    pexp,
    plog,
    polar,
    ppow,
    recompose,
    sqrt_2adic,
    teichmuller,
    unit_inverse,
    witt_to_padic,
)

PRIMES = (3, 5, 7, 11, 13)


# -------------------------------------------------------------------- series


def test_plog_pexp_examples():
    assert plog(PAdicInt(5, 3, 6)).residue == 55
    assert pexp(PAdicInt(5, 3, 55)).residue == 6
    assert plog(PAdicInt(7, 4, 1)).residue == 0
    assert pexp(PAdicInt(7, 4, 0)).residue == 1


def test_series_domains():
    with pytest.raises(DomainError):
        plog(PAdicInt(5, 3, 2))
    with pytest.raises(DomainError):
        pexp(PAdicInt(5, 3, 3))
    with pytest.raises(DomainError):
        plog(PAdicInt(2, 4, 3))  # 3 = 1 mod 2 but not 1 mod 4
    with pytest.raises(DomainError):
        pexp(PAdicInt(2, 4, 2))  # theta = 2 mod 4


def test_series_match_fraction_oracle():
    rng = random.Random(20)
    for p in PRIMES:
        for _ in range(12):
            k = rng.randint(2, 7)
            u = 1 + p * rng.randrange(p ** (k - 1))
            assert plog(PAdicInt(p, k, u)).residue == oracles.log_by_fraction_series(p, k, u % p**k)
            t = p * rng.randrange(p ** (k - 1))
            assert pexp(PAdicInt(p, k, t)).residue == oracles.exp_by_fraction_series(p, k, t % p**k)
    for _ in range(12):
        k = rng.randint(3, 10)
        u = 1 + 4 * rng.randrange(2 ** (k - 2))
        assert plog(PAdicInt(2, k, u)).residue == oracles.log_by_fraction_series(2, k, u % 2**k)
        t = 4 * rng.randrange(2 ** (k - 2))
        assert pexp(PAdicInt(2, k, t)).residue == oracles.exp_by_fraction_series(2, k, t % 2**k)


@pytest.mark.parametrize("p", (2, 3, 11))
def test_pexp_matches_fraction_oracle_at_32_digits(p):
    rng = random.Random(p)
    v = 2 if p == 2 else 1
    m = p**32
    for t in [0, p**v, m - p**v] + [p**v * rng.randrange(p ** (32 - v)) for _ in range(6)]:
        assert pexp(PAdicInt(p, 32, t)).residue == oracles.exp_by_fraction_series(p, 32, t % m)


@pytest.mark.parametrize("p", (2, 3, 11))
def test_plog_matches_fraction_oracle_at_32_digits(p):
    rng = random.Random(p)
    v = 2 if p == 2 else 1
    m = p**32
    for t in [0, p**v, m - p**v] + [p**v * rng.randrange(p ** (32 - v)) for _ in range(6)]:
        assert plog(PAdicInt(p, 32, 1 + t)).residue == oracles.log_by_fraction_series(p, 32, (1 + t) % m)


# Residues up to 11^512 < 2^1800, and a shift that sets the valuation of x - 1 or theta.
_high_precision = (st.sampled_from((2, 3, 5, 7, 11)), st.integers(1, 512), st.integers(0, 2**1800), st.integers(0, 40))


@settings(deadline=None, max_examples=60)
@given(*_high_precision)
def test_plog_matches_series_oracle_to_512_digits(p, K, a, shift):
    assume(p != 2 or K >= 2)
    q = 4 if p == 2 else p
    x = (1 + q * p**shift * a) % p**K
    assert plog(PAdicInt(p, K, x)).residue == oracles.log_by_series(p, K, x)


@settings(deadline=None, max_examples=60)
@given(*_high_precision)
def test_pexp_matches_series_oracle_to_512_digits(p, K, a, shift):
    assume(p != 2 or K >= 2)
    q = 4 if p == 2 else p
    t = q * p**shift * a % p**K
    y = pexp(PAdicInt(p, K, t))
    assert y.residue == oracles.exp_by_series(p, K, t)
    assert plog(y).residue == t


def _edge_precisions(p):
    # K in {1, 2, 3}, p - 1..p + 1, both sides of each step of the log's
    # reduction r = isqrt(K // bits) up to r = 3, and the last K with j Newton
    # steps in pexp and the first with j + 1: from 2 correct digits (3 at
    # p = 2), each step takes e to 2e (2e - 1), so step j + 1 starts at
    # K = 2^j + 1 (2^j + 2).
    bits = p.bit_length()
    ks = {1, 2, 3, p - 1, p, p + 1}
    for edge in (bits, 4 * bits, 9 * bits):
        ks |= {edge - 1, edge, edge + 1}
    for j in range(10):
        edge = 2**j + 1 + (p == 2)
        ks |= {edge - 1, edge}
    return sorted(k for k in ks if k >= (2 if p == 2 else 1))


# Every theta = 0 mod p (mod 4 at p = 2) up to these K: the start 1 + theta
# and the first Newton steps, exhaustively.
_EXHAUSTIVE_EXP_K = {2: 10, 3: 6, 5: 5, 7: 4, 11: 3}


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_log_exp_edge_cases_against_series_oracle(p):
    q = 4 if p == 2 else p
    v = 2 if p == 2 else 1
    rng = random.Random(40 + p)
    for K in _edge_precisions(p):
        m = p**K
        unit = rng.randrange(1, m) | 1 if p == 2 else rng.choice([u for u in range(1, 2 * p) if u % p])
        xs = [1, 1 + q, m - q + 1, 1 + q * unit, 1 + p ** (K - 1) * unit, 1 + q * rng.randrange(m)]
        if p == 2:
            xs += [5, 5 + 8 * rng.randrange(m)]  # x = 5 mod 8: log x has valuation exactly 2
        for x in xs:
            if x % q == 1:
                assert plog(PAdicInt(p, K, x)).residue == oracles.log_by_series(p, K, x % m), (K, x)
        # theta = 0, of valuation exactly v, of valuation K - 1 and of valuation >= K
        thetas = [0, m, p**v * unit, p ** (K - 1) * unit, q * rng.randrange(m)]
        for t in thetas:
            if t % q == 0:
                assert pexp(PAdicInt(p, K, t)).residue == oracles.exp_by_series(p, K, t % m), (K, t)
        assert plog(PAdicInt(p, K, 1)).residue == 0
        assert pexp(PAdicInt(p, K, 0)).residue == 1
    for K in range(2 if p == 2 else 1, _EXHAUSTIVE_EXP_K[p] + 1):
        for t in range(0, p**K, q):
            assert pexp(PAdicInt(p, K, t)).residue == oracles.exp_by_series(p, K, t), (K, t)


def test_mutual_inverses_500_per_prime():
    rng = random.Random(21)
    for p in PRIMES:
        for _ in range(500):
            k = 8
            u = PAdicInt(p, k, 1 + p * rng.randrange(p ** (k - 1)))
            assert pexp(plog(u)) == u
            t = PAdicInt(p, k, p * rng.randrange(p ** (k - 1)))
            assert plog(pexp(t)) == t


def test_homomorphism_properties():
    rng = random.Random(22)
    for _ in range(200):
        p = rng.choice(PRIMES)
        k = rng.randint(2, 8)
        t1 = PAdicInt(p, k, p * rng.randrange(p ** (k - 1)))
        t2 = PAdicInt(p, k, p * rng.randrange(p ** (k - 1)))
        assert pexp(t1 + t2) == pexp(t1) * pexp(t2)
        u1 = PAdicInt(p, k, 1 + p * rng.randrange(p ** (k - 1)))
        u2 = PAdicInt(p, k, 1 + p * rng.randrange(p ** (k - 1)))
        assert plog(u1 * u2) == plog(u1) + plog(u2)


def test_closed_forms_on_length_three_vectors():
    # log(1,a1,a2] = (0,a1,a2-a1^2/2]; exp(0,a1,a2] = (1,a1,a2+a1^2/2]
    for p in (5, 7):
        half = pow(2, -1, p)
        for a1 in range(p):
            for a2 in range(p):
                x = witt_to_padic(WittVector(p, (1, a1, a2)))
                want = WittVector(p, (0, a1, (a2 - half * a1 * a1) % p))
                assert padic_to_witt(plog(x)) == want
                theta = witt_to_padic(WittVector(p, (0, a1, a2)))
                want = WittVector(p, (1, a1, (a2 + half * a1 * a1) % p))
                assert padic_to_witt(pexp(theta)) == want


# --------------------------------------------------------------------- polar


def test_polar_examples():
    p_cubed = PAdicNumber.from_integer(125, 5, 3)
    form = polar(p_cubed)
    assert (form.valuation, form.teich_digit, form.argument.residue) == (3, 1, 0)

    t = teichmuller(PAdicInt(5, 3, 2))
    form = polar(PAdicNumber(5, 0, t))
    assert (form.valuation, form.teich_digit, form.argument.residue) == (0, 2, 0)

    form = polar(PAdicNumber.from_integer(6, 5, 3))
    assert (form.valuation, form.teich_digit, form.argument.residue) == (0, 1, 55)


def test_polar_recomposition():
    rng = random.Random(23)
    for _ in range(80):
        p = rng.choice(PRIMES)
        k = rng.randint(2, 6)
        r = rng.randrange(1, p**k)
        if r % p == 0:
            continue
        x = PAdicNumber(p, rng.randint(-3, 3), PAdicInt(p, k, r))
        assert recompose(polar(x)) == x


@pytest.mark.parametrize("p", [2, 3, 5, 11, 101, 1000003, 2**61 - 1])
def test_polar_builds_no_teichmuller_lift(monkeypatch, p):
    rng = random.Random(p)
    cases = []
    for K in (1, 2, 3, 8, 33, 64):
        if p == 2 and K < 2:
            continue
        r = 4 * rng.randrange(p**K) + 1 if p == 2 else rng.randrange(1, p**K)
        if r % p == 0:
            r += 1
        x = PAdicNumber(p, rng.randint(-2, 2), PAdicInt(p, K, r))
        lift = teichmuller(PAdicInt(p, K, r % p))
        cases.append((x, PolarForm(p, x.valuation, r % p, plog(x.unit * unit_inverse(lift)))))

    def refuse(*args):
        raise AssertionError("polar built a Teichmuller lift")

    monkeypatch.setattr(wittpadics.analytic, "teichmuller", refuse)
    for x, want in cases:
        assert polar(x) == want
    if p == 2:
        with pytest.raises(DomainError, match=r"^log requires x = 1 \(mod 4\), got x = 3 \(mod 4\)$"):
            polar(PAdicNumber(2, 1, PAdicInt(2, 6, 7)))


def test_de_moivre_examples_and_random():
    t2 = PAdicNumber(5, 0, teichmuller(PAdicInt(5, 3, 2)))
    assert de_moivre_check(t2, t2)

    six = PAdicNumber.from_integer(6, 5, 3)
    assert de_moivre_check(six, six)
    assert plog(PAdicInt(5, 3, 36)).residue == (2 * 55) % 125

    rng = random.Random(24)
    count = 0
    while count < 300:
        p = rng.choice((3, 5, 7, 11))
        k = rng.randint(2, 6)
        a, b = rng.randrange(1, p**k), rng.randrange(1, p**k)
        if a % p == 0 or b % p == 0:
            continue
        x = PAdicNumber(p, rng.randint(-2, 2), PAdicInt(p, k, a))
        y = PAdicNumber(p, rng.randint(-2, 2), PAdicInt(p, k, b))
        assert de_moivre_check(x, y)
        count += 1


def test_eisenstein_congruence_on_integers():
    # q_1(nm) = q_1(n) + q_1(m) mod p
    rng = random.Random(25)
    count = 0
    while count < 200:
        p = rng.choice(PRIMES)
        n, m = rng.randint(2, 500), rng.randint(2, 500)
        if n % p == 0 or m % p == 0:
            continue
        q = oracles.classical_fermat_quotient
        assert (q(n * m, p) - q(n, p) - q(m, p)) % p == 0
        count += 1


# -------------------------------------------------------------------- powers


def test_ppow_integer_exponents():
    p = 5
    x = PAdicNumber.from_integer(1 + p, p, 3)
    y = ppow(x, ExactExponent(p))
    assert y.unit.residue == pow(6, 5, 125) == (1 + p * p) % 125
    assert ppow(x, ExactExponent(1)) == x
    assert ppow(x, ExactExponent(0)).unit.residue == 1
    inv = ppow(x, ExactExponent(-1))
    assert (x * inv).unit.residue == 1


def test_ppow_fractional_conditions():
    six = PAdicNumber.from_integer(6, 5, 3)
    assert padic_to_witt(six.unit).digits[:2] == (1, 1)
    with pytest.raises(RootCondition) as info:
        ppow(six, ExactExponent(1, 1))
    assert info.value.digit_index == 1

    shifted = PAdicNumber.from_integer(5 * 3, 5, 3)
    with pytest.raises(ValuationCondition):
        ppow(shifted, ExactExponent(1, 1))


def test_ppow_fractional_inverts_powering():
    rng = random.Random(26)
    for _ in range(60):
        p = rng.choice((3, 5, 7))
        k = rng.choice((1, 2))
        prec = rng.randint(k + 2, 8)
        r = rng.randrange(1, p**prec)
        if r % p == 0:
            continue
        x = PAdicNumber(p, 0, PAdicInt(p, prec, r))
        y = x.pow_int(p**k)
        back = ppow(y, ExactExponent(1, k))
        assert back.unit == x.unit.with_precision(prec - k)
        # (x^(p^k))^(u/p^k) = x^u, also when p divides u and the exponent normalizes
        for u in (-3, -1, 2, 5):
            power = ppow(y, ExactExponent(u, k))
            assert power.valuation == 0
            assert power.unit.with_precision(prec - k) == x.pow_int(u).unit.with_precision(prec - k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ppow_two_adic_root_exists_exactly_when_unit_is_one_mod_2_to_k_plus_2(k):
    # The 2^k-th powers of 2-adic units are the units = 1 (mod 2^(k+2)).
    K = 12
    for u in range(1, 2**10, 2):
        x = PAdicNumber(2, 0, PAdicInt(2, K, u))
        if u % 2 ** (k + 2) != 1:
            with pytest.raises(RootCondition):
                ppow(x, ExactExponent(1, k))
            continue
        r = ppow(x, ExactExponent(1, k))
        assert (r.valuation, r.unit.precision) == (0, K - k)
        assert pow(r.unit.residue, 2**k, 2**K) == u
        if k == 1:
            assert r in sqrt_2adic(x).roots


def test_power_digit_pattern():
    # x^(p^k) has digits (x0, 0 x k, x1, ...)
    rng = random.Random(27)
    for _ in range(200):
        p = rng.choice((3, 5, 7))
        k = rng.choice((1, 2))
        prec = rng.randint(k + 2, 7)
        r = rng.randrange(1, p**prec)
        if r % p == 0:
            continue
        x = PAdicNumber(p, 0, PAdicInt(p, prec, r))
        x_digits = padic_to_witt(x.unit).digits
        y = ppow(x, ExactExponent(p**k))
        y_digits = padic_to_witt(y.unit).digits
        assert y_digits[0] == x_digits[0]
        assert all(d == 0 for d in y_digits[1 : k + 1])
        assert y_digits[k + 1] == x_digits[1]


def test_exact_exponent_normalization():
    assert ExactExponent(10, 1).normalized(5) == ExactExponent(2, 0)
    assert ExactExponent(50, 1).normalized(5) == ExactExponent(10, 0)
    assert ExactExponent(3, 2).normalized(5) == ExactExponent(3, 2)
    assert ExactExponent(0, 3).normalized(5) == ExactExponent(0, 0)
    with pytest.raises(ValueError):
        ExactExponent(1, -1)


def test_exact_exponent_normalization_matches_the_division_loop():
    # u of valuation v at every 2^i - 1, 2^i and 2^i + 1 up to 2^8, and 300
    rng = random.Random(42)
    for p in (2, 3, 11, 1000003, 2**61 - 1):
        for v in sorted({0, 300} | {2**i + d for i in range(9) for d in (-1, 0, 1)}):
            u = rng.randrange(1, 2**64)
            u += u % p == 0
            for n in (u * p**v, -u * p**v):
                for k in {0, 1, v // 2, max(v - 1, 0), v, v + 1, 2 * v + 1}:
                    expected = ExactExponent(*oracles.cancel_by_division(n, k, p))
                    assert ExactExponent(n, k).normalized(p) == expected, (p, v, k)
