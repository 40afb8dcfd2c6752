"""Roots built by the inverse-free Newton lift on y^n = x, against the polar route and brute force."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import wittpadics
from wittpadics import (
    ExactExponent,
    PAdicInt,
    PAdicNumber,
    RootCondition,
    SelfCheckFailed,
    general_root,
    hensel_kth_root,
    pk_root,
    ppow,
    sqrt_2adic,
)
from wittpadics.cli import main
from wittpadics.padic import _lift_root

PRIMES = (2, 3, 5, 7, 11, 101, 1000003, 2**61 - 1)


@st.composite
def powers(draw):
    """(p, K, k, u, x): x a p^k-th power of a random unit mod p^K, u/p^k in lowest terms."""
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.integers(1, 3))
    K = draw(st.integers(k + 1 + (p == 2), 256))
    z = draw(st.integers(1, p**K - 1).filter(lambda z: z % p))
    u = draw(
        st.one_of(
            st.integers(-40, 40),
            st.integers(-6, 6).map(lambda j: j * (p - 1)),
        ).filter(lambda u: u % p)
    )
    return p, K, k, u, pow(z, p**k, p**K)


@settings(deadline=None, max_examples=200)
@given(powers(), st.integers(-2, 2))
def test_ppow_matches_the_polar_oracle(case, scale):
    p, K, k, u, x = case
    value = PAdicNumber(p, scale * p**k, PAdicInt(p, K, x))
    result = ppow(value, ExactExponent(u, k))
    assert result.valuation == scale * u
    assert result.unit == PAdicInt(p, K - k, oracles.root_by_polar(p, K, k, u, x))


@settings(deadline=None, max_examples=100)
@given(powers())
def test_every_root_routine_returns_the_polar_root(case):
    p, K, k, _, x = case
    root = oracles.root_by_polar(p, K, k, 1, x)
    value = PAdicNumber(p, 0, PAdicInt(p, K, x))
    if p == 2:
        if k == 1:
            pair = sqrt_2adic(value).roots
            assert [r.unit.residue for r in pair] == sorted((root, -root % 2 ** (K - 1)))
        return
    assert pk_root(value, k).roots == (PAdicNumber(p, 0, PAdicInt(p, K - k, root)),)
    assert general_root(value, p**k).roots == (PAdicNumber(p, 0, PAdicInt(p, K - k, root)),)


def _small_cases():
    # every (p, K) with p^K <= 2^12 and at least two digits, with each k it allows
    for p in (2, 3, 5, 7, 11, 13, 61):
        K = 2
        while p**K <= 2**12:
            for k in range(1, 4):
                if K >= k + 1 + (p == 2):
                    yield p, K, k
            K += 1


@pytest.mark.parametrize("p,K,k", list(_small_cases()))
def test_roots_of_every_unit_match_brute_force(p, K, k):
    m, n = p**K, p ** (K - k)
    roots = {}
    for y in range(1, m):
        if y % p:
            roots.setdefault(pow(y, p**k, m), set()).add(y % n)
    for x in range(1, m):
        if x % p == 0:
            continue
        value = PAdicNumber(p, 0, PAdicInt(p, K, x))
        expected = roots.get(x, set())
        if p == 2:
            # the brute-force roots are the pair +-y; the library's is 1 mod 4
            if not expected:
                with pytest.raises(RootCondition):
                    ppow(value, ExactExponent(1, k))
                continue
            y = ppow(value, ExactExponent(1, k)).unit.residue
            assert y % 4 == 1 and expected == {y, -y % n}
            if k == 1:
                assert {r.unit.residue for r in sqrt_2adic(value).roots} == expected
        else:
            report = pk_root(value, k)
            assert report.exists == bool(expected)
            assert {r.unit.residue for r in report.roots} == expected


@pytest.mark.parametrize("p,m_prime,K", [(3, 2, 6), (3, 4, 5), (5, 2, 4), (5, 4, 4), (7, 3, 3), (7, 6, 3)])
def test_general_root_of_degree_p_times_m_prime_matches_brute_force(p, m_prime, K):
    m, mod, n = p * m_prime, p**K, p ** (K - 1)
    roots = {}
    for y in range(1, mod):
        if y % p:
            roots.setdefault(pow(y, m, mod), set()).add(y % n)
    for x in range(1, mod):
        if x % p:
            report = general_root(PAdicNumber(p, 0, PAdicInt(p, K, x)), m)
            assert {r.unit.residue for r in report.roots} == roots.get(x, set())
            assert report.exists == (x in roots)


@pytest.mark.parametrize("p", [q for q in range(3, 102) if all(q % d for d in range(2, q))])
def test_hensel_returns_one_root_per_root_mod_p(p):
    K = 3
    rng = random.Random(p)
    for degree in (2, 3, 4, 5, 6, 10, 12):
        if degree % p == 0:
            continue
        for a in rng.sample(range(1, p), min(p - 1, 12)):
            x = a + p * rng.randrange(p ** (K - 1))
            roots = hensel_kth_root(PAdicInt(p, K, x), degree)
            mod_p = [r for r in range(1, p) if pow(r, degree, p) == a]
            assert len(roots) == len(mod_p) in (0, gcd(degree, p - 1))
            assert sorted(r.residue % p for r in roots) == mod_p
            assert all(pow(r.residue, degree, p**K) == x for r in roots)


@pytest.mark.parametrize("p", (2, 3, 11, 1000003))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_a_root_from_the_fewest_digits_is_its_start_digit(p, k):
    # K - k = 1 digit (2 at p = 2): no Newton step runs, and the closing check alone verifies the start
    K = k + 1 + (p == 2)
    start = 1 + (p == 2)
    for z in (z for z in (1, 2, 3, 5, p - 1) if z % p):
        x = pow(z, p**k, p**K)
        root = ppow(PAdicNumber(p, 0, PAdicInt(p, K, x)), ExactExponent(1, k)).unit
        assert root == PAdicInt(p, start, x)
        assert pow(root.residue, p**k, p**K) == x


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize("K", (8, 9, 64, 255))
def test_two_adic_root_at_the_edge_of_the_criterion(k, K):
    # x = 1 mod 2^(k+2) but not mod 2^(k+3): the root exists, and it is 1 mod 4 but not 1 mod 8
    rng = random.Random(K * 4 + k)
    for _ in range(5):
        x = 1 + 2 ** (k + 2) * (2 * rng.randrange(2 ** (K - k - 3)) + 1)
        y = ppow(PAdicNumber(2, 0, PAdicInt(2, K, x)), ExactExponent(1, k)).unit
        assert y.residue % 8 == 5
        assert pow(y.residue, 2**k, 2**K) == x
        assert y.residue == oracles.root_by_polar(2, K, k, 1, x)


def test_roots_run_no_log_exp_or_polar(monkeypatch):
    def refuse(*args):
        raise AssertionError("the root path ran the polar route")

    for name in ("plog", "pexp", "polar", "recompose"):
        monkeypatch.setattr(wittpadics.analytic, name, refuse)
    x = PAdicNumber(11, 0, PAdicInt(11, 64, pow(3, 11**2 * 5, 11**64)))
    assert pk_root(x, 2).exists
    assert ppow(x, ExactExponent(-5, 2)).unit.precision == 62
    assert len(general_root(x, 11 * 5).roots) == 5
    assert sqrt_2adic(PAdicNumber(2, 0, PAdicInt(2, 64, 3**2))).exists


@pytest.mark.parametrize("p,n,v", [(2, 2, 1), (2, 8, 3), (3, 9, 2), (11, 11, 1), (7, 2, 0), (101, 505, 1)])
def test_a_wrong_start_digit_fails_the_closing_check(p, n, v):
    # x = 5^n: the root that is 5 mod p (mod 4 at p = 2) is 5; one above it is no root mod p (mod 4)
    K = 40
    x = PAdicInt(p, K, pow(5, n, p**K))
    assert _lift_root(x, n, 5) == PAdicInt(p, K - v, 5)
    with pytest.raises(SelfCheckFailed, match="lifted root"):
        _lift_root(x, n, 6)


@pytest.mark.parametrize("output", ["human", "json"])
def test_a_wrong_root_step_exits_one_without_a_traceback(capsys, monkeypatch, output):
    lift = wittpadics.roots._lift_root
    monkeypatch.setattr(wittpadics.roots, "_lift_root", lambda x, n, r: lift(x, n, r + 1))
    code = main(["root", "--p", "11", "--degree", "11", "--value", "3", "--precision", "6", "--output", output])
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in out + err
    assert "lifted root" in (out if output == "json" else err)
