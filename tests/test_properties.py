"""Property tests of the Teichmuller lift, the Witt-ring isomorphism, plog/pexp and p^k-th roots
over random primes below 2^64."""

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from wittpadics import (
    PAdicInt,
    PAdicNumber,
    WittVector,
    factor_system_phi1,
    padic_to_witt,
    pexp,
    pk_root,
    plog,
    teichmuller,
    witt_add,
    witt_inv,
    witt_mul,
    witt_neg,
    witt_to_padic,
)

# sympy.prevprime(n) is the largest prime below n, so this covers 2 .. 2^64 - 59.
primes = st.integers(3, 2**64).map(sympy.prevprime)
odd_primes = st.integers(4, 2**64).map(sympy.prevprime)
precisions = st.integers(1, 40)
residues = st.integers(0, 2**2600)
# Below p = 8 a long vector repeats its digits; a random large p almost never does.
witt_primes = st.one_of(st.sampled_from((2, 3, 5, 7)), primes)


@settings(deadline=None)
@given(primes, precisions, residues, residues)
def test_teichmuller_lift_properties(p, k, a, b):
    m = p**k
    wa = teichmuller(PAdicInt(p, k, a))
    wb = teichmuller(PAdicInt(p, k, b))
    assert wa.residue % p == a % p
    assert pow(wa.residue, p, m) == wa.residue
    assert teichmuller(wa) == wa
    assert wa * wb == teichmuller(PAdicInt(p, k, a * b))


@settings(deadline=None)
@given(primes, st.integers(2, 40), residues, residues, residues)
def test_log_and_exp_are_inverse_homomorphisms(p, k, a, b, c):
    # The domains: principal units 1 + qZ_p and arguments qZ_p, q = 4 for p = 2.
    q = 4 if p == 2 else p
    x = PAdicInt(p, k, 1 + q * a)
    y = PAdicInt(p, k, 1 + q * b)
    theta = PAdicInt(p, k, q * c)
    assert pexp(plog(x)) == x
    assert plog(pexp(theta)) == theta
    assert plog(x * y) == plog(x) + plog(y)
    assert pexp(theta + plog(y)) == pexp(theta) * y


@settings(deadline=None)
@given(odd_primes, st.integers(3, 40), st.sampled_from((1, 2)), residues)
def test_pk_root_of_a_pk_th_power(p, K, k, a):
    assume(a % p)
    x = PAdicInt(p, K, a)
    report = pk_root(PAdicNumber(p, 0, PAdicInt(p, K, pow(a, p**k, p**K))), k)
    assert report.exists and report.output_precision == K - k
    assert [r.unit for r in report.roots] == [x.with_precision(K - k)]
    assert report.roots[0].valuation == 0


def _witt_vectors(p, K):
    digit = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
    return st.lists(digit, min_size=K, max_size=K).map(lambda ds: WittVector(p, tuple(ds)))


@settings(deadline=None, max_examples=60)
@given(witt_primes, st.integers(1, 40), st.sampled_from(("add", "mul", "neg", "inv")), st.data())
def test_witt_ring_isomorphism(p, K, op, data):
    x, y = data.draw(_witt_vectors(p, K)), data.draw(_witt_vectors(p, K))
    m = p**K
    a = oracles.witt_residue_by_power(p, K, x.digits)
    b = oracles.witt_residue_by_power(p, K, y.digits)
    assert witt_to_padic(x).residue == a
    assert witt_to_padic(y).residue == b
    if op == "add":
        got, want = witt_add(x, y), a + b
    elif op == "mul":
        got, want = witt_mul(x, y), a * b
    elif op == "neg":
        got, want = witt_neg(x), -a
    else:
        assume(x.digits[0])
        got, want = witt_inv(x), oracles.inverse_by_egcd(a, m)
    digits = oracles.witt_digits_by_peel(p, K, want)
    assert padic_to_witt(PAdicInt(p, K, want)).digits == digits
    assert got.digits == digits


@settings(deadline=None)
@given(st.one_of(st.sampled_from((3, 5, 7)), odd_primes), residues, residues)
def test_length_two_carry_is_phi1(p, x0, y0):
    total = witt_add(WittVector(p, (x0, 0)), WittVector(p, (y0, 0)))
    assert total.digits == ((x0 + y0) % p, factor_system_phi1(p, x0, y0))
