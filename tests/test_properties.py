"""Property tests of the Teichmuller lift, plog/pexp and p^k-th roots over random primes below 2^64."""

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wittpadics import PAdicInt, PAdicNumber, pexp, pk_root, plog, teichmuller

# sympy.prevprime(n) is the largest prime below n, so this covers 2 .. 2^64 - 59.
primes = st.integers(3, 2**64).map(sympy.prevprime)
odd_primes = st.integers(4, 2**64).map(sympy.prevprime)
precisions = st.integers(1, 40)
residues = st.integers(0, 2**2600)


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
