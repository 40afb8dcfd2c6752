"""Property tests of the Teichmuller lift over random primes below 2^64."""

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wittpadics import PAdicInt, teichmuller

# sympy.prevprime(n) is the largest prime below n, so this covers 2 .. 2^64 - 59.
primes = st.integers(3, 2**64).map(sympy.prevprime)
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
