"""The prime sieve against sympy."""

import pytest
import sympy

from wittpadics import primes_up_to


def test_sieve_matches_sympy_for_every_small_limit():
    for limit in range(-3, 301):
        assert primes_up_to(limit) == list(sympy.primerange(limit + 1)), limit


@pytest.mark.parametrize("limit, count", [(10**4, 1229), (10**6 + 1, 78498)])
def test_sieve_matches_sympy_at_large_limits(limit, count):
    primes = primes_up_to(limit)
    assert len(primes) == count
    assert primes == list(sympy.primerange(limit + 1))
