"""The prime sieve and the primality test against sympy."""

import pytest
import sympy

from wittpadics import primes_up_to
from wittpadics.primes import SEGMENT, is_prime, odd_prime_segments

# Limits around 2^15, where p^2 outgrows one 30-bit digit of a Python int,
# and two apart on either side of the first two segment edges.
EDGE_LIMITS = [32749, 32768, 32771, *range(2 * SEGMENT - 2, 2 * SEGMENT + 3), *range(4 * SEGMENT - 2, 4 * SEGMENT + 3)]


def test_sieve_matches_sympy_for_every_small_limit():
    for limit in range(-3, 301):
        assert primes_up_to(limit) == list(sympy.primerange(limit + 1)), limit


@pytest.mark.parametrize("limit", [3, 4, 5, 400, *EDGE_LIMITS])
def test_each_segment_holds_the_odd_primes_of_its_range(limit):
    segments = list(odd_prime_segments(limit))
    odd_numbers = (limit + 1) // 2
    assert len(segments) == -(-odd_numbers // SEGMENT)
    for i, primes in enumerate(segments):
        low, high = 2 * SEGMENT * i + 1, min(2 * SEGMENT * (i + 1) - 1, limit)
        assert primes == list(sympy.primerange(max(low, 3), high + 1)), (limit, i)


@pytest.mark.parametrize("limit, count", [(10**4, 1229), (10**6 + 1, 78498)])
def test_sieve_matches_sympy_at_large_limits(limit, count):
    primes = primes_up_to(limit)
    assert len(primes) == count
    assert primes == list(sympy.primerange(limit + 1))


def test_is_prime_cache_stays_bounded():
    maxsize = is_prime.cache_info().maxsize
    odd = range(2**40 + 1, 2**40 + 2 * (maxsize + 100), 2)
    assert [is_prime(n) for n in odd] == [sympy.isprime(n) for n in odd]
    assert is_prime.cache_info().currsize <= maxsize
