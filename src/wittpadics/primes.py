"""Primality checking and prime enumeration."""

import itertools
from collections.abc import Iterator
from functools import lru_cache
from math import isqrt

from .errors import NotPrime

#: Primes at or above this bound are rejected everywhere in the package.
PRIME_BOUND = 2**64

# Witness set making Miller-Rabin deterministic for all n < 3.3e24 > 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=2**12)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, valid for n < 2^64."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Reject p unless it is a prime below the supported bound."""
    if not isinstance(p, int):
        raise NotPrime(f"p must be an integer, got {type(p).__name__}")
    if p >= PRIME_BOUND:
        raise NotPrime(f"p = {p} exceeds the supported bound 2^64")
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")


#: Odd numbers per segment of `odd_prime_segments`.
SEGMENT = 2**15


def odd_prime_segments(limit: int) -> Iterator[list[int]]:
    """The odd primes <= limit, ascending, one list per segment of SEGMENT odd numbers.

    A sieve of Eratosthenes in which flags[j] stands for 2(start + j) + 1.  Only
    the primes up to isqrt(limit) live across segments, so memory is
    O(sqrt(limit) + SEGMENT).
    """
    base = primes_up_to(isqrt(limit))[1:]
    total = (limit + 1) // 2
    for start in range(0, total, SEGMENT):
        n = min(SEGMENT, total - start)
        flags = bytearray([1]) * n
        for q in base:
            j = q * q // 2
            if j >= start + n:
                break
            if j < start:
                # The odd multiples of q sit at the indices j = q // 2 mod q.
                j += (start - j + q - 1) // q * q
            j -= start
            flags[j::q] = bytes((n - 1 - j) // q + 1)
        if start == 0:
            flags[0] = 0
        yield list(itertools.compress(range(2 * start + 1, 2 * (start + n), 2), flags))


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit: 2, then the odd primes of `odd_prime_segments`."""
    if limit < 2:
        return []
    return [2, *itertools.chain.from_iterable(odd_prime_segments(limit))]
