"""Primality checking and prime enumeration."""

import itertools
from functools import lru_cache

from .errors import NotPrime

#: Primes at or above this bound are rejected everywhere in the package.
PRIME_BOUND = 2**64

# Witness set making Miller-Rabin deterministic for all n < 3.3e24 > 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None)
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


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by a sieve of Eratosthenes in which flags[j] stands for 2j + 1."""
    if limit < 2:
        return []
    n = (limit + 1) // 2
    flags = bytearray([1]) * n
    flags[0] = 0
    i = 3
    while i * i <= limit:
        if flags[i // 2]:
            flags[i * i // 2 :: i] = bytearray(len(range(i * i // 2, n, i)))
        i += 2
    return [2, *itertools.compress(range(1, limit + 1, 2), flags)]
