"""Deterministic Miller-Rabin below 2**64: the reference that pins the
fixed primes of `trihom.exactla.PRIMES`."""

from __future__ import annotations

# the first twelve primes suffice as witnesses for every n < 2**64
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2**64."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
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
