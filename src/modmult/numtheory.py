"""Exact integer utilities: the modulus check, the not-coprime error, and
generation of benchmark instances (semiprime moduli, ranked primes).

Everything here is pure and deterministic; primality testing uses a fixed
witness schedule so results are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Modulus",
    "NotCoprime",
    "RankOutOfRange",
    "is_prime",
    "enumerate_semiprimes",
    "nth_largest_prime",
]


class NotCoprime(ValueError):
    """The two integers share a nontrivial factor."""


class RankOutOfRange(ValueError):
    """Fewer primes of the requested bit-width than the requested rank."""


@dataclass(frozen=True)
class Modulus:
    """An odd modulus M >= 3 with its bit-width n, 2^(n-1) <= M < 2^n."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 3:
            raise ValueError(f"modulus must be >= 3, got {self.value}")
        if self.value % 2 == 0:
            raise ValueError(f"modulus must be odd, got {self.value}")


# The trial divisors, and the witnesses of a deterministic Miller-Rabin
# below 2^64 (this witness set is exact there);
# the same fixed schedule is reused above 2^64 as a strong probable-prime
# test, so prime generation is reproducible.
_WITNESSES_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_WITNESSES_LARGE = _WITNESSES_SMALL + (
    41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107,
)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for small in _WITNESSES_SMALL:
        if p % small == 0:
            return p == small
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = _WITNESSES_SMALL if p < 1 << 64 else _WITNESSES_LARGE
    for a in witnesses:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _primes_up_to(limit: int) -> list[int]:
    """Simple sieve, ascending primes <= limit."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(limit + 1) if sieve[i]]


def enumerate_semiprimes(n: int) -> list[Modulus]:
    """All M = p*q with distinct primes p, q >= 5 and bit-width exactly n.

    The "distinct primes >= 5" rule pins down the per-width counts
    (7 at n=7, 16 at n=8, ...); admitting a factor of 3 yields a
    different modulus class. The least such M is 35, so the least width
    is 6; a width outside [6, 20] is refused.
    """
    if not 6 <= n <= 20:
        raise ValueError(f"bit-width {n} outside practical range [6, 20]")
    lo, hi = 1 << (n - 1), 1 << n
    primes = [p for p in _primes_up_to(hi // 5) if p >= 5]
    out = []
    for i, p in enumerate(primes):
        if p * p >= hi:
            break
        for q in primes[i + 1 :]:
            pq = p * q
            if pq >= hi:
                break
            if pq >= lo:
                out.append(pq)
    return [Modulus(v) for v in sorted(out)]


def nth_largest_prime(bits: int, rank: int) -> int:
    """The rank-th largest prime p with 2^(bits-1) <= p < 2^bits."""
    if bits < 3 or rank < 1:
        raise ValueError("need bits >= 3 and rank >= 1")
    found = 0
    p = (1 << bits) - 1
    lo = 1 << (bits - 1)
    while p >= lo:
        if is_prime(p):
            found += 1
            if found == rank:
                return p
        p -= 2 if p % 2 else 1
    raise RankOutOfRange(f"fewer than {rank} primes of {bits} bits")
