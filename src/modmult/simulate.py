"""Verification of a circuit against C*x mod M.

A circuit is correct when, for every x in [0, M), the result register holds
C*x mod M and the other register returns to 0. Every block is linear over
Z_M, so `verify` decides every input from one run on x = 1, at any width.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd

from .circuit import R1, BlockCircuit, apply_block

__all__ = ["VerifyReport", "verify"]


@dataclass(frozen=True)
class VerifyReport:
    circuit_multiplier: int
    modulus: int
    failures: tuple[tuple[int, int, int], ...]  # (x, got_result, got_other)
    injective: bool

    @property
    def tested(self) -> int:
        """Inputs decided: every x in [0, M)."""
        return self.modulus

    @property
    def passed(self) -> bool:
        return not self.failures and self.injective

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} C={self.circuit_multiplier} M={self.modulus} "
            f"tested={self.tested} failures={len(self.failures)} injective={self.injective}"
        )


def verify(c: BlockCircuit, max_failures: int = 32) -> VerifyReport:
    """Check result = C*x mod M and cleared ancilla for every x in [0, M),
    and that distinct inputs map to distinct results. Failures are data,
    not exceptions: the first max_failures failing x in ascending order,
    then (-1, total, 0) when more than max_failures inputs fail.

    Why one input decides: ADD, SUB, DBL, HLV and NEG are linear mod M,
    CSWAP_LAYER swaps the registers and FANOUT (op 0 only, where R2 = 0)
    copies R1, so the circuit sends (x, 0) to (a*x, b*x), with (a, b) its
    image of x = 1. Input x passes exactly when q = M / gcd(a - C, b, M)
    divides it, and the results are distinct exactly when gcd(a, M) = 1.
    """
    m, cmul = c.modulus, c.multiplier % c.modulus
    r1, r2, inv2 = 1, 0, (m + 1) // 2
    for op in c.ops:
        r1, r2 = apply_block(op, r1, r2, m, inv2)
    a, b = (r1, r2) if c.result_register == R1 else (r2, r1)
    q = m // gcd(a - cmul, b, m)
    # lazy: the first failing x lie below 2 * max_failures whatever M is
    bad = () if q == 1 else (x for x in range(m) if x % q)
    failures = [(x, a * x % m, b * x % m) for x in islice(bad, max_failures)]
    if m - m // q > max_failures:
        failures.append((-1, m - m // q, 0))
    # x -> a*x is a bijection on Z_M exactly when a is a unit
    return VerifyReport(cmul, m, tuple(failures), gcd(a, m) == 1)
