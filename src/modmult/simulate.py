"""Verification of a circuit against C*x mod M.

A circuit is correct when, for each tested x, the result register holds
C*x mod M and the other register returns to 0. Every block is linear over
Z_M, so `verify` decides every input from one run on x = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd

from .circuit import R1, BlockCircuit, apply_block

__all__ = ["VerifyReport", "verify"]

# Fixed 64-bit linear congruential generator for sampled verification
# (Knuth's MMIX multiplier); the seed is echoed in the report.
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class VerifyReport:
    circuit_multiplier: int
    modulus: int
    mode: str
    tested: int
    failures: tuple[tuple[int, int, int], ...]  # (x, got_result, got_other)
    injective: bool
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.failures and self.injective

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" seed={self.seed}" if self.seed is not None else ""
        return (
            f"{status} C={self.circuit_multiplier} M={self.modulus} "
            f"mode={self.mode}{extra} tested={self.tested} "
            f"failures={len(self.failures)} injective={self.injective}"
        )


_EXHAUSTIVE_CAP = 1 << 20


def _lcg_samples(seed: int, count: int, m: int) -> list[int]:
    state = seed & _LCG_MASK
    out = []
    for _ in range(count):
        state = (_LCG_A * state + _LCG_C) & _LCG_MASK
        out.append(state % m)
    return out


def verify(
    c: BlockCircuit,
    exhaustive: bool = True,
    samples: int = 1000,
    seed: int = 2024,
    max_failures: int = 32,
) -> VerifyReport:
    """Check result = C*x mod M and cleared ancilla for the tested inputs.

    Exhaustive mode covers all x in [0, M) (M capped at 2^20); sampled
    mode draws `samples` >= 1 inputs from the fixed LCG. Both check that
    distinct tested inputs map to distinct results. Failures are data, not
    exceptions, listed in input order; exhaustive mode ends the list with
    (-1, total, 0) when more than max_failures inputs fail.

    Why one input decides: ADD, SUB, DBL, HLV and NEG are linear mod M,
    CSWAP_LAYER swaps the registers and FANOUT (op 0 only, where R2 = 0)
    copies R1, so the circuit sends (x, 0) to (a*x, b*x), with (a, b) its
    image of x = 1. Input x passes exactly when q = M / gcd(a - C, b, M)
    divides it, and the results are distinct exactly when gcd(a, M) = 1.
    """
    m, cmul = c.modulus, c.multiplier % c.modulus
    if exhaustive:
        if m > _EXHAUSTIVE_CAP:
            raise ValueError(f"modulus {m} too large for exhaustive verification")
        mode, seed, tested = "exhaustive", None, m
    elif samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    else:
        mode, tested = f"sampled({samples})", samples
    r1, r2, inv2 = 1, 0, (m + 1) // 2
    for op in c.ops:
        r1, r2 = apply_block(op, r1, r2, m, inv2)
    a, b = (r1, r2) if c.result_register == R1 else (r2, r1)
    q = m // gcd(a - cmul, b, m)
    # x -> a*x is a bijection on Z_M exactly when a is a unit
    unit = gcd(a, m) == 1
    if exhaustive:
        xs = range(m)
    elif q > 1 or not unit:
        xs = _lcg_samples(seed, samples, m)
    else:
        xs = ()  # every input passes and results are distinct: nothing to draw
    bad = () if q == 1 else (x for x in xs if x % q)
    failures = [(x, a * x % m, b * x % m) for x in islice(bad, max_failures)]
    if exhaustive and m - m // q > max_failures:
        failures.append((-1, m - m // q, 0))
    injective = unit or (not exhaustive and len({a * x % m for x in xs}) == len(set(xs)))
    return VerifyReport(cmul, m, mode, tested, tuple(failures), injective, seed)
