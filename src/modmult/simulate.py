"""Classical block-semantics simulator and verification oracle.

Every block acts bijectively on (Z_M)^2, so a circuit is verified as a
permutation: for each tested x the result register must hold C*x mod M and
the other register must return to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    R1,
    BlockCircuit,
    BlockOp,
    FanoutOnNonzero,
    apply_block,
    inverse_op,
)

__all__ = [
    "MachineState",
    "FanoutOnNonzero",
    "VerifyReport",
    "apply_op",
    "inverse_op",
    "run_circuit",
    "circuit_images",
    "verify",
]

# Fixed 64-bit linear congruential generator for sampled verification
# (Knuth's MMIX multiplier); the seed is echoed in the report.
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class MachineState:
    r1: int
    r2: int
    modulus: int

    def __post_init__(self) -> None:
        if not (0 <= self.r1 < self.modulus and 0 <= self.r2 < self.modulus):
            raise ValueError("register values must lie in [0, M)")


def apply_op(s: MachineState, op: BlockOp) -> MachineState:
    m = s.modulus
    return MachineState(*apply_block(op, s.r1, s.r2, m, (m + 1) // 2), m)


def run_circuit(c: BlockCircuit, x: int) -> MachineState:
    """Fold apply_op over the circuit starting from (x, 0)."""
    s = MachineState(x % c.modulus, 0, c.modulus)
    for op in c.ops:
        s = apply_op(s, op)
    return s


def circuit_images(c: BlockCircuit, xs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Run the circuit on every input at once; returns final (r1, r2) arrays.

    xs defaults to all of [0, M) as int64; the arithmetic keeps the dtype
    of xs, so pass an object array when M >= 2^31.
    """
    m = c.modulus
    r1 = np.arange(m, dtype=np.int64) if xs is None else np.asarray(xs) % m
    r2 = np.zeros_like(r1)
    inv2 = (m + 1) // 2
    for op in c.ops:
        r1, r2 = apply_block(op, r1, r2, m, inv2)
    return r1, r2


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
    mode draws from the fixed LCG, as exact Python ints at any width. Both
    check that distinct tested inputs map to distinct results. Failures
    are data, not exceptions, listed in input order; exhaustive mode ends
    the list with (-1, total, 0) when more than max_failures inputs fail.
    """
    m, cmul = c.modulus, c.multiplier % c.modulus
    if exhaustive:
        if m > _EXHAUSTIVE_CAP:
            raise ValueError(f"modulus {m} too large for exhaustive verification")
        xs, mode, seed = np.arange(m, dtype=np.int64), "exhaustive", None
    else:
        xs, mode = np.array(_lcg_samples(seed, samples, m), dtype=object), f"sampled({samples})"
    r1, r2 = circuit_images(c, xs)
    res, other = (r1, r2) if c.result_register == R1 else (r2, r1)
    bad = np.flatnonzero((res != xs * cmul % m) | (other != 0))
    failures = [(int(xs[i]), int(res[i]), int(other[i])) for i in bad[:max_failures]]
    injective = len(np.unique(res)) == (m if exhaustive else len(set(xs)))
    if exhaustive and len(bad) > max_failures:
        failures.append((-1, int(len(bad)), 0))
    return VerifyReport(cmul, m, mode, len(xs), tuple(failures), injective, seed)
