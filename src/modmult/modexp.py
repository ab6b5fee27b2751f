"""Assembly of full modular-exponentiation circuits.

An exponentiation by a 2n-bit exponent is 2n conditional positions, each
wrapping an unconditional multiplication block for C_i = b^(2^i) mod M in
a pair of controlled-swap layers against a zero register. Squaring orbits
repeat quickly, so distinct blocks are synthesized once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .circuit import (
    CSWAP_LAYER,
    BlockCircuit,
    BlockOp,
    CostModel,
    DepthModel,
    circuit_cost,
    circuit_depth,
)
from .numtheory import Modulus
from .synth import SynthesisConfig, synthesize

__all__ = ["BaseNotCoprime", "ModExpCircuit", "modexp_plan", "build_modexp"]


class BaseNotCoprime(ValueError):
    pass


@dataclass(frozen=True)
class ModExpCircuit:
    blocks: tuple[tuple[BlockCircuit, bool], ...]  # (UM block, cswap-wrapped)
    toffoli: int
    cnot: int
    depth: int
    ancilla_count: int
    qubit_count: int
    distinct_blocks: int

    @property
    def positions(self) -> int:
        return len(self.blocks)


def modexp_plan(m: int, b: int = 2) -> tuple[int, ...]:
    """The 2n multipliers C_i = b^(2^i) mod M, i = 0 .. 2n-1, by repeated
    modular squaring."""
    Modulus(m)
    if gcd(b, m) != 1:
        raise BaseNotCoprime(f"gcd({b}, {m}) != 1")
    mults = [b % m]
    while len(mults) < 2 * m.bit_length():
        mults.append(mults[-1] * mults[-1] % m)
    return tuple(mults)


def build_modexp(
    m: int,
    b: int = 2,
    cfg: SynthesisConfig | None = None,
    depth_model: DepthModel | None = None,
) -> ModExpCircuit:
    """Synthesize the 2n conditional positions and total the resources.

    Positions whose multiplier collapses to 1 keep their two CSWAP_LAYER
    wrappers but carry an empty block.
    """
    cfg = cfg or SynthesisConfig()
    depth_model = depth_model or DepthModel.ripple()
    multipliers = modexp_plan(m, b)
    n = m.bit_length()
    model: CostModel = cfg.cost_model

    # a position's two CSWAP layers, priced as the identity circuit they form
    wrap = BlockCircuit(m, 1, (BlockOp(CSWAP_LAYER),) * 2)
    wrap_toffoli, wrap_cnot = circuit_cost(wrap, model)
    wrap_depth = circuit_depth(wrap, depth_model)

    cache: dict[int, BlockCircuit] = {}  # distinct multipliers, synthesized once
    toffoli = cnot = depth = 0
    blocks: list[tuple[BlockCircuit, bool]] = []
    for c in multipliers:
        if c not in cache:
            cache[c] = synthesize(c, m, cfg)
        block = cache[c]
        t, k = circuit_cost(block, model)
        toffoli += t
        cnot += k
        depth += circuit_depth(block, depth_model)
        blocks.append((block, True))
    positions = len(blocks)
    toffoli += positions * wrap_toffoli
    cnot += positions * wrap_cnot
    depth += positions * wrap_depth
    ancillae = depth_model.modexp_ancillae(n)
    # data register n + exponent register 2n, plus regime ancillae (which
    # include the second multiplication register)
    qubits = 3 * n + ancillae
    return ModExpCircuit(
        blocks=tuple(blocks),
        toffoli=toffoli,
        cnot=cnot,
        depth=depth,
        ancilla_count=ancillae,
        qubit_count=qubits,
        distinct_blocks=len(cache),
    )
