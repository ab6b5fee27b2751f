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

__all__ = ["BaseNotCoprime", "ModExpCircuit", "modexp_plan", "modexp_depth", "build_modexp"]


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


def modexp_depth(
    m: int, blocks: tuple[tuple[BlockCircuit, bool], ...], depth_model: DepthModel
) -> tuple[int, int, int]:
    """Depth, ancillae and qubits of the exponentiation mod M whose
    positions are `blocks` (`ModExpCircuit.blocks`) under `depth_model`:
    each block's depth plus that of the two CSWAP layers around it."""
    wrap = BlockCircuit(m, 1, (BlockOp(CSWAP_LAYER),) * 2)
    depth = len(blocks) * circuit_depth(wrap, depth_model)
    depth += sum(circuit_depth(block, depth_model) for block, _ in blocks)
    n = m.bit_length()
    ancillae = depth_model.modexp_ancillae(n)
    # data register n + exponent register 2n, plus regime ancillae (which
    # include the second multiplication register)
    return depth, ancillae, 3 * n + ancillae


def build_modexp(
    m: int,
    b: int = 2,
    cfg: SynthesisConfig | None = None,
    depth_model: DepthModel | None = None,
) -> ModExpCircuit:
    """Synthesize the 2n conditional positions and total the resources,
    depth, ancillae and qubits under `depth_model` (`modexp_depth`).

    Positions whose multiplier collapses to 1 keep their two CSWAP_LAYER
    wrappers but carry an empty block.
    """
    cfg = cfg or SynthesisConfig()
    multipliers = modexp_plan(m, b)
    model: CostModel = cfg.cost_model

    # a position's two CSWAP layers, priced as the identity circuit they form
    wrap_toffoli, wrap_cnot = circuit_cost(BlockCircuit(m, 1, (BlockOp(CSWAP_LAYER),) * 2), model)

    cache: dict[int, BlockCircuit] = {}  # distinct multipliers, synthesized once
    for c in multipliers:
        if c not in cache:
            cache[c] = synthesize(c, m, cfg)
    blocks = tuple((cache[c], True) for c in multipliers)
    toffoli, cnot = len(blocks) * wrap_toffoli, len(blocks) * wrap_cnot
    for block, _ in blocks:
        t, k = circuit_cost(block, model)
        toffoli += t
        cnot += k
    # depth, ancillae and qubits, in ModExpCircuit's field order
    depth_totals = modexp_depth(m, blocks, depth_model or DepthModel.ripple())
    return ModExpCircuit(blocks, toffoli, cnot, *depth_totals, len(cache))
