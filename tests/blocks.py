"""Scalar block semantics for tests: one block, or a whole circuit folded
from (x, 0), on Python ints through `apply_block`."""

from modmult.circuit import BlockCircuit, BlockOp, apply_block


def step(op: BlockOp, r1: int, r2: int, m: int) -> tuple[int, int]:
    """(r1, r2) after one block mod m."""
    return apply_block(op, r1, r2, m, (m + 1) // 2)


def fold(c: BlockCircuit, x: int) -> tuple[int, int]:
    """(r1, r2) after every op of c, starting from (x mod M, 0)."""
    m = c.modulus
    r1, r2 = x % m, 0
    for op in c.ops:
        r1, r2 = step(op, r1, r2, m)
    return r1, r2
