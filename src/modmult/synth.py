"""Circuit synthesis from GCD execution traces.

A GCD-style reduction of the coprime pair (M, C) down to (1, 1), read in
reverse and with each step mapped to a modular block, is a circuit that
sends (x, x) to (0, Cx): subtractions become additions, additions become
subtractions, and halvings become doublings. Three strategies are
provided -- plain subtractive Euclid, the binary GCD, and a cost-scored
k-step lookahead over the generalized move set -- plus the classical
binary-expansion baseline and shortcut circuits for power-of-two
multipliers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import gcd

from .circuit import (
    ADD,
    DBL,
    FANOUT,
    HLV,
    NEG,
    R1,
    R2,
    SUB,
    BlockCircuit,
    BlockOp,
    CostModel,
    DEFAULT_COST_MODEL,
    inverse_op,
)
from .numtheory import (
    Modulus,
    Multiplier,
    NotCoprime,
    SpecialForm,
    SpecialKind,
    detect_special,
    mod_inverse,
)

__all__ = [
    "Move",
    "GcdTrace",
    "SynthesisConfig",
    "euclid_trace",
    "binary_gcd_trace",
    "lookahead_trace",
    "trace_to_circuit",
    "baseline_synthesize",
    "special_synthesize",
    "synthesize",
    "trace_cost",
]


class Move(enum.IntEnum):
    """Reduction-direction moves; enum order is the deterministic
    tie-break order for equal-score lookahead sequences."""

    HALVE_A = 0
    HALVE_B = 1
    SUB_A = 2  # A <- A - B
    SUB_B = 3  # B <- B - A
    ADD_A = 4  # A <- A + B
    ADD_B = 5  # B <- B + A


# _UNDO_OF[mv] is the move the lookahead may not play right after mv
# (ADD and SUB on the same side undo each other; -1: none)
_UNDO_OF = (-1, -1, Move.ADD_A, Move.ADD_B, Move.SUB_A, Move.SUB_B)

EUCLID_SUBTRACTIVE = "EUCLID_SUBTRACTIVE"
BINARY = "BINARY"
LOOKAHEAD_ORIGIN = "LOOKAHEAD"


@dataclass(frozen=True)
class GcdTrace:
    """Pairs visited by a GCD reduction, plus the move between each pair.

    First pair is the input, last pair is (1, 1); every intermediate pair
    stays coprime.
    """

    pairs: tuple[tuple[int, int], ...]
    moves: tuple[Move, ...]
    origin: str

    def __post_init__(self) -> None:
        if len(self.pairs) != len(self.moves) + 1:
            raise ValueError("trace needs exactly one more pair than moves")


@dataclass(frozen=True)
class SynthesisConfig:
    lookahead_depth: int = 3
    cost_model: CostModel = field(default_factory=CostModel)
    value_cap_multiplier: int = 4
    use_special_cases: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.lookahead_depth <= 5:
            raise ValueError("lookahead depth must be in [1, 5]")
        if self.value_cap_multiplier < 2:
            raise ValueError("value cap multiplier must be >= 2")


def _apply_move(mv: Move, a: int, b: int) -> tuple[int, int]:
    if mv == Move.HALVE_A:
        return a // 2, b
    if mv == Move.HALVE_B:
        return a, b // 2
    if mv == Move.SUB_A:
        return a - b, b
    if mv == Move.SUB_B:
        return a, b - a
    if mv == Move.ADD_A:
        return a + b, b
    return a, b + a


def _check_coprime(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise ValueError("trace inputs must be positive")
    if gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a}, {b}) = {gcd(a, b)} != 1")


def euclid_trace(a: int, b: int) -> GcdTrace:
    """Subtractive Euclid: replace the larger element by the difference
    until (1, 1)."""
    _check_coprime(a, b)
    pairs = [(a, b)]
    moves: list[Move] = []
    while (a, b) != (1, 1):
        if a > b:
            a -= b
            moves.append(Move.SUB_A)
        else:
            b -= a
            moves.append(Move.SUB_B)
        pairs.append((a, b))
    return GcdTrace(tuple(pairs), tuple(moves), EUCLID_SUBTRACTIVE)


def _binary_step(a: int, b: int) -> Move:
    if a % 2 == 0:
        return Move.HALVE_A
    if b % 2 == 0:
        return Move.HALVE_B
    return Move.SUB_B if a < b else Move.SUB_A


def binary_gcd_trace(a: int, b: int) -> GcdTrace:
    """Binary GCD: halve any even element; with both odd, subtract the
    smaller from the larger."""
    _check_coprime(a, b)
    pairs = [(a, b)]
    moves: list[Move] = []
    while (a, b) != (1, 1):
        mv = _binary_step(a, b)
        a, b = _apply_move(mv, a, b)
        moves.append(mv)
        pairs.append((a, b))
    return GcdTrace(tuple(pairs), tuple(moves), BINARY)


def _move_cost(mv: Move, n: int, model: CostModel) -> int:
    # ADD/SUB moves become ADD/SUB blocks, HALVE moves become DBL blocks;
    # under symmetric models this is the block cost either way.
    return model.op_cost(HLV if mv <= Move.HALVE_B else ADD, n)


def trace_cost(t: GcdTrace, n: int, model: CostModel = DEFAULT_COST_MODEL) -> int:
    """Block cost of the circuit this trace maps to (FANOUT excluded)."""
    return sum(_move_cost(mv, n, model) for mv in t.moves)


def _completion_cost(a: int, b: int, add_cost: int, hlv_cost: int, memo: dict) -> int:
    """Cost of finishing with plain binary-GCD moves; memoized along the
    reduction path so repeated scoring is cheap."""
    path: list[tuple[tuple[int, int], int]] = []
    pair = (a, b)
    while (tail := memo.get(pair)) is None:
        if a == 1 and b == 1:
            tail = memo[pair] = 0
            break
        path.append((pair, hlv_cost if not a & 1 or not b & 1 else add_cost))
        if not a & 1:
            a >>= 1
        elif not b & 1:
            b >>= 1
        elif a < b:
            b -= a
        else:
            a -= b
        pair = (a, b)
    for pair, cost in reversed(path):
        tail += cost
        memo[pair] = tail
    return tail


def _best_sequence(
    a: int, b: int, last: Move | None, k: int, cap: int, add_cost: int, hlv_cost: int, memo: dict
) -> tuple[int, tuple[int, ...]] | None:
    """Least (score, moves) over one lookahead round's sequences from
    (a, b) != (1, 1); `last` is the move committed before (a, b).

    Children are built inline in `Move` order. A child at depth k, or equal
    to (1, 1), is a leaf and is scored on the spot; only inner nodes go on
    the explicit stack (a self-referencing closure would form a reference
    cycle that keeps `memo` alive until a full garbage collection).
    `anc` holds the pairs on the path from (a, b), for the no-revisit rule.
    """
    best: int | None = None
    best_seq: tuple[int, ...] = ()
    stack = [(a, b, (), 0, ((a, b),))]
    while stack:
        pa, pb, seq, cost, anc = stack.pop()
        prev = seq[-1] if seq else last
        undo = -1 if prev is None else _UNDO_OF[prev]
        at_leaves = len(seq) + 1 == k
        # halving an odd value gives 0, which the bounds test rejects
        for mv, na, nb, step in (
            (0, 0 if pa & 1 else pa >> 1, pb, hlv_cost),
            (1, pa, 0 if pb & 1 else pb >> 1, hlv_cost),
            (2, pa - pb, pb, add_cost),
            (3, pa, pb - pa, add_cost),
            (4, pa + pb, pb, add_cost),
            (5, pa, pb + pa, add_cost),
        ):
            if mv == undo or not (0 < na < cap and 0 < nb < cap):
                continue
            pair = (na, nb)
            if pair in anc:
                continue
            if at_leaves or (na == 1 and nb == 1):
                score = memo.get(pair)
                if score is None:
                    score = _completion_cost(na, nb, add_cost, hlv_cost, memo)
                score += cost + step
                if best is None or score < best or (score == best and seq + (mv,) < best_seq):
                    best, best_seq = score, seq + (mv,)
            else:
                stack.append((na, nb, seq + (mv,), cost + step, anc + (pair,)))
    return None if best is None else (best, best_seq)


def lookahead_trace(a: int, b: int, cfg: SynthesisConfig | None = None) -> GcdTrace:
    """k-step lookahead over the generalized move set.

    Each round enumerates all irredundant move sequences of length <= k
    (shorter only when they reach (1, 1)), scores each as the cost of its
    own moves plus the binary-GCD completion cost from its final pair, and
    commits the first move of the best-scoring sequence. Values are kept
    inside [1, cap*M') where M' is the larger starting value.
    """
    cfg = cfg or SynthesisConfig()
    _check_coprime(a, b)
    k = cfg.lookahead_depth
    n = max(a, b).bit_length()
    model = cfg.cost_model
    add_cost = model.op_cost(ADD, n)
    hlv_cost = model.op_cost(HLV, n)
    cap = cfg.value_cap_multiplier * max(a, b)
    memo: dict[tuple[int, int], int] = {}

    pairs = [(a, b)]
    moves: list[Move] = []
    prev_committed: Move | None = None
    max_rounds = 16 * (a.bit_length() + b.bit_length()) + 64
    while (a, b) != (1, 1):
        if len(moves) > max_rounds:  # pragma: no cover - safety net
            raise RuntimeError(f"lookahead failed to converge from ({a}, {b})")
        best = _best_sequence(a, b, prev_committed, k, cap, add_cost, hlv_cost, memo)
        assert best is not None and best[1], "no legal move available"
        mv = Move(best[1][0])
        a, b = _apply_move(mv, a, b)
        moves.append(mv)
        pairs.append((a, b))
        prev_committed = mv
    return GcdTrace(tuple(pairs), tuple(moves), LOOKAHEAD_ORIGIN)


# Reduction moves, reversed and inverted, as circuit blocks: SUB -> ADD,
# ADD -> SUB, HALVE -> DBL, acting on the same side (A = R1, B = R2).
_MOVE_BLOCKS = {
    Move.SUB_A: (ADD, R1, R2),
    Move.SUB_B: (ADD, R2, R1),
    Move.ADD_A: (SUB, R1, R2),
    Move.ADD_B: (SUB, R2, R1),
    Move.HALVE_A: (DBL, R1, None),
    Move.HALVE_B: (DBL, R2, None),
}
# Every circuit shares these six immutable ops: a 128-bit modulus's trace
# runs to hundreds of moves, and an op object per move costs about 100 bytes.
_MOVE_OPS = {move: BlockOp(*block) for move, block in _MOVE_BLOCKS.items()}


def trace_to_circuit(t: GcdTrace, m: int | Modulus) -> BlockCircuit:
    """FANOUT followed by the reversed move list as blocks.

    The trace side holding M becomes the register that ends at M*x = 0;
    the other side (starting at C) is the result register.
    """
    mv = m.value if isinstance(m, Modulus) else m
    first_a, first_b = t.pairs[0]
    if (first_a, first_b) == (1, 1):
        return BlockCircuit(mv, 1, mv.bit_length(), ())
    if first_a == mv:
        result, c = R2, first_b
    elif first_b == mv:
        result, c = R1, first_a
    else:
        raise ValueError(f"trace does not start from modulus {mv}")
    ops = (BlockOp(FANOUT), *(_MOVE_OPS[move] for move in reversed(t.moves)))
    return BlockCircuit(mv, c % mv, mv.bit_length(), ops, result)


def _horner_steps(value: int) -> list[bool]:
    """MSB-first bits of value after the leading 1; True = add step."""
    bits = bin(value)[3:]
    return [bit == "1" for bit in bits]


def baseline_synthesize(c: int | Multiplier, m: int | Modulus) -> BlockCircuit:
    """Binary-expansion construction: Horner double-and-add of C on R1,
    then uncompute of the copy register driven by C^-1 mod M.

    The uncompute is the inverse of the chain that would build x into R2
    from R1 = Cx (one add for the leading bit of the inverse, then
    double/add per remaining bit), emitted as HLV/SUB blocks in reverse.
    """
    mv = m.value if isinstance(m, Modulus) else m
    cv = (c.value if isinstance(c, Multiplier) else c) % mv
    _check_coprime(cv if cv else mv, mv)
    n = mv.bit_length()
    if cv == 1:
        return BlockCircuit(mv, 1, n, ())
    d = mod_inverse(cv, mv)
    ops = [BlockOp(FANOUT)]
    for add_step in _horner_steps(cv):
        ops.append(BlockOp(DBL, R1))
        if add_step:
            ops.append(BlockOp(ADD, R1, R2))
    # forward clearing chain for D, built in reverse below:
    #   ADD R2 R1; then per bit of D after the leading 1: DBL R2 (+ ADD)
    forward: list[BlockOp] = [BlockOp(ADD, R2, R1)]
    for add_step in _horner_steps(d):
        forward.append(BlockOp(DBL, R2))
        if add_step:
            forward.append(BlockOp(ADD, R2, R1))
    ops.extend(inverse_op(op) for op in reversed(forward))
    return BlockCircuit(mv, cv, n, tuple(ops), R1)


def special_synthesize(f: SpecialForm, m: int | Modulus) -> BlockCircuit:
    """Single-register shortcut: k doublings (or halvings), plus one
    negation for the negated kinds. No FANOUT is needed."""
    mv = m.value if isinstance(m, Modulus) else m
    n = mv.bit_length()
    if f.kind in (SpecialKind.POWER_OF_TWO, SpecialKind.NEG_POWER_OF_TWO):
        ops = [BlockOp(DBL, R1)] * f.k
    else:
        ops = [BlockOp(HLV, R1)] * f.k
    if f.kind in (SpecialKind.NEG_POWER_OF_TWO, SpecialKind.NEG_INVERSE_POWER_OF_TWO):
        ops.append(BlockOp(NEG, R1))
    return BlockCircuit(mv, f.multiplier(mv), n, tuple(ops), R1)


def synthesize(
    c: int | Multiplier, m: int | Modulus, cfg: SynthesisConfig | None = None
) -> BlockCircuit:
    """Dispatch: identity, special-form shortcut, or lookahead GCD trace."""
    cfg = cfg or SynthesisConfig()
    mv = m.value if isinstance(m, Modulus) else m
    cv = (c.value if isinstance(c, Multiplier) else c) % mv
    if cv == 0 or gcd(cv, mv) != 1:
        raise NotCoprime(f"gcd({cv}, {mv}) != 1")
    n = mv.bit_length()
    if cv == 1:
        return BlockCircuit(mv, 1, n, ())
    if cfg.use_special_cases:
        form = detect_special(cv, mv)
        if form is not None:
            return special_synthesize(form, mv)
    return trace_to_circuit(lookahead_trace(mv, cv, cfg), mv)
