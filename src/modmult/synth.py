"""Circuit synthesis from GCD execution traces.

A GCD-style reduction of the coprime pair (M, C) down to (1, 1), read in
reverse and with each step mapped to a modular block, is a circuit that
sends (x, x) to (0, Cx): subtractions become additions, additions become
subtractions, and halvings become doublings. Three strategies are
provided -- plain subtractive Euclid, the binary GCD, and a cost-scored
k-step lookahead over the generalized move set -- plus the classical
binary-expansion baseline and shortcut circuits for power-of-two
multipliers.

The lookahead scores a sequence by its moves' prices plus the cost of
finishing with the binary GCD (Stein, 1967). That completion is priced
from odd pair to odd pair: after each subtraction the binary GCD halves
the even difference once per trailing zero.
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
)
from .numtheory import NotCoprime

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


@dataclass(frozen=True)
class GcdTrace:
    """Pairs visited by a GCD reduction, plus the move between each pair.

    First pair is the input, last pair is (1, 1); every intermediate pair
    stays coprime.
    """

    pairs: tuple[tuple[int, int], ...]
    moves: tuple[Move, ...]

    def __post_init__(self) -> None:
        if len(self.pairs) != len(self.moves) + 1:
            raise ValueError("trace needs exactly one more pair than moves")


@dataclass(frozen=True)
class SynthesisConfig:
    lookahead_depth: int = 3
    cost_model: CostModel = field(default_factory=CostModel)
    use_special_cases: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.lookahead_depth <= 5:
            raise ValueError("lookahead depth must be in [1, 5]")


# the lookahead keeps every value below _VALUE_CAP times the larger
# starting value
_VALUE_CAP = 4


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
    if gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a}, {b}) = {gcd(a, b)} != 1")
    if a < 1 or b < 1:
        raise ValueError("trace inputs must be positive")


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
    return GcdTrace(tuple(pairs), tuple(moves))


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
    return GcdTrace(tuple(pairs), tuple(moves))


def _odd_completion(a: int, b: int, add_cost: int, hlv_cost: int, memo: dict) -> int:
    """Binary-GCD completion cost from the odd coprime pair (a, b).

    One step subtracts the smaller value from the larger and halves the
    difference down to its odd part: one ADD price plus one HLV price per
    trailing zero, landing on the next odd pair. `memo` holds odd pairs
    only, filled along the path walked.
    """
    path: list[tuple[tuple[int, int], int]] = []
    pair = (a, b)
    while (tail := memo.get(pair)) is None:
        if a == b:  # (1, 1), the only equal coprime pair
            tail = memo[pair] = 0
            break
        if a < b:
            d = b - a
            z = (d & -d).bit_length() - 1
            b = d >> z
        else:
            d = a - b
            z = (d & -d).bit_length() - 1
            a = d >> z
        path.append((pair, add_cost + z * hlv_cost))
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

    A node's legal children, in `Move` order, are: halving its one even
    value, subtracting the smaller value from the larger, and the two
    additions while a + b stays under `cap`. A child at depth k, or equal
    to (1, 1), is a leaf; only inner nodes go on the explicit stack (a
    self-referencing closure would form a reference cycle that keeps `memo`
    alive until a full garbage collection). `anc` holds the pairs on the
    path from (a, b), for the no-revisit rule.

    The children of a node at depth k - 1 are all leaves, priced from odd
    parts: oa and ob of the node's values, od of |a - b| and osum of a + b.
    A child scores the node's cost, its move's price, one HLV price per
    zero stripped from its pair, and C of an odd pair, C being the
    odd-pair completion cost:
      halving child  C(oa, ob): halving the one even value is the binary-GCD
                     step, so the child scores cost + C(node)
      SUB child      C(od, ob) or C(oa, od)
      ADD children   C(osum, ob) and C(oa, osum)
    """
    best: int | None = None
    best_seq: tuple[int, ...] = ()
    memo_get = memo.get
    stack = [(a, b, (), 0, ((a, b),))]
    while stack:
        pa, pb, seq, cost, anc = stack.pop()
        prev = seq[-1] if seq else last
        undo = -1 if prev is None else _UNDO_OF[prev]
        s = pa + pb
        if len(seq) + 1 < k:
            if not pa & 1:
                children = [(0, pa >> 1, pb, hlv_cost)]
            elif not pb & 1:
                children = [(1, pa, pb >> 1, hlv_cost)]
            else:
                children = []
            # pa != pb: the only equal coprime pair is (1, 1), never a node
            if pa > pb:
                children.append((2, pa - pb, pb, add_cost))
            else:
                children.append((3, pa, pb - pa, add_cost))
            if s < cap:
                children.append((4, s, pb, add_cost))
                children.append((5, pa, s, add_cost))
            for mv, na, nb, step in children:
                if mv == undo:
                    continue
                pair = (na, nb)
                if pair in anc:
                    continue
                if na == 1 and nb == 1:
                    score = cost + step
                    if best is None or score < best or (score == best and seq + (mv,) < best_seq):
                        best, best_seq = score, seq + (mv,)
                else:
                    stack.append((na, nb, seq + (mv,), cost + step, anc + (pair,)))
            continue
        # leaf level: the least child in Move order, then one global compare
        if pa & 1:
            za, oa = 0, pa
        else:
            za = (pa & -pa).bit_length() - 1
            oa = pa >> za
        if pb & 1:
            zb, ob = 0, pb
        else:
            zb = (pb & -pb).bit_length() - 1
            ob = pb >> zb
        leaf = leaf_mv = None
        if za and (pa >> 1, pb) not in anc or zb and (pa, pb >> 1) not in anc:
            tail = memo_get((oa, ob))
            if tail is None:
                tail = _odd_completion(oa, ob, add_cost, hlv_cost, memo)
            leaf, leaf_mv = cost + hlv_cost * (za + zb) + tail, 0 if za else 1
        if pa > pb:
            d = pa - pb
            if undo != 2 and (d, pb) not in anc:
                zd = (d & -d).bit_length() - 1
                od = d >> zd
                tail = memo_get((od, ob))
                if tail is None:
                    tail = _odd_completion(od, ob, add_cost, hlv_cost, memo)
                score = cost + add_cost + hlv_cost * (zd + zb) + tail
                if leaf is None or score < leaf:
                    leaf, leaf_mv = score, 2
        else:
            d = pb - pa
            if undo != 3 and (pa, d) not in anc:
                zd = (d & -d).bit_length() - 1
                od = d >> zd
                tail = memo_get((oa, od))
                if tail is None:
                    tail = _odd_completion(oa, od, add_cost, hlv_cost, memo)
                score = cost + add_cost + hlv_cost * (za + zd) + tail
                if leaf is None or score < leaf:
                    leaf, leaf_mv = score, 3
        if s < cap:
            zs = (s & -s).bit_length() - 1
            osum = s >> zs
            if undo != 4 and (s, pb) not in anc:
                tail = memo_get((osum, ob))
                if tail is None:
                    tail = _odd_completion(osum, ob, add_cost, hlv_cost, memo)
                score = cost + add_cost + hlv_cost * (zs + zb) + tail
                if leaf is None or score < leaf:
                    leaf, leaf_mv = score, 4
            if undo != 5 and (pa, s) not in anc:
                tail = memo_get((oa, osum))
                if tail is None:
                    tail = _odd_completion(oa, osum, add_cost, hlv_cost, memo)
                score = cost + add_cost + hlv_cost * (za + zs) + tail
                if leaf is None or score < leaf:
                    leaf, leaf_mv = score, 5
        if leaf is not None:
            leaf_seq = seq + (leaf_mv,)
            if best is None or leaf < best or (leaf == best and leaf_seq < best_seq):
                best, best_seq = leaf, leaf_seq
    return None if best is None else (best, best_seq)


def lookahead_trace(
    a: int, b: int, cfg: SynthesisConfig | None = None, decisions: dict | None = None
) -> GcdTrace:
    """k-step lookahead over the generalized move set.

    Each round enumerates all irredundant move sequences of length <= k
    (shorter only when they reach (1, 1)), scores each as the cost of its
    own moves plus the binary-GCD completion cost from its final pair, and
    commits the first move of the best-scoring sequence. Values are kept
    inside [1, _VALUE_CAP*M') where M' is the larger starting value. Completion
    costs are memoized for the whole trace, keyed by odd pairs (see
    `_odd_completion`).

    A round's move depends only on (k, cap, ADD price, HLV price), its
    pair, and the move that the previous move forbids (`_UNDO_OF`). With
    `decisions`, rounds are read from and stored to the table
    decisions[(k, cap, ADD price, HLV price)], keyed by (a, b, undo); the
    trace is the same either way, and one dict may serve any moduli and
    configs.
    """
    cfg = cfg or SynthesisConfig()
    _check_coprime(a, b)
    k = cfg.lookahead_depth
    n = max(a, b).bit_length()
    model = cfg.cost_model
    add_cost = model.op_cost(ADD, n)
    hlv_cost = model.op_cost(HLV, n)
    cap = _VALUE_CAP * max(a, b)
    memo: dict[tuple[int, int], int] = {}
    decided = None
    if decisions is not None:
        decided = decisions.setdefault((k, cap, add_cost, hlv_cost), {})

    pairs = [(a, b)]
    moves: list[Move] = []
    prev_committed: Move | None = None
    undo = -1
    max_rounds = 16 * (a.bit_length() + b.bit_length()) + 64
    while (a, b) != (1, 1):
        if len(moves) > max_rounds:  # pragma: no cover - safety net
            raise RuntimeError(f"lookahead failed to converge from ({a}, {b})")
        mv = None if decided is None else decided.get((a, b, undo))
        if mv is None:
            best = _best_sequence(a, b, prev_committed, k, cap, add_cost, hlv_cost, memo)
            assert best is not None and best[1], "no legal move available"
            mv = Move(best[1][0])
            if decided is not None:
                decided[a, b, undo] = mv
        a, b = _apply_move(mv, a, b)
        moves.append(mv)
        pairs.append((a, b))
        prev_committed, undo = mv, _UNDO_OF[mv]
    return GcdTrace(tuple(pairs), tuple(moves))


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


def trace_to_circuit(t: GcdTrace, m: int) -> BlockCircuit:
    """FANOUT followed by the reversed move list as blocks.

    The trace side holding M becomes the register that ends at M*x = 0;
    the other side (starting at C) is the result register. A trace for
    C = 1 mod M, the (1, 1) trace included, gives the empty circuit.
    """
    first_a, first_b = t.pairs[0]
    if first_a == m:
        result, c = R2, first_b
    elif first_b == m:
        result, c = R1, first_a
    elif (first_a, first_b) == (1, 1):
        result, c = R1, 1
    else:
        raise ValueError(f"trace does not start from modulus {m}")
    if c % m == 1:
        return BlockCircuit(m, 1, ())
    ops = (BlockOp(FANOUT), *(_MOVE_OPS[move] for move in reversed(t.moves)))
    return BlockCircuit(m, c % m, ops, result)


# The baseline's five ops, shared by every baseline circuit as _MOVE_OPS are
# by every trace circuit.
_FANOUT = BlockOp(FANOUT)
_DBL_R1, _ADD_R1 = BlockOp(DBL, R1), BlockOp(ADD, R1, R2)
_HLV_R2, _SUB_R2 = BlockOp(HLV, R2), BlockOp(SUB, R2, R1)


def _horner_steps(value: int) -> list[bool]:
    """MSB-first bits of value after the leading 1; True = add step."""
    bits = bin(value)[3:]
    return [bit == "1" for bit in bits]


def baseline_synthesize(c: int, m: int) -> BlockCircuit:
    """Binary-expansion construction: Horner double-and-add of C on R1,
    then uncompute of the copy register driven by C^-1 mod M.

    The uncompute is the inverse of the chain that would build x into R2
    from R1 = Cx (one add for the leading bit of the inverse, then
    double/add per remaining bit), emitted as HLV/SUB blocks in reverse.
    """
    c %= m
    _check_coprime(c, m)
    if c == 1:
        return BlockCircuit(m, 1, ())
    ops = [_FANOUT]
    for add_step in _horner_steps(c):
        ops.append(_DBL_R1)
        if add_step:
            ops.append(_ADD_R1)
    # the clearing chain for D = C^-1 (ADD R2 R1, then per bit of D after
    # the leading 1: DBL R2, plus ADD R2 R1 on a 1), inverted, last op first
    for add_step in reversed(_horner_steps(pow(c, -1, m))):
        if add_step:
            ops.append(_SUB_R2)
        ops.append(_HLV_R2)
    ops.append(_SUB_R2)
    return BlockCircuit(m, c, tuple(ops), R1)


def special_synthesize(c: int, m: int) -> BlockCircuit | None:
    """Single-register shortcut for C mod M = +-2^k or +-2^-k, k < 2n:
    k doublings (or halvings) of R1, plus one negation for -C. No FANOUT
    is needed.

    For each k (ascending) the forms 2^k, 2^-k, -2^k and -2^-k are checked
    in that order; the first hit wins. Returns None when no form matches
    below the cap -- such multipliers fall through to GCD-trace synthesis.
    """
    c %= m
    _check_coprime(c, m)
    n = m.bit_length()
    inv2 = (m + 1) // 2  # 2^-1 mod M for odd M; BlockCircuit refuses an even M
    p = 1  # 2^k mod M
    ip = 1  # 2^-k mod M
    for k in range(2 * n):
        if c == p:
            shift, negate = DBL, False
        elif c == ip:
            shift, negate = HLV, False
        elif c == m - p:
            shift, negate = DBL, True
        elif c == m - ip:
            shift, negate = HLV, True
        else:
            p = (p * 2) % m
            ip = (ip * inv2) % m
            continue
        ops = [BlockOp(shift, R1)] * k
        if negate:
            ops.append(BlockOp(NEG, R1))
        return BlockCircuit(m, c, tuple(ops), R1)
    return None


def synthesize(
    c: int,
    m: int,
    cfg: SynthesisConfig | None = None,
    decisions: dict | None = None,
) -> BlockCircuit:
    """Dispatch: the special-form shortcut (the identity for C = 1
    included), else the lookahead GCD trace.

    `decisions` is passed to `lookahead_trace`, whose round decisions it
    holds."""
    cfg = cfg or SynthesisConfig()
    c %= m
    if cfg.use_special_cases and (circ := special_synthesize(c, m)) is not None:
        return circ
    return trace_to_circuit(lookahead_trace(m, c, cfg, decisions), m)
