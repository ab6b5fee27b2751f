"""Circuit synthesis from GCD execution traces.

A GCD-style reduction of the coprime pair (M, C) down to (1, 1), read in
reverse and with each step mapped to a modular block, is a circuit that
sends (x, x) to (0, Cx): subtractions become additions, additions become
subtractions, and halvings become doublings. A trace (`GcdTrace`) is its
start pair and its moves. Three strategies pick the moves, each as the step
of one loop (`_reduce`): plain subtractive Euclid, the binary GCD, and a
cost-scored k-step lookahead over the generalized move set. The classical
binary-expansion baseline and shortcut circuits for multipliers +-2^+-k mod
M, looked up in one table per modulus, are also provided.

The lookahead scores a sequence by its moves' prices plus the cost of
finishing with the binary GCD (Stein, 1967). That completion is priced
from odd pair to odd pair: after each subtraction the binary GCD halves
the even difference once per trailing zero. A leaf skips the ADD onto an
even value: it scores that value's halving plus two ADD prices (see
`_leaf`). Above the leaves, `_least` writes a node's children out in `Move`
order and scores each with the scorer for its depth (`_SCORERS`); only a
round's root returns its first move beside its score. Trailing zeros are
read off a table of the low byte (`_TZ`). A round commits the first move
under which the least score lies, ties going to the least `Move`. A
sequence may pass a pair twice: `scripts/revisit_certificate.py` checks
exhaustively that no such sequence decides a round, at any prices and cap.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, count
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


_MOVES = tuple(Move)
# module-level aliases: a step function returns these without an enum lookup
_HALVE_A, _HALVE_B, _SUB_A, _SUB_B, _ADD_A, _ADD_B = _MOVES
# _UNDO_OF[mv] is the move the lookahead may not play right after mv
# (ADD and SUB on the same side undo each other; -1: none)
_UNDO_OF = (-1, -1, _ADD_A, _ADD_B, _SUB_A, _SUB_B)

_MAX_DEPTH = 5  # the deepest lookahead, and the deepest the revisit certificate covers

# The widest trace whose completion memo `decisions` carries (see
# `lookahead_trace`). Heuristic CPU, one memo per modulus against one per
# trace (median of 5): 10 bits (`sweep_n10`'s inputs, seeds 1-3) 0.165 ->
# 0.136 s; 12 bits (M = 4087, all 3,959 C) 0.546 -> 0.486 s, a memo of
# 145,753 entries; 14 bits (M = 16379, 4,000 C) 0.705 -> 0.729 s. A bench
# modulus above 12 bits takes up to 5,000 multipliers, and its memo would
# grow past a million entries for no gain.
_SHARED_MEMO_BITS = 12


@dataclass(frozen=True)
class GcdTrace:
    """A GCD reduction: its input pair and the moves that take it to (1, 1),
    every intermediate pair staying coprime."""

    start: tuple[int, int]
    moves: tuple[Move, ...]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Every pair visited, from `start` to (1, 1), replayed from the moves."""
        return tuple(
            accumulate(self.moves, lambda pair, mv: _apply_move(mv, *pair), initial=self.start)
        )


@dataclass(frozen=True)
class SynthesisConfig:
    lookahead_depth: int = 3
    cost_model: CostModel = field(default_factory=CostModel)
    use_special_cases: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.lookahead_depth <= _MAX_DEPTH:
            raise ValueError(f"lookahead depth must be in [1, {_MAX_DEPTH}]")


# the lookahead keeps every value below _VALUE_CAP times the larger
# starting value
_VALUE_CAP = 4
# _TZ[v]: the trailing zeros of the byte v != 0; _TZ[0] = 0, so a caller
# falls back to `(d & -d).bit_length() - 1` for an even d whose low byte is 0
_TZ = (0, *((v & -v).bit_length() - 1 for v in range(1, 256)))


def _apply_move(mv: Move, a: int, b: int) -> tuple[int, int]:
    # int codes, as in `_least`: an enum member lookup per compare is slower
    if mv < 2:
        return (a >> 1, b) if mv == 0 else (a, b >> 1)
    if mv < 4:
        return (a - b, b) if mv == 2 else (a, b - a)
    return (a + b, b) if mv == 4 else (a, b + a)


def _check_coprime(a: int, b: int) -> None:
    if gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a}, {b}) = {gcd(a, b)} != 1")
    if a < 1 or b < 1:
        raise ValueError("trace inputs must be positive")


def _reduce(a: int, b: int, choose: Callable[[int, int, int], Move]) -> GcdTrace:
    """Play the moves `choose(a, b, undo)` picks from the coprime pair (a, b)
    down to (1, 1); `undo` is the move the last move forbids (`_UNDO_OF`)."""
    _check_coprime(a, b)
    start = (a, b)
    moves: list[Move] = []
    undo = -1
    while a != b:  # (1, 1), the only equal coprime pair
        mv = choose(a, b, undo)
        a, b = _apply_move(mv, a, b)
        moves.append(mv)
        undo = _UNDO_OF[mv]
    return GcdTrace(start, tuple(moves))


def _euclid_step(a: int, b: int, undo: int) -> Move:
    return _SUB_A if a > b else _SUB_B


def _binary_step(a: int, b: int, undo: int = -1) -> Move:
    if not a & 1:
        return _HALVE_A
    if not b & 1:
        return _HALVE_B
    return _SUB_B if a < b else _SUB_A


def euclid_trace(a: int, b: int) -> GcdTrace:
    """Subtractive Euclid: replace the larger element by the difference
    until (1, 1)."""
    return _reduce(a, b, _euclid_step)


def binary_gcd_trace(a: int, b: int) -> GcdTrace:
    """Binary GCD: halve any even element; with both odd, subtract the
    smaller from the larger."""
    return _reduce(a, b, _binary_step)


def _odd_completion(a: int, b: int, add_cost: int, hlv_cost: int, memo: dict) -> int:
    """Binary-GCD completion cost from the odd coprime pair (a, b), which
    the caller has looked up in `memo` and missed.

    One step subtracts the smaller value from the larger and halves the
    difference down to its odd part: one ADD price plus one HLV price per
    trailing zero, landing on the next odd pair. The walk stops at (1, 1)
    or at the first later pair `memo` holds. `memo` holds odd pairs only;
    every pair walked is stored with its own cost. A cost depends on the
    pair and the two prices only, so one memo may serve every trace at
    those prices, of any modulus and cap (see `lookahead_trace`).
    """
    steps: list[tuple[tuple[int, int], int]] = []
    pair = (a, b)
    while a != b:  # (1, 1), the only equal coprime pair
        if a < b:
            d = b - a
            z = _TZ[d & 255] or (d & -d).bit_length() - 1
            b = d >> z
        else:
            d = a - b
            z = _TZ[d & 255] or (d & -d).bit_length() - 1
            a = d >> z
        steps.append((pair, add_cost + z * hlv_cost))
        pair = (a, b)
        if (tail := memo.get(pair)) is not None:
            break
    else:
        tail = memo[pair] = 0
    for pair, cost in reversed(steps):
        tail += cost
        memo[pair] = tail
    return tail


def _leaf(
    a: int, b: int, undo: int, cap: int, add_cost: int, hlv_cost: int, memo: dict, r: int = 1
) -> int | None:
    """Least score over the children of (a, b), all leaves: 0 at (1, 1), None
    when no child is legal. `undo` is the move (a, b)'s own move forbids. The
    depth `r` (1: one move left) is unused; `_least` passes it to any scorer.

    A child scores its move's price, one HLV price per zero stripped from its
    pair, and the completion cost of its pair's odd parts (for the halving
    child those of (a, b): halving is the binary-GCD step).

    The ADD child onto an even value is not scored: its pair is odd, and its
    completion subtracts back to (a, b) and halves, so it scores the halving
    child plus two ADD prices, never less. Only at a leaf: one level up, the
    ADD child's subtree can be the cheaper one."""
    if a == b:  # (1, 1), the only equal coprime pair
        return 0
    # odd values skip the table and the shift; with one value even, the
    # difference and the sum are odd
    if a & 1:
        za, oa = 0, a
    else:
        za = _TZ[a & 255] or (a & -a).bit_length() - 1
        oa = a >> za
    if b & 1:
        zb, ob = 0, b
    else:
        zb = _TZ[b & 255] or (b & -b).bit_length() - 1
        ob = b >> zb
    least = None
    if za or zb:
        tail = memo.get((oa, ob)) or _odd_completion(oa, ob, add_cost, hlv_cost, memo)
        least = hlv_cost * (za + zb) + tail
    if a > b:
        d = a - b
        sub = undo != 2
    else:
        d = b - a
        sub = undo != 3
    if sub:
        if d & 1:
            zd, od = 0, d
        else:
            zd = _TZ[d & 255] or (d & -d).bit_length() - 1
            od = d >> zd
        x, y, z = (od, ob, zd + zb) if a > b else (oa, od, za + zd)
        tail = memo.get((x, y)) or _odd_completion(x, y, add_cost, hlv_cost, memo)
        score = add_cost + hlv_cost * z + tail
        if least is None or score < least:
            least = score
    s = a + b
    if s < cap:
        if s & 1:
            zs, osum = 0, s
        else:
            zs = _TZ[s & 255] or (s & -s).bit_length() - 1
            osum = s >> zs
        if undo != 4 and not za:
            tail = memo.get((osum, ob)) or _odd_completion(osum, ob, add_cost, hlv_cost, memo)
            score = add_cost + hlv_cost * (zs + zb) + tail
            if least is None or score < least:
                least = score
        if undo != 5 and not zb:
            tail = memo.get((oa, osum)) or _odd_completion(oa, osum, add_cost, hlv_cost, memo)
            score = add_cost + hlv_cost * (za + zs) + tail
            if least is None or score < least:
                least = score
    return least


def _completion(
    a: int, b: int, undo: int, cap: int, add_cost: int, hlv_cost: int, memo: dict, r: int = 0
) -> int:
    """The score of (a, b) as a sequence's last pair: one HLV price per zero
    stripped from it, plus its odd parts' completion cost. It takes `_leaf`'s
    arguments, `undo`, `cap` and `r` unused, so `_least` scores a child alike
    at every depth."""
    za = 0 if a & 1 else _TZ[a & 255] or (a & -a).bit_length() - 1
    zb = 0 if b & 1 else _TZ[b & 255] or (b & -b).bit_length() - 1
    x, y = a >> za, b >> zb
    tail = memo.get((x, y)) or _odd_completion(x, y, add_cost, hlv_cost, memo)
    return hlv_cost * (za + zb) + tail


def _least(
    a: int, b: int, undo: int, cap: int, add_cost: int, hlv_cost: int, memo: dict, r: int,
    root: bool = False,
) -> int | None | tuple[int | None, int]:
    """Least score over the move sequences of length <= r >= 1 from (a, b),
    shorter only where they reach (1, 1): 0 at (1, 1), None when there is
    none. `undo` is as for `_leaf`. Only a round's `root`, never (1, 1),
    returns (least, first move of the least), ties going to the least `Move`.

    The children are scored in `Move` order: halving the even value, the
    smaller value subtracted from the larger, both additions under `cap`.
    A child scores its move's price plus the score at depth r - 1 of the
    scorer `_SCORERS[r]`: `_completion` at r = 1, `_leaf` at r = 2, and
    `_least` above that. A halving or SUB child can always play a SUB next,
    so only an ADD child can score None."""
    if a == b:  # (1, 1), the only equal coprime pair
        return 0
    score, r = _SCORERS[r], r - 1
    least, first = None, -1
    if not a & 1:
        least, first = hlv_cost + score(a >> 1, b, -1, cap, add_cost, hlv_cost, memo, r), 0
    elif not b & 1:
        least, first = hlv_cost + score(a, b >> 1, -1, cap, add_cost, hlv_cost, memo, r), 1
    if a > b:
        if undo != 2:
            t = add_cost + score(a - b, b, 4, cap, add_cost, hlv_cost, memo, r)
            if least is None or t < least:
                least, first = t, 2
    elif undo != 3:
        t = add_cost + score(a, b - a, 5, cap, add_cost, hlv_cost, memo, r)
        if least is None or t < least:
            least, first = t, 3
    s = a + b
    if s < cap:
        if undo != 4 and (t := score(s, b, 2, cap, add_cost, hlv_cost, memo, r)) is not None:
            t += add_cost
            if least is None or t < least:
                least, first = t, 4
        if undo != 5 and (t := score(a, s, 3, cap, add_cost, hlv_cost, memo, r)) is not None:
            t += add_cost
            if least is None or t < least:
                least, first = t, 5
    return (least, first) if root else least


# _SCORERS[r]: the scorer of a depth-r node's children (index 0 unused)
_SCORERS = (None, _completion, _leaf) + (_least,) * (_MAX_DEPTH - 2)


def _round(
    a: int, b: int, undo: int, k: int, cap: int, add_cost: int, hlv_cost: int, memo: dict
) -> tuple[int, Move] | None:
    """One lookahead round from (a, b) != (1, 1) after a move that forbids
    `undo`: the least score over the move sequences of length <= k and the
    first move of the least, ties to the least `Move`, which only this root
    asks `_least` for; None when no move is legal. Sequences that pass a
    pair twice are scored too: none ever decides a round
    (`scripts/revisit_certificate.py`)."""
    least, first = _least(a, b, undo, cap, add_cost, hlv_cost, memo, k, True)
    return None if least is None else (least, _MOVES[first])


def _mirrored_move(decided: dict, a: int, b: int, undo: int) -> Move | None:
    """The move of the round (a, b) after a move that forbids `undo`, read
    off its mirror in `decided`, the round (b, a) after the mirrored undo;
    None when `decided` does not hold it or it decided ADD_A. Moves and
    undo codes mirror by `^ 1` (A and B swapped).

    The mirror scores each child as this round scores the child's mirror:
    the moves, the cap, the undo rule, `_leaf`'s skip and the completion
    are all symmetric. Children are scored halving, SUB, ADD_A, ADD_B, ties
    to the first, with at most one halving and one SUB child, so only ADD_A
    against ADD_B can break the other way: a mirrored ADD_A, which ADD_B may
    tie, decides nothing."""
    mv = decided.get((b, a, undo ^ 1 if undo >= 0 else -1))
    return None if mv is None or mv == _ADD_A else _MOVES[mv ^ 1]


def lookahead_trace(
    a: int, b: int, cfg: SynthesisConfig | None = None, decisions: dict | None = None
) -> GcdTrace:
    """k-step lookahead over the generalized move set.

    Each round scores every irredundant move sequence of length <= k
    (shorter only when it reaches (1, 1)) as the cost of its own moves plus
    the binary-GCD completion cost from its final pair, takes the least
    score under each first move, and commits the first move with the least
    of those, ties going to the least `Move` (see `_round`). Values are
    kept inside [1, _VALUE_CAP*M') where M' is the larger starting value.
    Completion costs are memoized for the whole trace, keyed by odd pairs
    (see `_odd_completion`).

    A round's move depends only on (k, cap, ADD price, HLV price), its
    pair, and the move that the previous move forbids (`_UNDO_OF`). With
    `decisions`, rounds are read from and stored to the table
    decisions[(k, cap, ADD price, HLV price)], keyed by (a, b, undo); the
    trace is the same either way, and one dict may serve any moduli and
    configs. A round the table does not hold is read off its mirror (b, a)
    when the table holds that and it did not decide ADD_A
    (`_mirrored_move`), and stored under its own key all the same, so the
    table holds the same keys and moves as one that computes every round it
    does not hold.

    A completion cost depends only on its odd pair and the two prices, so a
    trace of at most `_SHARED_MEMO_BITS` bits also keeps its memo in
    `decisions`, as decisions[(ADD price, HLV price)], for every later trace
    at those prices; a wider trace's memo is its own.
    """
    cfg = cfg or SynthesisConfig()
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
        if n <= _SHARED_MEMO_BITS:
            memo = decisions.setdefault((add_cost, hlv_cost), memo)
    rounds = count()
    max_rounds = 16 * (a.bit_length() + b.bit_length()) + 64

    def step(a: int, b: int, undo: int) -> Move:
        if next(rounds) > max_rounds:  # pragma: no cover - safety net
            raise RuntimeError(f"lookahead failed to converge from ({a}, {b})")
        if decided is not None:
            if (mv := decided.get((a, b, undo))) is not None:
                return mv
            if (mv := _mirrored_move(decided, a, b, undo)) is not None:
                decided[a, b, undo] = mv
                return mv
        best = _round(a, b, undo, k, cap, add_cost, hlv_cost, memo)
        if best is None:  # pragma: no cover - safety net
            raise RuntimeError(f"lookahead has no legal move from ({a}, {b})")
        if decided is not None:
            decided[a, b, undo] = best[1]
        return best[1]

    return _reduce(a, b, step)


# Reduction moves, reversed and inverted, as circuit blocks: SUB -> ADD,
# ADD -> SUB, HALVE -> DBL, acting on the same side (A = R1, B = R2). Every
# circuit shares these six immutable ops: a 128-bit modulus's trace runs to
# hundreds of moves, and an op object per move costs about 100 bytes.
_MOVE_OPS = {
    move: BlockOp(*block)
    for move, block in {
        Move.SUB_A: (ADD, R1, R2),
        Move.SUB_B: (ADD, R2, R1),
        Move.ADD_A: (SUB, R1, R2),
        Move.ADD_B: (SUB, R2, R1),
        Move.HALVE_A: (DBL, R1, None),
        Move.HALVE_B: (DBL, R2, None),
    }.items()
}
# The baseline's ops and the FANOUT, shared by every circuit as _MOVE_OPS are.
_FANOUT = BlockOp(FANOUT)
_DBL_R1, _ADD_R1 = BlockOp(DBL, R1), BlockOp(ADD, R1, R2)
_HLV_R2, _SUB_R2 = BlockOp(HLV, R2), BlockOp(SUB, R2, R1)


def trace_to_circuit(t: GcdTrace, m: int) -> BlockCircuit:
    """FANOUT followed by the reversed move list as blocks.

    The trace must start from (M, C) or be the (1, 1) trace: side A, holding
    M, becomes R1, which ends at M*x = 0, and side B, starting at C, becomes
    the result register R2. A trace for C = 1 mod M, the (1, 1) trace
    included, gives the empty circuit.
    """
    first, c = t.start
    if first != m and t.start != (1, 1):
        raise ValueError(f"trace does not start from modulus {m}")
    if c % m == 1:
        return BlockCircuit(m, 1, ())
    ops = (_FANOUT, *(_MOVE_OPS[move] for move in reversed(t.moves)))
    return BlockCircuit(m, c % m, ops, R2)


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


@lru_cache(maxsize=1)
def _special_forms(m: int) -> dict[int, tuple[int, str, bool]]:
    """Every +-2^k and +-2^-k mod M, k < 2n, mapped to its first form
    (k, DBL or HLV, negated): for each k (ascending) the forms 2^k, 2^-k,
    -2^k and -2^-k in that order, the first hit kept. Built once per
    modulus: a modexp plan asks for every multiplier of one modulus."""
    inv2 = (m + 1) // 2  # 2^-1 mod M for odd M; BlockCircuit refuses an even M
    forms: dict[int, tuple[int, str, bool]] = {}
    p = 1  # 2^k mod M
    ip = 1  # 2^-k mod M
    for k in range(2 * m.bit_length()):
        forms.setdefault(p, (k, DBL, False))
        forms.setdefault(ip, (k, HLV, False))
        forms.setdefault(m - p, (k, DBL, True))
        forms.setdefault(m - ip, (k, HLV, True))
        p = (p * 2) % m
        ip = (ip * inv2) % m
    return forms


def special_synthesize(c: int, m: int) -> BlockCircuit | None:
    """Single-register shortcut for C mod M = +-2^k or +-2^-k, k < 2n:
    k doublings (or halvings) of R1, plus one negation for -C. No FANOUT
    is needed.

    C is looked up among the modulus's forms (`_special_forms`): the least
    k wins, then 2^k, 2^-k, -2^k and -2^-k in that order. Returns None when
    no form matches below the cap -- such multipliers fall through to
    GCD-trace synthesis.
    """
    c %= m
    _check_coprime(c, m)
    form = _special_forms(m).get(c)
    if form is None:
        return None
    k, shift, negate = form
    ops = [BlockOp(shift, R1)] * k
    if negate:
        ops.append(BlockOp(NEG, R1))
    return BlockCircuit(m, c, tuple(ops), R1)


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
