import enum
import gc
import hashlib
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from modmult import synth
from modmult.circuit import (
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
    circuit_cost,
    serialize,
)
from modmult.modexp import build_modexp, modexp_plan
from modmult.numtheory import NotCoprime, nth_largest_prime
from modmult.simulate import verify
from modmult.synth import (
    GcdTrace,
    Move,
    _apply_move,
    _binary_step,
    _leaf,
    _odd_completion,
    _round,
    SynthesisConfig,
    baseline_synthesize,
    binary_gcd_trace,
    euclid_trace,
    lookahead_trace,
    special_synthesize,
    synthesize,
    trace_to_circuit,
)

from blocks import fold, step

coprime_pairs = st.tuples(st.integers(3, 1500), st.integers(1, 1500)).filter(
    lambda ab: gcd(ab[0], ab[1]) == 1
)


class TestEuclidTrace:
    def test_fibonacci_example(self):
        t = euclid_trace(21, 13)
        assert t.pairs == ((21, 13), (8, 13), (8, 5), (3, 5), (3, 2), (1, 2), (1, 1))

    def test_trivial(self):
        t = euclid_trace(1, 1)
        assert t.pairs == ((1, 1),) and t.moves == ()

    def test_trace_is_start_and_moves(self):
        # the pairs are replayed from the moves, never stored beside them
        assert [f.name for f in fields(GcdTrace)] == ["start", "moves"]
        assert GcdTrace((21, 13), (Move.SUB_A,)).pairs == ((21, 13), (8, 13))

    def test_long_subtraction_tail(self):
        # subtractive Euclid degenerates once one side hits 1
        t = euclid_trace(21, 11)
        assert t.pairs[2] == (10, 1)
        assert all(mv == Move.SUB_A for mv in t.moves[2:])
        assert t.pairs[-1] == (1, 1)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            euclid_trace(21, 14)

    @given(coprime_pairs)
    @settings(max_examples=150)
    def test_trace_invariants(self, ab):
        t = euclid_trace(*ab)
        _check_trace(t)


def _check_trace(t):
    assert t.pairs[-1] == (1, 1)
    assert len(t.pairs) == len(t.moves) + 1
    for (a0, b0), (a1, b1), mv in zip(t.pairs, t.pairs[1:], t.moves):
        assert gcd(a0, b0) == 1
        applied = {
            Move.SUB_A: (a0 - b0, b0),
            Move.SUB_B: (a0, b0 - a0),
            Move.ADD_A: (a0 + b0, b0),
            Move.ADD_B: (a0, b0 + a0),
            Move.HALVE_A: (a0 // 2, b0) if a0 % 2 == 0 else None,
            Move.HALVE_B: (a0, b0 // 2) if b0 % 2 == 0 else None,
        }[mv]
        assert applied == (a1, b1)
        assert a1 >= 1 and b1 >= 1


def _trace_cost(t, n, model=CostModel()):
    """Block cost of a trace's moves, FANOUT excluded: one HLV price per
    halving and one ADD price per addition or subtraction."""
    halvings = sum(mv <= Move.HALVE_B for mv in t.moves)
    return halvings * model.op_cost(HLV, n) + (len(t.moves) - halvings) * model.op_cost(ADD, n)


class TestBinaryGcdTrace:
    def test_reference_trace_21_11(self):
        t = binary_gcd_trace(21, 11)
        assert t.pairs == (
            (21, 11), (10, 11), (5, 11), (5, 6), (5, 3), (2, 3), (1, 3), (1, 2), (1, 1),
        )

    def test_single_halving(self):
        assert binary_gcd_trace(1, 2).pairs == ((1, 2), (1, 1))

    def test_length_bound(self):
        t = binary_gcd_trace(21, 13)
        assert t.pairs[-1] == (1, 1)
        assert len(t.moves) <= 2 * (21 .bit_length() + 13 .bit_length())

    @given(coprime_pairs)
    @settings(max_examples=150)
    def test_invariants_and_bound(self, ab):
        t = binary_gcd_trace(*ab)
        _check_trace(t)
        assert len(t.moves) <= 2 * (ab[0].bit_length() + ab[1].bit_length())


class TestLookaheadTrace:
    def test_21_11_cost_no_worse_than_reference_trace(self):
        t = lookahead_trace(21, 11)
        assert len(t.moves) <= 7
        # reference trace: 4 subtractions + 3 halvings
        reference_cost = 4 * 15 + 3 * 17
        assert _trace_cost(t, 5) <= reference_cost
        _check_trace(t)

    def test_1017_7_opening(self):
        t = lookahead_trace(1017, 7)
        assert t.moves[0] == Move.ADD_A
        assert t.pairs[1] == (1024, 7)
        assert all(mv == Move.HALVE_A for mv in t.moves[1:9])
        assert t.pairs[9] == (4, 7)

    def test_trivial(self):
        assert lookahead_trace(1, 1).moves == ()

    def test_deterministic(self):
        a = lookahead_trace(999, 767)
        b = lookahead_trace(999, 767)
        assert a == b

    @given(coprime_pairs)
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, ab):
        _check_trace(lookahead_trace(*ab))

    def test_leaves_no_reference_cycles(self):
        # garbage a call leaves in cycles (such as its completion memo)
        # lives until a full collection and inflates peak memory
        gc.collect()
        gc.disable()
        try:
            decisions: dict = {}
            circuits = []
            for c in range(1000, 1040):
                if gcd(c, 49447) == 1:
                    synthesize(c, 49447)
                    circuits.append(synthesize(c, 49447, None, decisions))
            (table,) = decisions.values()
            assert len(table) < _lookahead_rounds(circuits)  # the table served rounds
            del decisions, table
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_never_worse_than_binary(self):
        # a strided subset of coprime pairs below 2^10 keeps this under a
        # second; the acceptance suite covers a denser range
        cfg = SynthesisConfig()
        for m in range(5, 1024, 37):
            for c in range(2, m, 5):
                if gcd(c, m) != 1:
                    continue
                n = m.bit_length()
                la = _trace_cost(lookahead_trace(m, c, cfg), n, cfg.cost_model)
                bi = _trace_cost(binary_gcd_trace(m, c), n, cfg.cost_model)
                assert la <= bi, (m, c)


class TestTraceToCircuit:
    def test_euclid_13_21(self):
        c = trace_to_circuit(euclid_trace(21, 13), 21)
        assert c.result_register == R2
        assert [op.opcode for op in c.ops] == [FANOUT] + [ADD] * 6
        targets = [op.target for op in c.ops[1:]]
        assert targets == [R2, R1, R2, R1, R2, R1]
        assert fold(c, 1) == (0, 13)

    def test_refuses_trace_not_from_modulus(self):
        # a trace from (C, M) is refused, though reversed it would leave the
        # result in R1
        with pytest.raises(ValueError, match="does not start from modulus 21"):
            trace_to_circuit(euclid_trace(13, 21), 21)

    def test_trivial_trace(self):
        c = trace_to_circuit(lookahead_trace(1, 1), 21)
        assert c.ops == () and c.multiplier == 1

    def test_lookahead_1017_ends_with_sub(self):
        c = trace_to_circuit(lookahead_trace(1017, 7), 1017)
        assert c.ops[-1].opcode == SUB
        assert verify(c).passed

    def test_register_congruence_instrumented(self):
        # register contents track (A_t * x, B_t * x) along the reversed trace
        import random

        from modmult.numtheory import enumerate_semiprimes

        rng = random.Random(42)
        for bits in (8, 16):
            sems = enumerate_semiprimes(bits)
            for _ in range(20):
                m = rng.choice(sems).value
                c = rng.randrange(2, m)
                if gcd(c, m) != 1:
                    continue
                t = lookahead_trace(m, c)
                circ = trace_to_circuit(t, m)
                x = rng.randrange(m)
                rev = list(reversed(t.pairs))
                s = step(circ.ops[0], x, 0, m)  # FANOUT matches (1, 1)
                assert s == ((rev[0][0] * x) % m, (rev[0][1] * x) % m)
                for op, (pa, pb) in zip(circ.ops[1:], rev[1:]):
                    s = step(op, *s, m)
                    assert s == ((pa * x) % m, (pb * x) % m)


class TestBaseline:
    def test_reference_chain_states(self):
        c = baseline_synthesize(13, 21)
        # compute side visits x,2x,3x,6x,12x,13x on R1
        s = (1, 0)
        seen = [1]
        for op in c.ops:
            s = step(op, *s, 21)
            if op.target == R1 or op.opcode == FANOUT:
                seen.append(s[0])
        assert seen[:6] == [1, 1, 2, 3, 6, 12]
        assert 13 in seen
        assert verify(c).passed
        assert pow(13, -1, 21) == 13

    def test_c1_empty(self):
        assert baseline_synthesize(1, 21).ops == ()

    def test_block_count_formula(self):
        # compute chain: bitlen(C)-1 + popcount(C)-1; uncompute chain needs
        # one extra SUB for the inverse's leading bit
        import random

        rng = random.Random(7)
        checked = 0
        while checked < 20:
            m = rng.randrange(33, 1 << 14) | 1
            c = rng.randrange(2, m)
            if gcd(c, m) != 1:
                continue
            d = pow(c, -1, m)
            circ = baseline_synthesize(c, m)
            arith = len(circ.ops) - 1  # minus FANOUT
            expect = (c.bit_length() - 1 + bin(c).count("1") - 1) + (
                d.bit_length() - 1 + bin(d).count("1")
            )
            assert arith == expect, (m, c)
            assert verify(circ).passed
            checked += 1


class TestSpecial:
    def test_power_of_two(self):
        c = special_synthesize(8, 21)
        assert [op.opcode for op in c.ops] == [DBL, DBL, DBL]
        assert c.result_register == R1 and c.multiplier == 8
        assert fold(c, 2) == (16, 0)

    def test_inverse_power_of_two(self):
        c = special_synthesize(11, 21)
        assert [op.opcode for op in c.ops] == [HLV]
        assert c.multiplier == 11
        assert verify(c).passed

    def test_multiplier_reduced_mod_m(self):
        # 23 = 2 and -19 = 2 (mod 21): all three are one doubling
        assert special_synthesize(23, 21) == special_synthesize(2, 21)
        assert special_synthesize(-19, 21) == special_synthesize(2, 21)

    def test_negation(self):
        c = special_synthesize(20, 21)
        assert [op.opcode for op in c.ops] == [NEG]
        assert c.multiplier == 20
        assert verify(c).passed


# The two-step special path that `special_synthesize(c, m)` replaced, copied
# verbatim as the reference: `detect_special` named C's form, and
# `special_synthesize(form, m)` built it, re-deriving C from the form.
# `mod_inverse` stands in for the helper it called (its refusal is never
# reached: the scan checks coprimality first).


def mod_inverse(c, m):
    return pow(c, -1, m)


class SpecialKind(enum.Enum):
    POWER_OF_TWO = "PowerOfTwo"
    INVERSE_POWER_OF_TWO = "InversePowerOfTwo"
    NEG_POWER_OF_TWO = "NegPowerOfTwo"
    NEG_INVERSE_POWER_OF_TWO = "NegInversePowerOfTwo"


@dataclass(frozen=True)
class SpecialForm:
    """A multiplier that is (+/-) a modular power of two or its inverse.

    POWER_OF_TWO(k):             C = 2^k mod M
    INVERSE_POWER_OF_TWO(k):     C * 2^k = 1 (mod M)
    NEG_* variants:              same congruence with -C.
    """

    kind: SpecialKind
    k: int

    def multiplier(self, m: int) -> int:
        """Re-derive the multiplier C this form denotes, mod M."""
        p = pow(2, self.k, m)
        if self.kind is SpecialKind.POWER_OF_TWO:
            return p
        if self.kind is SpecialKind.INVERSE_POWER_OF_TWO:
            return mod_inverse(p, m)
        if self.kind is SpecialKind.NEG_POWER_OF_TWO:
            return (-p) % m
        return (-mod_inverse(p, m)) % m


def detect_special(c: int, m: int) -> SpecialForm | None:
    """Scan k = 0 .. 2n-1 for a power-of-two special form of C.

    For each k (ascending) the four kinds are checked in declaration order;
    the first hit wins. Returns None when no form matches below the cap --
    such multipliers fall through to GCD-trace synthesis.
    """
    if gcd(c, m) != 1:
        raise NotCoprime(f"gcd({c}, {m}) != 1")
    n = m.bit_length()
    inv2 = mod_inverse(2, m)
    p = 1  # 2^k mod M
    ip = 1  # 2^-k mod M
    for k in range(2 * n):
        if c == p:
            return SpecialForm(SpecialKind.POWER_OF_TWO, k)
        if c == ip:
            return SpecialForm(SpecialKind.INVERSE_POWER_OF_TWO, k)
        if c == m - p:
            return SpecialForm(SpecialKind.NEG_POWER_OF_TWO, k)
        if c == m - ip:
            return SpecialForm(SpecialKind.NEG_INVERSE_POWER_OF_TWO, k)
        p = (p * 2) % m
        ip = (ip * inv2) % m
    return None


def reference_special_synthesize(f: SpecialForm, m: int) -> BlockCircuit:
    """Single-register shortcut: k doublings (or halvings), plus one
    negation for the negated kinds. No FANOUT is needed."""
    if f.kind in (SpecialKind.POWER_OF_TWO, SpecialKind.NEG_POWER_OF_TWO):
        ops = [BlockOp(DBL, R1)] * f.k
    else:
        ops = [BlockOp(HLV, R1)] * f.k
    if f.kind in (SpecialKind.NEG_POWER_OF_TWO, SpecialKind.NEG_INVERSE_POWER_OF_TWO):
        ops.append(BlockOp(NEG, R1))
    return BlockCircuit(m, f.multiplier(m), tuple(ops), R1)


# 128-bit moduli: the largest prime, and the golden anchors' semiprime
_M128_PRIME = (1 << 128) - 159
_M128 = ((1 << 64) - 59) * ((1 << 64) - 83)


def _powers_of_two(m):
    """2^k, 2^-k, -2^k and -2^-k mod M for every k < 2n, in that order."""
    forms = []
    for k in range(2 * m.bit_length()):
        p, ip = pow(2, k, m), pow(2, -k, m)
        forms += [p, ip, m - p, m - ip]
    return forms


def _assert_special_matches(c, m) -> bool:
    """`special_synthesize` gives the reference's circuit, or None as it
    does; True for a special C."""
    form = detect_special(c, m)
    circ = special_synthesize(c, m)
    if form is None:
        assert circ is None, (m, c)
        return False
    assert circ == reference_special_synthesize(form, m), (m, c)
    return True


class TestSpecialReference:
    def test_matches_two_step_reference(self):
        # every coprime C of every odd M < 600: the same circuit text, or
        # None from both
        special = 0
        for m in range(3, 600, 2):
            for c in range(1, m):
                if gcd(c, m) != 1:
                    continue
                form = detect_special(c, m)
                circ = special_synthesize(c, m)
                if form is None:
                    assert circ is None, (m, c)
                else:
                    special += 1
                    expect = serialize(reference_special_synthesize(form, m))
                    assert circ is not None and serialize(circ) == expect, (m, c)
        assert special > 0

    @pytest.mark.parametrize("m", [_M128_PRIME, _M128], ids=["prime", "semiprime"])
    def test_modexp_multipliers_at_width(self, m):
        # every multiplier of both plans, and every +-2^+-k for k < 2n
        special = sum(
            _assert_special_matches(c, m)
            for c in {*modexp_plan(m, 2), *modexp_plan(m, 3), *_powers_of_two(m)}
        )
        assert special == len(set(_powers_of_two(m)))

    @pytest.mark.parametrize("k", [63, 64, 127, 128])
    def test_forms_meet_mod_two_to_the_k_plus_minus_one(self, k):
        # modulo 2^k + 1, 2^k = -1, and modulo 2^k - 1, 2^k = 1: distinct
        # forms name one multiplier, so the first hit in k and form order
        # decides which circuit it gets
        for m in ((1 << k) + 1, (1 << k) - 1):
            forms = _powers_of_two(m)
            assert len(set(forms)) < len(forms)
            assert sum(_assert_special_matches(c, m) for c in set(forms)) == len(set(forms))

    def test_modexp_builds_the_table_once(self, monkeypatch):
        # a 128-bit plan's 256 multipliers share one table of its forms; a
        # binary-GCD trace stands in for the lookahead, which other tests pin
        monkeypatch.setattr(synth, "lookahead_trace", lambda m, c, *rest: binary_gcd_trace(m, c))
        synth._special_forms.cache_clear()
        circ = build_modexp(_M128)
        info = synth._special_forms.cache_info()
        assert (info.misses, info.hits) == (1, circ.distinct_blocks - 1)


class TestSynthesize:
    def test_dispatch_special(self):
        c = synthesize(2, 21)
        assert [op.opcode for op in c.ops] == [DBL]

    def test_13_21_not_worse_than_euclid(self):
        cfg = SynthesisConfig()
        h = circuit_cost(synthesize(13, 21, cfg), cfg.cost_model)[0]
        e = circuit_cost(trace_to_circuit(euclid_trace(21, 13), 21), cfg.cost_model)[0]
        assert h <= e

    def test_11_21_without_special_cases(self):
        cfg = SynthesisConfig(use_special_cases=False)
        c = synthesize(11, 21, cfg)
        assert len([op for op in c.ops if op.opcode != FANOUT]) <= 7
        assert verify(c).passed

    def test_c1_empty(self):
        assert synthesize(1, 21).ops == ()

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            synthesize(7, 21)

    def test_deterministic_serialization(self):
        for m, c in [(21, 13), (1011113, 77778), (49447, 123)]:
            assert serialize(synthesize(c, m)) == serialize(synthesize(c, m))

    @given(coprime_pairs)
    @settings(max_examples=60, deadline=None)
    def test_verifies(self, ab):
        m, c = ab
        if m % 2 == 0 or m < 3 or c % m == 0:
            return
        assert verify(synthesize(c % m if c % m else 1, m)).passed


def _running_digest(circuits) -> str:
    h = hashlib.sha256()
    for circ in circuits:
        h.update(serialize(circ).encode())
    return h.hexdigest()


class TestGoldenAnchors:
    """Circuit text pinned across rewrites of the lookahead search."""

    def test_all_multipliers_mod_1007(self):
        circuits = (synthesize(c, 1007) for c in range(2, 1007) if gcd(c, 1007) == 1)
        assert _running_digest(circuits).startswith("483dfbf3053f0d1e")

    def test_modexp_multipliers_128_bit(self):
        m = ((1 << 64) - 59) * ((1 << 64) - 83)
        circuits = (synthesize(c, m) for c in modexp_plan(m, 2)[:32])
        assert _running_digest(circuits).startswith("04a1135b3a281e2c")

    def test_modexp_multipliers_512_bit(self):
        # the wide path end to end: base 3, so no multiplier is special
        m = nth_largest_prime(256, 1) * nth_largest_prime(256, 2)
        circuits = (synthesize(c, m) for c in modexp_plan(m, 3)[:8])
        assert _running_digest(circuits).startswith("5e13ef98b634e741")

    @pytest.mark.parametrize(
        "price, digest",
        [(1, "c9ebfd3b60f7f747"), (2, "ad8abe8c5432e914")],
        ids=["equal-price", "cheap-halving"],
    )
    def test_modexp_multipliers_128_bit_priced(self, price, digest):
        # the equal-price and cheap-halving models of _PRICES
        m = ((1 << 64) - 59) * ((1 << 64) - 83)
        cfg = SynthesisConfig(cost_model=_PRICES[price])
        circuits = (synthesize(c, m, cfg) for c in modexp_plan(m, 2)[:32])
        assert _running_digest(circuits).startswith(digest)


# The lookahead round and the completion cost as they stood before leaves
# were scored in place: the reference for the rewrite. Bodies verbatim; the
# round calls the reference completion.
_UNDOES = {
    Move.SUB_A: Move.ADD_A,
    Move.ADD_A: Move.SUB_A,
    Move.SUB_B: Move.ADD_B,
    Move.ADD_B: Move.SUB_B,
}


def _reference_completion_cost(a, b, add_cost, hlv_cost, memo):
    """Cost of finishing with plain binary-GCD moves; memoized along the
    reduction path so repeated scoring is cheap."""
    path: list[tuple[tuple[int, int], int]] = []
    while (a, b) not in memo:
        if (a, b) == (1, 1):
            memo[(1, 1)] = 0
            break
        mv = _binary_step(a, b)
        cost = hlv_cost if mv <= Move.HALVE_B else add_cost
        path.append(((a, b), cost))
        a, b = _apply_move(mv, a, b)
    tail = memo[(a, b)]
    for pair, cost in reversed(path):
        tail += cost
        memo[pair] = tail
    return memo[path[0][0]] if path else tail


def _reference_best_sequence(a, b, last, k, cap, add_cost, hlv_cost, memo):
    _completion_cost = _reference_completion_cost
    best: tuple[int, tuple[Move, ...]] | None = None
    stack = [(a, b, (), 0, frozenset({(a, b)}))]
    while stack:
        pa, pb, seq, cost, seen = stack.pop()
        if (pa, pb) == (1, 1) or len(seq) == k:
            scored = (cost + _completion_cost(pa, pb, add_cost, hlv_cost, memo), seq)
            if best is None or scored < best:
                best = scored
            continue
        prev = seq[-1] if seq else last
        for mv in Move:
            if prev is not None and _UNDOES.get(prev) == mv:
                continue
            if mv == Move.HALVE_A and pa % 2:
                continue
            if mv == Move.HALVE_B and pb % 2:
                continue
            na, nb = _apply_move(mv, pa, pb)
            if not (1 <= na < cap and 1 <= nb < cap):
                continue
            if (na, nb) in seen:
                continue
            step = hlv_cost if mv <= Move.HALVE_B else add_cost
            stack.append((na, nb, seq + (mv,), cost + step, seen | {(na, nb)}))
    return best


def _reference_round(a, b, undo, k, cap, add_cost, hlv_cost, memo):
    """The reference as `lookahead_trace` reads a round: its least score and
    the first move of its least sequence, after a last move forbidding `undo`
    (-1: none, as after no move or a halving)."""
    return _first_move(
        _reference_best_sequence(a, b, _UNDOES.get(undo), k, cap, add_cost, hlv_cost, memo)
    )


def _first_move(best):
    return None if best is None else (best[0], best[1][0])


def _undo(last):
    return -1 if last is None else synth._UNDO_OF[last]


def _priced(add, hlv):
    return CostModel({**CostModel().coeffs, ADD: add, HLV: hlv})


# HLV/ADD price ratios: the default (slightly dearer halving), equal prices
# (ties between sequences of different move mixes), and cheap halving
_PRICES = [CostModel(), _priced((3, 0), (3, 0)), _priced((3, 0), (1, 0))]

# completion inputs: wide values, and odd values shifted by long runs of zeros
_completion_values = st.integers(1, 1 << 130) | st.builds(
    lambda odd, z: odd << z, st.integers(0, 1 << 90).map(lambda v: 2 * v + 1), st.integers(1, 48)
)


def _wide_pairs(k, bits):
    """Seeded coprime pairs of one width, and pairs whose values, |a - b| or
    a + b carry long runs of trailing zeros."""
    pairs = []
    for m, c in _seeded_pairs(k, count=2, bits=bits):
        z = bits // 3
        pairs += [(m, c), (m, c << z), (c << z, m), (m, m - (1 << z)), (m, (1 << bits + 1) - m)]
    return pairs


def _zero_byte_pairs(bits):
    """Seeded coprime pairs, about `bits` wide, one of whose values, their
    difference or their sum ends in 8 to 12 zeros: a zero low byte, which
    `synth._TZ` does not cover, in reach of every round's leaves."""
    rng = random.Random(bits)
    pairs = []
    for z in range(8, 13):
        odd = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        t = rng.randrange(1, 1 << 8) | 1
        if gcd(odd, t) != 1:
            t = 1
        top = ((odd >> z) + 1) | 1  # top << z > odd
        for small, big in ((odd, t << z), (odd, odd + (t << z)), ((top << z) - odd, odd)):
            assert gcd(small, big) == 1
            pairs.append((small, big) if z % 2 else (big, small))
    return pairs


def _seeded_pairs(k, count=8, bits=12):
    rng = random.Random(k)
    pairs = []
    while len(pairs) < count:
        m = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        c = rng.randrange(2, m)
        if gcd(m, c) == 1:
            pairs.append((m, c))
    return pairs


# a bound on both values of every pair on a cycle of at most _MAX_DEPTH
# legal moves (cycles of 6 moves reach 32)
_CYCLE_MAX = 16


class TestReferenceEquivalence:
    @pytest.mark.parametrize("cap", [2, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_lookahead_trace_matches_reference(self, k, cap, monkeypatch):
        monkeypatch.setattr(synth, "_VALUE_CAP", cap)
        cases = [
            (m, c, SynthesisConfig(lookahead_depth=k, cost_model=model))
            for m, c in _seeded_pairs(k)
            for model in _PRICES
        ]
        got = [lookahead_trace(m, c, cfg) for m, c, cfg in cases]
        monkeypatch.setattr(synth, "_round", _reference_round)
        want = [lookahead_trace(m, c, cfg) for m, c, cfg in cases]
        assert got == want
        assert all(type(mv) is Move for t in got for mv in t.moves)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_best_sequence_matches_reference(self, k):
        # single rounds after every possible last move, from seeded states
        # and from every small one (where ADD-then-halve cycles and the cap
        # are in reach); free ADD or HLV prices make sequences that revisit
        # a pair or undo the last move tie with others, so the enumerated
        # set shows; with both free, the least sequence is the least
        # enumerated one
        free = [_priced((0, 0), (3, 2)), _priced((3, 0), (0, 0)), _priced((0, 0), (0, 0))]
        models = _PRICES + free
        small = [(a, b) for a in range(1, 12) for b in range(1, 12) if gcd(a, b) == 1]
        for m, c in _seeded_pairs(k, count=6, bits=10) + small[1:]:
            for model in models:
                add_cost, hlv_cost = model.op_cost(ADD, 10), model.op_cost(HLV, 10)
                for last in (None, *Move):
                    # a cap just above the larger value puts ADD moves on it
                    for cap in (max(m, c) + 1, 2 * max(m, c), 4 * max(m, c)):
                        _assert_round_matches(m, c, last, k, cap, add_cost, hlv_cost)

    @pytest.mark.parametrize("bits", [64, 128])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_best_sequence_matches_reference_wide(self, k, bits):
        # the same rounds on wide values; the smallest cap puts both ADD
        # children on it
        for m, c in _wide_pairs(k, bits):
            for model in _PRICES:
                add_cost, hlv_cost = model.op_cost(ADD, bits), model.op_cost(HLV, bits)
                for last in (None, *Move):
                    for cap in (max(m, c) + 1, 4 * max(m, c)):
                        _assert_round_matches(m, c, last, k, cap, add_cost, hlv_cost)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_round_matches_reference_at_revisit_guard(self, k):
        # roots whose larger value is _CYCLE_MAX << k, where a round can
        # still reach a revisit, and roots one above, where none can; the
        # reference bars revisits and `_round` does not, so both must round
        # as the reference
        for big in (_CYCLE_MAX << k, (_CYCLE_MAX << k) + 1):
            smalls = (1, 3, 5, 7, 9, 11, 13, 15, 17, big - 1, big - 3)
            for small in (s for s in smalls if gcd(s, big) == 1):
                for m, c in ((big, small), (small, big)):
                    for model in _PRICES:
                        add_cost, hlv_cost = model.op_cost(ADD, 10), model.op_cost(HLV, 10)
                        for last in (None, *Move):
                            for cap in (big + 1, 4 * big):
                                _assert_round_matches(m, c, last, k, cap, add_cost, hlv_cost)

    @pytest.mark.parametrize("bits", [12, 64, 128])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_round_matches_reference_past_a_zero_low_byte(self, k, bits):
        # a value, the difference or the sum of each root ends in 8 to 12
        # zeros, so trailing zeros come from the fallback, not from the
        # low-byte table, at the root's leaves and on their completions
        for a, b in _zero_byte_pairs(bits):
            assert not (a & 255 and b & 255 and (a - b) & 255 and (a + b) & 255)
            for model in _PRICES:
                add_cost, hlv_cost = model.op_cost(ADD, bits), model.op_cost(HLV, bits)
                for last in (None, *Move):
                    for cap in (max(a, b) + 1, 4 * max(a, b)):
                        _assert_round_matches(a, b, last, k, cap, add_cost, hlv_cost)

    @pytest.mark.parametrize(
        "pair",
        [
            (1, 257),
            (1 + (1 << 12), 1),
            (1, 1 + (1 << 8) + (1 << 17)),  # zero low bytes twice in a row
            (3, 3 + (5 << 9)),
            ((1 << 130) - 1, (1 << 130) - 1 - (7 << 20)),
            ((1 << 129) + 1, (1 << 129) + 1 + (1 << 40)),
        ],
    )
    def test_odd_completion_past_a_zero_low_byte(self, pair):
        # odd pairs whose differences are multiples of 2^8: the step strips
        # their zeros past the low-byte table
        for model in _PRICES:
            add_cost, hlv_cost = model.op_cost(ADD, 130), model.op_cost(HLV, 130)
            got = _odd_completion(*pair, add_cost, hlv_cost, {})
            assert got == _trace_cost(binary_gcd_trace(*pair), 130, model), (pair, model)
            assert got == _reference_completion_cost(*pair, add_cost, hlv_cost, {})

    @given(
        st.lists(
            st.tuples(_completion_values, _completion_values).filter(lambda ab: gcd(*ab) == 1),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from(_PRICES),
    )
    @example(
        [(3 << 40, 1), (1, 5 << 44), ((1 << 130) - 1, 7 << 40), (1 << 40, 1), (3 << 41, 1)],
        _PRICES[0],
    )
    @settings(max_examples=80, deadline=None)
    def test_completion_cost_is_binary_trace_cost(self, pairs, model):
        # finishing (a, b) halves both values to their odd parts, then steps
        # odd pair to odd pair; one memo across the pairs, looked up before
        # each `_odd_completion` call as every caller in synth does, so a
        # repeated odd pair is served from the memo; the memo holds odd
        # pairs only, each with its own binary-GCD cost
        n = 16
        add_cost, hlv_cost = model.op_cost(ADD, n), model.op_cost(HLV, n)
        memo: dict = {}
        reference_memo: dict = {}
        seen = set()
        for a, b in pairs:
            za, zb = (a & -a).bit_length() - 1, (b & -b).bit_length() - 1
            key = (a >> za, b >> zb)
            tail = memo.get(key)
            assert tail is not None or key not in seen, key
            if tail is None:
                tail = _odd_completion(*key, add_cost, hlv_cost, memo)
            seen.add(key)
            got = hlv_cost * (za + zb) + tail
            assert got == _trace_cost(binary_gcd_trace(a, b), n, model)
            assert got == _reference_completion_cost(a, b, add_cost, hlv_cost, reference_memo)
        assert all(a & 1 and b & 1 for a, b in memo)
        for key, tail in memo.items():
            assert tail == _trace_cost(binary_gcd_trace(*key), n, model), key


def _assert_round_matches(a, b, last, k, cap, add_cost, hlv_cost):
    """`_round` after `last` gives the reference's least score and the first
    move of its least sequence, which is all `lookahead_trace` reads."""
    args = (a, b, _undo(last), k, cap, add_cost, hlv_cost)
    got = _round(*args, {})
    assert got == _reference_round(*args, {}), (args, last, got)
    assert got is None or type(got[1]) is Move


# Each move as a 2x2 matrix on the column (a, b): a halving scales one value
# by 1/2, and SUB and ADD are unimodular
_MOVE_MATRICES = {
    Move.HALVE_A: ((Fraction(1, 2), 0), (0, 1)),
    Move.HALVE_B: ((1, 0), (0, Fraction(1, 2))),
    Move.SUB_A: ((1, -1), (0, 1)),
    Move.SUB_B: ((1, 0), (-1, 1)),
    Move.ADD_A: ((1, 1), (0, 1)),
    Move.ADD_B: ((1, 0), (1, 1)),
}


def _legal_step(mv, a, b):
    """(a, b) after mv as a lookahead plays it, or None where it may not:
    (1, 1) has no moves, a halving needs an even value, and SUB takes the
    smaller value from the larger."""
    if (a, b) == (1, 1):
        return None
    if mv == Move.HALVE_A and a % 2 or mv == Move.HALVE_B and b % 2:
        return None
    if mv == Move.SUB_A and a <= b or mv == Move.SUB_B and b <= a:
        return None
    return _apply_move(mv, a, b)


def _fixed_pair(mat):
    """The primitive positive pair on the fixed line of the non-identity
    matrix mat, or None where no positive pair is fixed."""
    (p, q), (r, s) = mat
    rows = [row for row in ((p - 1, q), (r, s - 1)) if row != (0, 0)]
    if len(rows) == 2 and (p - 1) * (s - 1) != q * r:
        return None  # only (0, 0) is fixed
    u, v = rows[0]
    x, y = Fraction(v), Fraction(-u)  # u*x + v*y = 0
    scale = x.denominator * y.denominator
    x, y = int(x * scale), int(y * scale)
    g = gcd(x, y)
    x, y = x // g, y // g
    if x < 0:
        x, y = -x, -y
    return (x, y) if x > 0 and y > 0 else None


class TestCycleBound:
    def test_no_cycle_above_cycle_max(self):
        # every move word of at most _MAX_DEPTH moves with no move right
        # after the move it undoes: a coprime pair it leads back to itself
        # is fixed by its matrix, so it is the primitive positive pair on
        # the matrix's fixed line (no word is the identity, which would fix
        # every pair); every pair on such a legal cycle is <= _CYCLE_MAX,
        # and a move at most halves the larger value, so a round from above
        # _CYCLE_MAX << k never revisits a pair; the revisit certificate
        # (scripts/revisit_certificate.py) covers every root below
        identity = ((1, 0), (0, 1))
        words = [((), identity)]
        cycles = []
        for _ in range(synth._MAX_DEPTH):
            longer = []
            for word, mat in words:
                for mv in Move:
                    if word and synth._UNDO_OF[word[-1]] == mv:
                        continue
                    (p, q), (r, s) = _MOVE_MATRICES[mv]
                    (a, b), (c, d) = mat
                    prod = ((p * a + q * c, p * b + q * d), (r * a + s * c, r * b + s * d))
                    assert prod != identity, word + (mv,)
                    longer.append((word + (mv,), prod))
            for word, mat in longer:
                pair = start = _fixed_pair(mat)
                visited = [start]
                for mv in word:
                    if pair is None:
                        break
                    pair = _legal_step(mv, *pair)
                    visited.append(pair)
                if pair is not None:
                    assert pair == start, word
                    cycles.append((word, visited))
            words = longer
        assert cycles  # the bound is met, not empty
        over = [(word, pairs) for word, pairs in cycles if max(map(max, pairs)) > _CYCLE_MAX]
        assert not over
        SynthesisConfig(lookahead_depth=synth._MAX_DEPTH)
        with pytest.raises(ValueError, match="lookahead depth"):
            SynthesisConfig(lookahead_depth=synth._MAX_DEPTH + 1)


# the free-price models of test_best_sequence_matches_reference
_FREE_PRICES = [_priced((0, 0), (3, 2)), _priced((3, 0), (0, 0)), _priced((0, 0), (0, 0))]


def _brute_leaf(a, b, undo, cap, add_cost, hlv_cost, memo):
    """`_leaf` by brute force: the least over every legal child of (a, b),
    each scored by its price plus its pair's reference completion cost."""
    if (a, b) == (1, 1):
        return 0
    scores = []
    for mv in Move:
        child = _legal_step(mv, a, b)
        if mv == undo or child is None or max(child) >= cap:
            continue
        price = hlv_cost if mv <= Move.HALVE_B else add_cost
        scores.append(price + _reference_completion_cost(*child, add_cost, hlv_cost, memo))
    return min(scores, default=None)


def _one_even_pairs(seed, count, bits):
    """Seeded coprime pairs, one of whose values is even, alternating sides."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        odd = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        even = rng.randrange(1, 1 << (bits - 1)) << rng.randrange(1, 4)
        if gcd(odd, even) == 1:
            pairs.append((even, odd) if len(pairs) % 2 else (odd, even))
    return pairs


class TestLeafPruning:
    """`_leaf` skips the ADD child onto the even value: that child's
    completion subtracts back to (a, b) and halves, so it scores the halving
    child plus two ADD prices."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_leaf_matches_brute_force(self, seed):
        # small pairs and seeded 10-bit pairs; every undo; caps that bar
        # both ADD children and that bar neither
        small = [(a, b) for a in range(1, 14) for b in range(1, 14) if gcd(a, b) == 1]
        for a, b in _seeded_pairs(seed, count=6, bits=10) + small:
            for model in _PRICES + _FREE_PRICES:
                add_cost, hlv_cost = model.op_cost(ADD, 10), model.op_cost(HLV, 10)
                memo, reference_memo = {}, {}
                for undo in (-1, 2, 3, 4, 5):
                    for cap in (max(a, b) + 1, a + b + 1, 4 * max(a, b)):
                        args = (a, b, undo, cap, add_cost, hlv_cost)
                        got = _leaf(*args, memo)
                        assert got == _brute_leaf(*args, reference_memo), (args, got)

    @pytest.mark.parametrize("bits", [64, 128])
    def test_leaf_matches_brute_force_wide(self, bits):
        # wide pairs, long zero runs included
        pairs = _wide_pairs(1, bits) + _one_even_pairs(bits, 6, bits)
        for a, b in pairs:
            for model in _PRICES + _FREE_PRICES:
                add_cost, hlv_cost = model.op_cost(ADD, bits), model.op_cost(HLV, bits)
                memo, reference_memo = {}, {}
                for undo in (-1, 2, 3, 4, 5):
                    args = (a, b, undo, 4 * max(a, b), add_cost, hlv_cost)
                    got = _leaf(*args, memo)
                    assert got == _brute_leaf(*args, reference_memo), (args, got)

    @pytest.mark.parametrize("bits", [10, 64, 128])
    def test_add_onto_even_scores_halving_plus_two_adds(self, bits):
        # the identity, priced by binary-GCD traces: ADD + cost(a + b, b)
        # = HLV + cost(a / 2, b) + 2 ADD for even a, and the same mirrored
        for a, b in _one_even_pairs(bits, 12, bits):
            if a % 2:
                added, halved = (a, a + b), (a, b >> 1)
            else:
                added, halved = (a + b, b), (a >> 1, b)
            for model in _PRICES + _FREE_PRICES:
                add_cost, hlv_cost = model.op_cost(ADD, bits), model.op_cost(HLV, bits)
                add_child = add_cost + _trace_cost(binary_gcd_trace(*added), bits, model)
                halving_child = hlv_cost + _trace_cost(binary_gcd_trace(*halved), bits, model)
                assert add_child == halving_child + 2 * add_cost, (a, b, model)

    def test_leaf_skips_add_onto_even_while_halving_is_legal(self, monkeypatch):
        # with an empty memo every scored child's completion is asked for;
        # the ADD child onto the even value never is (halving is legal
        # whenever a value is even)
        asked = []
        completion = synth._odd_completion

        def counted(a, b, *rest):
            asked.append((a, b))
            return completion(a, b, *rest)

        monkeypatch.setattr(synth, "_odd_completion", counted)
        add_cost, hlv_cost = CostModel().op_cost(ADD, 16), CostModel().op_cost(HLV, 16)
        for a, b in _one_even_pairs(3, 40, 16):
            added = (a + b, b) if a % 2 == 0 else (a, a + b)  # both odd
            asked.clear()
            _leaf(a, b, -1, 4 * max(a, b), add_cost, hlv_cost, {})
            assert asked and added not in asked, (a, b, asked)

    def test_inner_add_onto_even_can_be_cheaper(self):
        # one level above the leaves the identity does not hold: from
        # (4034, 3763) under the default 12-bit prices the ADD child onto
        # the even value, followed by its best leaf, costs less than the
        # halving child followed by its best leaf; so only leaves may skip it
        a, b, cap = 4034, 3763, 4 * 4034
        add_cost, hlv_cost = CostModel().op_cost(ADD, 12), CostModel().op_cost(HLV, 12)
        assert (add_cost, hlv_cost) == (36, 38)
        add_best = _reference_best_sequence(a + b, b, Move.ADD_A, 1, cap, add_cost, hlv_cost, {})
        halve_best = _reference_best_sequence(a >> 1, b, None, 1, cap, add_cost, hlv_cost, {})
        assert (add_cost + add_best[0], hlv_cost + halve_best[0]) == (1010, 1044)
        undo = synth._UNDO_OF[Move.ADD_A]
        assert add_cost + _leaf(a + b, b, undo, cap, add_cost, hlv_cost, {}) == 1010
        assert hlv_cost + _leaf(a >> 1, b, -1, cap, add_cost, hlv_cost, {}) == 1044


def _lookahead_rounds(circuits) -> int:
    """Trace rounds behind the circuits: one move per op after FANOUT
    (special-form circuits have no FANOUT and no trace)."""
    traced = (circ for circ in circuits if circ.ops and circ.ops[0].opcode == FANOUT)
    return sum(len(circ.ops) - 1 for circ in traced)


def _decision_tables(decisions: dict) -> list[dict]:
    """The decision tables in `decisions`, keyed (k, cap, ADD price, HLV
    price); the completion memos it also holds are keyed by the two prices."""
    return [table for key, table in decisions.items() if len(key) == 4]


# the decision table of every unit of 1007 at depth k, a digest of its
# sorted (a, b, undo, move) items, taken with every round the table did not
# hold computed
_TABLES_1007 = [
    (1, "990c77e315dd399c"),
    (2, "96b480e8144d86a8"),
    (3, "dbc56ae867a0bb3b"),
    (4, "cc8391af103b9f2b"),
    (5, "c4d3878f92eda500"),
]


def _mirror(code):
    """A move or undo code with A and B swapped; -1 stays -1."""
    return -1 if code < 0 else code ^ 1


class TestDecisionCache:
    def test_counts_mod_1007(self):
        # every lookahead multiplier of 1007 shares one table: 13,631 rounds,
        # 5,419 distinct (a, b, undo) states, the same circuits
        decisions: dict = {}
        circuits = [
            synthesize(c, 1007, None, decisions) for c in range(2, 1007) if gcd(c, 1007) == 1
        ]
        (table,) = _decision_tables(decisions)
        assert len(table) == 5419
        assert _running_digest(circuits).startswith("483dfbf3053f0d1e")
        assert _lookahead_rounds(circuits) == 13631

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_round_depends_on_last_only_through_undo(self, k):
        # the table and the round key a round by the move the last one
        # forbids: None and both halvings forbid none, so the reference must
        # decide every round after each of them as the round after none does
        # (each of the three lasts in turn, so each meets a third of the rounds)
        model = CostModel()
        add_cost, hlv_cost = model.op_cost(ADD, 6), model.op_cost(HLV, 6)
        lasts = (None, Move.HALVE_A, Move.HALVE_B)
        rounds = [
            (a, b, cap)
            for a in range(1, 64)
            for b in range(1, 64)
            if gcd(a, b) == 1 and a + b > 2
            for cap in (max(a, b) + 1, 4 * max(a, b))
        ]
        for i, (a, b, cap) in enumerate(rounds):
            last = lasts[i % 3]
            got = _round(a, b, -1, k, cap, add_cost, hlv_cost, {})
            want = _reference_best_sequence(a, b, last, k, cap, add_cost, hlv_cost, {})
            assert got == _first_move(want), (a, b, k, cap, last, got)

    @pytest.mark.parametrize("cap", [2, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_shared_cache_matches_reference(self, k, cap, monkeypatch):
        # one dict shared by every modulus, depth and price, against
        # traces of the reference round without a table
        monkeypatch.setattr(synth, "_VALUE_CAP", cap)
        rng = random.Random(100 + k)
        cases = []
        for m in (rng.randrange(1 << 8, 1 << 9) | 1, rng.randrange(1 << 9, 1 << 10) | 1):
            cs = [c for c in range(2, m) if gcd(c, m) == 1]
            for model in _PRICES:
                for depth in sorted({k, 1 + k % 5}):
                    cfg = SynthesisConfig(lookahead_depth=depth, cost_model=model)
                    cases += [(m, c, cfg) for c in rng.sample(cs, 6)]
        decisions: dict = {}
        got = [lookahead_trace(m, c, cfg, decisions) for m, c, cfg in cases]
        # one table per (modulus cap, depth, price), six traces each
        tables = _decision_tables(decisions)
        assert len(tables) == len(cases) // 6
        rounds = sum(len(t.moves) for t in got)
        assert sum(map(len, tables)) < rounds  # the tables served rounds
        monkeypatch.setattr(synth, "_round", _reference_round)
        want = [lookahead_trace(m, c, cfg) for m, c, cfg in cases]
        assert got == want
        assert all(type(mv) is Move for t in got for mv in t.moves)

    def test_rounds_computed_mod_1007(self, monkeypatch):
        # test_counts_mod_1007's sweep: 5,419 entries, of which 3,847 rounds
        # are computed and the rest read off their mirrors
        computed = []

        def counted(*args):
            computed.append(args[:3])
            return real(*args)

        real = synth._round
        monkeypatch.setattr(synth, "_round", counted)
        decisions: dict = {}
        circuits = [
            synthesize(c, 1007, None, decisions) for c in range(2, 1007) if gcd(c, 1007) == 1
        ]
        (table,) = _decision_tables(decisions)
        assert len(table) == 5419
        assert len(computed) == len(set(computed)) == 3847
        assert set(computed) < set(table)
        assert _running_digest(circuits).startswith("483dfbf3053f0d1e")

    @pytest.mark.parametrize("k, digest", _TABLES_1007)
    def test_shared_table_mod_1007(self, k, digest):
        cfg = SynthesisConfig(lookahead_depth=k)
        units = [c for c in range(2, 1007) if gcd(c, 1007) == 1]
        decisions: dict = {}
        shared = [lookahead_trace(1007, c, cfg, decisions) for c in units]
        assert shared == [lookahead_trace(1007, c, cfg) for c in units]
        (table,) = _decision_tables(decisions)
        items = sorted((a, b, int(undo), int(mv)) for (a, b, undo), mv in table.items())
        assert hashlib.sha256(repr(items).encode()).hexdigest().startswith(digest)
        assert all(type(mv) is Move for mv in table.values())

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_mirror_agrees_with_the_round(self, k):
        # every round of small coprime pairs, after every undo and at two
        # caps: a move read off the mirrored round's true move is the move
        model = CostModel()
        add_cost, hlv_cost = model.op_cost(ADD, 6), model.op_cost(HLV, 6)
        read = 0
        for cap in (64, 160):
            truth = {
                (a, b, undo): best[1]
                for a in range(1, 40)
                for b in range(1, 40)
                if a != b and gcd(a, b) == 1
                for undo in (-1, 2, 3, 4, 5)
                if (best := _round(a, b, undo, k, cap, add_cost, hlv_cost, {})) is not None
            }
            for a, b, undo in truth:
                mirror = (b, a, _mirror(undo))
                mv = synth._mirrored_move({mirror: truth[mirror]}, a, b, undo)
                assert (mv is None) == (truth[mirror] == Move.ADD_A)
                if mv is not None:
                    assert mv == truth[a, b, undo] and type(mv) is Move, (a, b, undo, cap)
                    read += 1
        assert read > 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_mirrored_add_a_decides_nothing(self, k):
        # 10-bit default prices, cap 4 * 1007: (39, 101) and (101, 39) both
        # decide ADD_A, so each ADD child ties its mirror (ADD_A <= ADD_B in
        # each round), and mirroring the first round's move would give ADD_B
        model = CostModel()
        prices = (4 * 1007, model.op_cost(ADD, 10), model.op_cost(HLV, 10), {})
        assert _round(39, 101, -1, k, *prices)[1] == Move.ADD_A
        assert synth._mirrored_move({(39, 101, -1): Move.ADD_A}, 101, 39, -1) is None
        got = _round(101, 39, -1, k, *prices)
        assert got == _reference_round(101, 39, -1, k, *prices)
        assert got[1] == Move.ADD_A

    def test_mirrored_add_a_in_a_trace(self):
        # at k = 1 the trace of 453 mod 1007 opens with ADD_A from (1007, 453),
        # and the mirrored round (453, 1007) decides ADD_A too
        cfg = SynthesisConfig(lookahead_depth=1)
        model = cfg.cost_model
        key = (1, 4 * 1007, model.op_cost(ADD, 10), model.op_cost(HLV, 10))
        decisions = {key: {(453, 1007, -1): Move.ADD_A}}
        trace = lookahead_trace(1007, 453, cfg, decisions)
        assert trace == lookahead_trace(1007, 453, cfg)
        assert trace.moves[0] == Move.ADD_A == decisions[key][1007, 453, -1]


class TestSharedMemo:
    """`decisions` carries one completion memo per price pair for traces of
    at most 12 bits, keyed (ADD price, HLV price)."""

    def test_mod_1007_matches_traces_alone(self):
        cs = [c for c in range(2, 1007) if gcd(c, 1007) == 1]
        decisions: dict = {}
        shared = [synthesize(c, 1007, None, decisions) for c in cs]
        assert shared == [synthesize(c, 1007) for c in cs]
        assert _running_digest(shared).startswith("483dfbf3053f0d1e")
        model = CostModel()
        add_cost, hlv_cost = model.op_cost(ADD, 10), model.op_cost(HLV, 10)
        memo = decisions[add_cost, hlv_cost]
        # every entry is an odd coprime pair priced as the reference prices it
        reference: dict = {}
        for (a, b), cost in memo.items():
            assert a & b & 1 and gcd(a, b) == 1, (a, b)
            assert cost == _reference_completion_cost(a, b, add_cost, hlv_cost, reference)

    def test_twelve_bit_matches_traces_alone(self):
        m = 4087  # 61 * 67
        cs = random.Random(12).sample([c for c in range(2, m) if gcd(c, m) == 1], 200)
        decisions: dict = {}
        shared = [synthesize(c, m, None, decisions) for c in cs]
        assert shared == [synthesize(c, m) for c in cs]
        assert (CostModel().op_cost(ADD, 12), CostModel().op_cost(HLV, 12)) in decisions

    def test_thirteen_bit_trace_keeps_its_memo(self):
        decisions: dict = {}
        m = 8191  # 13 bits
        lookahead_trace(m, 1234, None, decisions)
        assert decisions and all(len(key) == 4 for key in decisions)

    def test_one_memo_per_price_pair(self):
        decisions: dict = {}
        for model in (_PRICES[0], _PRICES[2]):
            cfg = SynthesisConfig(cost_model=model)
            for c in (2, 345, 700):
                lookahead_trace(1007, c, cfg, decisions)
        memos = [key for key in decisions if len(key) == 2]
        assert memos == [(30, 32), (30, 10)]
        assert all(decisions[key] for key in memos)
