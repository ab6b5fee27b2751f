import gc
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from modmult.circuit import ADD, DBL, FANOUT, HLV, NEG, R1, R2, SUB, circuit_cost, serialize
from modmult.numtheory import NotCoprime, SpecialForm, SpecialKind, mod_inverse
from modmult.simulate import run_circuit, verify
from modmult.synth import (
    Move,
    SynthesisConfig,
    baseline_synthesize,
    binary_gcd_trace,
    euclid_trace,
    lookahead_trace,
    special_synthesize,
    synthesize,
    trace_cost,
    trace_to_circuit,
)

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
        assert trace_cost(t, 5) <= reference_cost
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
            for c in range(1000, 1040):
                if gcd(c, 49447) == 1:
                    synthesize(c, 49447)
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
                la = trace_cost(lookahead_trace(m, c, cfg), n, cfg.cost_model)
                bi = trace_cost(binary_gcd_trace(m, c), n, cfg.cost_model)
                assert la <= bi, (m, c)


class TestTraceToCircuit:
    def test_euclid_13_21(self):
        c = trace_to_circuit(euclid_trace(21, 13), 21)
        assert c.result_register == R2
        assert [op.opcode for op in c.ops] == [FANOUT] + [ADD] * 6
        targets = [op.target for op in c.ops[1:]]
        assert targets == [R2, R1, R2, R1, R2, R1]
        s = run_circuit(c, 1)
        assert (s.r1, s.r2) == (0, 13)

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
        from modmult.simulate import MachineState, apply_op

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
                s = MachineState(x, 0, m)
                rev = list(reversed(t.pairs))
                s = apply_op(s, circ.ops[0])  # FANOUT matches (1, 1)
                assert (s.r1, s.r2) == ((rev[0][0] * x) % m, (rev[0][1] * x) % m)
                for op, (pa, pb) in zip(circ.ops[1:], rev[1:]):
                    s = apply_op(s, op)
                    assert (s.r1, s.r2) == ((pa * x) % m, (pb * x) % m)


class TestBaseline:
    def test_reference_chain_states(self):
        c = baseline_synthesize(13, 21)
        # compute side visits x,2x,3x,6x,12x,13x on R1
        from modmult.simulate import MachineState, apply_op

        s = MachineState(1, 0, 21)
        seen = [1]
        for op in c.ops:
            s = apply_op(s, op)
            if op.target == R1 or op.opcode == FANOUT:
                seen.append(s.r1)
        assert seen[:6] == [1, 1, 2, 3, 6, 12]
        assert 13 in seen
        assert verify(c).passed
        assert mod_inverse(13, 21) == 13

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
            d = mod_inverse(c, m)
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
        c = special_synthesize(SpecialForm(SpecialKind.POWER_OF_TWO, 3), 21)
        assert [op.opcode for op in c.ops] == [DBL, DBL, DBL]
        assert c.result_register == R1 and c.multiplier == 8
        s = run_circuit(c, 2)
        assert (s.r1, s.r2) == (16, 0)

    def test_inverse_power_of_two(self):
        c = special_synthesize(SpecialForm(SpecialKind.INVERSE_POWER_OF_TWO, 1), 21)
        assert [op.opcode for op in c.ops] == [HLV]
        assert c.multiplier == 11
        assert verify(c).passed

    def test_negation(self):
        c = special_synthesize(SpecialForm(SpecialKind.NEG_POWER_OF_TWO, 0), 21)
        assert [op.opcode for op in c.ops] == [NEG]
        assert c.multiplier == 20
        assert verify(c).passed


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
