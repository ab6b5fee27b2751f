import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, strategies as st

from modmult.circuit import (
    ADD,
    CSWAP_LAYER,
    DBL,
    FANOUT,
    HLV,
    NEG,
    R1,
    R2,
    SUB,
    BlockCircuit,
    BlockOp,
)
from modmult.simulate import (
    FanoutOnNonzero,
    MachineState,
    VerifyReport,
    _lcg_samples,
    apply_op,
    circuit_images,
    inverse_op,
    run_circuit,
    verify,
)
from modmult.synth import baseline_synthesize, synthesize


def test_add_collapses_to_zero():
    # last step of the (13x mod 21) trace circuit at x = 1
    s = apply_op(MachineState(8, 13, 21), BlockOp(ADD, R1, R2))
    assert (s.r1, s.r2) == (0, 13)


def test_dbl_preserves_zero():
    s = apply_op(MachineState(0, 17, 21), BlockOp(DBL, R1))
    assert (s.r1, s.r2) == (0, 17)


def test_hlv_odd_value():
    s = apply_op(MachineState(11, 0, 21), BlockOp(HLV, R1))
    assert s.r1 == 16  # (11 + 21) / 2; 2 * 16 = 32 = 11 (mod 21)


def test_fanout_requires_zero():
    s = apply_op(MachineState(5, 0, 21), BlockOp(FANOUT))
    assert (s.r1, s.r2) == (5, 5)
    with pytest.raises(FanoutOnNonzero):
        apply_op(MachineState(5, 1, 21), BlockOp(FANOUT))


_invertible_ops = [
    BlockOp(ADD, R1, R2),
    BlockOp(ADD, R2, R1),
    BlockOp(SUB, R1, R2),
    BlockOp(SUB, R2, R1),
    BlockOp(DBL, R1),
    BlockOp(DBL, R2),
    BlockOp(HLV, R1),
    BlockOp(HLV, R2),
    BlockOp(NEG, R1),
    BlockOp(NEG, R2),
]


def test_bijectivity_inverse_pairs():
    rng = random.Random(99)
    for _ in range(1000):
        m = rng.randrange(3, 5000) | 1
        s = MachineState(rng.randrange(m), rng.randrange(m), m)
        op = rng.choice(_invertible_ops)
        assert apply_op(apply_op(s, op), inverse_op(op)) == s


@given(st.integers(0, 10**6))
def test_hlv_consistency(seed):
    rng = random.Random(seed)
    m = rng.randrange(3, 10**6) | 1
    a = rng.randrange(m)
    s = apply_op(MachineState(a, 0, m), BlockOp(HLV, R1))
    assert (2 * s.r1) % m == a


def test_run_circuit_examples():
    c = synthesize(13, 21)
    for x, expect in [(1, 13), (0, 0), (2, 5)]:
        s = run_circuit(c, x)
        res = s.r1 if c.result_register == R1 else s.r2
        other = s.r2 if c.result_register == R1 else s.r1
        assert (res, other) == (expect, 0)


def test_verify_exhaustive_passes():
    report = verify(synthesize(13, 21))
    assert report.passed and report.tested == 21
    assert verify(synthesize(13, 21, None), exhaustive=False, samples=64).passed


def test_verify_catches_mutation():
    # disable special-case dispatch so the circuit contains an ADD/SUB to flip
    from modmult.synth import SynthesisConfig

    c = synthesize(13, 21, SynthesisConfig(use_special_cases=False))
    flipped = None
    for i, op in enumerate(c.ops):
        if op.opcode in (ADD, SUB):
            swap = BlockOp(SUB if op.opcode == ADD else ADD, op.target, op.source)
            flipped = BlockCircuit(
                c.modulus, c.multiplier, c.width,
                c.ops[:i] + (swap,) + c.ops[i + 1 :], c.result_register,
            )
            break
    assert flipped is not None
    report = verify(flipped)
    assert not report.passed and len(report.failures) >= 1


def test_sampled_failures_match_scalar_fold():
    m = 101 * 1297  # 17 bits
    c = synthesize(54321, m)
    i = next(i for i, op in enumerate(c.ops) if op.opcode == ADD)
    mutant = BlockCircuit(
        m, c.multiplier, c.width,
        c.ops[:i] + (BlockOp(SUB, c.ops[i].target, c.ops[i].source),) + c.ops[i + 1 :],
        c.result_register,
    )
    expected, seen = [], {}
    for x in _lcg_samples(11, 300, m):
        s = run_circuit(mutant, x)
        res, other = (s.r1, s.r2) if mutant.result_register == R1 else (s.r2, s.r1)
        if res != 54321 * x % m or other != 0:
            expected.append((x, res, other))
        seen[x] = res
    assert len(expected) > 32
    injective = len(set(seen.values())) == len(seen)
    assert verify(mutant, exhaustive=False, samples=300, seed=11) == VerifyReport(
        54321, m, "sampled(300)", 300, tuple(expected[:32]), injective, 11
    )


def test_sampled_mode_reproducible():
    # the 128-bit case passes only if sampled arithmetic is exact past int64
    m128 = (1 << 128) - 159
    for c, m in [(77778, 1011113), (3**70 % m128, m128)]:
        circ = synthesize(c, m)
        r1 = verify(circ, exhaustive=False, samples=100, seed=7)
        r2 = verify(circ, exhaustive=False, samples=100, seed=7)
        assert r1 == r2 and r1.passed and r1.seed == 7


def test_vectorized_matches_scalar():
    # every opcode on every target, plus FANOUT and CSWAP_LAYER
    every_block = BlockCircuit(
        35, 2, 6, (BlockOp(FANOUT), *_invertible_ops, BlockOp(CSWAP_LAYER))
    )
    circuits = [synthesize(c, m) for m, c in [(21, 13), (35, 12), (91, 5)]]
    for circ in circuits + [baseline_synthesize(12, 35), every_block]:
        m = circ.modulus
        for xs in (None, np.arange(m, dtype=object)):
            r1, r2 = circuit_images(circ, xs)
            for x in range(m):
                s = run_circuit(circ, x)
                assert (s.r1, s.r2) == (int(r1[x]), int(r2[x]))


def test_verify_all_methods_small_moduli():
    from modmult.synth import baseline_synthesize, euclid_trace, trace_to_circuit

    for m in (21, 35, 65, 77):
        for c in range(2, m):
            if gcd(c, m) != 1:
                continue
            assert verify(synthesize(c, m)).passed, (m, c, "heuristic")
            assert verify(baseline_synthesize(c, m)).passed, (m, c, "baseline")
            assert verify(trace_to_circuit(euclid_trace(m, c), m)).passed, (m, c, "euclid")
