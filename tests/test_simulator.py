import random
from itertools import islice
from math import gcd

import numpy as np
import pytest
from hypothesis import given, strategies as st

from modmult.circuit import (
    _BLOCKS,
    _OPCODES,
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
    FanoutOnNonzero,
    apply_block,
    inverse_op,
)
from modmult.simulate import VerifyReport, verify
from modmult.synth import baseline_synthesize, synthesize

from blocks import fold, step


def test_add_collapses_to_zero():
    # last step of the (13x mod 21) trace circuit at x = 1
    assert step(BlockOp(ADD, R1, R2), 8, 13, 21) == (0, 13)


def test_dbl_preserves_zero():
    assert step(BlockOp(DBL, R1), 0, 17, 21) == (0, 17)


def test_hlv_odd_value():
    assert step(BlockOp(HLV, R1), 11, 0, 21)[0] == 16  # (11 + 21) / 2; 2 * 16 = 32 = 11 (mod 21)


def test_fanout_requires_zero():
    assert step(BlockOp(FANOUT), 5, 0, 21) == (5, 5)
    with pytest.raises(FanoutOnNonzero):
        step(BlockOp(FANOUT), 5, 1, 21)
    # arrays, as OptimalSearch folds them: every element of R2 must be zero
    r1 = np.arange(4)
    got = apply_block(BlockOp(FANOUT), r1, np.zeros(4, dtype=np.int64), 21, 11)
    assert all((got[0] == r1) & (got[1] == r1))
    with pytest.raises(FanoutOnNonzero):
        apply_block(BlockOp(FANOUT), r1, np.array([0, 0, 3, 0]), 21, 11)


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
        s = (rng.randrange(m), rng.randrange(m))
        op = rng.choice(_invertible_ops)
        assert step(inverse_op(op), *step(op, *s, m), m) == s


@given(st.integers(0, 10**6))
def test_hlv_consistency(seed):
    rng = random.Random(seed)
    m = rng.randrange(3, 10**6) | 1
    a = rng.randrange(m)
    assert (2 * step(BlockOp(HLV, R1), a, 0, m)[0]) % m == a


def test_run_circuit_examples():
    c = synthesize(13, 21)
    for x, expect in [(1, 13), (0, 0), (2, 5)]:
        r1, r2 = fold(c, x)
        assert ((r1, r2) if c.result_register == R1 else (r2, r1)) == (expect, 0)


def test_verify_exhaustive_passes():
    report = verify(synthesize(13, 21))
    assert report.passed and report.tested == 21


def test_verify_catches_mutation():
    # disable special-case dispatch so the circuit contains an ADD/SUB to flip
    from modmult.synth import SynthesisConfig

    c = synthesize(13, 21, SynthesisConfig(use_special_cases=False))
    flipped = None
    for i, op in enumerate(c.ops):
        if op.opcode in (ADD, SUB):
            swap = BlockOp(SUB if op.opcode == ADD else ADD, op.target, op.source)
            flipped = BlockCircuit(
                c.modulus, c.multiplier,
                c.ops[:i] + (swap,) + c.ops[i + 1 :], c.result_register,
            )
            break
    assert flipped is not None
    report = verify(flipped)
    assert not report.passed and len(report.failures) >= 1


def _one_op_mutant(c: BlockCircuit, i: int, op: BlockOp) -> BlockCircuit:
    return BlockCircuit(
        c.modulus, c.multiplier, c.ops[:i] + (op,) + c.ops[i + 1 :], c.result_register
    )


def _result(c: BlockCircuit, x: int) -> tuple[int, int]:
    """(result, other) after a scalar fold of x."""
    r1, r2 = fold(c, x)
    return (r1, r2) if c.result_register == R1 else (r2, r1)


def _failures_by_fold(c: BlockCircuit, xs) -> list[tuple[int, int, int]]:
    """(x, result, other) of each x in xs that the circuit gets wrong."""
    m, cmul = c.modulus, c.multiplier
    return [(x, *got) for x in xs if (got := _result(c, x)) != (cmul * x % m, 0)]


def _fold_reports(c: BlockCircuit):
    """Fold every x in [0, M) through the circuit; returns verify's expected
    report as a function of max_failures, and the number of failing x."""
    m = c.modulus
    bad = _failures_by_fold(c, range(m))
    injective = len({_result(c, x)[0] for x in range(m)}) == m

    def report(max_failures: int = 32) -> VerifyReport:
        failures = bad[:max_failures]
        if len(bad) > max_failures:
            failures.append((-1, len(bad), 0))
        return VerifyReport(c.multiplier, m, tuple(failures), injective)

    return report, len(bad)


def _check_against_fold(c: BlockCircuit) -> tuple[VerifyReport, int]:
    """Compare verify with the fold; returns the report and the number of
    failing x."""
    expected, total = _fold_reports(c)
    for cap in {0, 5, 32, total}:  # at cap == total the tail must not show
        assert verify(c, max_failures=cap) == expected(cap)
    return expected(), total


def test_wide_failures_match_scalar_fold():
    # a 17-bit and a 128-bit mutant, each with an ADD turned into a SUB: the
    # listed failures are the first failing x, each as a scalar fold gives it
    for cmul, m in [(54321, 101 * 1297), (3**70 % ((1 << 128) - 159), (1 << 128) - 159)]:
        c = synthesize(cmul, m)
        i = next(i for i, op in enumerate(c.ops) if op.opcode == ADD)
        mutant = _one_op_mutant(c, i, BlockOp(SUB, c.ops[i].target, c.ops[i].source))
        report = verify(mutant)
        assert report.tested == m and len(report.failures) == 33
        listed = report.failures[:32]
        assert listed == tuple(_failures_by_fold(mutant, range(listed[-1][0] + 1)))
        assert report.failures[-1][0] == -1 and report.failures[-1][1] > 32


def test_verify_exact_at_width():
    # heuristic circuits pass at 128 and 512 bits, every x in [0, M) decided
    rng = random.Random(512)
    for bits in (128, 512):
        m = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        cmul = rng.randrange(2, m)
        while gcd(cmul, m) != 1:
            cmul = rng.randrange(2, m)
        report = verify(synthesize(cmul, m))
        assert report.passed and report.tested == m and report.failures == ()


def test_extra_doubling_fails_every_nonzero_input_at_128_bits():
    # one DBL more on the result register sends x to 2Cx, which equals Cx
    # only at x = 0 since C is a unit: M - 1 inputs fail, x = 1 first
    m = (1 << 128) - 159
    cmul = 3**70 % m
    c = synthesize(cmul, m)
    mutant = BlockCircuit(m, cmul, c.ops + (BlockOp(DBL, c.result_register),), c.result_register)
    report = verify(mutant)
    assert not report.passed and report.injective
    assert len(report.failures) == 33 and report.failures[0] == (1, 2 * cmul % m, 0)
    assert report.failures[:32] == tuple(_failures_by_fold(mutant, range(33)))
    assert report.failures[-1] == (-1, m - 1, 0)


def test_verify_matches_exhaustive_fold():
    rng = random.Random(2718)
    replacements = _invertible_ops + [BlockOp(CSWAP_LAYER)]
    reports = []
    for m in (21, 35, 77, 221, 1007):
        for _ in range(8):
            cmul = rng.randrange(2, m)
            while gcd(cmul, m) != 1:
                cmul = rng.randrange(2, m)
            c = rng.choice([synthesize, baseline_synthesize])(cmul, m)
            i = rng.randrange(c.ops[0].opcode == FANOUT, len(c.ops))
            for circ in (c, _one_op_mutant(c, i, rng.choice(replacements))):
                reports.append(_check_against_fold(circ)[0])
    assert any(r.failures and r.failures[-1][0] == -1 for r in reports)
    assert any(not r.passed for r in reports) and any(r.passed for r in reports)
    # hand-built, C = 1: (x, 0) -> (0, x) and -> (5x, x) at M = 35 are not
    # injective and fail 34 inputs each, so the tail shows; (x, 0) -> (x, 7x)
    # at M = 21 fails the 14 inputs that 3 does not divide
    zero = (BlockOp(FANOUT), BlockOp(SUB, R1, R2))
    for m, ops, injective, failing in [
        (35, zero, False, 34),
        (35, zero + (BlockOp(ADD, R1, R2),) * 5, False, 34),
        (21, (BlockOp(FANOUT), *[BlockOp(DBL, R2)] * 3, BlockOp(SUB, R2, R1)), True, 14),
    ]:
        report, total = _check_against_fold(BlockCircuit(m, 1, ops))
        assert (report.injective, total) == (injective, failing)


@given(
    st.sampled_from(sorted(_BLOCKS)),
    st.integers(1, 10**6).map(lambda k: 2 * k + 1),
    st.lists(st.integers(0, 10**7), min_size=5, max_size=5),
)
def test_block_rules_are_linear(code, m, vals):
    # verify's one-input certificate holds only while every rule is additive
    # and homogeneous mod m
    rule, inv2 = _BLOCKS[code][0], (m + 1) // 2
    t1, s1, t2, s2, k = (v % m for v in vals)
    lhs = rule((t1 + t2) % m, (s1 + s2) % m, m, inv2)
    assert lhs == (rule(t1, s1, m, inv2) + rule(t2, s2, m, inv2)) % m
    assert rule(k * t1 % m, k * s1 % m, m, inv2) == k * rule(t1, s1, m, inv2) % m


def test_every_opcode_is_a_rule_or_routing():
    # FANOUT and CSWAP_LAYER are the only opcodes apply_block routes itself
    assert set(_BLOCKS) | {FANOUT, CSWAP_LAYER} == set(_OPCODES)


def test_vectorized_matches_scalar():
    # apply_block's array form, which OptimalSearch uses: every opcode on
    # every target, plus FANOUT and CSWAP_LAYER
    every_block = BlockCircuit(
        35, 2, (BlockOp(FANOUT), *_invertible_ops, BlockOp(CSWAP_LAYER))
    )
    circuits = [synthesize(c, m) for m, c in [(21, 13), (35, 12), (91, 5)]]
    for circ in circuits + [baseline_synthesize(12, 35), every_block]:
        m = circ.modulus
        for xs in (np.arange(m, dtype=np.int64), np.arange(m, dtype=object)):
            r1, r2 = xs, np.zeros_like(xs)
            for op in circ.ops:
                r1, r2 = apply_block(op, r1, r2, m, (m + 1) // 2)
            for x in range(m):
                assert fold(circ, x) == (int(r1[x]), int(r2[x]))


def test_verify_all_methods_small_moduli():
    from modmult.synth import baseline_synthesize, euclid_trace, trace_to_circuit

    for m in (21, 35, 65, 77):
        for c in range(2, m):
            if gcd(c, m) != 1:
                continue
            assert verify(synthesize(c, m)).passed, (m, c, "heuristic")
            assert verify(baseline_synthesize(c, m)).passed, (m, c, "baseline")
            assert verify(trace_to_circuit(euclid_trace(m, c), m)).passed, (m, c, "euclid")


def _reference_verify(c, max_failures=32):
    """verify's exhaustive body as it stood before the bare fold: a scalar
    fold on x = 1, the inputs scanned over range(M)."""
    m, cmul = c.modulus, c.multiplier % c.modulus
    xs = range(m)
    r1, r2 = fold(c, 1)
    a, b = (r1, r2) if c.result_register == R1 else (r2, r1)
    q = m // gcd(a - cmul, b, m)
    bad = () if q == 1 else (x for x in xs if x % q)
    failures = [(x, a * x % m, b * x % m) for x in islice(bad, max_failures)]
    injective = gcd(a, m) == 1
    if m - m // q > max_failures:
        failures.append((-1, m - m // q, 0))
    return VerifyReport(cmul, m, tuple(failures), injective)


def _non_unit_circuits():
    """Hand-built circuits whose image a of x = 1 shares a factor with M:
    (x, 0) -> (0, x) and (5x, x) at M = 35 against C = 1, and (3x, x) at
    M = 21 and at M = 3 * (2^61 - 1) against C = 3."""
    zero = (BlockOp(FANOUT), BlockOp(SUB, R1, R2))
    triple = (BlockOp(FANOUT), BlockOp(ADD, R1, R2), BlockOp(ADD, R1, R2))
    big = 3 * ((1 << 61) - 1)
    return [
        BlockCircuit(35, 1, zero),
        BlockCircuit(35, 1, zero + (BlockOp(ADD, R1, R2),) * 5),
        BlockCircuit(21, 3, triple),
        BlockCircuit(big, 3, triple),
    ]


def test_verify_matches_reference_body():
    # seeded circuits, their one-op mutants and hand-built non-unit images,
    # field for field
    rng = random.Random(31415)
    replacements = _invertible_ops + [BlockOp(CSWAP_LAYER)]
    circuits = _non_unit_circuits()
    for m in (21, 35, 77, 221, 1007, 101 * 1297, (1 << 61) - 1):
        for _ in range(6):
            cmul = rng.randrange(2, m)
            while gcd(cmul, m) != 1:
                cmul = rng.randrange(2, m)
            c = rng.choice([synthesize, baseline_synthesize])(cmul, m)
            i = rng.randrange(c.ops[0].opcode == FANOUT, len(c.ops))
            circuits += [c, _one_op_mutant(c, i, rng.choice(replacements))]
    seen = set()
    for c in circuits:
        for cap in (0, 5, 32):
            got = verify(c, max_failures=cap)
            assert got == _reference_verify(c, max_failures=cap), c
            seen.add((got.passed, got.injective, bool(got.failures)))
    # passing, failing and injective, failing and not injective
    assert {(True, True, False), (False, True, True), (False, False, True)} <= seen
