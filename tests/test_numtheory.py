import random
from math import gcd

import pytest
from hypothesis import given, strategies as st

from modmult.circuit import DBL, HLV, NEG, R1, SUB, BlockCircuit, BlockOp
from modmult.numtheory import (
    Modulus,
    NotCoprime,
    RankOutOfRange,
    enumerate_semiprimes,
    is_prime,
    nth_largest_prime,
)
from modmult.simulate import verify
from modmult.synth import baseline_synthesize, special_synthesize


def brute_gcd(a, b):
    """Independent oracle: largest d dividing both."""
    return max(d for d in range(1, min(a, b) + 1) if a % d == 0 and b % d == 0)


class TestGcd:
    def test_fibonacci_neighbors_coprime(self):
        assert gcd(21, 13) == 1

    def test_equal_args(self):
        assert gcd(7, 7) == 7

    def test_derived(self):
        assert gcd(1017, 7) == brute_gcd(1017, 7) == 1

    @given(st.integers(1, 400), st.integers(1, 400))
    def test_matches_brute_force(self, a, b):
        assert gcd(a, b) == brute_gcd(a, b)

    @given(st.integers(1, 10**9), st.integers(1, 10**9))
    def test_euclid_recursion_and_divisibility(self, a, b):
        g = gcd(a, b)
        assert gcd(a, b) == gcd(b, a % b if b else a)
        assert a % g == 0 and b % g == 0


def uncompute_inverse(circ: BlockCircuit) -> int:
    """The D whose Horner chain the baseline's HLV/SUB tail undoes, read
    back off the circuit: 1 for the leading SUB, then x2 per HLV and +1 per
    SUB. The compute side uses only DBL and ADD."""
    d = 0
    for op in reversed(circ.ops):
        if op.opcode == HLV:
            d *= 2
        elif op.opcode == SUB:
            d += 1
    return d


class TestModInverse:
    """The baseline clears its copy register with C^-1 mod M (a wrong
    inverse leaves R2 dirty); these read that inverse off its circuit."""

    def test_known_inverse_of_13(self):
        assert 569 * 1777 == 1011113
        assert uncompute_inverse(baseline_synthesize(13, 1011113)) == 77778

    def test_identity(self):
        # C = 22 = 1 (mod 21) is its own inverse: nothing to copy or clear
        assert baseline_synthesize(22, 21).ops == ()

    def test_self_inverse(self):
        # 13*13 = 169 = 8*21 + 1
        assert uncompute_inverse(baseline_synthesize(13, 21)) == 13

    def test_not_invertible(self):
        with pytest.raises(NotCoprime):
            baseline_synthesize(7, 21)

    @pytest.mark.parametrize("bits", [8, 32, 64, 256])
    def test_round_trip_random(self, bits):
        rng = random.Random(1234 + bits)
        done = 0
        while done < 1000:
            m = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            c = rng.randrange(2, m)
            if gcd(c, m) != 1:
                continue
            assert (c * uncompute_inverse(baseline_synthesize(c, m))) % m == 1
            done += 1


class TestDetectSpecial:
    """Special-form detection, done by `synth.special_synthesize`: C = +-2^k
    or +-2^-k mod M with k < 2n, built as k DBL or HLV ops on R1 plus NEG
    for -C; None for any other C."""

    def test_power_of_two(self):
        assert special_synthesize(2, 21).ops == (BlockOp(DBL, R1),)

    def test_inverse_power_of_two(self):
        # 2 * 11 = 22 = 1 (mod 21)
        assert special_synthesize(11, 21).ops == (BlockOp(HLV, R1),)

    def test_neg_power_of_two(self):
        # 13 = 21 - 8 = -2^3 (mod 21)
        assert special_synthesize(13, 21).ops == (BlockOp(DBL, R1),) * 3 + (BlockOp(NEG, R1),)

    def test_no_form(self):
        # 5 is not +-2^k or +-2^-k mod 103 for k < 14
        assert special_synthesize(5, 103) is None

    def test_requires_coprime(self):
        with pytest.raises(NotCoprime):
            special_synthesize(6, 21)

    def test_soundness_exhaustive_small(self):
        for m in (21, 35, 65, 77, 91):
            n = m.bit_length()
            for c in range(1, m):
                if gcd(c, m) != 1:
                    continue
                circ = special_synthesize(c, m)
                if circ is None:
                    continue
                assert sum(op.opcode in (DBL, HLV) for op in circ.ops) < 2 * n
                assert circ.multiplier == c
                assert verify(circ).passed, (m, c)


class TestSemiprimes:
    def test_n7_values(self):
        vals = [m.value for m in enumerate_semiprimes(7)]
        assert vals == [65, 77, 85, 91, 95, 115, 119]

    def test_per_width_counts(self):
        counts = {7: 7, 8: 16, 9: 34, 10: 72, 11: 152, 12: 299}
        for n, expect in counts.items():
            sp = enumerate_semiprimes(n)
            assert len(sp) == expect
            assert all(1 << (n - 1) <= m.value < 1 << n for m in sp)

    @pytest.mark.parametrize("n", [5, 21])
    def test_width_outside_range_refused(self, n):
        # 35 = 5 * 7 has 6 bits: no width-5 modulus exists to enumerate
        with pytest.raises(ValueError, match=r"\[6, 20\]"):
            enumerate_semiprimes(n)

    def test_least_width_is_six(self):
        assert [m.value for m in enumerate_semiprimes(6)] == [35, 55]

    def test_n8_range(self):
        vals = [m.value for m in enumerate_semiprimes(8)]
        assert len(vals) == 16 and vals[0] == 133 and vals[-1] == 253

    def test_structure(self):
        for m in enumerate_semiprimes(9):
            v = m.value
            assert v % 2 == 1
            factors = [p for p in range(2, int(v**0.5) + 1) if v % p == 0]
            p = factors[0]
            q = v // p
            assert p != q and is_prime(p) and is_prime(q)
            assert p >= 5 and q >= 5


class TestIsPrime:
    def test_matches_trial_division(self):
        # below 37^2 the trial divisors alone decide; above, Miller-Rabin
        for p in range(3000):
            expect = p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))
            assert is_prime(p) == expect, p


class TestNthLargestPrime:
    def test_8bit_ranks(self):
        assert nth_largest_prime(8, 1) == 251  # 2^8 - 5
        assert nth_largest_prime(8, 10) == 197  # 2^8 - 59

    def test_trivial(self):
        assert nth_largest_prime(3, 1) == 7

    def test_rank_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            nth_largest_prime(3, 10)

    def test_large_width_reproducible(self):
        p = nth_largest_prime(64, 1)
        assert p == nth_largest_prime(64, 1)
        assert p.bit_length() == 64 and is_prime(p)


class TestModulus:
    @pytest.mark.parametrize("bad", [1, 2, 4, 20])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            Modulus(bad)
