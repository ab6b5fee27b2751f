import random
from math import gcd

import pytest
from hypothesis import given, strategies as st

from modmult.numtheory import (
    Modulus,
    NotCoprime,
    NotInvertible,
    RankOutOfRange,
    SpecialForm,
    SpecialKind,
    detect_special,
    enumerate_semiprimes,
    is_prime,
    mod_inverse,
    nth_largest_prime,
)


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


class TestModInverse:
    def test_known_inverse_of_13(self):
        assert 569 * 1777 == 1011113
        assert mod_inverse(13, 1011113) == 77778

    def test_identity(self):
        assert mod_inverse(1, 21) == 1

    def test_self_inverse(self):
        assert mod_inverse(13, 21) == 13  # 13*13 = 169 = 8*21 + 1

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            mod_inverse(7, 21)

    @pytest.mark.parametrize("bits", [8, 32, 64, 256])
    def test_round_trip_random(self, bits):
        rng = random.Random(1234 + bits)
        done = 0
        while done < 1000:
            m = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            c = rng.randrange(1, m)
            if gcd(c, m) != 1:
                continue
            assert (c * mod_inverse(c, m)) % m == 1
            done += 1


class TestDetectSpecial:
    def test_power_of_two(self):
        assert detect_special(2, 21) == SpecialForm(SpecialKind.POWER_OF_TWO, 1)

    def test_inverse_power_of_two(self):
        # 2 * 11 = 22 = 1 (mod 21)
        assert detect_special(11, 21) == SpecialForm(SpecialKind.INVERSE_POWER_OF_TWO, 1)

    def test_neg_power_of_two(self):
        # 13 = 21 - 8 = -2^3 (mod 21)
        assert detect_special(13, 21) == SpecialForm(SpecialKind.NEG_POWER_OF_TWO, 3)

    def test_no_form(self):
        # 5 is not +-2^k or +-2^-k mod 103 for k < 14
        assert detect_special(5, 103) is None

    def test_requires_coprime(self):
        with pytest.raises(NotCoprime):
            detect_special(6, 21)

    def test_soundness_exhaustive_small(self):
        for m in (21, 35, 65, 77, 91):
            n = m.bit_length()
            for c in range(1, m):
                if gcd(c, m) != 1:
                    continue
                form = detect_special(c, m)
                if form is None:
                    continue
                assert form.k < 2 * n
                assert form.multiplier(m) == c


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
