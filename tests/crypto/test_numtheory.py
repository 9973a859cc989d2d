"""Unit tests for the number-theory primitives."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.numtheory import (
    TABLE_BYTES_CAP,
    FixedBaseTable,
    crt_pair,
    fixture_safe_primes,
    gcd,
    is_probable_prime,
    lcm,
    modinv,
    random_prime,
    random_safe_prime,
    table_entries,
    table_window_bits,
)


class TestMillerRabin:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 101, 7919):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 9, 15, 91, 7917, 561, 41041):  # incl. Carmichael
            assert not is_probable_prime(c)

    def test_large_known_prime(self):
        assert is_probable_prime(2**127 - 1)  # Mersenne prime

    def test_large_known_composite(self):
        assert not is_probable_prime(2**128 + 1)

    def test_negative(self):
        assert not is_probable_prime(-7)


class TestPrimeGeneration:
    def test_random_prime_bits(self):
        rng = random.Random(0)
        p = random_prime(48, rng)
        assert p.bit_length() == 48
        assert is_probable_prime(p)

    def test_random_prime_rejects_tiny(self):
        with pytest.raises(ValueError):
            random_prime(1, random.Random(0))

    def test_safe_prime_structure(self):
        rng = random.Random(0)
        p = random_safe_prime(32, rng)
        assert is_probable_prime(p)
        assert is_probable_prime((p - 1) // 2)
        assert p.bit_length() == 32


class TestFixtures:
    @pytest.mark.parametrize("bits", [64, 96, 128, 192, 256, 512])
    def test_fixture_safe_primes_are_safe(self, bits):
        for p in fixture_safe_primes(bits, count=2):
            assert p.bit_length() == bits
            assert is_probable_prime(p, rounds=10)
            assert is_probable_prime((p - 1) // 2, rounds=10)

    def test_fixtures_distinct(self):
        primes = fixture_safe_primes(128, count=4)
        assert len(set(primes)) == 4

    def test_missing_size_raises(self):
        with pytest.raises(KeyError):
            fixture_safe_primes(77, count=2)


class TestFixedBaseTable:
    def test_matches_builtin_pow(self):
        rng = random.Random(0)
        modulus = fixture_safe_primes(128, count=1)[0]
        base = rng.randrange(2, modulus)
        table = FixedBaseTable(base, modulus, max_exponent_bits=96)
        for _ in range(25):
            e = rng.getrandbits(96)
            assert table.pow(e) == pow(base, e, modulus)

    @pytest.mark.parametrize("window_bits", [1, 3, 5, 8])
    def test_window_sizes_agree(self, window_bits):
        modulus = 10**12 + 39
        table = FixedBaseTable(7, modulus, 64, window_bits=window_bits)
        for e in (0, 1, 2, 63, 2**40 + 17, 2**64 - 1):
            assert table.pow(e) == pow(7, e, modulus)

    def test_exponent_zero_and_max(self):
        table = FixedBaseTable(3, 1009, 8)
        assert table.pow(0) == 1
        assert table.pow(255) == pow(3, 255, 1009)

    def test_out_of_range_exponent_rejected(self):
        table = FixedBaseTable(3, 1009, 8)
        with pytest.raises(ValueError):
            table.pow(256)
        with pytest.raises(ValueError):
            table.pow(-1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            FixedBaseTable(3, 1, 8)
        with pytest.raises(ValueError):
            FixedBaseTable(3, 1009, 0)
        with pytest.raises(ValueError):
            FixedBaseTable(3, 1009, 8, window_bits=0)


class TestPowBatch:
    """The batched table pass is the only evaluation loop: ``pow`` is its
    one-item case, and both equal the built-in ``pow`` on every window
    size (under ``REPRO_BIGINT_BACKEND=gmpy2`` the rows are ``mpz``)."""

    MODULUS = fixture_safe_primes(128, count=1)[0]

    @settings(max_examples=40, deadline=None)
    @given(
        window_bits=st.integers(1, 16),
        windows=st.integers(1, 3),
        data=st.data(),
    )
    def test_matches_pow_and_builtin(self, window_bits, windows, data):
        spare = data.draw(st.integers(0, window_bits - 1), label="spare")
        bits = windows * window_bits - spare
        base = data.draw(st.integers(2, self.MODULUS - 1), label="base")
        table = FixedBaseTable(base, self.MODULUS, bits, window_bits)
        top = (1 << bits) - 1
        exponents = [0, 1, top] + data.draw(
            st.lists(st.integers(0, top), max_size=6), label="exponents"
        )
        expected = [pow(base, e, self.MODULUS) for e in exponents]
        assert table.pow_batch(exponents) == expected
        assert [table.pow(e) for e in exponents] == expected

    @pytest.mark.parametrize("window_bits", [1, 6, 16])
    def test_too_large_exponent_raises(self, window_bits):
        table = FixedBaseTable(5, 1009, 20, window_bits)
        with pytest.raises(ValueError):
            table.pow_batch([3, 1 << 20])
        with pytest.raises(ValueError):
            table.pow_batch([-1])

    def test_empty_batch(self):
        assert FixedBaseTable(5, 1009, 20).pow_batch([]) == []


class TestTableWindow:
    """``table_window_bits``: the run-sized window of the encryption table."""

    USES = [0, 1, 10, 100, 1_000, 1_692, 10_000, 45_000, 10**5, 10**6, 10**8]

    @pytest.mark.parametrize("modulus_bits", [512, 1024, 2048])
    def test_no_uses_gives_the_smallest_window(self, modulus_bits):
        assert table_window_bits(256, 1 << (modulus_bits - 1), 0) == 6

    @pytest.mark.parametrize("modulus_bits", [512, 1024, 2048])
    def test_never_shrinks_as_uses_grow(self, modulus_bits):
        modulus = 1 << (modulus_bits - 1)
        windows = [table_window_bits(256, modulus, uses) for uses in self.USES]
        assert windows == sorted(windows)

    @pytest.mark.parametrize("modulus_bits", [512, 1024, 2048])
    def test_table_bytes_stay_under_the_cap(self, modulus_bits):
        modulus = (1 << modulus_bits) - 1
        for uses in self.USES:
            window = table_window_bits(256, modulus, uses)
            assert 6 <= window <= 16
            assert table_entries(256, window) * modulus_bits // 8 <= TABLE_BYTES_CAP

    @pytest.mark.parametrize(
        "modulus_bits, uses, window",
        [(512, 45_000, 10), (2048, 1_692, 8), (1024, 1_248, 8), (512, 10**8, 10)],
    )
    def test_sized_windows(self, modulus_bits, uses, window):
        assert table_window_bits(256, (1 << modulus_bits) - 1, uses) == window

    def test_rejects_negative_uses(self):
        with pytest.raises(ValueError):
            table_window_bits(256, 1 << 511, -1)


class TestModularArithmetic:
    def test_modinv(self):
        assert modinv(3, 11) == 4
        assert 3 * modinv(3, 10**9 + 7) % (10**9 + 7) == 1

    def test_modinv_not_invertible(self):
        with pytest.raises(ValueError):
            modinv(6, 9)

    def test_crt_pair(self):
        x = crt_pair(2, 3, 3, 5)
        assert x % 3 == 2 and x % 5 == 3

    def test_crt_pair_large(self):
        m1, m2 = 2**61 - 1, 2**89 - 1
        x = crt_pair(0, m1, 1, m2)
        assert x % m1 == 0 and x % m2 == 1

    def test_crt_requires_coprime(self):
        with pytest.raises(ValueError):
            crt_pair(1, 4, 2, 6)

    def test_gcd_lcm(self):
        assert gcd(12, 18) == 6
        assert lcm(4, 6) == 12
        assert gcd(0, 5) == 5
