"""Tests for the signed fixed-point codec and the packed-slot codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import FixedPointCodec, PackedCodec, PublicKey


class TestRoundTrip:
    def test_positive(self, keypair128):
        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        assert codec.decode(codec.encode(3.25)) == pytest.approx(3.25)

    def test_negative(self, keypair128):
        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        assert codec.decode(codec.encode(-7.125)) == pytest.approx(-7.125)

    def test_zero(self, keypair128):
        codec = FixedPointCodec(keypair128.public)
        assert codec.decode(codec.encode(0.0)) == 0.0

    def test_resolution(self, keypair128):
        codec = FixedPointCodec(keypair128.public, fractional_bits=32)
        value = 0.123456789
        assert codec.decode(codec.encode(value)) == pytest.approx(value, abs=2**-31)

    @settings(max_examples=50, deadline=None)
    @given(value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_roundtrip_property(self, keypair128, value):
        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        assert codec.decode(codec.encode(value)) == pytest.approx(value, abs=2**-23)


class TestAdditivity:
    def test_sum_of_encodings(self, keypair128):
        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        pub = keypair128.public
        total = (codec.encode(-3.5) + codec.encode(1.25) + codec.encode(10.0)) % pub.n_s
        assert codec.decode(total) == pytest.approx(7.75)

    def test_extra_shift_delayed_division(self, keypair128):
        """Decoding after the EESum 2^j scaling divides back correctly."""
        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        pub = keypair128.public
        scaled = codec.encode(-5.5) * 16 % pub.n_s
        assert codec.decode(scaled, extra_shift=4) == pytest.approx(-5.5)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        b=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    )
    def test_additivity_property(self, keypair128, a, b):
        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        total = (codec.encode(a) + codec.encode(b)) % keypair128.public.n_s
        assert codec.decode(total) == pytest.approx(a + b, abs=2**-22)


class TestCapacity:
    def test_capacity_ok(self, keypair128):
        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        codec.check_capacity(max_abs_value=100.0, population=1000, exchanges=40)

    def test_capacity_overflow_detected(self, keypair128):
        codec = FixedPointCodec(keypair128.public, fractional_bits=48)
        with pytest.raises(ValueError, match="plaintext space too small"):
            codec.check_capacity(max_abs_value=1e9, population=10**9, exchanges=200)

    def test_s2_extends_capacity(self, keypair_s2):
        codec = FixedPointCodec(keypair_s2.public, fractional_bits=48)
        codec.check_capacity(max_abs_value=1e9, population=10**9, exchanges=200)


@pytest.fixture()
def packed(keypair128):
    """16 fractional bits, values < 2^8, room for a 2^12 coefficient mass."""
    return PackedCodec(
        keypair128.public, fractional_bits=16, value_bits=24, accumulation_bits=12
    )


class TestPackedRoundTrip:
    def test_exact_on_grid(self, packed):
        """Values on the fixed-point grid round-trip exactly — not approximately."""
        values = [1.5, -2.25, 100.0, -127.875, 0.0, 42.0625]
        assert packed.unpack(packed.pack(values), len(values)) == values

    def test_multiple_plaintexts(self, packed):
        values = [float(i) - 20.0 for i in range(3 * packed.slots + 1)]
        plaintexts = packed.pack(values)
        assert len(plaintexts) == packed.packed_length(len(values)) == 4
        assert packed.unpack(plaintexts, len(values)) == values

    def test_empty(self, packed):
        assert packed.pack([]) == []
        assert packed.unpack([], 0) == []

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-255.0, max_value=255.0, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_roundtrip_property(self, keypair128, values):
        codec = PackedCodec(
            keypair128.public, fractional_bits=16, value_bits=24, accumulation_bits=12
        )
        grid = [round(v * codec.scale) / codec.scale for v in values]
        assert codec.unpack(codec.pack(grid), len(grid)) == grid

    def test_value_exceeding_slot_raises(self, packed):
        with pytest.raises(ValueError, match="slot capacity"):
            packed.pack([300.0])  # |f| = 300·2^16 ≥ 2^24

    def test_unpack_integers_exact(self, packed):
        values = [3.5, -3.5]
        ints = packed.unpack_integers(packed.pack(values), 2)
        assert ints == [round(3.5 * packed.scale), -round(3.5 * packed.scale)]


#: A ~1023-bit plaintext space: room for several slots wider than 64 bits.
WIDE_KEY = PublicKey(n=(1 << 1023) + 1155)


def reference_pack(codec: PackedCodec, row) -> list[int]:
    """The module docstring's slot layout, one Python integer at a time."""
    fixed = [round(float(v) * codec.scale) for v in row]
    for f, v in zip(fixed, row):
        if abs(f) >= codec.bias:
            raise ValueError(f"value {v} exceeds the slot capacity")
    fixed += [0] * (codec.packed_length(len(fixed)) * codec.slots - len(fixed))
    return [
        sum(
            (f + codec.bias) << (i * codec.slot_bits)
            for i, f in enumerate(fixed[start : start + codec.slots])
        )
        for start in range(0, len(fixed), codec.slots)
    ]


class TestPackRows:
    """``pack_rows`` packs a whole population at once; ``pack`` is its
    one-row case.  Both must equal the plain integer layout for every slot
    width, including slots and values wider than 63 bits."""

    @settings(max_examples=60, deadline=None)
    @given(
        fractional_bits=st.integers(0, 40),
        extra_bits=st.integers(1, 60),
        accumulation_bits=st.integers(1, 70),
        rows=st.integers(0, 4),
        count=st.integers(0, 25),
        data=st.data(),
    )
    def test_matches_reference_and_row_wise_pack(
        self, fractional_bits, extra_bits, accumulation_bits, rows, count, data
    ):
        value_bits = fractional_bits + extra_bits
        codec = PackedCodec(
            WIDE_KEY, fractional_bits, value_bits, accumulation_bits
        )
        top = (1 << (value_bits - 1)) - 1
        fixed = data.draw(
            st.lists(st.integers(-top, top), min_size=rows * count,
                     max_size=rows * count),
            label="fixed",
        )
        matrix = (np.array(fixed, dtype=float) / codec.scale).reshape(rows, count)
        packed = codec.pack_rows(matrix)
        assert packed == [reference_pack(codec, row) for row in matrix]
        assert packed == [codec.pack(row) for row in matrix]
        if rows:
            assert codec.pack(matrix) == packed

    @pytest.mark.parametrize("value_bits", [24, 62, 63, 90])
    def test_range_gate_boundary(self, value_bits):
        codec = PackedCodec(WIDE_KEY, 0, value_bits, 4)
        edge = float((1 << value_bits) - (1 << max(0, value_bits - 53)))
        row = [edge, -edge]
        assert codec.pack_rows([row]) == [reference_pack(codec, row)]
        with pytest.raises(ValueError, match="slot capacity"):
            codec.pack_rows([[0.0, float(1 << value_bits)]])
        with pytest.raises(ValueError, match="slot capacity"):
            codec.pack_rows([[-float(1 << value_bits)]])

    @pytest.mark.parametrize("value_bits", [24, 80])
    def test_same_range_error_as_row_wise_pack(self, value_bits):
        codec = PackedCodec(WIDE_KEY, 16, value_bits, 12)
        matrix = np.zeros((3, 5))
        matrix[1, 3] = 2.0 ** (value_bits - 16)  # the first out-of-range value
        matrix[2, 0] = -(2.0 ** (value_bits - 15))
        with pytest.raises(ValueError, match="slot capacity") as whole:
            codec.pack_rows(matrix)
        with pytest.raises(ValueError, match="slot capacity") as one_row:
            codec.pack(matrix[1])
        assert str(whole.value) == str(one_row.value)

    @pytest.mark.parametrize("block_slots", [1, 7, 1 << 20])
    def test_row_blocks_do_not_change_the_result(self, monkeypatch, block_slots):
        codec = PackedCodec(WIDE_KEY, 16, 24, 12)
        matrix = np.arange(-60.0, 60.0, 0.5).reshape(20, 12)
        expected = [reference_pack(codec, row) for row in matrix]
        monkeypatch.setattr(PackedCodec, "_BLOCK_SLOTS", block_slots)
        assert codec.pack_rows(matrix) == expected
        matrix[13, 4] = 300.0  # the first bad value, in a later block
        matrix[17, 0] = 400.0
        with pytest.raises(ValueError, match="value 300.0 exceeds"):
            codec.pack_rows(matrix)

    def test_nan_is_out_of_range(self, packed):
        with pytest.raises(ValueError, match="slot capacity"):
            packed.pack_rows([[1.0, float("nan")]])

    def test_rejects_other_shapes(self, packed):
        with pytest.raises(ValueError, match="2-D"):
            packed.pack_rows([1.0, 2.0])


class TestPackedAccumulation:
    def test_homomorphic_sum_with_bias_multiplier(self, packed):
        """Plaintext-level additivity: slot-wise sums decode exactly once the
        accumulated bias mass is subtracted."""
        n_s = packed.public.n_s
        a = packed.pack([1.25, -7.5, 3.0])
        b = packed.pack([-0.75, 2.5, 40.0])
        summed = [(x + y) % n_s for x, y in zip(a, b)]
        assert packed.unpack(summed, 3, bias_multiplier=2) == [0.5, -5.0, 43.0]

    def test_scaled_sum_matches_scalar_codec(self, packed, keypair128):
        """EESum-style coefficients: 4·x + 2·y decodes identically on both
        codecs (same signed fixed-point integer)."""
        scalar = FixedPointCodec(keypair128.public, fractional_bits=16)
        n_s = keypair128.public.n_s
        x, y = -3.125, 10.5
        packed_sum = [
            (4 * p + 2 * q) % n_s
            for p, q in zip(packed.pack([x]), packed.pack([y]))
        ]
        scalar_sum = (4 * scalar.encode(x) + 2 * scalar.encode(y)) % n_s
        assert packed.unpack(packed_sum, 1, bias_multiplier=6) == [
            scalar.decode(scalar_sum)
        ]

    def test_overflowing_mass_detected(self, packed):
        """The decode-time soundness gate refuses an unsound unpack."""
        plaintexts = packed.pack([1.0])
        with pytest.raises(ValueError, match="coefficient mass"):
            packed.unpack(plaintexts, 1, bias_multiplier=1 << 13)

    def test_extra_shift(self, packed):
        n_s = packed.public.n_s
        scaled = [(p * 8) % n_s for p in packed.pack([-5.5])]
        assert packed.unpack(scaled, 1, bias_multiplier=8, extra_shift=3) == [-5.5]


class TestPackedPlanning:
    def test_plan_fits_capacity(self, keypair128):
        codec = PackedCodec.plan(
            keypair128.public,
            fractional_bits=16,
            max_abs_value=100.0,
            population=50,
            exchanges=30,
            terms=2,
        )
        assert codec.slots >= 1
        # planned accumulation covers the declared coefficient mass
        assert 2 * codec.bias * (50 * 2 * (1 << 30)) <= 1 << codec.slot_bits

    def test_plan_rejects_impossible(self, keypair128):
        with pytest.raises(ValueError, match="plaintext space too small"):
            PackedCodec.plan(
                keypair128.public,
                fractional_bits=16,
                max_abs_value=100.0,
                population=10**6,
                exchanges=400,
            )

    def test_packs_several_slots_at_modest_accumulation(self, keypair128):
        codec = PackedCodec.plan(
            keypair128.public,
            fractional_bits=16,
            max_abs_value=100.0,
            population=1,
            exchanges=1,
            terms=2,
        )
        assert codec.slots >= 4  # a 255-bit plaintext carries several slots

    def test_invalid_parameters(self, keypair128):
        with pytest.raises(ValueError):
            PackedCodec(keypair128.public, fractional_bits=16, value_bits=10)
        with pytest.raises(ValueError):
            PackedCodec(
                keypair128.public,
                fractional_bits=16,
                value_bits=200,
                accumulation_bits=100,
            )  # slot wider than the plaintext


class TestQuantizeToGrid:
    """quantize_to_grid is the grid contract between the mock-homomorphic
    plane and the real codec: it must equal encode→decode elementwise."""

    def test_matches_codec_roundtrip(self, keypair128):
        import numpy as np

        from repro.crypto import FixedPointCodec, quantize_to_grid

        codec = FixedPointCodec(keypair128.public, fractional_bits=24)
        rng = np.random.default_rng(5)
        values = rng.uniform(-50.0, 50.0, size=200)
        gridded = quantize_to_grid(values, 24)
        roundtripped = np.array([codec.decode(codec.encode(v)) for v in values])
        assert np.array_equal(gridded, roundtripped)
