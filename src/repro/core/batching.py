"""Ciphertext planes: how a participant's value vector becomes ciphertexts.

The computation step (Algorithm 3) is agnostic about the wire shape of the
encrypted means: it needs to encrypt value vectors, split the converged
EESum vector into its means/noise halves, homomorphically add them, and
decode decrypted plaintexts back to reals.  A *plane* packages those four
operations so the step can run over either representation:

* :class:`ScalarPlane` — one ciphertext per value, the paper's layout and
  the seed implementation's behaviour;
* :class:`PackedPlane` — :class:`repro.crypto.PackedCodec` slot packing,
  one ciphertext per ``slots`` values, plus one extra **tracker**
  ciphertext ``E(1)`` per participant.

The tracker makes packed decoding exact: every element of an EESum vector
accumulates contributions with the *same* public integer coefficients, so
the decrypted tracker equals the coefficient total ``C`` (``2^count``) and
the bias mass ``B·terms·C`` is subtracted slot-wise (slot layout in
:mod:`repro.crypto.encoding`), bit-identical to the scalar plane.  The
vectorized-crypto step reads ``C`` off the public counter instead; this
plane keeps the tracker because its ``crypto_rng`` also draws the min-id
proposals, so dropping the tracker's seed draws would change its outputs.

Both planes batch all bulk work through a :class:`repro.crypto.backend`
backend (serial or process-pool).
"""

from __future__ import annotations

import random

import numpy as np

from ..crypto.backend import CryptoBackend, SerialBackend
from ..crypto.encoding import FixedPointCodec, PackedCodec
from ..crypto.keys import PublicKey

__all__ = ["CiphertextPlane", "ScalarPlane", "PackedPlane"]


class CiphertextPlane:
    """Common interface; see module docstring for the two implementations."""

    public: PublicKey
    backend: CryptoBackend
    #: extra ciphertexts appended once per participant vector (tracker).
    tracker_length = 0

    def packed_length(self, dims: int) -> int:
        """Ciphertexts carrying ``dims`` values (excluding any tracker)."""
        raise NotImplementedError

    def encrypt_values(self, values, rng: random.Random) -> list[int]:
        """Encode and encrypt a vector of reals."""
        raise NotImplementedError

    def tracker_ciphertexts(self, rng: random.Random) -> list[int]:
        """Fresh tracker ciphertexts for one participant (may be empty)."""
        return []

    def decode_sums(
        self, plaintexts: list[int], dims: int, bias_terms: int = 2
    ) -> np.ndarray:
        """Decode decrypted plaintexts (payload + tracker) to ``dims`` reals.

        ``bias_terms`` is how many biased vectors were homomorphically
        summed element-wise before decryption (means + noise = 2); the
        scalar plane ignores it.
        """
        raise NotImplementedError


class ScalarPlane(CiphertextPlane):
    """One ciphertext per value — the paper's Diptych wire layout."""

    def __init__(
        self,
        public: PublicKey,
        codec: FixedPointCodec,
        backend: CryptoBackend | None = None,
    ) -> None:
        self.public = public
        self.codec = codec
        self.backend = backend or SerialBackend()

    def packed_length(self, dims: int) -> int:
        return dims

    def encrypt_values(self, values, rng: random.Random) -> list[int]:
        plaintexts = [self.codec.encode(float(v)) for v in np.asarray(values).ravel()]
        return self.backend.encrypt_batch(self.public, plaintexts, rng)

    def decode_sums(
        self, plaintexts: list[int], dims: int, bias_terms: int = 2
    ) -> np.ndarray:
        if len(plaintexts) != dims:
            raise ValueError(f"expected {dims} plaintexts, got {len(plaintexts)}")
        return np.array([self.codec.decode(p) for p in plaintexts])


class PackedPlane(CiphertextPlane):
    """Slot-packed ciphertexts plus one tracker ``E(1)`` per participant."""

    tracker_length = 1

    def __init__(
        self,
        public: PublicKey,
        packed: PackedCodec,
        backend: CryptoBackend | None = None,
    ) -> None:
        self.public = public
        self.packed = packed
        self.backend = backend or SerialBackend()

    def packed_length(self, dims: int) -> int:
        return self.packed.packed_length(dims)

    def encrypt_values(self, values, rng: random.Random) -> list[int]:
        plaintexts = self.packed.pack(np.asarray(values, dtype=float).ravel())
        return self.backend.encrypt_batch(self.public, plaintexts, rng)

    def tracker_ciphertexts(self, rng: random.Random) -> list[int]:
        return self.backend.encrypt_batch(self.public, [1], rng)

    def decode_sums(
        self, plaintexts: list[int], dims: int, bias_terms: int = 2
    ) -> np.ndarray:
        if len(plaintexts) != self.packed_length(dims) + self.tracker_length:
            raise ValueError(
                f"expected {self.packed_length(dims)} payload plaintexts plus "
                f"a tracker, got {len(plaintexts)}"
            )
        coefficient_total = plaintexts[-1]
        return np.array(
            self.packed.unpack(
                plaintexts[:-1], dims, bias_multiplier=bias_terms * coefficient_total
            )
        )
