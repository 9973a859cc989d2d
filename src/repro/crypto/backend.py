"""Crypto execution backends: batched encryption and partial decryption.

The batched plane funnels every bulk ciphertext operation through a
:class:`CryptoBackend` so the execution strategy is swappable without
touching protocol code:

* :class:`SerialBackend` — the in-process reference implementation;
* :class:`ProcessPoolBackend` — fans batches out over a
  ``ProcessPoolExecutor``, the right tool for the pure-Python big-int
  arithmetic that dominates local costs (it is CPU-bound and releases no
  GIL).

**Determinism.** Reproducibility across backends is a hard requirement
(the protocol seeds everything).  Randomness is therefore *derived per
item, not per worker*: the caller's ``rng`` emits one 128-bit seed per
plaintext **before** dispatch, and each ciphertext is a function of its
plaintext and its seed alone.  With a table-backed
:class:`FastEncryptor` (every protocol plane uses one) the seed becomes
the randomizer exponent through a hash
(:func:`repro.crypto.damgard_jurik.seed_exponent`), and a whole batch —
or a worker's whole chunk — is evaluated by one
:meth:`FastEncryptor.encrypt_seeded` call, windows outer and items
inner; the encryptor's table window is sized to the run's expected
number of randomizers (see :class:`FastEncryptor`).  Without an
encryptor, each encryption draws its randomizer from its own
``random.Random(seed)``.  Worker count, chunking, and scheduling order
then cannot change any ciphertext — the serial and process-pool backends
produce bit-identical batches from the same master RNG state.  Partial
decryption is deterministic to begin with.  (Note the seed derivation
caps each randomizer's entropy at 128 bits — below the raw randomizer
space but in line with the short-exponent security model
:class:`FastEncryptor` already assumes.)

Backends are selected by name through :func:`create_backend`, which is the
hook :class:`repro.core.ChiaroscuroParams` plugs into (``crypto_backend``
/ ``backend_workers`` fields).
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor

from . import bigint
from .damgard_jurik import FastEncryptor, derive_item_seeds, encrypt
from .keys import KeyShare, PublicKey, ThresholdContext

__all__ = [
    "CryptoBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "create_backend",
    "derive_item_seeds",
]


def _encrypt_items(
    public: PublicKey,
    encryptor: FastEncryptor | None,
    plaintexts: list[int],
    seeds: list[int],
) -> list[int]:
    """Encrypt items from their derived seeds (shared by all backends)."""
    if encryptor is not None:
        return encryptor.encrypt_seeded(plaintexts, seeds)
    return [
        encrypt(public, m, rng=random.Random(seed))
        for m, seed in zip(plaintexts, seeds)
    ]


def _partial_decrypt_exponent(context: ThresholdContext, share: KeyShare) -> int:
    """The exponent ``2Δ·d_i`` of one participant's partial decryption."""
    return 2 * context.delta * share.value


# --- process-pool worker side -------------------------------------------
# The (potentially table-backed) encryptor ships once per worker through the
# pool initializer, together with the parent's resolved bigint backend name
# (workers must re-select it — the selection is process-global state, and a
# spec/CLI choice made in the parent would otherwise be invisible to them).
# Chunks then carry only plaintexts and seeds.

_WORKER_ENCRYPTOR: FastEncryptor | None = None


def _init_worker(encryptor: FastEncryptor | None, bigint_backend: str) -> None:
    global _WORKER_ENCRYPTOR
    _WORKER_ENCRYPTOR = encryptor
    bigint.select_backend(bigint_backend)
    if encryptor is not None:
        # Warm the fixed-base table *after* the backend re-selection: the
        # unpickled table has no native-row cache, and building it here —
        # once per worker process — keeps it out of every batch. Without
        # this, the first batch of each worker (and, before tables became
        # backend-aware, *every* batch) paid the full table rebuild.
        encryptor.warm()


def _encrypt_chunk(public: PublicKey, items: list[tuple[int, int]]) -> list[int]:
    plaintexts = [plaintext for plaintext, _ in items]
    seeds = [seed for _, seed in items]
    return _encrypt_items(public, _WORKER_ENCRYPTOR, plaintexts, seeds)


def _pow_chunk(exponent: int, modulus: int, chunk: list[int]) -> list[int]:
    return bigint.powmod_batch(chunk, exponent, modulus)


def _mulmod_chunk(
    modulus: int, chunk: tuple[list[int], list[int]]
) -> list[int]:
    lefts, rights = chunk
    return bigint.mulmod_pairwise(lefts, rights, modulus)


class CryptoBackend:
    """Interface both backends implement (and custom ones may)."""

    name = "abstract"

    def encrypt_batch(
        self, public: PublicKey, plaintexts: list[int], rng: random.Random
    ) -> list[int]:
        raise NotImplementedError

    def partial_decrypt_batch(
        self, context: ThresholdContext, share: KeyShare, ciphertexts: list[int]
    ) -> list[int]:
        raise NotImplementedError

    def pow_batch(
        self, bases: list[int], exponent: int, modulus: int
    ) -> list[int]:
        """``[b**exponent mod modulus]`` with one shared exponent — the
        scalar-multiplication shape of a gossip exchange round (every
        lagging pair side scales its vector by the same ``2^d``)."""
        raise NotImplementedError

    def mulmod_batch(
        self, lefts: list[int], rights: list[int], modulus: int
    ) -> list[int]:
        """Elementwise ``lefts[i]·rights[i] mod modulus`` — the
        homomorphic-add shape of a whole exchange round."""
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (no-op for in-process backends)."""


class SerialBackend(CryptoBackend):
    """In-process reference backend; optionally table-accelerated."""

    name = "serial"

    def __init__(self, encryptor: FastEncryptor | None = None) -> None:
        self.encryptor = encryptor

    def encrypt_batch(
        self, public: PublicKey, plaintexts: list[int], rng: random.Random
    ) -> list[int]:
        seeds = derive_item_seeds(rng, len(plaintexts))
        return _encrypt_items(public, self.encryptor, plaintexts, seeds)

    def partial_decrypt_batch(
        self, context: ThresholdContext, share: KeyShare, ciphertexts: list[int]
    ) -> list[int]:
        exponent = _partial_decrypt_exponent(context, share)
        return bigint.powmod_batch(ciphertexts, exponent, context.public.n_s1)

    def pow_batch(
        self, bases: list[int], exponent: int, modulus: int
    ) -> list[int]:
        return bigint.powmod_batch(bases, exponent, modulus)

    def mulmod_batch(
        self, lefts: list[int], rights: list[int], modulus: int
    ) -> list[int]:
        return bigint.mulmod_pairwise(lefts, rights, modulus)


class ProcessPoolBackend(CryptoBackend):
    """Fan batches out over worker processes.

    The executor is created lazily on first use and recreated after
    :meth:`close`, so one backend object can serve several protocol runs.
    Batches smaller than ``min_batch`` stay in-process — dispatch overhead
    would dwarf the arithmetic.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int = 0,
        encryptor: FastEncryptor | None = None,
        min_batch: int = 8,
    ) -> None:
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self.encryptor = encryptor
        self.min_batch = min_batch
        self._executor: ProcessPoolExecutor | None = None
        self._serial = SerialBackend(encryptor)

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_worker,
                initargs=(self.encryptor, bigint.active_backend()),
            )
        return self._executor

    def _chunks(self, items: list) -> list[list]:
        per_chunk = max(1, -(-len(items) // (4 * self.max_workers)))
        return [items[i : i + per_chunk] for i in range(0, len(items), per_chunk)]

    def encrypt_batch(
        self, public: PublicKey, plaintexts: list[int], rng: random.Random
    ) -> list[int]:
        # Seeds are derived up front either way, so falling back to the
        # serial path for small batches cannot change the output.
        if len(plaintexts) < self.min_batch:
            return self._serial.encrypt_batch(public, plaintexts, rng)
        seeds = derive_item_seeds(rng, len(plaintexts))
        chunks = self._chunks(list(zip(plaintexts, seeds)))
        out: list[int] = []
        for chunk_result in self._pool().map(
            _encrypt_chunk, [public] * len(chunks), chunks
        ):
            out.extend(chunk_result)
        return out

    def partial_decrypt_batch(
        self, context: ThresholdContext, share: KeyShare, ciphertexts: list[int]
    ) -> list[int]:
        if len(ciphertexts) < self.min_batch:
            return self._serial.partial_decrypt_batch(context, share, ciphertexts)
        exponent = _partial_decrypt_exponent(context, share)
        n_s1 = context.public.n_s1
        chunks = self._chunks(list(ciphertexts))
        out: list[int] = []
        for chunk_result in self._pool().map(
            _pow_chunk, [exponent] * len(chunks), [n_s1] * len(chunks), chunks
        ):
            out.extend(chunk_result)
        return out

    def pow_batch(
        self, bases: list[int], exponent: int, modulus: int
    ) -> list[int]:
        if len(bases) < self.min_batch:
            return self._serial.pow_batch(bases, exponent, modulus)
        chunks = self._chunks(list(bases))
        out: list[int] = []
        for chunk_result in self._pool().map(
            _pow_chunk, [exponent] * len(chunks), [modulus] * len(chunks), chunks
        ):
            out.extend(chunk_result)
        return out

    def mulmod_batch(
        self, lefts: list[int], rights: list[int], modulus: int
    ) -> list[int]:
        # Per-element work is one multiply — far cheaper than a powmod —
        # so sharding only pays beyond a much larger floor (pickling two
        # ciphertexts per element is the dominant dispatch cost).
        if len(lefts) < max(self.min_batch, 512):
            return self._serial.mulmod_batch(lefts, rights, modulus)
        pair_chunks = [
            (chunk, rights[i : i + len(chunk)])
            for chunk, i in self._chunks_with_offsets(list(lefts))
        ]
        out: list[int] = []
        for chunk_result in self._pool().map(
            _mulmod_chunk, [modulus] * len(pair_chunks), pair_chunks
        ):
            out.extend(chunk_result)
        return out

    def _chunks_with_offsets(self, items: list) -> list[tuple[list, int]]:
        per_chunk = max(1, -(-len(items) // (4 * self.max_workers)))
        return [
            (items[i : i + per_chunk], i)
            for i in range(0, len(items), per_chunk)
        ]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def create_backend(
    name: str = "serial",
    workers: int = 0,
    encryptor: FastEncryptor | None = None,
) -> CryptoBackend:
    """Build a backend by name (``"serial"`` or ``"process"``)."""
    if name == "serial":
        return SerialBackend(encryptor)
    if name == "process":
        return ProcessPoolBackend(max_workers=workers, encryptor=encryptor)
    raise ValueError(f"unknown crypto backend {name!r} (use 'serial' or 'process')")
