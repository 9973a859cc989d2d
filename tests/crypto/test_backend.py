"""Tests for the crypto execution backends (serial vs process-pool).

The contract under test: for the same master RNG state, every backend
produces bit-identical ciphertext batches — worker count, chunking, and
scheduling must not leak into results (randomness is derived per item
before dispatch).
"""

import pickle
import random

import pytest

from repro.core import ChiaroscuroParams
from repro.crypto import (
    FastEncryptor,
    FixedBaseTable,
    ProcessPoolBackend,
    SerialBackend,
    create_backend,
    decrypt,
)


@pytest.fixture(scope="module")
def plaintexts():
    rng = random.Random(21)
    return [rng.randrange(1 << 32) for _ in range(12)]


class TestSerialBackend:
    def test_encrypts_decryptable_ciphertexts(self, threshold_keypair, plaintexts):
        backend = SerialBackend()
        cts = backend.encrypt_batch(
            threshold_keypair.public, plaintexts, random.Random(0)
        )
        assert [decrypt(threshold_keypair.private, c) for c in cts] == plaintexts

    def test_deterministic_given_seed(self, threshold_keypair, plaintexts):
        backend = SerialBackend()
        a = backend.encrypt_batch(threshold_keypair.public, plaintexts, random.Random(5))
        b = backend.encrypt_batch(threshold_keypair.public, plaintexts, random.Random(5))
        assert a == b

    def test_partial_decrypt_batch_matches_scalar(self, threshold_keypair, plaintexts):
        from repro.crypto import partial_decrypt

        backend = SerialBackend()
        cts = backend.encrypt_batch(
            threshold_keypair.public, plaintexts, random.Random(1)
        )
        share = threshold_keypair.shares[0]
        batch = backend.partial_decrypt_batch(threshold_keypair.context, share, cts)
        assert batch == [
            partial_decrypt(threshold_keypair.context, share, c) for c in cts
        ]


class TestProcessPoolBackend:
    def test_identical_to_serial(self, threshold_keypair, plaintexts):
        """The reproducibility guarantee: pool == serial, bit for bit."""
        serial = SerialBackend()
        pool = ProcessPoolBackend(max_workers=2, min_batch=1)
        try:
            a = serial.encrypt_batch(
                threshold_keypair.public, plaintexts, random.Random(7)
            )
            b = pool.encrypt_batch(
                threshold_keypair.public, plaintexts, random.Random(7)
            )
            assert a == b
        finally:
            pool.close()

    def test_identical_with_fast_encryptor(self, threshold_keypair, plaintexts):
        encryptor = FastEncryptor(
            threshold_keypair.public, random.Random(9), exponent_bits=128
        )
        serial = SerialBackend(encryptor)
        pool = ProcessPoolBackend(max_workers=2, encryptor=encryptor, min_batch=1)
        try:
            a = serial.encrypt_batch(
                threshold_keypair.public, plaintexts, random.Random(8)
            )
            b = pool.encrypt_batch(
                threshold_keypair.public, plaintexts, random.Random(8)
            )
            assert a == b
            assert [decrypt(threshold_keypair.private, c) for c in a] == plaintexts
        finally:
            pool.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_table_ciphertexts_independent_of_worker_count(
        self, threshold_keypair, plaintexts, workers
    ):
        """The batched table path: serial, 1-worker and 2-worker pools and
        the encryptor's own batch call all give the same ciphertexts for
        the same master RNG state, and they decrypt."""
        public = threshold_keypair.public
        encryptor = FastEncryptor(public, random.Random(31), expected_uses=10**5)
        assert encryptor.table.window_bits == 10
        serial = SerialBackend(encryptor).encrypt_batch(
            public, plaintexts, random.Random(32)
        )
        pool = ProcessPoolBackend(
            max_workers=workers, encryptor=encryptor, min_batch=1
        )
        try:
            pooled = pool.encrypt_batch(public, plaintexts, random.Random(32))
        finally:
            pool.close()
        assert pooled == serial
        assert encryptor.encrypt_batch(plaintexts, random.Random(32)) == serial
        assert [decrypt(threshold_keypair.private, c) for c in serial] == plaintexts

    def test_partial_decrypt_identical_to_serial(self, threshold_keypair, plaintexts):
        serial = SerialBackend()
        pool = ProcessPoolBackend(max_workers=2, min_batch=1)
        try:
            cts = serial.encrypt_batch(
                threshold_keypair.public, plaintexts, random.Random(2)
            )
            share = threshold_keypair.shares[1]
            assert pool.partial_decrypt_batch(
                threshold_keypair.context, share, cts
            ) == serial.partial_decrypt_batch(threshold_keypair.context, share, cts)
        finally:
            pool.close()

    def test_small_batches_stay_in_process(self, threshold_keypair):
        pool = ProcessPoolBackend(max_workers=2, min_batch=100)
        cts = pool.encrypt_batch(threshold_keypair.public, [1, 2, 3], random.Random(3))
        assert pool._executor is None  # never spun up
        assert [decrypt(threshold_keypair.private, c) for c in cts] == [1, 2, 3]

    def test_close_is_reusable(self, threshold_keypair, plaintexts):
        pool = ProcessPoolBackend(max_workers=2, min_batch=1)
        first = pool.encrypt_batch(
            threshold_keypair.public, plaintexts[:4], random.Random(4)
        )
        pool.close()
        second = pool.encrypt_batch(
            threshold_keypair.public, plaintexts[:4], random.Random(4)
        )
        pool.close()
        assert first == second


def _worker_native_builds() -> int:
    """Executed *inside* a pool worker: its process-local build counter."""
    return FixedBaseTable.native_builds


class TestWarmup:
    """Fixed-base table construction is once-per-process, not per-round.

    ``FixedBaseTable.native_builds`` counts the expensive native-row
    (re)builds process-wide; a long run must pay it once per worker (via
    the pool initializer's ``warm()``), never per encryption batch.
    """

    def test_serial_rounds_never_rebuild(self, threshold_keypair):
        encryptor = FastEncryptor(
            threshold_keypair.public, random.Random(17), exponent_bits=128
        ).warm()
        backend = SerialBackend(encryptor)
        before = FixedBaseTable.native_builds
        for round_no in range(6):
            backend.encrypt_batch(
                threshold_keypair.public, [1, 2, 3], random.Random(round_no)
            )
        assert FixedBaseTable.native_builds == before

    def test_unpickled_encryptor_warms_exactly_once(self, threshold_keypair):
        """The worker lifecycle, in-process: unpickling drops the native
        cache, ``warm()`` rebuilds it once, batches after that are free."""
        encryptor = FastEncryptor(
            threshold_keypair.public, random.Random(19), exponent_bits=128
        )
        shipped = pickle.loads(pickle.dumps(encryptor))
        before = FixedBaseTable.native_builds
        shipped.warm()
        assert FixedBaseTable.native_builds == before + 1
        backend = SerialBackend(shipped)
        for round_no in range(4):
            backend.encrypt_batch(
                threshold_keypair.public, [4, 5, 6], random.Random(round_no)
            )
        assert FixedBaseTable.native_builds == before + 1

    def test_pool_worker_builds_do_not_scale_with_rounds(
        self, threshold_keypair, plaintexts
    ):
        """Real pool leg: after N encrypt rounds the single worker's
        build counter equals what it was after round one."""
        encryptor = FastEncryptor(
            threshold_keypair.public, random.Random(23), exponent_bits=128
        )
        pool = ProcessPoolBackend(max_workers=1, encryptor=encryptor, min_batch=1)
        try:
            pool.encrypt_batch(
                threshold_keypair.public, plaintexts, random.Random(0)
            )
            builds_after_first = pool._pool().submit(_worker_native_builds).result()
            for round_no in range(1, 5):
                pool.encrypt_batch(
                    threshold_keypair.public, plaintexts, random.Random(round_no)
                )
            builds_after_many = pool._pool().submit(_worker_native_builds).result()
        finally:
            pool.close()
        assert builds_after_many == builds_after_first


class TestSelection:
    def test_create_backend_names(self):
        assert create_backend("serial").name == "serial"
        backend = create_backend("process", workers=2)
        assert backend.name == "process"
        assert backend.max_workers == 2
        backend.close()

    def test_create_backend_unknown(self):
        with pytest.raises(ValueError, match="unknown crypto backend"):
            create_backend("gpu")

    def test_params_accept_backend_fields(self):
        params = ChiaroscuroParams(crypto_backend="process", backend_workers=4)
        assert params.crypto_backend == "process"
        assert params.backend_workers == 4

    def test_params_reject_unknown_backend(self):
        with pytest.raises(ValueError, match="crypto_backend"):
            ChiaroscuroParams(crypto_backend="quantum")

    def test_params_reject_negative_workers(self):
        with pytest.raises(ValueError, match="backend_workers"):
            ChiaroscuroParams(backend_workers=-1)
