"""Shadow-execution identity for the real-ciphertext vectorized plane.

:class:`CipherEESum` must be *simultaneously* faithful to both references:

* its ciphertext side must match an object-engine :class:`EESum` run with
  real :class:`HomomorphicOps` on the same pairing schedule — the same
  Damgård–Jurik integers, operation for operation;
* its clear side (ω, the epidemic counter) must match the mock
  :class:`VectorizedEESum`'s float sequence bit for bit, because the
  computation step's counter estimates and RNG consumption key off those
  floats.

The schedule is drawn once from the vectorized engine and replayed on the
object engine (``run_pairing_cycle``), exactly as the existing mock-plane
shadow tests do.  Populations 64 and 256, with churn legs; the batch
algebra itself is also pinned bit-identical across the python/gmpy2
bigint kernels and the serial/process execution backends.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.computation import VectorizedCryptoComputationStep
from repro.crypto import PackedCodec, bigint, decrypt, homomorphic_scalar_mul
from repro.crypto.backend import ProcessPoolBackend, SerialBackend
from repro.crypto.damgard_jurik import FastEncryptor
from repro.gossip import (
    EESum,
    GossipEngine,
    VectorizedEESum,
    VectorizedGossipEngine,
)
from repro.gossip.cipher_array import CipherArray, CipherEESum

GMPY2 = "gmpy2" in bigint.available_backends()
needs_gmpy2 = pytest.mark.skipif(
    not GMPY2, reason="gmpy2 not installed (python backend is the default)"
)

WIDTH = 2  # ciphertexts per node: enough to exercise vector semantics
CYCLES = 6


def _encrypt_rows(public, population: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    encryptor = FastEncryptor(public, rng)
    return [
        [encryptor.encrypt(node * WIDTH + j + 1, rng) for j in range(WIDTH)]
        for node in range(population)
    ]


def _shadow_run(public, population: int, churn: float, seed: int, backend=None):
    """One shared schedule through all three protocol implementations."""
    rows = _encrypt_rows(public, population, seed)

    cipher = CipherEESum(public, rows, backend=backend)
    # Mock reference: any values do — only ω/ctr floats are compared, and
    # those depend on the schedule alone.  Last column mirrors the
    # computation step's cleartext counter column.
    mock_values = np.ones((population, 2))
    mock = VectorizedEESum(mock_values)

    obj_engine = GossipEngine(population, seed=seed + 2)
    obj_eesum = EESum(public, {i: list(rows[i]) for i in range(population)})
    obj_engine.setup(obj_eesum)

    vec_engine = VectorizedGossipEngine(population, seed=seed + 1, churn=churn)
    for _ in range(CYCLES):
        left, right = vec_engine.run_cycle(cipher, mock)
        obj_engine.run_pairing_cycle(
            zip(left.tolist(), right.tolist()), obj_eesum
        )
    return cipher, mock, obj_engine, obj_eesum


@pytest.mark.parametrize("population", [64, 256])
@pytest.mark.parametrize("churn", [0.0, 0.25])
def test_ciphertexts_identical_to_object_engine(
    threshold_keypair, population, churn
):
    """Same schedule ⇒ the same Damgård–Jurik integers on every node."""
    cipher, mock, obj_engine, obj_eesum = _shadow_run(
        threshold_keypair.public, population, churn, seed=population
    )
    advanced = 0
    for node in obj_engine.nodes:
        i = node.node_id
        state = obj_eesum.state_of(node)
        assert state.count == int(cipher.count[i])
        assert state.ciphertexts == cipher.row(i)
        assert state.omega == cipher.scaled_omega(i)
        advanced += state.count > 0
    assert advanced > population // 2


@pytest.mark.parametrize("population", [64, 256])
def test_clear_side_identical_to_mock_plane(threshold_keypair, population):
    """ω and the epidemic counter are the mock plane's exact floats."""
    cipher, mock, _engine, _eesum = _shadow_run(
        threshold_keypair.public, population, churn=0.1, seed=population + 7
    )
    assert np.array_equal(cipher.omega, mock.omega)
    assert np.array_equal(cipher.count, mock.count)
    # The cleartext counter column travels through the same (a+b)·0.5 IEEE
    # sequence as the mock matrix's last column.
    assert np.array_equal(cipher.ctr, mock.values[:, -1])


def test_process_pool_backend_is_bit_identical(threshold_keypair):
    """Worker count cannot change a single ciphertext (batch ops are
    deterministic integer arithmetic; chunking is value-neutral)."""
    serial, *_ = _shadow_run(
        threshold_keypair.public, 64, churn=0.0, seed=64,
        backend=SerialBackend(),
    )
    pool_backend = ProcessPoolBackend(max_workers=2, min_batch=1)
    try:
        pooled, *_ = _shadow_run(
            threshold_keypair.public, 64, churn=0.0, seed=64,
            backend=pool_backend,
        )
    finally:
        pool_backend.close()
    assert pooled.array.rows == serial.array.rows
    assert np.array_equal(pooled.omega, serial.omega)


@needs_gmpy2
def test_bigint_kernels_are_bit_identical(threshold_keypair):
    """python and gmpy2 kernels produce the same exchange-round batches."""
    with bigint.use_backend("python"):
        py, *_ = _shadow_run(threshold_keypair.public, 64, 0.0, seed=464)
    with bigint.use_backend("gmpy2"):
        gm, *_ = _shadow_run(threshold_keypair.public, 64, 0.0, seed=464)
    assert py.array.rows == gm.array.rows


def test_crypto_seconds_accumulates(threshold_keypair):
    cipher, *_ = _shadow_run(threshold_keypair.public, 64, 0.0, seed=31)
    assert cipher.crypto_seconds > 0.0


class TestCipherArrayValidation:
    def test_rejects_ragged_rows(self, threshold_keypair):
        with pytest.raises(ValueError, match="equal width"):
            CipherArray(threshold_keypair.public, [[1, 2], [3]])

    def test_rejects_empty(self, threshold_keypair):
        with pytest.raises(ValueError, match="at least one row"):
            CipherArray(threshold_keypair.public, [])

    def test_eesum_needs_two_nodes(self, threshold_keypair):
        with pytest.raises(ValueError, match="population"):
            CipherEESum(threshold_keypair.public, [[1]])


def test_fault_engine_wrap_is_transparent(threshold_keypair):
    """The fault plane's vectorized wrapper drives CipherEESum unchanged:
    with no faults configured the wrapped run is bit-identical."""
    from repro.faults.engines import FaultyVectorizedEngine
    from repro.faults.plan import FaultPlan

    public = threshold_keypair.public
    rows = _encrypt_rows(public, 32, seed=5)
    plain = CipherEESum(public, [list(r) for r in rows])
    wrapped = CipherEESum(public, [list(r) for r in rows])

    engine_a = VectorizedGossipEngine(32, seed=9)
    engine_b = FaultyVectorizedEngine(
        VectorizedGossipEngine(32, seed=9), FaultPlan((), seed=9), iteration=1
    )
    engine_a.run_cycles(CYCLES, plain)
    engine_b.run_cycles(CYCLES, wrapped)
    assert wrapped.array.rows == plain.array.rows
    assert np.array_equal(wrapped.omega, plain.omega)


# ------------------------------------------- C = 2^count, read from the counter
#
# The vectorized-crypto step carries no tracker ciphertext: it decodes with
# the coefficient total C = 2^count taken from the public exchange counter.
# These tests keep an E(1) column in a test-only CipherEESum and check that
# the counter always tells the truth about it, and that the packed slot
# gate still trips loudly when C is read from the counter.

FRACTIONAL_BITS = 8
MAX_ABS = 100.0
DIMS = 7


@st.composite
def exchange_schedules(draw):
    """Exchange batches shaped like the fault plane's pairing cycles.

    Each cycle pairs a random subset of an odd population (churned nodes
    skip the cycle; one online node may be left unpaired).  Each pair runs,
    runs and is replayed in a second batch of the same cycle (duplication),
    or is held back and runs in its own batch one or two cycles later
    (delay; held past the last cycle, it is lost).  Every batch is a set of
    disjoint pairs, as ``exchange_pairs`` requires.
    """
    population = draw(st.sampled_from([3, 5, 7, 9]))
    batches: list[list[tuple[int, int]]] = []
    delayed: list[tuple[int, int, tuple[int, int]]] = []  # (due, origin, pair)
    for cycle in range(draw(st.integers(1, 4))):
        online = draw(st.permutations(range(population)))
        online = online[: draw(st.integers(0, population))]
        run, replayed = [], []
        for pair in zip(online[0::2], online[1::2]):
            fate = draw(st.sampled_from(["run", "duplicate", "delay"]))
            if fate == "delay":
                delayed.append((cycle + draw(st.integers(1, 2)), cycle, pair))
                continue
            run.append(pair)
            if fate == "duplicate":
                replayed.append(pair)
        due = sorted({origin for when, origin, _ in delayed if when == cycle})
        late = [
            [pair for when, o, pair in delayed if when == cycle and o == origin]
            for origin in due
        ]
        batches.extend(batch for batch in [run, replayed, *late] if batch)
    return population, batches


@settings(max_examples=40, deadline=None)
@given(schedule=exchange_schedules(), seed=st.integers(0, 2**32 - 1))
def test_tracker_column_decrypts_to_two_to_the_count(keypair128, schedule, seed):
    """Alg. 2's delayed division keeps an E(1) column at exactly 2^count,
    under churn, odd populations, uneven counters, replays and delays —
    so decoding with C from the counter equals decoding with C decrypted."""
    public = keypair128.public
    population, batches = schedule
    packed = PackedCodec.plan(
        public, fractional_bits=FRACTIONAL_BITS, max_abs_value=MAX_ABS,
        population=1, exchanges=len(batches), terms=1,
    )
    rng = random.Random(seed)
    values = np.array(
        [[rng.uniform(-MAX_ABS, MAX_ABS) for _ in range(DIMS)]
         for _ in range(population)]
    )
    encryptor = FastEncryptor(public, rng)
    rows = [
        encryptor.encrypt_batch(stripes + [1], rng)  # payload + E(1) column
        for stripes in packed.pack(values)
    ]
    cipher = CipherEESum(public, rows)
    # Clear reference: each node's integer coefficient on every contributor.
    coefficients = [[int(i == j) for j in range(population)]
                    for i in range(population)]
    for batch in batches:
        left, right = (np.array(side) for side in zip(*batch))
        for l, r in batch:
            gap = int(cipher.count[l]) - int(cipher.count[r])
            lagging = l if gap < 0 else r
            coefficients[lagging] = [c << abs(gap) for c in coefficients[lagging]]
            merged = [a + b for a, b in zip(coefficients[l], coefficients[r])]
            coefficients[l], coefficients[r] = merged, list(merged)
        cipher.exchange_pairs(left, right)

    fixed = np.round(values * (1 << FRACTIONAL_BITS)).astype(np.int64)
    for node in range(population):
        plain = [decrypt(keypair128, c) for c in cipher.row(node)]
        count = int(cipher.count[node])
        tracker = plain[-1]
        assert tracker == 1 << count == sum(coefficients[node])
        from_column = [
            v / (tracker << FRACTIONAL_BITS)
            for v in packed.unpack_integers(plain[:-1], DIMS, tracker)
        ]
        from_counter = VectorizedCryptoComputationStep.decode_row(
            packed, plain[:-1], DIMS, count
        )
        assert np.array_equal(from_counter, np.array(from_column))
        exact = [
            sum(c * int(f) for c, f in zip(coefficients[node], fixed[:, d]))
            for d in range(DIMS)
        ]
        assert packed.unpack_integers(plain[:-1], DIMS, 1 << count) == exact


@pytest.mark.parametrize("cycles", [1, 4, 9])
def test_slot_gate_with_counter_coefficient_total(keypair128, cycles):
    """A codec planned for ``cycles`` decodes exactly up to its slot
    capacity and raises one count past it — never wrapped values."""
    public = keypair128.public
    packed = PackedCodec.plan(
        public, fractional_bits=FRACTIONAL_BITS, max_abs_value=MAX_ABS,
        population=1, exchanges=cycles, terms=1,
    )
    # The gate admits 2·B·2^count ≤ 2^slot_bits.
    capacity = packed.slot_bits - packed.value_bits - 1
    assert capacity >= cycles
    widest = (packed.bias - 1) / packed.scale  # |f| = B − 1, the slot's edge
    values = np.array([widest, -widest, 0.0, widest, -widest, 1.5, -widest])
    rng = random.Random(cycles)
    row = FastEncryptor(public, rng).encrypt_batch(packed.pack(values), rng)
    fixed = [int(round(v * packed.scale)) for v in values]
    for count in range(capacity + 3):
        # All the coefficient mass on one contributor: the largest slots
        # a node with this counter can hold.
        plain = [
            decrypt(keypair128, homomorphic_scalar_mul(public, c, 1 << count))
            for c in row
        ]
        if count <= capacity:
            decoded = VectorizedCryptoComputationStep.decode_row(
                packed, plain, len(values), count
            )
            assert np.array_equal(decoded, values)
            assert packed.unpack_integers(plain, len(values), 1 << count) == [
                f << count for f in fixed
            ]
        else:
            with pytest.raises(ValueError, match="slot capacity"):
                VectorizedCryptoComputationStep.decode_row(
                    packed, plain, len(values), count
                )
