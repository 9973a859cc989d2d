"""The Damgård–Jurik generalized Paillier cryptosystem (Sec. 3.3.1).

Implements the scheme exactly as the paper lists it:

1. public key ``χ = (n, g)`` with ``n`` an RSA modulus and ``g = 1 + n`` in
   ``Z*_{n^{s+1}}``;
2. encryption ``E_χ(a) = g^a · r^{n^s} mod n^{s+1}``;
3. homomorphic addition ``E(a) +_h E(b) = E(a) × E(b)``;
4. scalar multiplication ``E(a)^k = E(k·a)`` (used by the Alg. 2 scaling
   update rule of the EESum protocol);
5. decryption by raising to the CRT exponent ``d`` and extracting the
   discrete log of ``(1+n)^a`` with Damgård–Jurik's recursive algorithm.

Threshold decryption lives in :mod:`repro.crypto.threshold`.

Cost profile (what the batched plane exploits):

* ``g^a`` with ``g = 1 + n`` is a binomial expansion — ``s`` multiplications
  by key-only constants, *not* a modexp (``1 + a·n`` for ``s = 1``), so it
  needs no precomputation table;
* the randomizer ``r^{n^s} mod n^{s+1}`` is the one genuine modexp per
  encryption and dominates the Fig. 5(a) "Encrypt" bar.
  :class:`FastEncryptor` amortizes it with a fixed-base window table over a
  run-fixed base ``h = r₀^{n^s}`` (an encryption of zero): each fresh
  randomizer is ``h^t`` for a short exponent ``t``, costing
  ``ceil(bits(t)/w)`` multiplications instead of a ``bits(n^s)``-bit
  square-and-multiply.  This is the classic Damgård–Jurik–Nielsen
  precomputation trade: semantic security then additionally rests on the
  hardness of discrete logs with short exponents in the randomizer
  subgroup — a fine trade for a reproduction, and the plain per-ciphertext
  path stays available (``randomizer=None``).
"""

from __future__ import annotations

import functools
import hashlib
import math
import random

from . import bigint
from .keys import PrivateKey, PublicKey
from .numtheory import (
    FixedBaseTable,
    crt_pair,
    fixture_safe_primes,
    gcd,
    lcm,
    modinv,
    random_safe_prime,
    table_window_bits,
)

__all__ = [
    "FastEncryptor",
    "SEED_BITS",
    "derive_item_seeds",
    "seed_exponent",
    "generate_keypair",
    "encrypt",
    "encrypt_batch",
    "decrypt",
    "homomorphic_add",
    "homomorphic_add_batch",
    "homomorphic_scalar_mul",
    "encrypt_zero_pool",
    "powers_of_g",
    "dlog_1_plus_n",
]


def generate_keypair(
    key_bits: int,
    s: int = 1,
    rng: random.Random | None = None,
    use_fixtures: bool = True,
) -> PrivateKey:
    """Generate an ``s``-expansion Damgård–Jurik keypair with a ``key_bits`` modulus.

    ``use_fixtures`` pulls pre-generated safe primes (fast, deterministic —
    fine for a reproduction; the paper likewise fixes one 1024-bit key).  Set
    it to ``False`` to generate fresh safe primes with ``rng``.
    """
    rng = rng or random.Random()  # repro-lint: allow=determinism-rng -- entropy fallback for ad-hoc use; protocol paths inject a seeded rng
    half = key_bits // 2
    if use_fixtures:
        try:
            p, q = fixture_safe_primes(half, count=2)
        except KeyError:
            p = random_safe_prime(half, rng)
            q = random_safe_prime(half, rng)
    else:
        p = random_safe_prime(half, rng)
        q = random_safe_prime(half, rng)
    if p == q:
        raise ValueError("p and q must differ")
    n = p * q
    public = PublicKey(n=n, s=s)
    lam = lcm(p - 1, q - 1)
    if gcd(lam, public.n_s) != 1:
        raise ValueError("lambda(n) and n^s must be coprime (use safe primes)")
    d = crt_pair(0, lam, 1, public.n_s)
    return PrivateKey(public=public, p=p, q=q, d=d)


@functools.lru_cache(maxsize=8)
def _binomial_factors(n: int, s: int) -> tuple[int, ...]:
    """``n^i / i! mod n^{s+1}`` for ``i = 1..s``: the key-only part of the
    binomial terms of ``(1+n)^a``."""
    n_s1 = n ** (s + 1)
    factors = []
    inverse_factorial = 1
    for i in range(1, s + 1):
        inverse_factorial = inverse_factorial * modinv(i, n_s1) % n_s1
        factors.append(inverse_factorial * n**i % n_s1)
    return tuple(factors)


def powers_of_g(public: PublicKey, a: int) -> int:
    """Compute ``(1+n)^a mod n^{s+1}`` via binomial expansion.

    ``(1+n)^a = Σ_{i=0}^{s} C(a, i)·n^i (mod n^{s+1})`` — only ``s + 1``
    terms survive, making this dramatically cheaper than a modexp and the
    dominant reason Paillier-family encryption is practical on a device.
    Term ``i`` is the falling factorial ``a(a−1)…(a−i+1)`` times the cached
    key constant ``n^i / i!``, so ``s = 1`` costs one product: ``1 + a·n``.
    """
    n_s1 = public.n_s1
    a %= public.n_s
    result = 1
    falling = 1  # a(a-1)…(a-i+1) mod n^{s+1}
    for i, factor in enumerate(_binomial_factors(public.n, public.s), start=1):
        falling = falling * (a - i + 1) % n_s1
        result += falling * factor
    return result % n_s1


def encrypt(
    public: PublicKey,
    plaintext: int,
    rng: random.Random | None = None,
    randomizer: int | None = None,
) -> int:
    """Encrypt ``plaintext ∈ Z_{n^s}`` under ``public``.

    ``randomizer`` may be a pre-computed ``r^{n^s} mod n^{s+1}`` value (see
    :func:`encrypt_zero_pool`) so bulk encryption amortizes the modexp.
    """
    if randomizer is None:
        rng = rng or random.Random()  # repro-lint: allow=determinism-rng -- entropy fallback for ad-hoc use; protocol paths inject a seeded rng
        while True:
            r = rng.randrange(1, public.n)
            if gcd(r, public.n) == 1:
                break
        randomizer = bigint.powmod(r, public.n_s, public.n_s1)
    return powers_of_g(public, plaintext) * randomizer % public.n_s1


def encrypt_zero_pool(public: PublicKey, count: int, rng: random.Random) -> list[int]:
    """Pre-compute ``count`` fresh randomizers ``r^{n^s} mod n^{s+1}``.

    Each is an encryption of zero; multiplying one into a deterministic
    ``(1+n)^a`` yields a semantically-secure ciphertext.  Devices would do
    this in idle time — the paper's Fig. 5(a) "Encrypt" cost is dominated by
    exactly this modexp.
    """
    pool = []
    for _ in range(count):
        while True:
            r = rng.randrange(1, public.n)
            if gcd(r, public.n) == 1:
                break
        pool.append(bigint.powmod(r, public.n_s, public.n_s1))
    return pool


#: Bits of the per-item seed the master RNG draws for each encryption.
SEED_BITS = 128


def derive_item_seeds(rng: random.Random, count: int) -> list[int]:
    """One 128-bit seed per batch item, drawn from the master RNG in order."""
    return [rng.getrandbits(SEED_BITS) for _ in range(count)]


def seed_exponent(seed: int, exponent_bits: int) -> int:
    """The odd randomizer exponent of one item: ``blake2b(seed)`` masked to
    ``exponent_bits`` bits, with the low bit set.

    The seed is hashed as 16 little-endian bytes into a 32-byte digest, so
    ``exponent_bits`` is at most 256.
    """
    digest = hashlib.blake2b(
        seed.to_bytes(SEED_BITS // 8, "little"), digest_size=32
    ).digest()
    return int.from_bytes(digest, "little") & ((1 << exponent_bits) - 1) | 1


class FastEncryptor:
    """Amortized encryption: fixed-base randomizer powers over ``h = r₀^{n^s}``.

    The base ``h`` is itself a fresh encryption of zero drawn from ``rng`` at
    construction time; every randomizer afterwards is ``h^t``, evaluated
    through a precomputed :class:`FixedBaseTable` (see the module docstring
    for the cost model and the security trade).  One instance is meant to
    live for a whole protocol run and be shared by every local encryption
    of that run.

    **Exponents from seeds.**  Each item comes with a 128-bit seed (see
    :func:`derive_item_seeds`); its exponent is :func:`seed_exponent` of
    that seed — a hash, not a ``random.Random`` per item — so the same
    seeds give the same ciphertexts wherever they are evaluated.
    :meth:`encrypt_seeded` is the one evaluation path: the whole batch goes
    through one :meth:`FixedBaseTable.pow_batch` pass.

    **Window.**  An explicit ``window_bits`` is used as given.  Otherwise
    :func:`repro.crypto.numtheory.table_window_bits` picks it from
    ``expected_uses`` (the randomizers the run will draw): the window that
    minimises table build plus evaluation multiplications, within a 2 MiB
    cap on the table's operand bytes.  ``expected_uses = 0`` gives the
    smallest table, ``w = 6``.

    The object is picklable (it is shipped once to each worker of the
    process-pool backend).
    """

    def __init__(
        self,
        public: PublicKey,
        rng: random.Random,
        exponent_bits: int = 256,
        window_bits: int | None = None,
        expected_uses: int = 0,
    ) -> None:
        if not 64 <= exponent_bits <= 256:
            raise ValueError("exponent_bits must be in [64, 256]")
        self.public = public
        self.exponent_bits = exponent_bits
        while True:
            r0 = rng.randrange(1, public.n)
            if gcd(r0, public.n) == 1:
                break
        h = bigint.powmod(r0, public.n_s, public.n_s1)
        if window_bits is None:
            window_bits = table_window_bits(
                exponent_bits, public.n_s1, expected_uses
            )
        self.table = FixedBaseTable(h, public.n_s1, exponent_bits, window_bits)

    def warm(self) -> "FastEncryptor":
        """Build the table's native-row cache for the current bigint backend.

        Unpickling drops the cache (it may hold backend-native ``mpz``
        values); pool workers warm it once from their initializer so no
        per-batch call pays the rebuild.
        """
        self.table.warm()
        return self

    def encrypt_seeded(self, plaintexts, seeds) -> list[int]:
        """Encrypt ``plaintexts[i]`` with the randomizer of ``seeds[i]``."""
        exponents = [seed_exponent(seed, self.exponent_bits) for seed in seeds]
        randomizers = self.table.pow_batch(exponents)
        public = self.public
        n, n_s1 = public.n, public.n_s1
        if public.s == 1:
            # (1 + a·n)·r ≡ r + n·(a·r mod n)  (mod n²): no full-width product.
            return [
                (r + n * (m * r % n)) % n_s1 for m, r in zip(plaintexts, randomizers)
            ]
        return [
            powers_of_g(public, m) * r % n_s1
            for m, r in zip(plaintexts, randomizers)
        ]

    def encrypt_batch(self, plaintexts: list[int], rng: random.Random) -> list[int]:
        """Encrypt a batch, drawing one item seed per plaintext from ``rng``."""
        return self.encrypt_seeded(
            plaintexts, derive_item_seeds(rng, len(plaintexts))
        )

    def encrypt(self, plaintext: int, rng: random.Random) -> int:
        """Encrypt one plaintext (one item seed drawn from ``rng``)."""
        return self.encrypt_batch([plaintext], rng)[0]


def encrypt_batch(
    public: PublicKey,
    plaintexts: list[int],
    rng: random.Random | None = None,
    encryptor: FastEncryptor | None = None,
) -> list[int]:
    """Encrypt a batch of plaintexts, through ``encryptor`` when given.

    With an encryptor, ``rng`` emits one item seed per plaintext, exactly
    as the backends in :mod:`repro.crypto.backend` draw them, so the
    ciphertexts match a table-backed backend's for the same ``rng`` state.
    Without one, each plaintext draws its randomizer directly from ``rng``.
    """
    if encryptor is not None:
        rng = rng or random.Random()  # repro-lint: allow=determinism-rng -- entropy fallback for ad-hoc use; protocol paths inject a seeded rng
        return encryptor.encrypt_batch(list(plaintexts), rng)
    return [encrypt(public, m, rng=rng) for m in plaintexts]


def homomorphic_add(public: PublicKey, c1: int, c2: int) -> int:
    """``E(a) +_h E(b) = E(a)·E(b) mod n^{s+1}`` (paper Sec. 3.3.1, item 4)."""
    return c1 * c2 % public.n_s1


def homomorphic_add_batch(
    public: PublicKey, batch1: list[int], batch2: list[int]
) -> list[int]:
    """Element-wise homomorphic addition of two equal-length batches."""
    if len(batch1) != len(batch2):
        raise ValueError("batches must have equal length")
    n_s1 = public.n_s1
    return [a * b % n_s1 for a, b in zip(batch1, batch2)]


def homomorphic_scalar_mul(public: PublicKey, ciphertext: int, scalar: int) -> int:
    """``E(a) ×_h k = E(a)^k = E(k·a)``; negative scalars use the inverse."""
    if scalar < 0:
        ciphertext = modinv(ciphertext, public.n_s1)
        scalar = -scalar
    return bigint.powmod(ciphertext, scalar, public.n_s1)


def dlog_1_plus_n(public: PublicKey, u: int) -> int:
    """Recover ``a`` from ``u = (1+n)^a mod n^{s+1}`` (Damgård–Jurik's dLog).

    For ``s = 1`` this is the familiar Paillier ``L`` function
    ``(u − 1) / n``; for larger ``s`` it runs the published recursive
    lifting, reconstructing ``a mod n^j`` for ``j = 1..s``.
    """
    n = public.n
    a = 0
    for j in range(1, public.s + 1):
        n_j = n**j
        t1 = (u % n ** (j + 1) - 1) // n  # L(u mod n^{j+1})
        t2 = a
        i = a
        for k in range(2, j + 1):
            i -= 1
            t2 = t2 * i % n_j
            t1 = (
                t1 - t2 * bigint.powmod(n, k - 1, n_j) * modinv(math.factorial(k), n_j)
            ) % n_j
        a = t1 % n_j
    return a


def _decrypt_reference(private: PrivateKey, ciphertext: int) -> int:
    """Single full-width modexp — the reference path CRT-split is tested
    against for bit-identical results."""
    public = private.public
    u = bigint.powmod(ciphertext, private.d, public.n_s1)
    return dlog_1_plus_n(public, u)


def decrypt(private: PrivateKey, ciphertext: int) -> int:
    """Decrypt with the CRT exponent: ``c^d = (1+n)^a``, then extract ``a``.

    The modexp is CRT-split: ``n^{s+1} = p^{s+1}·q^{s+1}`` are coprime, so
    ``c^d`` is computed modulo each prime power separately and recombined
    with :func:`crt_pair`.  Within ``Z*_{p^{s+1}}`` (a group of order
    ``p^s·(p−1)``) the exponent reduces to ``d mod p^s·(p−1)``, halving both
    the operand width and the exponent length — the classic ~3–4× RSA/
    Paillier decryption speedup, here applied to the Fig. 5 "Decrypt" bar.
    Bit-identical to :func:`_decrypt_reference` for every valid ciphertext
    (ciphertexts are units mod ``n^{s+1}``, so the order-based exponent
    reduction is sound).
    """
    public = private.public
    s1 = public.s + 1
    p_s1 = private.p**s1
    q_s1 = private.q**s1
    u_p = bigint.powmod(
        ciphertext % p_s1, private.d % (p_s1 // private.p * (private.p - 1)), p_s1
    )
    u_q = bigint.powmod(
        ciphertext % q_s1, private.d % (q_s1 // private.q * (private.q - 1)), q_s1
    )
    u = crt_pair(u_p, p_s1, u_q, q_s1)
    return dlog_1_plus_n(public, u)
