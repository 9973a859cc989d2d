"""End-to-end shadow identity for the ``vectorized-crypto`` plane.

The plane's contract: every gossip exchange carries *real* packed
Damgård–Jurik ciphertexts, yet the decoded per-iteration centroids are
bit-identical to the mock ``vectorized`` plane at the same seed — the
crypto is a transparent substrate, not a source of drift.  On top of
that identity the plane must keep every capability the mock plane has:
checkpoint/resume, fault injection, backend/kernel neutrality, and the
``crypto_ms`` telemetry split.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    CheckpointSaved,
    Experiment,
    IterationCompleted,
    PLANES,
    RunSpec,
)
from repro.api.spec import PROTOCOL_PLANES
from repro.crypto import bigint

GMPY2 = "gmpy2" in bigint.available_backends()
needs_gmpy2 = pytest.mark.skipif(
    not GMPY2, reason="gmpy2 not installed (python backend is the default)"
)


def crypto_spec(**overrides) -> RunSpec:
    """A small CER workload that completes 3 full iterations in <1 s."""
    d = {
        "plane": "vectorized-crypto",
        "seed": 5,
        "strategy": "UF3",
        "dataset": {"kind": "cer",
                    "params": {"n_series": 24, "population_scale": 1}},
        "init": {"kind": "courbogen"},
        "params": {"k": 3, "max_iterations": 3, "exchanges": 2,
                   "epsilon": 2000.0, "key_bits": 256, "theta": 0.0},
    }
    d.update(overrides)
    return RunSpec.from_dict(d)


def assert_bit_identical(a, b):
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert np.array_equal(a.centroids, b.centroids)
    for x, y in zip(a.history, b.history):
        assert x.iteration == y.iteration
        assert x.pre_inertia == y.pre_inertia
        assert x.post_inertia == y.post_inertia
        assert x.n_centroids == y.n_centroids
        assert x.epsilon_spent == y.epsilon_spent
        assert np.array_equal(x.centroids, y.centroids)


class TestShadowIdentity:
    def test_decoded_centroids_match_mock_plane(self):
        """The headline identity: real ciphertexts in, the mock plane's
        exact floats out — every iteration, every centroid coordinate."""
        spec = crypto_spec()
        real = Experiment.from_spec(spec).run()
        mock = Experiment.from_spec(spec.with_plane("vectorized")).run()
        assert real.iterations == 3
        assert_bit_identical(real, mock)

    def test_identity_holds_under_churn(self):
        spec = crypto_spec(churn=0.2, seed=9)
        real = Experiment.from_spec(spec).run()
        mock = Experiment.from_spec(spec.with_plane("vectorized")).run()
        assert real.iterations >= 1
        assert_bit_identical(real, mock)

    def test_process_pool_backend_is_bit_identical(self):
        """Worker count is a speed knob, not a semantics knob."""
        serial = Experiment.from_spec(crypto_spec()).run()
        pooled_spec = crypto_spec(
            params={"k": 3, "max_iterations": 3, "exchanges": 2,
                    "epsilon": 2000.0, "key_bits": 256, "theta": 0.0,
                    "crypto_backend": "process", "backend_workers": 2},
        )
        pooled = Experiment.from_spec(pooled_spec).run()
        assert_bit_identical(pooled, serial)

    @needs_gmpy2
    def test_bigint_kernels_are_bit_identical(self):
        """python and gmpy2 arithmetic produce the same decoded run."""
        def run_with(kernel):
            spec = crypto_spec(
                params={"k": 3, "max_iterations": 3, "exchanges": 2,
                        "epsilon": 2000.0, "key_bits": 256, "theta": 0.0,
                        "bigint_backend": kernel},
            )
            return Experiment.from_spec(spec).run()

        assert_bit_identical(run_with("python"), run_with("gmpy2"))


class TestTelemetry:
    def test_crypto_ms_reported_per_iteration(self):
        events = [
            e for e in Experiment.from_spec(crypto_spec()).run_iter()
            if isinstance(e, IterationCompleted)
        ]
        assert len(events) == 3
        assert all(e.crypto_ms is not None and e.crypto_ms > 0 for e in events)

    def test_mock_plane_reports_no_crypto_ms(self):
        spec = crypto_spec().with_plane("vectorized")
        events = [
            e for e in Experiment.from_spec(spec).run_iter()
            if isinstance(e, IterationCompleted)
        ]
        assert events
        assert all(e.crypto_ms is None for e in events)


class TestOpCounts:
    def test_one_iteration_encrypts_the_payload_only(self, monkeypatch):
        """No tracker: an iteration encrypts population × packed_length(dims)
        plaintexts, rows are that wide, the encryption table is sized for
        exactly those draws, and the decode sample decrypts each distinct
        ciphertext once."""
        import repro.core.computation as computation
        import repro.core.protocol as protocol
        from repro.crypto.backend import SerialBackend

        encrypted, decrypted, widths, expected_uses = [], [], [], []
        real_encrypt = SerialBackend.encrypt_batch
        real_partial = SerialBackend.partial_decrypt_batch
        real_encryptor = protocol.FastEncryptor
        real_eesum = computation.CipherEESum

        def encrypt_batch(self, public, plaintexts, rng):
            encrypted.append(len(plaintexts))
            return real_encrypt(self, public, plaintexts, rng)

        def partial_decrypt_batch(self, context, share, ciphertexts):
            decrypted.append(list(ciphertexts))
            return real_partial(self, context, share, ciphertexts)

        def fast_encryptor(*args, **kwargs):
            expected_uses.append(kwargs["expected_uses"])
            return real_encryptor(*args, **kwargs)

        def cipher_eesum(*args, **kwargs):
            eesum = real_eesum(*args, **kwargs)
            widths.append(eesum.array.width)
            return eesum

        monkeypatch.setattr(SerialBackend, "encrypt_batch", encrypt_batch)
        monkeypatch.setattr(
            SerialBackend, "partial_decrypt_batch", partial_decrypt_batch
        )
        monkeypatch.setattr(protocol, "FastEncryptor", fast_encryptor)
        monkeypatch.setattr(computation, "CipherEESum", cipher_eesum)

        spec = crypto_spec()
        experiment = Experiment.from_spec(spec)
        for event in experiment.run_iter():
            if isinstance(event, IterationCompleted):
                break
        run = experiment.context.runtime
        population = run.dataset.t
        per_node = run.packed.packed_length(
            spec.params.k * (run.dataset.n + 1)
        )
        assert per_node >= 2  # a multi-stripe row, as at the frontier
        assert encrypted == [population * per_node]
        assert widths == [per_node]
        funded = spec.params.max_iterations  # UF3 funds all three
        assert expected_uses == [population * per_node * funded]
        assert decrypted and all(
            len(set(batch)) == len(batch) for batch in decrypted
        )


class TestCheckpointResume:
    @pytest.mark.parametrize("kill_after", [1, 2])
    def test_kill_and_resume_bit_identical(self, tmp_path, kill_after):
        spec = crypto_spec()
        uninterrupted = Experiment.from_spec(spec).run()
        assert uninterrupted.iterations == 3

        directory = str(tmp_path / f"kill-{kill_after}")
        saved = 0
        for event in Experiment.from_spec(spec).run_iter(
            checkpoint_dir=directory
        ):
            if isinstance(event, CheckpointSaved):
                saved += 1
                if saved >= kill_after:
                    break  # the "kill": generator simply dropped

        resumed = Experiment.from_spec(spec).run(checkpoint_dir=directory)
        assert_bit_identical(resumed, uninterrupted)


class TestPlaneWiring:
    def test_registered_as_a_protocol_plane(self):
        assert "vectorized-crypto" in PLANES
        assert "vectorized-crypto" in PROTOCOL_PLANES
        plane = PLANES.get("vectorized-crypto")
        assert plane.supports_checkpoint
        assert plane.uses_real_crypto

    def test_with_plane_pivot_reconciles_params(self):
        spec = crypto_spec().with_plane("vectorized")
        assert spec.params.protocol_plane == "vectorized"
        back = spec.with_plane("vectorized-crypto")
        assert back.params.protocol_plane == "vectorized-crypto"
        assert back == crypto_spec()

    def test_faults_accepted_and_run(self):
        """The fault plane drives the crypto plane like any protocol
        plane; an injected network fault changes the decoded output."""
        clean = Experiment.from_spec(crypto_spec()).run()
        faulty_spec = crypto_spec(
            faults=[{"kind": "network", "params": {"loss": 0.1}}],
        )
        faulty = Experiment.from_spec(faulty_spec).run()
        assert faulty.iterations >= 1
        assert not np.array_equal(faulty.centroids, clean.centroids)
