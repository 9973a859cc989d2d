"""The benchmark's own tests: tiny shapes of each workload, in seconds.

Each tiny shape goes through the real harness (fresh-interpreter runs,
output checks, tracer, result schema); the checks and the tracer are also
tested on hand-made inputs so a broken check cannot pass silently.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import tracer
import workloads

#: Per-workload overrides that keep every layer the workload exercises
#: while shrinking it to about a second per run.
TINY = {
    "frontier-encrypt": ({"points_per_cluster": 20}, {"max_iterations": 2}),
    "paper-exchange": ({"n_series": 16},
                       {"max_iterations": 2, "exchanges": 3, "key_bits": 256}),
    "mock-population": ({"n_series": 400},
                        {"max_iterations": 2, "k": 4, "epsilon": 100000.0}),
    "object-decrypt": ({"n_series": 6},
                       {"max_iterations": 2, "exchanges": 3, "key_bits": 256,
                        "tau_fraction": 0.34}),
}

#: Counters each workload exists to exercise (must be non-zero when traced).
EXERCISED = {
    "frontier-encrypt": ("crypto.encryptions", "crypto.pack_calls", "crypto.mulmods"),
    "paper-exchange": ("crypto.encryptions", "crypto.bytes_to_workers",
                       "crypto.partial_decryptions"),
    "mock-population": ("core.noise_shares", "gossip.exchanges",
                        "clustering.assign_calls"),
    "object-decrypt": ("gossip.object_cycles", "crypto.partial_decryptions",
                       "crypto.encryptions"),
}


def tiny_spec(name: str, seed: int = 3) -> dict:
    spec = workloads.spec_dict(name, seed)
    dataset_params, params = TINY[name]
    spec["dataset"]["params"].update(dataset_params)
    spec["params"].update(params)
    return spec


def declared(section: str) -> list[str]:
    document = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in document[section]]


def test_benchmark_json_names_every_workload():
    document = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in document["workloads"]] == list(workloads.WORKLOADS)
    assert declared("end_to_end") == list(run.END_TO_END_UNITS)
    assert set(declared("per_layer")) == (
        {f"{span}_s" for span in tracer.SPANS} | set(tracer.COUNT_METRICS)
        | {"core.residual_s", "trace.overhead_pct"}
    )


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_traced(name, tmp_path):
    record = run.bench(tiny_spec(name), seconds=0, trace=True, out_dir=tmp_path)
    result = record["result"]
    assert record["problems"] == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 2 * len(record["runs"])
    assert list(result["metrics"]) == declared("per_layer")
    metrics = {key: value["value"] for key, value in result["metrics"].items()}
    for counter in EXERCISED[name]:
        assert metrics[counter] > 0, counter
    for run_record in record["runs"]:
        layers = run_record["layers"]
        if not run_record["traced"]:
            assert layers is None
            continue
        per_iteration = sum(
            layers[f"{span}_s"] for span in tracer.SPANS
            if span not in tracer.SETUP_SPANS
        )
        assert per_iteration + layers["core.residual_s"] == pytest.approx(
            layers["trace.iter_wall_s"], rel=1e-9
        )
        assert layers["core.residual_s"] >= 0
    assert len(list(tmp_path.glob("*.trace.json"))) == 2
    assert record["environment"]["bigint_backend"] == "python"


def test_tiny_workload_end_to_end(tmp_path):
    record = run.bench(tiny_spec("paper-exchange"), seconds=0, trace=False,
                       out_dir=tmp_path)
    result = record["result"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2 * 3
    assert list(result["metrics"]) == declared("end_to_end")
    for value in result["metrics"].values():
        assert value["value"] > 0
    json.dumps(result)  # the printed line is plain JSON


def test_checks_flag_each_kind_of_failure():
    from repro.api import RunSpec, resolve_strategy

    spec = RunSpec.from_dict(tiny_spec("mock-population"))
    strategy = resolve_strategy(spec.strategy, spec.params)
    centroids = np.arange(4 * 24, dtype=float).reshape(4, 24)
    slice_ = strategy.epsilon_for(1)
    good = {
        "iterations": [
            {"iteration": i, "n_centroids": 4, "epsilon_spent": slice_,
             "epsilon_spent_total": slice_ * i, "centroids": centroids.tolist()}
            for i in (1, 2)
        ],
        "reason": "iterations",
    }
    reference = [centroids, centroids]
    assert checks.check_run(spec, strategy, good, reference) == []

    def broken(**change):
        record = json.loads(json.dumps(good))
        record["iterations"][1].update(change)
        return checks.check_run(spec, strategy, record, reference)

    assert len(broken(n_centroids=3)) == 1
    assert len(broken(epsilon_spent_total=slice_ * 3)) == 1
    assert len(broken(centroids=(centroids + 1e-12).tolist())) == 1
    nan = centroids.copy()
    nan[0, 0] = np.nan
    assert len(broken(centroids=nan.tolist())) == 1
    short = dict(good, iterations=good["iterations"][:1])
    assert len(checks.check_run(spec, strategy, short, reference)) == 1
    assert len(checks.check_run(spec, strategy, {"error": "boom"}, reference)) == 2


@pytest.mark.parametrize("exchanges", [3, 15])
def test_crypto_plane_matches_the_exact_mock_twin(exchanges):
    """2·n_e = 30 cycles take the plain mock past float64 exactness; the
    exact twin still matches the crypto plane bit for bit."""
    from repro.api import Experiment, RunSpec

    spec = tiny_spec("paper-exchange")
    spec["params"].update(exchanges=exchanges, crypto_backend="serial")
    spec = RunSpec.from_dict(spec)

    def centroids(result):
        return [np.asarray(stats.centroids) for stats in result.history]

    crypto = centroids(Experiment.from_spec(spec).run())
    plain = centroids(Experiment.from_spec(spec.with_plane("vectorized")).run())
    exact = checks.reference_centroids(spec)
    assert len(exact) == len(crypto) == 2
    assert all(np.array_equal(a, b) for a, b in zip(crypto, exact))
    plain_equal = all(np.array_equal(a, b) for a, b in zip(crypto, plain))
    assert plain_equal == (exchanges == 3)


def test_lloyd_reference_reaches_a_fixed_point():
    values = np.array([[0.0], [1.0], [10.0], [11.0]])
    final = checks.lloyd_centroids(values, np.array([[0.0], [11.0]]), 3)
    assert final.tolist() == [[0.5], [10.5]]
    assert checks.inertia(values, final) == pytest.approx(4 * 0.25)


def test_recorder_self_time_excludes_nested_spans():
    ticks = iter(range(100))
    recorder = tracer.Recorder(clock=lambda: float(next(ticks)))

    def inner():
        return recorder.call("inner", None, lambda: 7, (), {})

    def outer():
        return recorder.call("outer", None, lambda: inner() + inner(), (), {})

    assert outer() == 14
    self_times = recorder.self_times(0.0, 100.0)
    # outer spans ticks 0..5; each inner call covers one tick of it.
    assert self_times == {"outer": 3.0, "inner": 2.0}


def test_recorder_counts_a_same_layer_fallback_once():
    recorder = tracer.Recorder()
    counts = tracer._length("crypto.encryptions", 0)

    def serial(items):
        return recorder.call("crypto.encrypt", counts, len, (items,), {})

    outer = recorder.call("crypto.encrypt", counts, serial, ([1, 2, 3],), {})
    assert outer == 3
    assert recorder.op_counts() == {"crypto.encryptions": 3}
    assert [span[0] for span in recorder.spans] == ["crypto.encrypt"]


def test_install_restores_every_entry_point():
    import repro.core.protocol as protocol
    from repro.crypto.backend import ProcessPoolBackend, SerialBackend

    before = (protocol.assign_to_closest, SerialBackend.__dict__["encrypt_batch"],
              ProcessPoolBackend.__dict__["_pool"])
    with tracer.install(tracer.Recorder()):
        assert protocol.assign_to_closest is not before[0]
    after = (protocol.assign_to_closest, SerialBackend.__dict__["encrypt_batch"],
             ProcessPoolBackend.__dict__["_pool"])
    assert after == before


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mock-population",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_unknown_workload_is_refused():
    with pytest.raises(KeyError):
        workloads.spec_dict("no-such-workload", 1)
