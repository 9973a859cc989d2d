"""One measured run of a ``RunSpec`` in this (fresh) interpreter.

    python3 perfbench/child.py '<RunSpec JSON>' [--trace-out PATH]

Prints one JSON record: the clock marks of every ``IterationCompleted``,
``setup_s`` (building the ``Experiment`` to the first ``IterationCompleted``),
the wall time of each later iteration, peak RSS, the
per-iteration outputs the parent checks, the resolved run environment and,
with ``--trace-out``, the per-layer metrics (spans are written to PATH).
``repro`` must be importable (the parent puts ``src`` on ``PYTHONPATH``).

Every run needs a fresh interpreter: ``build_dataset`` caches small
matrices in-process, so a second run in the same process would skip
dataset generation and under-report ``setup_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback

import tracer


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0  # ru_maxrss is KiB on Linux


def measure(spec_dict: dict, recorder: tracer.Recorder | None = None) -> dict:
    """Run ``spec_dict`` through ``Experiment.run_iter`` and time it."""
    from repro.api import (
        Experiment,
        IterationCompleted,
        RunCompleted,
        RunSpec,
        RunStarted,
    )

    spec = RunSpec.from_dict(spec_dict)
    record: dict = {"iterations": [], "error": None}
    marks: list[float] = []
    tracing = tracer.install(recorder) if recorder else contextlib.nullcontext()
    try:
        with tracing:
            started = time.perf_counter()
            for event in Experiment.from_spec(spec).run_iter():
                if isinstance(event, IterationCompleted):
                    marks.append(time.perf_counter())
                    record["iterations"].append(
                        {
                            "iteration": event.iteration,
                            "n_centroids": event.n_centroids,
                            "epsilon_spent": event.stats.epsilon_spent,
                            "epsilon_spent_total": event.epsilon_spent_total,
                            "centroids": event.stats.centroids.tolist(),
                        }
                    )
                elif isinstance(event, RunStarted):
                    record["environment"] = {
                        "crypto_backend": event.crypto_backend,
                        "bigint_backend": event.bigint_backend,
                        "key_bits": event.key_bits,
                    }
                elif isinstance(event, RunCompleted):
                    record["final_centroids"] = event.result.centroids.tolist()
                    record["reason"] = event.reason
    except Exception:  # the parent counts the run's iterations as failed
        record["error"] = traceback.format_exc()
        return record
    record["peak_rss_mb"] = peak_rss_mb()
    record["marks"] = [mark - started for mark in marks]
    if len(marks) >= 2:
        record["setup_s"] = marks[0] - started
        record["iteration_s"] = [b - a for a, b in zip(marks, marks[1:])]
        if recorder is not None:
            record["layers"] = tracer.layer_metrics(recorder, started, marks)
            record["op_counts"] = dict(recorder.op_counts())
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec", help="RunSpec as JSON")
    parser.add_argument("--trace-out", help="trace the run and write spans here")
    args = parser.parse_args(argv)
    recorder = tracer.Recorder() if args.trace_out else None
    record = measure(json.loads(args.spec), recorder)
    if recorder is not None:
        recorder.dump(args.trace_out, {"spec": json.loads(args.spec)})
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
