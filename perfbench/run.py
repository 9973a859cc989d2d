"""Per-iteration benchmark of the Chiaroscuro reproduction (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measured run is a fresh interpreter
(``perfbench/child.py``) executing the workload's ``RunSpec`` through
``repro.api`` (``RunSpec`` → ``Experiment.run_iter``).  Runs repeat until
``--seconds`` is spent (at least three, so set-up is measured several
times).  ``iter_s`` is the median wall time of iterations 2..N over every
run; ``setup_s`` and ``peak_rss_mb`` are medians over runs.  Outputs are checked
after all timing (``checks.py``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full record, with the resolved run environment, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A run never takes longer than this, so one invocation stays well inside
#: three minutes even when a run hangs.
RUN_TIMEOUT_S = 150.0

#: Set-up is measured once per run, and its median needs several runs.
MIN_RUNS = 3

END_TO_END_UNITS = {"iter_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "inertia_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    """The per-layer metric names and units, as ``BENCHMARK.json`` lists them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in declared["per_layer"]}


def spawn(spec: dict, trace_out: pathlib.Path | None, deadline: float) -> dict:
    """One measured run in a fresh interpreter; returns its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    command = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    started = time.perf_counter()
    # A session of its own, so a run that overstays is stopped together
    # with its worker processes.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": "run timed out", "traced": trace_out is not None,
                "wall_s": time.perf_counter() - started}
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        record = {"error": f"run exited with code {process.returncode}"}
    else:
        record = json.loads(lines[-1])
    record["traced"] = trace_out is not None
    record["wall_s"] = time.perf_counter() - started
    return record


def measure_runs(spec: dict, seconds: float, trace: bool,
                 out_dir: pathlib.Path) -> list[dict]:
    """Fresh-interpreter runs until ``seconds`` are spent.

    At least ``MIN_RUNS`` runs.  With tracing, traced and
    untraced runs alternate (traced first): at least two traced runs, so
    their op counts can be compared, and one untraced run, for the tracing
    overhead.
    """
    started = time.monotonic()
    deadline = started + RUN_TIMEOUT_S
    records: list[dict] = []
    while True:
        traced = trace and len(records) % 2 == 0
        trace_out = None
        if traced:
            trace_out = out_dir / f"{spec['name']}-seed{spec['seed']}-run{len(records)}.trace.json"
        records.append(spawn(spec, trace_out, deadline))
        elapsed = time.monotonic() - started
        longest = max(record["wall_s"] for record in records)
        enough = len(records) >= MIN_RUNS
        if (enough and elapsed + longest > seconds) or elapsed + longest > RUN_TIMEOUT_S:
            return records


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def bench(spec_dict: dict, seconds: float, trace: bool,
          out_dir: pathlib.Path) -> dict:
    """Measure and check one workload; returns the full result record."""
    import numpy as np

    from repro.api import Experiment, RunSpec, resolve_strategy, run_environment

    import checks
    import tracer

    out_dir.mkdir(parents=True, exist_ok=True)
    records = measure_runs(spec_dict, seconds, trace, out_dir)

    # ---- everything below runs after the timed runs ----------------------
    spec = RunSpec.from_dict(spec_dict)
    strategy = resolve_strategy(spec.strategy, spec.params)
    reference = checks.reference_centroids(spec)
    completed = [r for r in records if not r.get("error")]
    if reference is None and completed:
        reference = [np.asarray(item["centroids"]) for item in completed[0]["iterations"]]
    problems = [checks.check_run(spec, strategy, record, reference) for record in records]
    failed = sum(len(found) for found in problems)
    attempted = spec.params.max_iterations * len(records)
    errors = [problem for found in problems for problem in found]

    timed = [r for r in completed if "iteration_s" in r]
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    metrics: dict[str, float] = {}
    if not trace:
        metrics["iter_s"] = median([t for r in untraced for t in r["iteration_s"]])
        metrics["setup_s"] = median([r["setup_s"] for r in untraced])
        metrics["peak_rss_mb"] = median([r["peak_rss_mb"] for r in untraced])
        if completed:
            context = Experiment.from_spec(spec).context
            final = np.asarray(completed[0]["final_centroids"], dtype=float)
            lloyd = checks.lloyd_centroids(
                context.dataset.values, context.initial_centroids,
                spec.params.max_iterations,
            )
            metrics["inertia_ratio"] = (
                checks.inertia(context.dataset.values, final)
                / checks.inertia(context.dataset.values, lloyd)
            )
        else:
            metrics["inertia_ratio"] = float("nan")
    else:
        counts = [r["op_counts"] for r in traced]
        if any(count != counts[0] for count in counts[1:]):
            errors.append("op counts differ between traced runs of one seed")
        for layers in (r["layers"] for r in traced):
            if layers["core.residual_s"] < -1e-9 * layers["trace.iter_wall_s"]:
                errors.append("layer self times exceed the iteration wall time")
        for name in per_layer_units():
            if name in tracer.COUNT_METRICS:  # exact, equal in every traced run
                metrics[name] = traced[0]["layers"][name] if traced else float("nan")
            elif name != "trace.overhead_pct":
                metrics[name] = median([r["layers"][name] for r in traced])
        metrics["trace.overhead_pct"] = 100.0 * (
            median([t for r in traced for t in r["iteration_s"]])
            / median([t for r in untraced for t in r["iteration_s"]]) - 1.0
        )
    correct = (
        not errors
        and bool(timed)
        and all(np.isfinite(value) for value in metrics.values())
    )
    units = per_layer_units() if trace else END_TO_END_UNITS
    return {
        "workload": spec_dict["name"],
        "seed": spec_dict["seed"],
        "trace": trace,
        "environment": run_environment(spec),
        "spec": spec_dict,
        "runs": [
            {key: record.get(key) for key in
             ("traced", "wall_s", "setup_s", "iteration_s", "peak_rss_mb", "marks",
              "environment", "error", "layers")}
            for record in records
        ],
        "problems": errors,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        },
    }


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = bench(workloads.spec_dict(args.workload, args.seed), args.seconds,
                   bool(args.trace), HERE / "out")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "out" / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("workload", "seed", "environment")}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
