"""The service's flagship guarantee: SIGKILL the whole server process
group mid-iteration, restart it, and every job still completes with a
result bit-identical to the same spec run uninterrupted inline.

This is the subsystem acceptance test, so it uses the real deployment
surface — ``python -m repro serve`` as a subprocess in its own process
group (the kill takes the workers down with the server, exactly like a
machine crash), not an in-process scheduler.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from _helpers import small_spec
from repro.api import CheckpointSaved, Experiment, run_record
from repro.service import JobState, JobStore, read_events
from repro.service.bus import EventBus
from repro.service.worker import execute_job

N_JOBS = 8
SERVE_TIMEOUT = 300.0


def spawn_server(root, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--root", str(root),
            "--max-workers", str(N_JOBS), "--poll", "0.05", *extra,
        ],
        env=dict(os.environ),
        start_new_session=True,  # own process group: killpg == machine crash
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def saved_iteration(store: JobStore, job_id: str) -> int:
    """The newest checkpoint on disk for a job (0 when it has none)."""
    stems = [
        path.stem.removeprefix("checkpoint_")
        for path in store.checkpoint_dir(job_id).glob("checkpoint_*.json")
    ]
    return max((int(stem) for stem in stems if stem.isdigit()), default=0)


def run_starts(store: JobStore, job_id: str) -> list[dict]:
    return [
        r for r in read_events(store.events_path(job_id))
        if r["type"] == "run_started"
    ]


def assert_resumed_from_checkpoints(
    store: JobStore, expected: dict[str, tuple[int, int]]
) -> None:
    """``expected`` maps a job to (its run_started count before the crash,
    its newest checkpoint on disk at the crash): the first run after the
    crash must resume at or after that checkpoint."""
    for job_id, (starts_before, checkpoint) in expected.items():
        restarts = run_starts(store, job_id)[starts_before:]
        assert restarts, f"{job_id} never restarted after the kill"
        resumed = restarts[0]["resumed_iteration"]
        assert resumed >= checkpoint, (
            f"{job_id} had checkpoint {checkpoint} on disk at the kill but "
            f"restarted at iteration {resumed}"
        )


def test_sigkill_mid_iteration_then_restart_completes_bit_identical(tmp_path):
    root = tmp_path / "root"
    store = JobStore(root)
    # The acceptance scenario: 8 jobs executing concurrently (one worker
    # slot each), enough iterations per job that the kill lands mid-run.
    specs = [
        small_spec(seed, max_iterations=6, n_series=400)
        for seed in range(N_JOBS - 1)
    ] + [small_spec(77, plane="vectorized", max_iterations=4, n_series=250)]
    store.submit_batch(specs)

    server = spawn_server(root)
    pre_kill_feed: list[dict] = []
    try:
        deadline = time.monotonic() + SERVE_TIMEOUT
        while time.monotonic() < deadline:
            pre_kill_feed = read_events(store.feed_path)
            if sum(
                r["type"] == "iteration_completed" for r in pre_kill_feed
            ) >= 2:
                break
            time.sleep(0.02)
        else:
            pytest.fail("server produced no iterations before the deadline")
    finally:
        os.killpg(server.pid, signal.SIGKILL)
        server.wait()

    interrupted = store.in_state(JobState.RUNNING)
    assert interrupted, "expected jobs to be mid-flight at the kill"
    # Read from disk between the kill and the restart: every interrupted
    # job with a checkpoint must resume from it.  (Jobs killed before
    # their first checkpoint legitimately restart at 0; jobs that finished
    # before the kill are not interrupted.)
    must_resume = {
        job.job_id: (len(run_starts(store, job.job_id)), checkpoint)
        for job in interrupted
        if (checkpoint := saved_iteration(store, job.job_id))
    }

    # Restart: recovery re-enqueues the crash-marked jobs, workers resume
    # from their checkpoints, and the drain finishes the whole batch.
    restart = spawn_server(root, "--drain", "--timeout", str(SERVE_TIMEOUT))
    assert restart.wait(timeout=SERVE_TIMEOUT) == 0

    final = store.jobs()
    assert [job.state for job in final] == [JobState.COMPLETED] * N_JOBS
    resumed = [job for job in final if job.attempts > 1]
    assert resumed, "at least the killed jobs must have re-attempted"

    for job, spec in zip(final, specs):
        record = store.load_result(job.job_id)
        assert record["schema"] == "chiaroscuro-run/v1"
        inline = Experiment.from_spec(spec).run()
        expected = json.loads(json.dumps(run_record(spec, inline)["result"]))
        assert record["result"] == expected, f"{job.job_id} diverged"

    # A checkpointed job killed mid-run must have *resumed*, not
    # restarted: its post-kill run_started reports the checkpoint.
    assert_resumed_from_checkpoints(store, must_resume)


class _Killed(BaseException):
    """Stands in for SIGKILL: not an ``Exception``, so the worker's
    failure handler does not catch it and the job stays ``running``."""


@pytest.mark.parametrize("kill_after", [1, 3])
def test_kill_at_a_chosen_checkpoint_then_resume_is_bit_identical(
    tmp_path, monkeypatch, kill_after
):
    """The in-process twin of the SIGKILL test: the kill lands right after
    checkpoint ``kill_after`` is published, whatever the scheduling."""
    store = JobStore(tmp_path / "root")
    spec = small_spec(5, max_iterations=4)
    job = store.claim(store.submit(spec))
    publish = EventBus.publish

    def publish_then_die(bus, event):
        record = publish(bus, event)
        if isinstance(event, CheckpointSaved) and event.iteration == kill_after:
            raise _Killed
        return record

    monkeypatch.setattr(EventBus, "publish", publish_then_die)
    with pytest.raises(_Killed):
        execute_job(store, job)
    monkeypatch.setattr(EventBus, "publish", publish)

    assert store.get(job.job_id).state == JobState.RUNNING
    expected = {
        job.job_id: (
            len(run_starts(store, job.job_id)),
            saved_iteration(store, job.job_id),
        )
    }
    assert expected[job.job_id][1] == kill_after
    (recovered,) = store.recover()
    assert execute_job(store, store.claim(recovered)) == 0

    assert_resumed_from_checkpoints(store, expected)
    assert run_starts(store, job.job_id)[-1]["resumed_iteration"] == kill_after
    record = store.load_result(job.job_id)
    inline = Experiment.from_spec(spec).run()
    assert record["result"] == json.loads(
        json.dumps(run_record(spec, inline)["result"])
    )
