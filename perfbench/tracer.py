"""Outside-in layer tracer: spans and counters recorded around public entry points.

Nothing under ``src/`` is instrumented.  While a :class:`Recorder` is
installed (``with install(recorder):``) the entry points in
:data:`ENTRY_POINTS` are replaced by wrappers that open a span, count the
operations the call's arguments imply, and call through; on exit every
original is restored.  Names bound with ``from x import y`` are patched at
the module that looks them up (``repro.core.protocol.assign_to_closest``,
``repro.core.computation.combine_partial_decryptions_batch``), because
patching the defining module would not reach those call sites.

Spans stay in memory (a flat list with parent links) until
:meth:`Recorder.dump` writes them out.  A layer's *self time* is its span
duration minus the time covered by the spans nested directly inside it,
so e.g. ``gossip.eesum_s`` excludes the ``crypto.mulmod_s`` it calls.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter
from typing import Any, Callable

__all__ = ["ENTRY_POINTS", "Recorder", "install", "layer_metrics"]

#: Maps a call's arguments to the ``{counter: n}`` it adds.
Counts = Callable[..., dict]


def _one(counter: str) -> Counts:
    return lambda *args, **kwargs: {counter: 1}


def _length(counter: str, position: int) -> Counts:
    """Count the length of positional argument ``position`` (self = 0)."""
    return lambda *args, **kwargs: {counter: len(args[position])}


def _noise_shares(plan, rng, count) -> dict:
    return {"core.noise_shares": int(count)}


def _pairs(counter: str) -> Counts:
    return lambda self, left, right: {counter: len(left)}


#: ``(module, attribute path, span name, counts)`` — the public entry point
#: of each traced layer, patched where it is looked up.
ENTRY_POINTS: tuple[tuple[str, str, str, Counts | None], ...] = (
    ("repro.api.experiment", "build_dataset", "datasets.build", None),
    ("repro.core.protocol", "generate_threshold_keypair", "crypto.keygen", None),
    ("repro.crypto.damgard_jurik", "FastEncryptor.__init__", "crypto.table", None),
    ("repro.core.protocol", "assign_to_closest", "clustering.assign",
     _one("clustering.assign_calls")),
    ("repro.core.noise", "NoisePlan.draw_shares", "core.noise_draw", _noise_shares),
    ("repro.core.noise", "NoisePlan.draw_share", "core.noise_draw",
     _one("core.noise_shares")),
    ("repro.core.noise", "NoisePlan.correction", "core.noise_draw", None),
    ("repro.crypto.encoding", "PackedCodec.pack", "crypto.pack",
     _one("crypto.pack_calls")),
    *(
        ("repro.crypto.backend", f"{backend}.{method}", span, _length(counter, position))
        for backend in ("SerialBackend", "ProcessPoolBackend")
        for method, span, counter, position in (
            ("encrypt_batch", "crypto.encrypt", "crypto.encryptions", 2),
            ("mulmod_batch", "crypto.mulmod", "crypto.mulmods", 1),
            ("pow_batch", "crypto.pow", "crypto.pows", 1),
            ("partial_decrypt_batch", "crypto.partial_decrypt",
             "crypto.partial_decryptions", 3),
        )
    ),
    ("repro.core.computation", "combine_partial_decryptions_batch",
     "crypto.combine", None),
    ("repro.gossip.cipher_array", "CipherEESum.exchange_pairs", "gossip.eesum",
     _pairs("gossip.exchanges")),
    ("repro.gossip.eesum", "VectorizedEESum.exchange_pairs", "gossip.eesum",
     _pairs("gossip.exchanges")),
    ("repro.gossip.vectorized_protocol", "VectorizedGossipEngine.draw_pairing",
     "gossip.pairing", None),
    ("repro.gossip.dissemination", "VectorizedMinId.exchange_pairs",
     "gossip.minid", None),
    ("repro.gossip.decryption", "VectorizedShareCollection.exchange_pairs",
     "gossip.collect", _one("gossip.collect_cycles")),
    ("repro.gossip.engine", "GossipEngine.run_cycle", "gossip.object_cycle",
     _one("gossip.object_cycles")),
    ("repro.core.participant", "Participant.encrypted_means_vector",
     "core.participant_encrypt", None),
)

#: Spans that only run while a run is set up; reported as seconds per run.
SETUP_SPANS = ("datasets.build", "crypto.keygen", "crypto.table")


class Recorder:
    """Spans and counters, kept in memory for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent index, time covered by children]``
        self.spans: list[list] = []
        #: ``(time, counter, n)`` events, attributed to windows by time.
        self.counts: list[tuple[float, str, int]] = []
        self._open: list[int] = []

    def count(self, counter: str, n: int) -> None:
        self.counts.append((self.clock(), counter, int(n)))

    def call(self, name: str, counts: Counts | None, fn, args, kwargs) -> Any:
        # A backend that falls back to another backend's method of the same
        # layer (the process pool's small-batch path) is one operation.
        if self._open and self.spans[self._open[-1]][0] == name:
            return fn(*args, **kwargs)
        if counts is not None:
            for counter, n in counts(*args, **kwargs).items():
                self.count(counter, n)
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        span = [name, self.clock(), 0.0, parent, 0.0]
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self._open.pop()
            if parent >= 0:
                self.spans[parent][4] += span[2] - span[1]

    def self_times(self, start: float, end: float) -> Counter:
        """Self seconds per span name for spans starting in ``[start, end]``."""
        totals: Counter = Counter()
        for name, begin, finish, _parent, covered in self.spans:
            if start <= begin <= end:
                totals[name] += (finish - begin) - covered
        return totals

    def op_counts(self, start: float = float("-inf"), end: float = float("inf")) -> Counter:
        totals: Counter = Counter()
        for when, counter, n in self.counts:
            if start <= when <= end:
                totals[counter] += n
        return totals

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write every span and counter event as JSON (called once, at the end)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": b, "end": e, "parent": p}
                        for n, b, e, p, _ in self.spans
                    ],
                    "counts": [list(event) for event in self.counts],
                    **(extra or {}),
                },
                handle,
            )


class _CountingPool:
    """Executor proxy that counts the integer bytes each ``map`` ships."""

    def __init__(self, pool, recorder: Recorder) -> None:
        self._pool = pool
        self._recorder = recorder

    def map(self, fn, *iterables):
        columns = [list(column) for column in iterables]
        self._recorder.count("crypto.bytes_to_workers", _int_bytes(columns))
        return self._pool.map(fn, *columns)


def _int_bytes(value) -> int:
    """Bytes of every integer operand in ``value``, from their bit lengths."""
    if isinstance(value, int):
        return (value.bit_length() + 7) // 8
    if isinstance(value, (list, tuple)):
        return sum(_int_bytes(item) for item in value)
    if hasattr(value, "__dict__"):  # a public key shipped with each chunk
        return _int_bytes(list(vars(value).values()))
    return 0


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def _wrapper(recorder: Recorder, name: str, counts: Counts | None, fn):
    def traced(*args, **kwargs):
        return recorder.call(name, counts, fn, args, kwargs)

    return traced


@contextlib.contextmanager
def install(recorder: Recorder):
    """Wrap every entry point for the duration of the block, then restore."""
    patched: list[tuple[Any, str, Any]] = []
    try:
        for module, path, name, counts in ENTRY_POINTS:
            owner, attribute = _resolve(module, path)
            # A class's own function, not a bound or inherited one.
            original = (owner.__dict__[attribute] if isinstance(owner, type)
                        else getattr(owner, attribute))
            patched.append((owner, attribute, original))
            setattr(owner, attribute, _wrapper(recorder, name, counts, original))
        from repro.crypto.backend import ProcessPoolBackend

        make_pool = ProcessPoolBackend._pool
        patched.append((ProcessPoolBackend, "_pool", make_pool))
        ProcessPoolBackend._pool = lambda self: _CountingPool(make_pool(self), recorder)
        yield recorder
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


#: Traced spans; each reports its self time as the metric ``<span>_s``.
SPANS = tuple(dict.fromkeys(span for _, _, span, _ in ENTRY_POINTS))

COUNT_METRICS = (
    "clustering.assign_calls",
    "core.noise_shares",
    "crypto.pack_calls",
    "crypto.encryptions",
    "crypto.mulmods",
    "crypto.pows",
    "crypto.partial_decryptions",
    "crypto.bytes_to_workers",
    "gossip.exchanges",
    "gossip.collect_cycles",
    "gossip.object_cycles",
)


def layer_metrics(recorder: Recorder, started: float, marks: list[float]) -> dict:
    """Per-layer numbers of one traced run.

    ``started`` is when the ``Experiment`` was built and ``marks`` are the
    clock readings at each ``IterationCompleted``.  Setup spans report
    seconds per run; every other time is seconds per iteration over
    iterations 2..N (the window ``iter_s`` covers), and counts are exact
    totals over that window.  ``core.residual_s`` is the window's wall time
    per iteration minus every self time in it, so the per-iteration layer
    times plus the residual sum to the iteration wall time.
    """
    if len(marks) < 2:
        raise ValueError("layer metrics need at least two completed iterations")
    window_start, window_end = marks[0], marks[-1]
    per_iteration = len(marks) - 1
    whole_run = recorder.self_times(started, window_end)
    window = recorder.self_times(window_start, window_end)
    metrics: dict[str, float] = {}
    for span in SPANS:
        if span in SETUP_SPANS:
            metrics[f"{span}_s"] = whole_run[span]
        else:
            metrics[f"{span}_s"] = window[span] / per_iteration
    wall = (window_end - window_start) / per_iteration
    traced = sum(window.values()) / per_iteration
    metrics["core.residual_s"] = wall - traced
    metrics["trace.iter_wall_s"] = wall
    counts = recorder.op_counts(window_start, window_end)
    for counter in COUNT_METRICS:
        metrics[counter] = counts[counter]
    return metrics
