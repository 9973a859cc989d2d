"""Output checks and the quality reference, run outside every timed region.

An operation is one Algorithm 1 iteration.  It fails when its run raised,
when it is missing (the run stopped before ``max_iterations``), or when one
of these checks fails:

* ``n_centroids == k`` and the released centroids are finite;
* the ε charged for the iteration is the strategy's slice, the running
  total is the sum of the slices so far, and it never exceeds the budget;
* the centroids are bit-identical to the reference run's: for a
  ``vectorized-crypto`` spec the mock ``vectorized`` run of the same spec
  and seed with exact gossip sums (see :func:`exact_gossip_sums`);
  otherwise the first completed run of the same seed (each run is a fresh
  interpreter, so this checks determinism across processes).
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = ["check_run", "exact_gossip_sums", "inertia", "lloyd_centroids",
           "reference_centroids"]


def inertia(values: np.ndarray, centroids: np.ndarray) -> float:
    """Sum of squared distances from each series to its closest centroid."""
    distances = ((values[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(distances.min(axis=1).sum())


def lloyd_centroids(
    values: np.ndarray, initial: np.ndarray, iterations: int
) -> np.ndarray:
    """Non-private Lloyd iterations; an empty cluster keeps its centroid."""
    centroids = np.array(initial, dtype=float)
    for _ in range(iterations):
        distances = ((values[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = distances.argmin(axis=1)
        for cluster in range(len(centroids)):
            members = values[labels == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
    return centroids


@contextlib.contextmanager
def exact_gossip_sums():
    """Carry the mock plane's EESum merges in exact integers while active.

    ``VectorizedEESum`` keeps normalized float sums, which stay exact only
    while their numerators fit a float64 mantissa (its docstring); past
    about 2·n_e > 24 pairing cycles the halving of each merge rounds.  The
    crypto plane's ciphertext sums never round, and it decodes them with
    one correctly rounded division.  Here every row also keeps the exact
    integers ``σ·2^E`` (Alg. 2's delayed division) and, after each merge,
    its floats are set to the correctly rounded exact sums.  While no merge
    rounds this changes nothing, so the twin is the plain mock run.
    """
    from repro.gossip.eesum import VectorizedEESum

    original = VectorizedEESum.exchange_pairs

    def exchange_pairs(self, left, right):
        if "_exact_sums" not in self.__dict__:  # its first merge
            ratios = [value.as_integer_ratio() for value in self.values.flat]
            exponent = max(d.bit_length() - 1 for _, d in ratios)
            numerators = np.array([n << (exponent - d.bit_length() + 1)
                                   for n, d in ratios], dtype=object)
            self._exact_sums = (numerators.reshape(self.values.shape),
                                np.full(self.population, exponent, dtype=np.int64))
        original(self, left, right)
        numerators, exponents = self._exact_sums
        merged_exponent = np.maximum(exponents[left], exponents[right]) + 1

        def aligned(side):  # σ·2^(E'−1) of each row on this side
            shift = (merged_exponent - 1 - exponents[side]).astype(object)
            return numerators[side] << shift[:, None]

        merged = aligned(left) + aligned(right)
        numerators[left] = numerators[right] = merged
        exponents[left] = exponents[right] = merged_exponent
        scale = np.ones(len(left), dtype=object) << merged_exponent.astype(object)
        # Python's int / int true division is correctly rounded.
        floats = (merged / scale[:, None]).astype(float)
        self.values[left] = self.values[right] = floats

    VectorizedEESum.exchange_pairs = exchange_pairs
    try:
        yield
    finally:
        VectorizedEESum.exchange_pairs = original


def reference_centroids(spec) -> list[np.ndarray] | None:
    """Per-iteration centroids of the exact mock twin of a crypto-plane spec."""
    from repro.api import Experiment

    if spec.plane != "vectorized-crypto":
        return None
    with exact_gossip_sums():
        result = Experiment.from_spec(spec.with_plane("vectorized")).run()
    return [np.asarray(stats.centroids) for stats in result.history]


def check_run(spec, strategy, record: dict, reference) -> list[str]:
    """Problems found in one run's record, one entry per failed iteration.

    ``reference`` is the list of expected per-iteration centroid arrays.
    The returned list has exactly one entry for every failed iteration, so
    its length is the run's failure count.
    """
    expected = spec.params.max_iterations
    if record.get("error"):
        return [f"run raised: {record['error'].strip().splitlines()[-1]}"] * expected
    problems: list[str] = []
    spent = 0.0
    iterations = record["iterations"]
    for position, item in enumerate(iterations, start=1):
        spent += item["epsilon_spent"]
        centroids = np.asarray(item["centroids"], dtype=float)
        issues = []
        if item["iteration"] != position:
            issues.append(f"iteration numbered {item['iteration']}")
        if item["n_centroids"] != spec.params.k:
            issues.append(f"{item['n_centroids']} of {spec.params.k} centroids")
        if not np.all(np.isfinite(centroids)):
            issues.append("non-finite centroids")
        if item["epsilon_spent"] != strategy.epsilon_for(position):
            issues.append("epsilon slice differs from the strategy's")
        if item["epsilon_spent_total"] != spent or spent > strategy.epsilon:
            issues.append(f"epsilon total {item['epsilon_spent_total']!r} "
                          f"(slices sum to {spent!r}, budget {strategy.epsilon!r})")
        if reference is not None and (
            position > len(reference)
            or not np.array_equal(centroids, reference[position - 1])
        ):
            issues.append("centroids differ from the reference run")
        if issues:
            problems.append(f"iteration {position}: " + "; ".join(issues))
    missing = expected - len(iterations)
    problems += [f"run stopped after {len(iterations)} of {expected} iterations "
                 f"({record.get('reason')})"] * max(0, missing)
    return problems
