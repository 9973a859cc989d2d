"""The benchmark's four workloads, each a ``RunSpec`` built from a seed.

The seed given on the command line becomes the spec's run seed, which also
seeds dataset generation and the initializer: the same seed gives the same
inputs.  Every workload pins ``bigint_backend: "python"`` (the arithmetic
kernel must not depend on what happens to be installed) and uses at most
two processes.  ``theta`` is 0 so no run converges early: every run does
``max_iterations`` iterations of the same kind of work.  See README.md for
why each workload exists and which layer it is meant to expose.
"""

from __future__ import annotations

import copy

__all__ = ["WORKLOADS", "spec_dict"]

_COMMON = {"theta": 0.0, "bigint_backend": "python"}

#: name → RunSpec dict without its seed (README.md says why each exists).
WORKLOADS: dict[str, dict] = {
    "frontier-encrypt": {
        "plane": "vectorized-crypto",
        "strategy": "UF5",
        "dataset": {
            "kind": "points2d",
            "params": {"n_clusters": 3, "points_per_cluster": 1000,
                       "duplications": 1},
        },
        "init": {"kind": "kmeanspp"},
        "params": {"k": 3, "max_iterations": 5, "exchanges": 4,
                   "epsilon": 30000.0, "key_bits": 256,
                   "crypto_backend": "serial", **_COMMON},
    },
    "paper-exchange": {
        "plane": "vectorized-crypto",
        "strategy": "UF4",
        "dataset": {"kind": "cer",
                    "params": {"n_series": 47, "population_scale": 1}},
        "init": {"kind": "kmeanspp"},
        "params": {"k": 3, "max_iterations": 4, "exchanges": 30,
                   "epsilon": 400000.0, "key_bits": 1024,
                   "use_smoothing": False, "crypto_backend": "process",
                   "backend_workers": 2, **_COMMON},
    },
    "mock-population": {
        "plane": "vectorized",
        "strategy": "UF5",
        "dataset": {"kind": "cer",
                    "params": {"n_series": 20000, "population_scale": 1}},
        "init": {"kind": "sample"},
        "params": {"k": 10, "max_iterations": 5, "exchanges": 10,
                   "epsilon": 10000.0, "use_smoothing": False, **_COMMON},
    },
    "object-decrypt": {
        "plane": "object",
        "strategy": "UF4",
        "dataset": {"kind": "cer",
                    "params": {"n_series": 8, "population_scale": 1}},
        "init": {"kind": "kmeanspp"},
        "params": {"k": 3, "max_iterations": 4, "exchanges": 10,
                   "epsilon": 400000.0, "key_bits": 512,
                   "tau_fraction": 0.25, "use_smoothing": False,
                   "crypto_backend": "serial", **_COMMON},
    },
}


def spec_dict(name: str, seed: int) -> dict:
    """The ``RunSpec`` dict of workload ``name`` for ``seed``."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    spec = copy.deepcopy(WORKLOADS[name])
    spec["name"] = name
    spec["seed"] = int(seed)
    return spec
