"""The benchmark's workloads, each a seeded `bench.run_experiment` config.

The benchmark seed shifts every instance seed; seed 0 gives the seeds of
the acceptance suite (`game` 7, `sdf` 11).  Replication seeds and the probe
seed stay fixed, so two benchmark seeds differ only in the instance.

- game: bilinear simplex-vs-spectahedron game (n=20, blocks 4,4,4) of
  criteria 4-6 and 8; smp, sampled oracle, k=1, geometric checkpoints,
  several replications.  Bound by per-call Python dispatch.
- sdf: the criterion-7 feasibility system (n=6, blocks 3,3,3); smp,
  sampled oracle, a horizon sweep with final checkpoints.  The composite
  oracle and Box-Muller normals dominate; eigopt is not on its path.
- eig_mid: eig_min with n=200 and blocks 32,32,32,32, written once as an
  instance file and run from it like `smpx run --instance`; smp, sampled
  oracle, one replication.  LAPACK-bound, and set-up is a real share.
- rmsa_exact: the `game` instance with the one-prox baseline, the exact
  oracle and one long replication (criterion 8's L-dominated case).
"""

from __future__ import annotations

import os

NAMES = ("game", "sdf", "eig_mid", "rmsa_exact")
WITH_INPUT_FILE = ("eig_mid",)

_GAME = {"kind": "bilinear_simplex_spectahedron", "params": {"n": 20, "blocks": [4, 4, 4]}}
_SDF = {
    "kind": "sdf_system",
    "params": {"n": 6, "blocks": [3, 3, 3], "delta": 0.0, "noise_m": 0.5, "n_smooth": 1},
}
_EIG_MID = {"kind": "eig_min", "params": {"n": 200, "blocks": [32, 32, 32, 32]}}

# default instance seed of each workload; the benchmark seed is added to it
BASE_SEEDS = {"game": 7, "sdf": 11, "eig_mid": 0, "rmsa_exact": 7}


def instance_path(workdir: str) -> str:
    return os.path.join(workdir, "eig_mid_instance.json")


def config(name: str, seed: int, workdir: str) -> dict:
    """The run_experiment config of workload `name` for benchmark seed `seed`.

    Outputs go to `<workdir>/<name>.csv|.json`.  `eig_mid` reads the
    instance file that `prepare` writes.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    inst_seed = BASE_SEEDS[name] + int(seed)
    out = os.path.join(workdir, name)
    if name == "game":
        return {
            "instance": dict(_GAME, seed=inst_seed),
            "solver": "smp", "oracle": "sampled", "k": 1, "t": 500,
            "seed_count": 6, "checkpoints": "geometric", "out": out,
        }
    if name == "sdf":
        return {
            "instance": dict(_SDF, seed=inst_seed),
            "solver": "smp", "oracle": "sampled", "k": 1, "t": [100, 200, 400],
            "seed_count": 4, "checkpoints": "final", "out": out,
        }
    if name == "eig_mid":
        return {
            "instance": {"path": instance_path(workdir)},
            "solver": "smp", "oracle": "sampled", "k": 1, "t": 300,
            "seed_count": 1, "checkpoints": "geometric", "out": out,
        }
    return {
        "instance": dict(_GAME, seed=inst_seed),
        "solver": "rmsa", "oracle": "exact", "k": 1, "t": 6000,
        "seed_count": 1, "checkpoints": "geometric", "out": out,
    }


def prepare(name: str, seed: int, workdir: str) -> None:
    """Write the input files the workload reads (only `eig_mid` has one)."""
    from smpx import bench

    os.makedirs(workdir, exist_ok=True)
    if name == "eig_mid":
        bench.generate_instance(
            _EIG_MID["kind"], _EIG_MID["params"], BASE_SEEDS[name] + int(seed),
            instance_path(workdir),
        )
