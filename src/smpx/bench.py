"""Experiment harness: instance generation, seeded runs, statistics, files.

Instances are stored as canonical JSON ("format": "smpx-instance",
"version": 2).  Every float array of the instance data (the eig `a0` and
`a`, the sdf components' `b0`, `bs`, `c0` and `cs`) is one base64 string of
its little-endian float64 bytes in C order, the blocks of a matrix and the
matrices of a list concatenated in order.  Values round-trip bit-exactly,
-0.0 and subnormals included, and loading decodes bytes instead of parsing
decimal text.  Version-1 files, which hold the same arrays as nested lists
of shortest round-trip decimals, are still read.

Experiment outputs are a CSV of per-seed, per-checkpoint rows plus a JSON
sidecar echoing the configuration and the theoretical constants; both are
byte-reproducible for a fixed configuration, which is why the wall_ms
column is written as zero (real timings live on the in-memory run records
and go to stderr in the CLI).
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import __version__ as _version
from . import composite, eigopt, solver, vi
from .composite import (
    AffineMatrixComponent,
    NoisyAffineComponent,
    QuadraticMatrixComponent,
    SdfComponent,
    SDFSystem,
)
from .errors import ConfigError, InputError, NumericalError
from .geometry import SimplexSetup
from .rng import RandomStream
from .symmat import BlockStructure, BlockSymMatrix

_KINDS = ("bilinear_simplex_spectahedron", "eig_min", "scalar_minimax", "sdf_system")
_VERSION = 2  # the format version written; version 1 is still read


# ---------------------------------------------------------------------------
# payload helpers


def _fmt(x) -> str:
    return repr(float(x))


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def save_payload(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload))
    return path

def load_payload(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "smpx-instance":
        raise InputError(f"{path} is not an instance file")
    version = payload.get("version")
    if version not in (1, _VERSION):
        raise InputError(f"{path}: unknown instance format version {version!r}")
    return payload


def _encode_array(*parts) -> str:
    """Base64 of the little-endian float64 bytes of the parts, raveled in order."""
    flat = np.concatenate([np.asarray(a, dtype="<f8").ravel() for a in parts])
    return base64.b64encode(flat.tobytes()).decode("ascii")


def _decode_array(value, shape) -> np.ndarray:
    """The float64 array of `shape` that `_encode_array` stored as `value`.

    A version-1 value, a (nested) list of decimals, is read too.  A value
    that does not hold exactly prod(shape) floats raises InputError.
    """
    count = math.prod(shape)
    if isinstance(value, str):
        try:
            raw = base64.b64decode(value, validate=True)
        except binascii.Error as exc:
            raise InputError(f"array is not valid base64: {exc}") from None
        if len(raw) != 8 * count:
            raise InputError(f"array holds {len(raw)} bytes, expected {8 * count}")
        return np.frombuffer(raw, "<f8").reshape(shape)
    while isinstance(value, list) and value and isinstance(value[0], list):
        value = [x for row in value for x in row]
    flat = np.asarray(value, dtype=float)
    if flat.size != count:
        raise InputError(f"array holds {flat.size} floats, expected {count}")
    return flat.reshape(shape)


def _blocks(row: np.ndarray, sizes) -> list:
    """p x p views of the consecutive blocks in a flat row."""
    out, k = [], 0
    for p in sizes:
        out.append(row[k:k + p * p].reshape(p, p))
        k += p * p
    return out


# ---------------------------------------------------------------------------
# instance generators


def _gen_eig(params: dict, seed: int, kind: str) -> dict:
    n = int(params.get("n", 8))
    sizes = tuple(int(p) for p in params.get("blocks", (2, 2)))
    scale = float(params.get("scale", 1.0))
    if n < 2:
        raise ConfigError("eigenvalue instances need n >= 2")
    structure = BlockStructure(sizes)
    stream = RandomStream(seed)

    def sym_block(p):
        g = scale * (2.0 * stream.uniforms((p, p)).reshape(p, p) - 1.0)
        return 0.5 * (g + g.T)

    a0 = [sym_block(p) for p in sizes]
    mats = [[sym_block(p) for p in sizes] for _ in range(n)]
    a_inf = max(
        float(np.abs(np.linalg.eigvalsh(b)).max())
        for m in mats
        for b in m
    )
    return {
        "format": "smpx-instance",
        "version": _VERSION,
        "kind": kind,
        "n": n,
        "block_sizes": list(sizes),
        "a0": _encode_array(*a0),
        "a": _encode_array(*(b for m in mats for b in m)),
        "meta": {"seed": int(seed), "scale": scale, "a_inf": float(a_inf)},
    }


def _gen_scalar_minimax(params: dict, seed: int) -> dict:
    scalars = params.get("scalars")
    if scalars is None:
        n = int(params.get("n", 2))
        stream = RandomStream(seed)
        scalars = (2.0 * stream.uniforms(n) - 1.0).tolist()
    scalars = [float(v) for v in scalars]
    if len(scalars) < 2:
        raise ConfigError("scalar minimax needs n >= 2")
    best = int(np.argmin(scalars))
    x_star = [0.0] * len(scalars)
    x_star[best] = 1.0
    return {
        "format": "smpx-instance",
        "version": _VERSION,
        "kind": "scalar_minimax",
        "n": len(scalars),
        "block_sizes": [1],
        "a0": _encode_array([0.0]),
        "a": _encode_array(scalars),
        "meta": {
            "seed": int(seed),
            "a_inf": float(np.abs(scalars).max()),
            "opt": float(min(scalars)),
            "x_star": x_star,
        },
    }


def _gen_sdf(params: dict, seed: int) -> dict:
    n = int(params.get("n", 6))
    sizes = tuple(int(p) for p in params.get("blocks", (3, 3, 3)))
    delta = float(params.get("delta", 0.1))
    noise_m = float(params.get("noise_m", 0.5))
    smooth_scale = float(params.get("smooth_scale", 1.0))
    n_smooth = int(params.get("n_smooth", 1))
    if n < 2:
        raise ConfigError("sdf systems need n >= 2")
    if not (0 <= n_smooth <= len(sizes)):
        raise ConfigError("n_smooth out of range")
    if delta < 0:
        raise ConfigError("feasibility margin must be >= 0")
    stream = RandomStream(seed)

    # every component attains its minimum -delta at the designated vertex
    x_star = [1.0] + [0.0] * (n - 1)
    comps = []
    for idx, p in enumerate(sizes):
        if idx < n_smooth:
            bs = np.zeros((n, p, p))
            for j in range(1, n):
                bs[j] = smooth_scale * stream.normals((p, p)) / math.sqrt(p)
            comps.append(
                {
                    "type": "quadratic",
                    "p": p,
                    "b0": _encode_array(np.zeros((p, p))),
                    "bs": _encode_array(bs),
                    "rows": p,
                    "c0": _encode_array(-delta * np.eye(p)),
                }
            )
        else:
            cs = np.zeros((n, p, p))
            for j in range(1, n):
                g = stream.normals((p, p))
                w = g @ g.T
                top = float(np.abs(np.linalg.eigvalsh(w)).max())
                # PSD, spectral norm in (noise_m / 2, noise_m]
                cs[j] = w * ((0.5 + 0.5 * stream.uniform()) * noise_m / top)
            comps.append(
                {
                    "type": "affine_noisy",
                    "p": p,
                    "c0": _encode_array(-delta * np.eye(p)),
                    "cs": _encode_array(cs),
                    "noise_m": noise_m,
                }
            )
    return {
        "format": "smpx-instance",
        "version": _VERSION,
        "kind": "sdf_system",
        "n": n,
        "block_sizes": list(sizes),
        "delta": delta,
        "components": comps,
        "meta": {
            "seed": int(seed),
            "x_star": x_star,
            "component_opt": -delta,
        },
    }


def build_instance_payload(kind: str, params: dict, seed: int) -> dict:
    """Reproducible instance description for the given generator kind."""
    if kind in ("eig_min", "bilinear_simplex_spectahedron"):
        return _gen_eig(params or {}, seed, kind)
    if kind == "scalar_minimax":
        return _gen_scalar_minimax(params or {}, seed)
    if kind == "sdf_system":
        return _gen_sdf(params or {}, seed)
    raise ConfigError(f"unknown instance kind {kind!r}; choose from {_KINDS}")


def generate_instance(kind: str, params: dict, seed: int, path: str) -> str:
    """Write the instance file; identical inputs give identical bytes."""
    return save_payload(path, build_instance_payload(kind, params, seed))


# ---------------------------------------------------------------------------
# payload -> runnable objects


def payload_to_instance(payload: dict):
    """Decode a payload into ('eig', EigInstance) or ('sdf', SDFSystem)."""
    kind = payload.get("kind")
    sizes = tuple(int(p) for p in payload["block_sizes"])
    structure = BlockStructure(sizes)
    if kind in ("eig_min", "bilinear_simplex_spectahedron", "scalar_minimax"):
        sq = structure.sum_sq
        a0 = BlockSymMatrix(structure, _blocks(_decode_array(payload["a0"], (sq,)), sizes))
        mats = tuple(
            BlockSymMatrix(structure, _blocks(row, sizes))
            for row in _decode_array(payload["a"], (int(payload["n"]), sq))
        )
        return "eig", eigopt.EigInstance(structure, a0, mats)
    if kind == "sdf_system":
        n = int(payload["n"])
        x_setup = SimplexSetup(n)
        parts = []
        for comp in payload["components"]:
            p = int(comp["p"])
            if comp["type"] == "quadratic":
                rows = int(comp["rows"])
                b0 = _decode_array(comp["b0"], (rows, p))
                bs = _decode_array(comp["bs"], (n, rows, p))
                c0 = _decode_array(comp["c0"], (p, p))
                q = QuadraticMatrixComponent(b0, bs, c0)
                parts.append(
                    SdfComponent(q, lip_l=q.lipschitz_bounds(x_setup.omega_radius),
                                 noise_m=0.0)
                )
            elif comp["type"] == "affine_noisy":
                c0 = _decode_array(comp["c0"], (p, p))
                cs = _decode_array(comp["cs"], (n, p, p))
                base = AffineMatrixComponent(c0, cs)
                m_l = float(comp["noise_m"])
                if base.grad_sup_norm() > m_l + 1e-9:
                    raise InputError("affine gradients exceed the declared noise level")
                noisy = NoisyAffineComponent(
                    base, rho_f=x_setup.omega_radius * m_l, rho_g=m_l
                )
                parts.append(SdfComponent(noisy, lip_l=0.0, noise_m=m_l))
            else:
                raise InputError(f"unknown component type {comp['type']!r}")
        meta = dict(payload.get("meta", {}))
        return "sdf", SDFSystem(x_setup=x_setup, parts=tuple(parts), meta=meta)
    raise InputError(f"unknown instance kind {kind!r}")


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass
class ExperimentConfig:
    """Everything needed to re-run an experiment bit-identically."""

    instance: dict
    solver: str = "smp"
    t: Union[int, list] = 1000
    k: int = 1
    oracle: str = "sampled"  # sampled | exact
    stepsize: Union[str, float] = "auto"
    seeds: Optional[list] = None
    seed_count: Optional[int] = None
    seed_base: int = 0
    checkpoints: Union[str, list] = "geometric"
    n_probes: int = 100
    probe_seed: int = 0
    out: Optional[str] = None

    def horizons(self) -> list:
        ts = self.t if isinstance(self.t, (list, tuple)) else [self.t]
        ts = sorted(set(int(v) for v in ts))
        if not ts or ts[0] < 1:
            raise ConfigError("horizons must be positive")
        return ts

    def seed_list(self) -> list:
        if self.seeds is not None:
            seeds = [int(s) for s in self.seeds]
        elif self.seed_count is not None:
            seeds = list(range(self.seed_base, self.seed_base + int(self.seed_count)))
        else:
            seeds = [0]
        if not seeds:
            raise ConfigError("seed list is empty")
        return seeds

    def checkpoint_list(self, t: int) -> list:
        if self.checkpoints == "geometric":
            return solver.geometric_checkpoints(t)
        if self.checkpoints == "final":
            return [t]
        # explicit lists are capped at the horizon so one list can serve a sweep
        cps = sorted(set(min(int(c), t) for c in self.checkpoints if int(c) >= 1))
        if not cps:
            raise ConfigError("need at least one checkpoint")
        return cps

    def validate(self):
        if self.solver not in ("smp", "rmsa"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.oracle not in ("sampled", "exact"):
            raise ConfigError(f"unknown oracle mode {self.oracle!r}")
        if self.k < 1:
            raise ConfigError("oracle averaging width must be >= 1")
        if len(self.horizons()) > 1 and self.checkpoints != "final":
            # one row per horizon keeps the output table keyed by t
            raise ConfigError("horizon sweeps require checkpoints='final'")
        self.seed_list()

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "solver": self.solver,
            "t": self.t,
            "k": self.k,
            "oracle": self.oracle,
            "stepsize": self.stepsize,
            "seeds": self.seeds,
            "seed_count": self.seed_count,
            "seed_base": self.seed_base,
            "checkpoints": self.checkpoints,
            "n_probes": self.n_probes,
            "probe_seed": self.probe_seed,
            "out": self.out,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        if "instance" not in data:
            raise ConfigError("config needs an 'instance' entry")
        return cls(**data)


# ---------------------------------------------------------------------------
# running


def _resolve_instance(cfg: ExperimentConfig):
    """(meta, family, instance) of the configured source; the payload is dropped."""
    source = cfg.instance
    if "path" in source:
        payload = load_payload(source["path"])
    else:
        payload = build_instance_payload(
            source.get("kind", "eig_min"), source.get("params", {}), source.get("seed", 0)
        )
    family, obj = payload_to_instance(payload)
    return dict(payload.get("meta", {})), family, obj


class _EigRunner:
    def __init__(self, cfg: ExperimentConfig, inst: eigopt.EigInstance, meta: dict):
        self.cfg = cfg
        self.inst = inst
        self.meta = meta
        self.saddle = eigopt.build_saddle(inst)
        self.problem = self.saddle.problem
        self.probes = vi.default_probes(self.problem, cfg.probe_seed, cfg.n_probes)
        self.lip_eff = eigopt.effective_lipschitz(inst)
        try:
            self.worst_case = eigopt.regularity_constants(inst, cfg.k)
        except ConfigError:
            self.worst_case = None
        self.pointwise = eigopt.sample_deviation_bound(inst)

    def noise_for_bounds(self) -> float:
        if self.cfg.oracle == "exact":
            return 0.0
        if self.worst_case is not None:
            return self.worst_case.noise
        return self.pointwise

    def noise_for_stepsize(self) -> float:
        if self.cfg.oracle == "exact":
            return 0.0
        ceiling = self.worst_case.noise if self.worst_case is not None else float("inf")
        return min(self.pointwise, ceiling)

    def gamma(self, t: int) -> float:
        if self.cfg.stepsize != "auto":
            return float(self.cfg.stepsize)
        setup = self.problem.setup
        if self.cfg.solver == "rmsa":
            mbar = max(eigopt.operator_sup_bound(self.inst), self.noise_for_stepsize())
            return solver.rmsa_stepsize(setup.alpha, setup.omega_radius, mbar, t)
        return solver.constant_stepsize(
            setup.alpha, setup.omega_radius, self.lip_eff, self.noise_for_stepsize(), t
        )

    def oracle_for(self, t: int):
        if self.cfg.oracle == "exact":
            return vi.exact_oracle(self.problem)
        return eigopt.averaged_oracle(self.inst, self.cfg.k)

    def error_fn(self, t: int):
        def fn(z):
            _, gap = eigopt.objective_and_gap(self.inst, z)
            return {"err_nash": gap, "err_vi_probe": self.probes.lower_bound(z)}

        return fn

    def problem_for(self, t: int):
        return self.problem

    def bounds(self, t: int):
        setup = self.problem.setup
        return solver.theoretical_bounds(
            setup.alpha, setup.omega_radius, self.lip_eff, self.noise_for_bounds(), 0.0, t
        )

    def constants(self) -> dict:
        out = {
            "a_inf": self.inst.a_inf,
            "lip_effective": self.lip_eff,
            "noise_pointwise": self.pointwise,
            "mu": 0.0,
            "A": 1.0,
            "B": 0.0,
            "alpha": 1.0,
            "omega_radius": self.problem.setup.omega_radius,
        }
        if self.worst_case is not None:
            out["lip_literal"] = self.worst_case.lip
            out["noise_worst_case"] = self.worst_case.noise
        return out


class _SdfRunner:
    def __init__(self, cfg: ExperimentConfig, system: SDFSystem, meta: dict):
        self.cfg = cfg
        self.system = system
        self.meta = meta
        self._scaled = {}
        self._probes = {}

    def scaled(self, t: int) -> composite.ScaledSdf:
        if t not in self._scaled:
            self._scaled[t] = composite.sdf_scale(self.system, t)
        return self._scaled[t]

    def problem_for(self, t: int):
        sc = self.scaled(t)
        return composite.build_vi(sc.problem, lip_l=sc.lip_l, var_m=sc.noise_m)

    def gamma(self, t: int) -> float:
        if self.cfg.stepsize != "auto":
            return float(self.cfg.stepsize)
        if self.cfg.solver == "rmsa":
            sc = self.scaled(t)
            problem = self.problem_for(t)
            setup = problem.setup
            return solver.rmsa_stepsize(
                setup.alpha, setup.omega_radius, max(sc.noise_m, sc.mu), t
            )
        return self.scaled(t).gamma

    def oracle_for(self, t: int):
        sc = self.scaled(t)
        problem = self.problem_for(t)
        if self.cfg.oracle == "exact":
            return vi.exact_oracle(problem)
        return composite.build_oracle(sc.problem, sc.noise_m)

    def error_fn(self, t: int):
        sc = self.scaled(t)
        problem = self.problem_for(t)
        if t not in self._probes:
            self._probes[t] = vi.default_probes(
                problem, self.cfg.probe_seed, self.cfg.n_probes
            )
        probes = self._probes[t]
        comp_opt = self.meta.get("component_opt")
        certified = None
        if comp_opt is not None:
            certified = float(comp_opt) * float(sc.betas.min())

        def fn(z):
            out = {}
            viol = composite.component_violations(self.system, z.x)
            for i, v in enumerate(viol):
                out[f"viol_{i}"] = float(v)
                if comp_opt is not None:
                    out[f"excess_{i}"] = float(v) - float(comp_opt)
            primal = composite.minimax_primal_value(sc.problem, z.x)
            out["err_nash"] = (
                primal - certified if certified is not None else float("nan")
            )
            out["err_vi_probe"] = probes.lower_bound(z)
            return out

        return fn

    def bounds(self, t: int):
        sc = self.scaled(t)
        problem = self.problem_for(t)
        setup = problem.setup
        return solver.theoretical_bounds(
            setup.alpha, setup.omega_radius, sc.lip_l,
            sc.noise_m if self.cfg.oracle == "sampled" else 0.0, 0.0, t
        )

    def constants(self) -> dict:
        return {"A": 1.0, "B": 0.0, "alpha": 1.0, "mu": 0.0}


@dataclass
class SummaryTable:
    """Per-checkpoint statistics with the per-seed data kept for resampling."""

    seeds: list
    t_values: list
    per_seed: dict  # column -> (n_seeds, n_rows) array
    stats: dict  # column -> {"mean"|"median"|"q10"|"q90": list}
    bounds: list  # per row {"t", "gamma", "k0_star", "k1_star", ...}

    def mean(self, column: str) -> np.ndarray:
        return np.asarray(self.stats[column]["mean"])


def _summarize(seeds, rows, columns, bounds) -> SummaryTable:
    per_seed = {}
    stats = {}
    for col in columns:
        mat = np.array([[r[col] for r in rows[s]] for s in seeds])
        per_seed[col] = mat
        stats[col] = {
            "mean": np.nanmean(mat, axis=0).tolist(),
            "median": np.nanmedian(mat, axis=0).tolist(),
            "q10": np.nanquantile(mat, 0.1, axis=0).tolist(),
            "q90": np.nanquantile(mat, 0.9, axis=0).tolist(),
        }
    t_values = [b["t"] for b in bounds]
    return SummaryTable(
        seeds=list(seeds), t_values=t_values, per_seed=per_seed, stats=stats,
        bounds=bounds,
    )


def run_experiment(config: Union[ExperimentConfig, dict]):
    """Run all replications of the configured experiment.

    Returns (records, summary, files): records is {seed: [RunRecord per
    horizon]}, summary aggregates every error column over seeds, files maps
    "csv"/"json" to the written paths when an output prefix is set.
    """
    cfg = (
        config
        if isinstance(config, ExperimentConfig)
        else ExperimentConfig.from_dict(dict(config))
    )
    cfg.validate()
    meta, family, obj = _resolve_instance(cfg)
    runner = (
        _EigRunner(cfg, obj, meta) if family == "eig" else _SdfRunner(cfg, obj, meta)
    )
    seeds = cfg.seed_list()
    horizons = cfg.horizons()
    run_fn = solver.smp_run if cfg.solver == "smp" else solver.rmsa_run

    plans = []
    for t in horizons:
        gamma = runner.gamma(t)
        problem = runner.problem_for(t)
        oracle = runner.oracle_for(t)
        plans.append(
            {
                "t": t,
                "policy": solver.StepsizePolicy(gamma=gamma, t=t),
                "problem": problem,
                "oracle": oracle,
                "error_fn": runner.error_fn(t),
                "checkpoints": cfg.checkpoint_list(t),
            }
        )

    records = {
        s: [
            run_fn(
                plan["problem"],
                plan["oracle"],
                plan["policy"],
                s,
                plan["checkpoints"],
                error_fn=plan["error_fn"],
            )
            for plan in plans
        ]
        for s in seeds
    }

    # flatten rows in deterministic order: horizon-major, checkpoint-minor
    rows = {s: [] for s in seeds}
    bounds = []
    columns = None
    for h_idx, plan in enumerate(plans):
        for cp_idx, cp in enumerate(plan["checkpoints"]):
            ck0, ck1 = runner.bounds(cp)
            bounds.append(
                {
                    "t": cp,
                    "horizon": plan["t"],
                    "gamma": plan["policy"].gamma,
                    "k0_star": ck0,
                    "k1_star": ck1,
                }
            )
            for s in seeds:
                rec = records[s][h_idx]
                row = {
                    name: vals[cp_idx] for name, vals in rec.errors.items()
                }
                row["gamma"] = plan["policy"].gamma
                row["oracle_calls"] = cp * (2 if cfg.solver == "smp" else 1)
                rows[s].append(row)
                if columns is None:
                    columns = [c for c in rec.errors.keys()]
    summary = _summarize(seeds, rows, columns or [], bounds)

    files = {}
    if cfg.out:
        files = _write_outputs(cfg, runner, seeds, rows, bounds, summary)
    return records, summary, files


def _write_outputs(cfg, runner, seeds, rows, bounds, summary) -> dict:
    prefix = cfg.out
    csv_path = prefix + ".csv"
    json_path = prefix + ".json"
    header = "seed,t_checkpoint,err_nash,err_vi_probe,gamma,oracle_calls,wall_ms"
    lines = [header]
    for s in seeds:
        for row, bound in zip(rows[s], bounds):
            lines.append(
                ",".join(
                    [
                        str(int(s)),
                        str(int(bound["t"])),
                        _fmt(row.get("err_nash", float("nan"))),
                        _fmt(row.get("err_vi_probe", float("nan"))),
                        _fmt(row["gamma"]),
                        str(int(row["oracle_calls"])),
                        # zeroed so outputs stay byte-reproducible
                        "0",
                    ]
                )
            )
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    sidecar = {
        "config": cfg.to_dict(),
        "constants": runner.constants(),
        "bounds": bounds,
        "stats": summary.stats,
        "library_version": _version,
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(sidecar, sort_keys=True, indent=1, default=float) + "\n")
    return {"csv": csv_path, "json": json_path}


# ---------------------------------------------------------------------------
# slope fitting


def fit_slope(
    summary: SummaryTable,
    t_range,
    column: str = "err_nash",
    n_boot: int = 200,
    boot_seed: int = 0,
):
    """Log-log slope of the mean error over checkpoints in t_range.

    Returns (slope, (ci_lo, ci_hi)) with a bootstrap CI over seeds
    (200 resamples).  Nonpositive mean errors make the log undefined and
    raise a numerical error.
    """
    lo, hi = float(t_range[0]), float(t_range[1])
    ts = np.asarray(summary.t_values, dtype=float)
    mask = (ts >= lo) & (ts <= hi)
    if int(mask.sum()) < 4:
        raise InputError("need at least 4 checkpoints in the fit range")
    if column not in summary.per_seed:
        raise InputError(f"summary has no column {column!r}")
    mat = summary.per_seed[column][:, mask]
    ts = ts[mask]
    means = np.nanmean(mat, axis=0)
    if np.any(~np.isfinite(means)) or np.any(means <= 0.0):
        raise NumericalError("degenerate (nonpositive) error data; slope undefined")
    log_t = np.log(ts)

    def _slope(values):
        return float(np.polyfit(log_t, np.log(values), 1)[0])

    slope = _slope(means)
    n_seeds = mat.shape[0]
    stream = RandomStream(boot_seed)
    boots = []
    for _ in range(n_boot):
        idx = (stream.uniforms(n_seeds) * n_seeds).astype(int)
        sample = np.nanmean(mat[idx], axis=0)
        if np.any(sample <= 0.0):
            continue
        boots.append(_slope(sample))
    if boots:
        ci = (
            float(np.quantile(boots, 0.025)),
            float(np.quantile(boots, 0.975)),
        )
    else:
        ci = (slope, slope)
    return slope, ci


def summary_from_csv(path: str, column: str = "err_nash") -> SummaryTable:
    """Rebuild a fit-ready summary from a results CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    if not rows:
        raise InputError("CSV has no data rows")
    seeds = sorted({int(r["seed"]) for r in rows})
    ts = sorted({int(r["t_checkpoint"]) for r in rows})
    mat = np.full((len(seeds), len(ts)), np.nan)
    for r in rows:
        i = seeds.index(int(r["seed"]))
        j = ts.index(int(r["t_checkpoint"]))
        mat[i, j] = float(r[column])
    stats = {
        column: {
            "mean": np.nanmean(mat, axis=0).tolist(),
            "median": np.nanmedian(mat, axis=0).tolist(),
            "q10": np.nanquantile(mat, 0.1, axis=0).tolist(),
            "q90": np.nanquantile(mat, 0.9, axis=0).tolist(),
        }
    }
    bounds = [{"t": t, "gamma": float("nan"), "k0_star": float("nan"),
               "k1_star": float("nan")} for t in ts]
    return SummaryTable(
        seeds=seeds, t_values=ts, per_seed={column: mat}, stats=stats, bounds=bounds
    )
