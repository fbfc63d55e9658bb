"""Experiment harness: instance generation, seeded runs, statistics, files.

Instances are stored as canonical JSON ("format": "smpx-instance",
"version": 2).  Every float array of the instance data (the eig `a0` and
`a`, the sdf components' `b0`, `bs`, `c0` and `cs`) is one base64 string of
its little-endian float64 bytes in C order, the blocks of a matrix and the
matrices of a list concatenated in order.  Values round-trip bit-exactly,
-0.0 and subnormals included, and loading decodes bytes instead of parsing
decimal text.  Version-1 files, which hold the same arrays as nested lists
of shortest round-trip decimals, are still read.  An eig file whose
``meta["a_inf"]`` disagrees with its data is rejected.

An experiment runs as one lock-step batch (``solver.run_batch``) whose
rows are its (seed, horizon) runs.  Each family builds a plan per horizon
(problem, auto-stepsize rule, error map, and the L and M of the K0*/K1*
rows) and one oracle for the whole batch: eig instances share one plan
and one oracle across horizons; sdf systems are rescaled for each
horizon, their problems share one geometry, and the batch oracle weights
each row for its horizon (``composite.batch_problem``).  The configured
stepsize, oracle mode and bound rows are then decided once for both
families.  The rows of the longest horizon come first, and each row
retires from the batch when it reaches its horizon; a row's record has
the bytes it has when run alone, and records and outputs keep the
seed-major, horizon-ascending order.

Experiment outputs are a CSV of per-seed, per-checkpoint rows plus a JSON
sidecar echoing the configuration and the theoretical constants; both are
byte-reproducible for a fixed configuration, which is why the wall_ms
column is written as zero (real timings live on the in-memory run records
and go to stderr in the CLI).
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import json
import math
import numbers
import os
from dataclasses import dataclass
from typing import Callable, Optional, Union

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
from .geometry import ProductSetup, SimplexSetup
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


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def save_payload(path: str, payload: dict) -> str:
    _write_text(path, canonical_json(payload))
    return path


def read_json_object(path: str, what: str) -> dict:
    """The JSON object a file holds; InputError if it cannot be read as one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers malformed JSON
        raise InputError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{what} {path} does not hold a JSON object")
    return data


def load_payload(path: str) -> dict:
    payload = read_json_object(path, "instance file")
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


def _decode_array(value, shape, what="array") -> np.ndarray:
    """The float64 array of `shape` that `_encode_array` stored as `value`.

    A version-1 value, a (nested) list of decimals, is read too.  A value
    that is neither, or does not hold exactly prod(shape) floats, raises an
    InputError that names it as `what`.  The base64 text is decoded from
    the str itself, without an ASCII copy of it.
    """
    count = math.prod(shape)
    if isinstance(value, str):
        try:
            raw = binascii.a2b_base64(value, strict_mode=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII character
            raise InputError(f"{what} is not valid base64: {exc}") from None
        if len(raw) != 8 * count:
            raise InputError(f"{what} holds {len(raw)} bytes, expected {8 * count}")
        return np.frombuffer(raw, "<f8").reshape(shape)
    if not isinstance(value, list):
        raise InputError(f"{what} is neither a base64 string nor a list of numbers")
    try:
        while value and isinstance(value[0], list):
            value = [x for row in value for x in row]
        flat = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} is not a list of numbers: {exc}") from None
    if flat.size != count:
        raise InputError(f"{what} holds {flat.size} floats, expected {count}")
    return flat.reshape(shape)


def _field(obj, name: str, where: str = ""):
    """obj[name] of an instance payload; InputError naming `where + name`
    if obj is not an object or lacks it."""
    if not isinstance(obj, dict):
        raise InputError(f"instance field {where.rstrip('.') or 'root'!r} is not an object")
    try:
        return obj[name]
    except KeyError:
        raise InputError(f"instance field {where + name!r} is missing") from None


def _number_field(obj, name: str, kind, where: str = ""):
    """obj[name] of an instance payload as an int (kind Integral) or a float."""
    value = _field(obj, name, where)
    if not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise InputError(f"instance field {where + name!r} must be {what}, got {value!r}")
    return int(value) if kind is numbers.Integral else float(value)


def _array_field(obj, name: str, shape, where: str = "") -> np.ndarray:
    return _decode_array(_field(obj, name, where), shape, f"instance field {where + name!r}")


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


# the generator params and the number type each takes ("blocks" and
# "scalars" are lists of them)
_PARAM_TYPES = {
    "n": numbers.Integral, "blocks": numbers.Integral, "scale": numbers.Real,
    "scalars": numbers.Real, "delta": numbers.Real, "noise_m": numbers.Real,
    "smooth_scale": numbers.Real, "n_smooth": numbers.Integral,
}


def check_params(params) -> None:
    """ConfigError unless params is a dict whose generator params are numbers."""
    if params is None:
        return
    if not isinstance(params, dict):
        raise ConfigError(f"instance params must be an object, got {params!r}")
    for name, kind in _PARAM_TYPES.items():
        value = params.get(name)
        if value is None:
            continue
        if name in ("blocks", "scalars"):
            what = "a list of numbers"
            ok = isinstance(value, (list, tuple)) and all(isinstance(v, kind) for v in value)
        else:
            what, ok = "a number", isinstance(value, kind)
        if not ok:
            raise ConfigError(f"instance param {name} must be {what}, got {value!r}")


def build_instance_payload(kind: str, params: dict, seed: int) -> dict:
    """Reproducible instance description for the given generator kind."""
    check_params(params)
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
    sizes = _field(payload, "block_sizes")
    if not (isinstance(sizes, list) and all(isinstance(p, numbers.Integral) for p in sizes)):
        raise InputError(f"instance field 'block_sizes' must be a list of integers, got {sizes!r}")
    sizes = tuple(int(p) for p in sizes)
    structure = BlockStructure(sizes)
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise InputError(f"instance field 'meta' must be an object, got {meta!r}")
    if kind in ("eig_min", "bilinear_simplex_spectahedron", "scalar_minimax"):
        sq = structure.sum_sq
        n = _number_field(payload, "n", numbers.Integral)
        a0 = BlockSymMatrix(structure, _blocks(_array_field(payload, "a0", (sq,)), sizes))
        mats = tuple(
            BlockSymMatrix(structure, _blocks(row, sizes))
            for row in _array_field(payload, "a", (n, sq))
        )
        inst = eigopt.EigInstance(structure, a0, mats)
        # the file is outside input: a_inf is recomputed, and a declared value
        # that disagrees with the data is an error
        declared = meta.get("a_inf")
        if declared is not None:
            declared = _number_field(meta, "a_inf", numbers.Real, "meta.")
            if abs(declared - inst.a_inf) > 1e-9 * max(1.0, inst.a_inf):
                raise InputError(f"meta a_inf {declared!r} disagrees with the data's {inst.a_inf!r}")
        return "eig", inst
    if kind == "sdf_system":
        n = _number_field(payload, "n", numbers.Integral)
        x_setup = SimplexSetup(n)
        parts = []
        comps = _field(payload, "components")
        if not isinstance(comps, list):
            raise InputError(f"instance field 'components' must be a list, got {comps!r}")
        for i, comp in enumerate(comps):
            at = f"components[{i}]."
            p = _number_field(comp, "p", numbers.Integral, at)
            ctype = _field(comp, "type", at)
            if ctype == "quadratic":
                rows = _number_field(comp, "rows", numbers.Integral, at)
                b0 = _array_field(comp, "b0", (rows, p), at)
                bs = _array_field(comp, "bs", (n, rows, p), at)
                c0 = _array_field(comp, "c0", (p, p), at)
                q = QuadraticMatrixComponent(b0, bs, c0)
                parts.append(
                    SdfComponent(q, lip_l=q.lipschitz_bounds(x_setup.omega_radius),
                                 noise_m=0.0)
                )
            elif ctype == "affine_noisy":
                c0 = _array_field(comp, "c0", (p, p), at)
                cs = _array_field(comp, "cs", (n, p, p), at)
                base = AffineMatrixComponent(c0, cs)
                m_l = _number_field(comp, "noise_m", numbers.Real, at)
                if base.grad_sup_norm() > m_l + 1e-9:
                    raise InputError("affine gradients exceed the declared noise level")
                noisy = NoisyAffineComponent(
                    base, rho_f=x_setup.omega_radius * m_l, rho_g=m_l
                )
                parts.append(SdfComponent(noisy, lip_l=0.0, noise_m=m_l))
            else:
                raise InputError(f"unknown component type {ctype!r}")
        meta = dict(meta)
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
        """Reject a bad setting before any instance is built."""
        if self.solver not in ("smp", "rmsa"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.oracle not in ("sampled", "exact"):
            raise ConfigError(f"unknown oracle mode {self.oracle!r}")
        if not (self.stepsize == "auto" or isinstance(self.stepsize, numbers.Real)):
            raise ConfigError(f"stepsize must be 'auto' or a number, got {self.stepsize!r}")
        for name in ("t", "k", "seeds", "seed_count", "seed_base", "checkpoints", "n_probes",
                     "probe_seed"):
            value = getattr(self, name)
            ints = value if isinstance(value, (list, tuple)) else [value]
            if value not in (None, "geometric", "final") and not all(
                isinstance(v, numbers.Integral) for v in ints
            ):
                raise ConfigError(f"{name} must be an integer or a list of them, got {value!r}")
        if not isinstance(self.instance, dict):
            raise ConfigError(f"instance must be an object, got {self.instance!r}")
        if "path" not in self.instance:
            check_params(self.instance.get("params"))
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ConfigError(f"output directory of {self.out!r} does not exist")
        if self.k < 1:
            raise ConfigError("oracle averaging width must be >= 1")
        if len(self.horizons()) > 1 and self.checkpoints != "final":
            # one row per horizon keeps the output table keyed by t
            raise ConfigError("horizon sweeps require checkpoints='final'")
        seeds = self.seed_list()
        if len(set(seeds)) < len(seeds):
            # outputs are keyed by seed
            raise ConfigError(f"seeds must be distinct, got {seeds}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

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
    """(family, instance) of the configured source; the payload is dropped."""
    source = cfg.instance
    if "path" in source:
        payload = load_payload(source["path"])
    else:
        payload = build_instance_payload(
            source.get("kind", "eig_min"), source.get("params", {}), source.get("seed", 0)
        )
    return payload_to_instance(payload)


@dataclass(frozen=True)
class _Plan:
    """What the rows of one horizon share.

    ``stepsize`` is the family's auto rule, t -> gamma; an explicit
    configured stepsize replaces it.  The K0*/K1* bound rows take L from
    ``problem.lip_l`` and M from ``noise``, for the sampled oracle.  The
    oracle is not part of a plan: one oracle serves all rows of the batch.
    """

    problem: vi.VIProblem
    stepsize: Callable
    error_fn: Callable
    noise: float


def _eig_plans(cfg: ExperimentConfig, inst: eigopt.EigInstance, horizons):
    """(plans, oracle_for, constants): one plan, built once, serves every
    horizon, and one oracle every row."""
    problem = eigopt.build_saddle(inst).problem
    setup = problem.setup
    probes = vi.default_probes(problem, cfg.probe_seed, cfg.n_probes)
    lip_eff = eigopt.effective_lipschitz(inst)
    pointwise = eigopt.sample_deviation_bound(inst)
    try:
        worst_case = eigopt.regularity_constants(inst, cfg.k)
    except ConfigError:
        worst_case = None
    ceiling = worst_case.noise if worst_case is not None else float("inf")
    step_noise = 0.0 if cfg.oracle == "exact" else min(pointwise, ceiling)

    def stepsize(t):
        if cfg.solver == "rmsa":
            mbar = max(eigopt.operator_sup_bound(inst), step_noise)
            return solver.rmsa_stepsize(setup.alpha, setup.omega_radius, mbar, t)
        return solver.constant_stepsize(setup.alpha, setup.omega_radius, lip_eff, step_noise, t)

    def error_fn(z):
        _, gap = eigopt.objective_and_gap(inst, z)
        return {"err_nash": gap, "err_vi_probe": probes.lower_bound(z)}

    plan = _Plan(
        problem, stepsize, error_fn, worst_case.noise if worst_case is not None else pointwise
    )
    oracle = (vi.exact_oracle(problem) if cfg.oracle == "exact"
              else eigopt.averaged_oracle(inst, cfg.k))
    constants = {
        "a_inf": inst.a_inf,
        "lip_effective": lip_eff,
        "noise_pointwise": pointwise,
        "mu": 0.0,
        "A": 1.0,
        "B": 0.0,
        "alpha": 1.0,
        "omega_radius": setup.omega_radius,
    }
    if worst_case is not None:
        constants["lip_literal"] = worst_case.lip
        constants["noise_worst_case"] = worst_case.noise
    return dict.fromkeys(horizons, plan), lambda row_ts: oracle, constants


def _sdf_plans(cfg: ExperimentConfig, system: SDFSystem, horizons):
    """(plans, oracle_for, constants): plans[t] holds the system rescaled
    for a t-step run.

    Every horizon's problem steps with one geometry, and oracle_for(row_ts)
    is the batch oracle, sampled or exact as configured, that weights row r
    for horizon row_ts[r].
    """
    comp_opt = system.meta.get("component_opt")
    scaled = {t: composite.sdf_scale(system, t) for t in horizons}
    geometry = ProductSetup(system.x_setup, scaled[horizons[0]].problem.y_setup)

    def plan(t):
        sc = scaled[t]
        problem = composite.build_vi(sc.problem, lip_l=sc.lip_l, var_m=sc.noise_m,
                                     setup=geometry)
        setup = problem.setup
        probes = vi.default_probes(problem, cfg.probe_seed, cfg.n_probes)
        certified = None if comp_opt is None else float(comp_opt) * float(sc.betas.min())

        def stepsize(t):
            if cfg.solver == "rmsa":
                mbar = max(sc.noise_m, sc.mu)
                return solver.rmsa_stepsize(setup.alpha, setup.omega_radius, mbar, t)
            return sc.gamma

        def error_fn(z):
            out = {}
            for i, v in enumerate(composite.component_violations(system, z.x)):
                out[f"viol_{i}"] = float(v)
                if comp_opt is not None:
                    out[f"excess_{i}"] = float(v) - float(comp_opt)
            primal = composite.minimax_primal_value(sc.problem, z.x)
            out["err_nash"] = primal - certified if certified is not None else float("nan")
            out["err_vi_probe"] = probes.lower_bound(z)
            return out

        return _Plan(problem, stepsize, error_fn, sc.noise_m)

    def oracle_for(row_ts):
        cp = composite.batch_problem([scaled[t].problem for t in row_ts])
        if cfg.oracle == "exact":
            return vi.exact_oracle(composite.build_vi(cp))
        return composite.build_oracle(cp)

    plans = {t: plan(t) for t in horizons}
    return plans, oracle_for, {"A": 1.0, "B": 0.0, "alpha": 1.0, "mu": 0.0}


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


def _column_stats(mat: np.ndarray) -> dict:
    """NaN-ignoring mean, median, q10 and q90 over seeds, per row."""
    return {
        "mean": np.nanmean(mat, axis=0).tolist(),
        "median": np.nanmedian(mat, axis=0).tolist(),
        "q10": np.nanquantile(mat, 0.1, axis=0).tolist(),
        "q90": np.nanquantile(mat, 0.9, axis=0).tolist(),
    }


def _summarize(seeds, rows, columns, bounds) -> SummaryTable:
    per_seed = {}
    stats = {}
    for col in columns:
        mat = np.array([[r[col] for r in rows[s]] for s in seeds])
        per_seed[col] = mat
        stats[col] = _column_stats(mat)
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
    family, obj = _resolve_instance(cfg)
    horizons = cfg.horizons()
    plans, oracle_for, constants = (
        _eig_plans(cfg, obj, horizons) if family == "eig" else _sdf_plans(cfg, obj, horizons)
    )
    seeds = cfg.seed_list()
    run_fn = solver.smp_run if cfg.solver == "smp" else solver.rmsa_run
    calls_per_step = solver.ORACLE_CALLS[cfg.solver]
    exact = cfg.oracle == "exact"
    gammas = {
        t: plans[t].stepsize(t) if cfg.stepsize == "auto" else float(cfg.stepsize)
        for t in horizons
    }
    checkpoints = {t: cfg.checkpoint_list(t) for t in horizons}

    # every (seed, horizon) run is a row of one lock-step batch; the longest
    # horizon's rows come first, so each horizon's rows retire from the end
    row_ts = [t for t in reversed(horizons) for _ in seeds]
    batch = run_fn(
        [plans[t].problem for t in row_ts], oracle_for(row_ts),
        [solver.StepsizePolicy(gamma=gammas[t], t=t) for t in row_ts], seeds * len(horizons),
        [checkpoints[t] for t in row_ts], error_fn=[plans[t].error_fn for t in row_ts],
    )
    runs = {(rec.seed, rec.t): rec for rec in batch}
    records = {s: [runs[s, t] for t in horizons] for s in seeds}

    # rows are horizon-major, checkpoint-minor
    rows = {s: [] for s in seeds}
    bounds = []
    for t in horizons:
        problem = plans[t].problem
        noise = 0.0 if exact else plans[t].noise
        for i, cp in enumerate(checkpoints[t]):
            k0, k1 = solver.theoretical_bounds(
                problem.setup.alpha, problem.setup.omega_radius, problem.lip_l, noise, 0.0, cp
            )
            bounds.append(
                {"t": cp, "horizon": t, "gamma": gammas[t], "k0_star": k0, "k1_star": k1}
            )
            for s in seeds:
                row = {name: vals[i] for name, vals in runs[s, t].errors.items()}
                row["gamma"] = gammas[t]
                row["oracle_calls"] = cp * calls_per_step
                rows[s].append(row)
    columns = list(records[seeds[0]][0].errors)
    summary = _summarize(seeds, rows, columns, bounds)

    files = {}
    if cfg.out:
        files = _write_outputs(cfg, constants, seeds, rows, bounds, summary)
    return records, summary, files


def _write_outputs(cfg, constants, seeds, rows, bounds, summary) -> dict:
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
    _write_text(csv_path, "\n".join(lines) + "\n")

    sidecar = {
        "config": cfg.to_dict(),
        "constants": constants,
        "bounds": bounds,
        "stats": summary.stats,
        "library_version": _version,
    }
    _write_text(json_path, json.dumps(sidecar, sort_keys=True, indent=1, default=float) + "\n")
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
    """Rebuild a fit-ready summary from a results CSV (InputError if unreadable)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        if not rows:
            raise InputError("CSV has no data rows")
        seeds = sorted({int(r["seed"]) for r in rows})
        ts = sorted({int(r["t_checkpoint"]) for r in rows})
        mat = np.full((len(seeds), len(ts)), np.nan)
        for r in rows:
            i, j = seeds.index(int(r["seed"])), ts.index(int(r["t_checkpoint"]))
            mat[i, j] = float(r[column])
    except (OSError, LookupError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc!r}") from None
    stats = {column: _column_stats(mat)}
    bounds = [{"t": t, "gamma": float("nan"), "k0_star": float("nan"),
               "k1_star": float("nan")} for t in ts]
    return SummaryTable(
        seeds=seeds, t_values=ts, per_seed={column: mat}, stats=stats, bounds=bounds
    )
