"""Experiment harness: instance generation, seeded runs, statistics, files.

Instance files are version 3 of the "smpx-instance" format, laid out as

    smpx-instance             the magic line
    <L>                       the header's length in bytes: a decimal line
    <header>                  L bytes of canonical JSON (UTF-8)
    <data>                    the arrays' bytes, to the end of the file

The header is the instance payload with every float array (the eig `a0`
and `a`, the sdf components' `b0`, `bs`, `c0` and `cs`) replaced by its
shape.  The data is each array's little-endian float64 bytes in C order,
the arrays one after another in the order the header prints them: `a`,
then `a0`; each component's `b0`, `bs`, `c0`, `cs`.  Loading checks that
the shapes account for exactly the data before it allocates anything,
then reads the bytes into read-only arrays, with no text to parse or
decode; values round-trip bit-exactly, -0.0 and subnormals included.  A
file is recognised by its magic line, never by its name.  Version-2 JSON
files, which hold each array as one base64 string of the same bytes, and
version-1 JSON files, which hold nested lists of decimals, still load.
The eig_min instance with n = 200 and blocks 32,32,32,32 takes 6.59 MB
(8.78 MB as version 2).  An eig file whose ``meta["a_inf"]`` disagrees with
its data is rejected; that ``eigvalsh`` pass (about 36 ms of that file's
set-up) is a correctness check and stays.  In-memory payloads
(``build_instance_payload``) carry version 3 but keep base64 strings, so
they stay JSON-serialisable.

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

# numpy loads these on first use (np.median, RandomStream).  Loaded during
# an experiment's first run, their module objects land among its freed
# arrays and keep the heap from reusing or trimming them, so the next run's
# instance file read grows the heap: eig_mid's perfbench peak RSS read
# 68-75 MB, depending on the command line, and 63.3 MB with the imports here.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from . import __version__ as _version
from . import composite, eigopt, solver, symmat, vi
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
_VERSION = 3  # the format version written; JSON versions 1 and 2 are still read
_MAGIC = b"smpx-instance\n"  # the first line of a version-3 file
# the float array fields, in the order canonical JSON prints them, and
# the number of axes of each
_ARRAY_RANKS = {"a": 2, "a0": 2, "b0": 2, "bs": 3, "c0": 2, "cs": 3}


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


def _array_slots(payload: dict):
    """(object, name, where) of each float array field of a payload, in
    the order canonical JSON prints them: the top level's, then each
    component's; `where` prefixes `name` in messages."""
    comps = payload.get("components")
    objs = [(payload, "")]
    if isinstance(comps, list):
        objs += [(c, f"components[{i}].") for i, c in enumerate(comps) if isinstance(c, dict)]
    for obj, where in objs:
        for name in _ARRAY_RANKS:
            if name in obj:
                yield obj, name, where


def _array_shape(payload: dict, obj: dict, name: str, where: str) -> tuple:
    """The shape that `n`, `block_sizes` and a component's `p` and `rows`
    give the float array field `name` of `obj` (the payload or a component)."""
    n = _number_field(payload, "n", numbers.Integral)
    if name in ("a", "a0"):
        return (n if name == "a" else 1, _block_structure(payload).sum_sq)
    p = _number_field(obj, "p", numbers.Integral, where)
    if name in ("c0", "cs"):
        return (p, p) if name == "c0" else (n, p, p)
    rows = _number_field(obj, "rows", numbers.Integral, where)
    return (rows, p) if name == "b0" else (n, rows, p)


def save_payload(path: str, payload: dict) -> str:
    """Write the payload as a version-3 instance file (module docstring).

    Each array field may be base64 text, a list of numbers or an array; it
    must hold the shape that ``_array_shape`` gives it (InputError naming
    the field otherwise).  The header declares version 3 whatever version
    the payload was read as.
    """
    header = dict(payload, version=_VERSION)
    if isinstance(header.get("components"), list):
        header["components"] = [dict(c) if isinstance(c, dict) else c
                                for c in header["components"]]
    arrays = []
    for obj, name, where in _array_slots(header):
        shape = _array_shape(header, obj, name, where)
        arrays.append(_decode_array(obj[name], shape, f"instance field {where + name!r}"))
        obj[name] = list(shape)
    text = canonical_json(header).encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(_MAGIC + b"%d\n" % len(text) + text)
            for a in arrays:
                fh.write(np.ascontiguousarray(a, dtype="<f8"))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None
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


def _check_format(payload: dict, path: str, versions) -> None:
    if payload.get("format") != "smpx-instance":
        raise InputError(f"{path} is not an instance file")
    version = payload.get("version")
    if type(version) is not int or version not in versions:  # not true or 2.0
        raise InputError(f"{path}: unknown instance format version {version!r}")


def load_payload(path: str) -> dict:
    """The payload of an instance file: version 3 if the file starts with
    the magic line, else JSON of version 1 or 2."""
    try:
        with open(path, "rb") as fh:
            if fh.read(len(_MAGIC)) == _MAGIC:
                return _read_version_3(fh, path)
    except OSError as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from None
    payload = read_json_object(path, "instance file")
    _check_format(payload, path, (1, 2))
    return payload


def _read_version_3(fh, path: str) -> dict:
    """The header of the version-3 file open as `fh`, past its magic line,
    with each array field's shape replaced by the read-only float64 array
    that the data holds for it."""
    size = os.fstat(fh.fileno()).st_size
    line = fh.readline(22)
    if not (line[-1:] == b"\n" and line[:-1].isdigit()):
        raise InputError(f"{path}: the header length must be a line of decimal digits, "
                         f"got {line!r}")
    start = fh.tell() + int(line)
    if start > size:
        raise InputError(f"{path}: the header length {int(line)} runs past the end "
                         f"of the file ({size} bytes)")
    try:
        header = json.loads(fh.read(int(line)).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError included
        raise InputError(f"{path}: the header is not UTF-8 JSON: {exc}") from None
    if not isinstance(header, dict):
        raise InputError(f"{path}: the header is not a JSON object")
    _check_format(header, path, (_VERSION,))
    # the shapes must account for exactly the data before anything is allocated
    slots = list(_array_slots(header))
    end = start
    for obj, name, where in slots:
        shape = obj[name]
        if not (isinstance(shape, list) and len(shape) == _ARRAY_RANKS[name] and all(
                type(d) is int and 0 <= d <= size for d in shape)):
            raise InputError(f"{path}: instance field {where + name!r} must be a shape of "
                             f"{_ARRAY_RANKS[name]} integers in [0, {size}], got {shape!r}")
        end += 8 * math.prod(shape)
        if end > size:
            raise InputError(f"{path}: instance field {where + name!r} of shape {shape} "
                             f"runs past the end of the file ({size} bytes)")
    if end != size:
        last = f"the last array {where + name!r}" if slots else "the header"
        raise InputError(f"{path}: {size - end} bytes of data follow {last}")
    for obj, name, _ in slots:
        a = np.empty(obj[name], dtype="<f8")
        if fh.readinto(a) != a.nbytes:
            raise InputError(f"{path}: the file changed while it was read")
        a.setflags(write=False)
        obj[name] = a
    return header


def _encode_array(*parts) -> str:
    """Base64 of the little-endian float64 bytes of the parts, raveled in order."""
    flat = np.concatenate([np.asarray(a, dtype="<f8").ravel() for a in parts])
    return base64.b64encode(flat.tobytes()).decode("ascii")


def _decode_array(value, shape, what="array") -> np.ndarray:
    """The float64 array of `shape` that `_encode_array` stored as `value`.

    A version-1 value, a (nested) list of decimals, is read too, and an
    array (a version-3 file's) is taken as it is if it has the shape.  A
    value that is none of these, or does not hold exactly prod(shape)
    floats, raises an InputError that names it as `what`.  The base64 text
    is decoded from the str itself, without an ASCII copy of it.
    """
    if isinstance(value, np.ndarray):  # as a version-3 file is read
        if value.shape != tuple(shape):
            raise InputError(f"{what} has shape {value.shape}, expected {tuple(shape)}")
        return value
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


def _block_structure(payload: dict) -> BlockStructure:
    sizes = _field(payload, "block_sizes")
    if not (isinstance(sizes, list) and all(isinstance(p, numbers.Integral) for p in sizes)):
        raise InputError(f"instance field 'block_sizes' must be a list of integers, got {sizes!r}")
    return BlockStructure(tuple(int(p) for p in sizes))


def _array_field(obj, name: str, shape, where: str = "") -> np.ndarray:
    return _decode_array(_field(obj, name, where), shape, f"instance field {where + name!r}")


# Doubles per slice of the symmetry check and symmetrization in
# ``_symmetric_stacks``: 512 KB, 16 matrices of blocks 4 x 32, so a
# slice's temporaries stay small next to the stacks.
_SLICE_BUDGET = 1 << 16


def _symmetric_stacks(payload: dict, name: str, n: int, structure: BlockStructure) -> list:
    """Per size group, the read-only (n, k, p, p) stack of the blocks of the
    n matrices that the instance field `name` stores as the rows of an
    (n, sum p^2) array (``flat_columns`` layout).

    The field is decoded whole (``_array_field``), and each size group's
    blocks are gathered from it by one ``np.take``.  The blocks are then
    checked and symmetrized by ``symmat.symmetrize``, as ``BlockSymMatrix``
    checks its blocks, a slice of matrices at a time in the stack itself.
    """
    rows = _array_field(payload, name, (n, structure.sum_sq))
    stacks = [np.take(rows, cols.reshape(len(idx), p, p), axis=1)
              for (p, idx), cols in zip(structure.groups, structure.flat_columns())]
    for s in stacks:
        step = max(1, _SLICE_BUDGET // math.prod(s.shape[1:]))
        for start in range(0, n, step):
            try:
                symmat.symmetrize(s[start:start + step])
            except InputError as exc:
                raise InputError(f"instance field {name!r}: {exc}") from None
        s.setflags(write=False)
    return stacks


# ---------------------------------------------------------------------------
# instance generators


def _gen_eig(params: dict, seed: int, kind: str) -> dict:
    n = int(params.get("n", 8))
    sizes = tuple(int(p) for p in params.get("blocks", (2, 2)))
    scale = float(params.get("scale", 1.0))
    if n < 2:
        raise ConfigError("eigenvalue instances need n >= 2")
    structure = BlockStructure(sizes)
    # A_0..A_n in one draw, matrix-major with the blocks of a matrix in
    # order: Philox gives the doubles of one uniforms((p, p)) call per block
    g = scale * (2.0 * RandomStream(seed).uniforms((n + 1, structure.sum_sq)) - 1.0)
    a_inf = 0.0
    for (p, idx), cols in zip(structure.groups, structure.flat_columns()):
        s = np.take(g, cols, axis=1).reshape(n + 1, len(idx), p, p)
        s = 0.5 * (s + s.swapaxes(2, 3))
        g[:, cols] = s.reshape(n + 1, len(idx), p * p)
        a_inf = max(a_inf, float(np.abs(np.linalg.eigvalsh(s[1:])).max()))
    return {
        "format": "smpx-instance",
        "version": _VERSION,
        "kind": kind,
        "n": n,
        "block_sizes": list(sizes),
        "a0": _encode_array(g[0]),
        "a": _encode_array(g[1:]),
        "meta": {"seed": int(seed), "scale": scale, "a_inf": a_inf},
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


def _is_number(v, kind=numbers.Integral) -> bool:
    """v is a number of the kind, and not a boolean: JSON true and false are
    not numbers."""
    return isinstance(v, kind) and not isinstance(v, bool)


# the generator params and the number type each takes ("blocks" and
# "scalars" are lists of them)
_PARAM_TYPES = {
    "n": numbers.Integral, "blocks": numbers.Integral, "scale": numbers.Real,
    "scalars": numbers.Real, "delta": numbers.Real, "noise_m": numbers.Real,
    "smooth_scale": numbers.Real, "n_smooth": numbers.Integral,
}


def check_params(params) -> None:
    """ConfigError unless params is a dict whose generator params are
    numbers; a param given as null, true or false is an error, not a
    default or a 1."""
    if params is None:
        return
    if not isinstance(params, dict):
        raise ConfigError(f"instance params must be an object, got {params!r}")
    for name, kind in _PARAM_TYPES.items():
        if name not in params:
            continue
        value = params[name]
        if name in ("blocks", "scalars"):
            what = "a list of numbers"
            ok = isinstance(value, (list, tuple)) and all(_is_number(v, kind) for v in value)
        else:
            what, ok = "a number", _is_number(value, kind)
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
    structure = _block_structure(payload)
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise InputError(f"instance field 'meta' must be an object, got {meta!r}")
    if kind in ("eig_min", "bilinear_simplex_spectahedron", "scalar_minimax"):
        n = _number_field(payload, "n", numbers.Integral)
        a0 = _symmetric_stacks(payload, "a0", 1, structure)
        stacks = _symmetric_stacks(payload, "a", n, structure)
        inst = eigopt.EigInstance(
            structure, BlockSymMatrix.from_stacks(structure, [s[0] for s in a0]), tuple(stacks))
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
        if meta.get("component_opt") is not None:
            _number_field(meta, "component_opt", numbers.Real, "meta.")
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


# Largest run count of a config and uniform count of one oracle call: every
# (seed, horizon) run is a row of the experiment's one lock-step batch, and a
# sampled eig oracle call draws 2 k uniforms a row at once (256 MB at the
# limit).
MAX_RUNS = 100_000
MAX_ORACLE_UNIFORMS = 1 << 25


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
        """Reject a bad setting before any instance is built or array
        allocated.

        Each field must have the form it is used in; JSON true and false
        are not numbers.  The runs, one per seed (from ``seeds`` or
        ``seed_count``) and horizon, must number at most ``MAX_RUNS``, and
        ``k`` must be at least 1 with 2 k uniforms for every run at most
        ``MAX_ORACLE_UNIFORMS``.
        """
        if self.solver not in ("smp", "rmsa"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.oracle not in ("sampled", "exact"):
            raise ConfigError(f"unknown oracle mode {self.oracle!r}")
        if not (self.stepsize == "auto" or _is_number(self.stepsize, numbers.Real)):
            raise ConfigError(f"stepsize must be 'auto' or a number, got {self.stepsize!r}")
        # each field in the form it is used; only the seed fields may be null
        one = _is_number
        many = lambda v: isinstance(v, (list, tuple)) and all(map(one, v))  # noqa: E731
        for name, ok, form in (
            ("t", one(self.t) or many(self.t), "an integer or a list of integers"),
            ("k", one(self.k), "an integer"),
            ("seeds", self.seeds is None or many(self.seeds), "null or a list of integers"),
            ("seed_count", self.seed_count is None or one(self.seed_count), "null or an integer"),
            ("seed_base", one(self.seed_base), "an integer"),
            ("checkpoints", self.checkpoints in ("geometric", "final") or many(self.checkpoints),
             "'geometric', 'final' or a list of integers"),
            ("n_probes", one(self.n_probes), "an integer"),
            ("probe_seed", one(self.probe_seed), "an integer"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {form}, got {getattr(self, name)!r}")
        if self.n_probes < 0:
            raise ConfigError(f"n_probes must be >= 0, got {self.n_probes}")
        # the batch's size, counted before seed_list builds a list
        seed_field = "seeds" if self.seeds is not None else "seed_count"
        runs = len(self.horizons()) * (
            len(self.seeds) if self.seeds is not None else self.seed_count or 1)
        if runs > MAX_RUNS:
            raise ConfigError(f"{seed_field} and t give {runs} runs, more than {MAX_RUNS}")
        if self.k < 1:
            raise ConfigError(f"k must be at least 1, got {self.k}")
        if 2 * self.k * max(runs, 1) > MAX_ORACLE_UNIFORMS:
            raise ConfigError(
                f"k = {self.k} draws {2 * self.k} uniforms for each of {runs} runs, "
                f"more than {MAX_ORACLE_UNIFORMS} in one oracle call")
        if not isinstance(self.instance, dict):
            raise ConfigError(f"instance must be an object, got {self.instance!r}")
        if "path" not in self.instance:
            check_params(self.instance.get("params"))
            seed = self.instance.get("seed", 0)
            if not _is_number(seed):
                raise ConfigError(f"instance seed must be an integer, got {seed!r}")
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ConfigError(f"output directory of {self.out!r} does not exist")
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
    # the probe points depend on the geometry alone: one family, drawn and
    # stacked once, serves every horizon's probe set (vi.default_probes of
    # each problem)
    probe_chunks = list(geometry.probe_chunks(RandomStream(cfg.probe_seed), cfg.n_probes))

    def plan(t):
        sc = scaled[t]
        problem = composite.build_vi(sc.problem, lip_l=sc.lip_l, var_m=sc.noise_m,
                                     setup=geometry)
        setup = problem.setup
        probes = vi.ProbeSet(problem, probe_chunks)
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
    """NaN-ignoring mean, median, q10 and q90 over seeds, per row.

    A matrix without NaN takes the plain functions over the whole matrix,
    which give the bytes of the nan-functions (those go column by column);
    one ``np.quantile`` call per q, since a call with both partitions at
    both indices at once and can flip the sign of a zero.
    """
    if not np.isnan(mat).any():
        return {
            "mean": np.mean(mat, axis=0).tolist(),
            "median": np.median(mat, axis=0).tolist(),
            "q10": np.quantile(mat, 0.1, axis=0).tolist(),
            "q90": np.quantile(mat, 0.9, axis=0).tolist(),
        }
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
