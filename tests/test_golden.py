"""Golden outputs: the CSV and JSON bytes of a few fixed configurations.

Each configuration runs in a temporary working directory with its name as
the relative output prefix (the JSON sidecar echoes the prefix, so it must
not vary), and both files must equal the ones in tests/golden byte for
byte.  tests/golden/env.json names the numpy and BLAS that wrote them; a
mismatch reports that environment next to the running one.

Regenerate the files, after a change that alters outputs on purpose, with

    PYTHONPATH=src python3 tests/test_golden.py

which first prints, per file that changed, the largest absolute and
relative change of each CSV column (of each JSON field, list positions
merged), as the size of the change to report.
"""

import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from test_bench import tiny_config

from smpx.bench import run_experiment

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# two smooth components and one noisy one, so both component oracles run
_SDF = {
    "kind": "sdf_system",
    "params": {"n": 4, "blocks": [2, 2, 2], "delta": 0.1, "n_smooth": 2},
    "seed": 3,
}

CONFIGS = {
    "eig_smp": tiny_config(),
    "eig_rmsa_exact": tiny_config(solver="rmsa", oracle="exact"),
    "eig_k3": tiny_config(k=3),
    # the configuration of acceptance criterion 9
    "criterion_9": {
        "instance": {
            "kind": "bilinear_simplex_spectahedron",
            "params": {"n": 8, "blocks": [3, 3]},
            "seed": 5,
        },
        "solver": "smp",
        "t": 200,
        "oracle": "sampled",
        "seeds": [0, 1, 2],
        "checkpoints": "geometric",
        "n_probes": 25,
    },
    "sdf_sweep": {
        "instance": _SDF, "t": [16, 64], "seeds": [0, 1], "checkpoints": "final",
        "n_probes": 5,
    },
    "sdf_rmsa_exact": {
        "instance": _SDF, "solver": "rmsa", "oracle": "exact", "t": 64, "seeds": [0],
        "checkpoints": "geometric", "n_probes": 5,
    },
    # the instance of the benchmark's sdf workload: one smooth component,
    # then a run of two noisy ones; a horizon sweep whose probe family spans
    # two probe-set chunks
    "sdf_noisy_sweep": {
        "instance": {
            "kind": "sdf_system",
            "params": {"n": 6, "blocks": [3, 3, 3], "delta": 0.0, "noise_m": 0.5,
                       "n_smooth": 1},
            "seed": 11,
        },
        "t": [16, 64], "seeds": [0, 1], "checkpoints": "final", "n_probes": 40,
    },
    # three block-size groups, one of them 1 x 1, and a probe family that
    # spans two probe-set chunks
    "eig_mixed": {
        "instance": {"kind": "eig_min", "params": {"n": 5, "blocks": [2, 3, 2, 1]}, "seed": 7},
        "solver": "smp", "t": 64, "oracle": "sampled", "seeds": [0, 1, 2],
        "checkpoints": "geometric", "n_probes": 40,
    },
}


def environment() -> dict:
    """The numpy version and the BLAS it was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def outputs(name: str) -> dict:
    """{"csv": bytes, "json": bytes} of one configuration, run in the working directory."""
    _, _, files = run_experiment(dict(CONFIGS[name], out=name))
    out = {}
    for ext, path in files.items():
        with open(path, "rb") as fh:
            out[ext] = fh.read()
    return out


@pytest.mark.parametrize("name", list(CONFIGS))
def test_outputs_equal_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open(os.path.join(GOLDEN, "env.json"), encoding="utf-8") as fh:
        written_with = json.load(fh)
    for ext, got in outputs(name).items():
        with open(os.path.join(GOLDEN, f"{name}.{ext}"), "rb") as fh:
            want = fh.read()
        assert got == want, (
            f"{name}.{ext} differs from tests/golden; the golden files were written "
            f"with {written_with}, this run uses {environment()}"
        )


def _columns(ext: str, data: bytes) -> dict:
    """Column -> list of cells: CSV columns, or JSON leaves by path with the
    list positions dropped (stats.err_nash.mean[3] joins stats.err_nash.mean)."""
    if ext == "csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        return {col: [row[i] for row in rows[1:]] for i, col in enumerate(rows[0])}
    cols = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, path)
        else:
            cols.setdefault(path, []).append(node)

    walk(json.loads(data), "")
    return cols


def _as_float(cell):
    try:
        return None if isinstance(cell, bool) else float(cell)
    except (TypeError, ValueError):
        return None


def change_report(name: str, ext: str, old: bytes, new: bytes) -> list:
    """Lines with the largest absolute and relative change per changed column.

    A change of text, or to or from a non-finite value, counts as inf; a
    column listed with 0 changed only in text that parses to equal numbers,
    such as the sign of a zero.
    """
    if old == new:
        return [f"{name}.{ext}: unchanged"]
    before, after = _columns(ext, old), _columns(ext, new)
    lines = []
    for col in [*before, *(c for c in after if c not in before)]:
        a, b = before.get(col, []), after.get(col, [])
        if a == b:
            continue
        if len(a) != len(b):
            lines.append(f"{name}.{ext} {col}: {len(a)} -> {len(b)} values")
            continue
        worst_abs = worst_rel = 0.0
        for u, v in zip(a, b):
            if u == v:
                continue
            fu, fv = _as_float(u), _as_float(v)
            d = math.nan if fu is None or fv is None else abs(fv - fu)
            d = d if math.isfinite(d) else math.inf  # a text or non-finite change
            worst_abs = max(worst_abs, d)
            worst_rel = max(worst_rel, d / abs(fu) if fu else (math.inf if d else 0.0))
        lines.append(f"{name}.{ext} {col}: max abs {worst_abs:.2g}, max rel {worst_rel:.2g}")
    return lines


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name in CONFIGS:
            for ext, data in outputs(name).items():
                path = os.path.join(GOLDEN, f"{name}.{ext}")
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        print("\n".join(change_report(name, ext, fh.read(), data)))
                else:
                    print(f"{name}.{ext}: new")
                with open(path, "wb") as fh:
                    fh.write(data)
    with open(os.path.join(GOLDEN, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(environment(), fh, indent=1, sort_keys=True)
        fh.write("\n")
