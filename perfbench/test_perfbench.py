"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench -q"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from smpx import bench  # noqa: E402


def small_config(name, workdir):
    """The workload's config shrunk to a fraction of a second."""
    cfg = workloads.config(name, 0, str(workdir))
    cfg["t"] = [20, 40] if isinstance(cfg["t"], list) else 60
    cfg["seed_count"] = min(cfg["seed_count"], 2)
    if name == "eig_mid":
        cfg["instance"] = {"kind": "eig_min", "params": {"n": 12, "blocks": [4, 4]}, "seed": 0}
    return cfg


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_config_validates(name, tmp_path):
    bench.ExperimentConfig.from_dict(workloads.config(name, 0, str(tmp_path))).validate()


def test_seed_shifts_instance_seed_only(tmp_path):
    a = workloads.config("game", 0, str(tmp_path))
    b = workloads.config("game", 3, str(tmp_path))
    assert a["instance"]["seed"] == 7 and b["instance"]["seed"] == 10
    assert {**a, "instance": None} == {**b, "instance": None}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_matches_untraced(name, tmp_path):
    cfg = small_config(name, tmp_path)
    originals = {n: layers.resolve(t)[2] for n, t in layers.TARGETS.items()}
    plain = measure.run_once(cfg)
    tracer = layers.Tracer()
    traced = measure.run_once(cfg, tracer)

    assert plain.problems == [] and traced.problems == []
    with open(cfg["out"] + ".csv", "rb") as fh:
        assert fh.read()  # the outputs exist and are not empty
    assert traced.digests == plain.digests  # CSV and JSON bytes identical
    for n, t in layers.TARGETS.items():
        assert layers.resolve(t)[2] is originals[n], f"{n} still wrapped"

    totals = tracer.layer_totals()
    assert all(self_s >= 0.0 for _, self_s in totals.values())
    assert sum(self_s for _, self_s in totals.values()) <= traced.run_s
    assert totals["bench.run_experiment"][0] == 1
    metrics = layers.layer_metrics(tracer)
    assert metrics["solver.iters"] == traced.iters
    assert 0.0 <= metrics["symmat.eigh_cache.hit_ratio"] <= 1.0


def test_wrappers_removed_when_the_run_raises():
    originals = {n: layers.resolve(t)[2] for n, t in layers.TARGETS.items()}
    with pytest.raises(Exception):
        measure.run_once({"instance": {"kind": "no_such_kind"}, "out": None}, layers.Tracer())
    for n, t in layers.TARGETS.items():
        assert layers.resolve(t)[2] is originals[n]


def test_check_flags_bad_outputs(tmp_path):
    cfg = small_config("game", tmp_path)
    _, summary, files = bench.run_experiment(cfg)
    assert measure.check(cfg, summary, [files["csv"], files["json"]]) == []
    summary.per_seed["err_nash"][0, 0] = float("nan")
    summary.bounds[-1]["k0_star"] = -1.0
    problems = measure.check(cfg, summary, [files["csv"], None])
    assert any("non-finite err_nash" in p for p in problems)
    assert any("k0_star" in p for p in problems)
    assert any("missing" in p for p in problems)


def test_benchmark_json_lists_the_reported_metrics():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.units(0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.units(1)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_exits_nonzero_without_the_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "game", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
