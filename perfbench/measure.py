"""Timed `run_experiment` calls, the checks on their outputs, the metrics
over a run's calls, and the environment record of every result."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from smpx import bench

import layers

ERR_FLOOR = -1e-9  # err_nash is a duality gap: nonnegative up to round-off
PROBE_REF_S = 0.1  # about speed_probe()'s time on an idle 2.1 GHz Xeon core

END_TO_END = {"run_s": "s", "setup_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MB"}
# per-layer metrics that do not come from spans
EXTRA_LAYER_UNITS = {
    "bench.out_bytes": "bytes",
    "bench.instance_bytes": "bytes",
    "trace.overhead": "ratio",
    "err_final": "gap",
}


@dataclass
class Repeat:
    """What one run_experiment call took and produced."""

    run_s: float  # wall time of the call
    loop_s: float  # time inside solver loops: sum of RunRecord.wall_ms
    iters: int  # solver iterations over all replications
    err_final: float  # mean over seeds of err_nash at the last checkpoint
    digests: tuple  # sha256 of the CSV and JSON outputs
    out_bytes: int
    problems: list = field(default_factory=list)  # failed checks, empty if none
    scale: float = 1.0  # PROBE_REF_S over the speed probes around the call

    @property
    def setup_s(self) -> float:
        return self.run_s - self.loop_s

    @property
    def iters_per_s(self) -> float:
        return self.iters / self.loop_s


def speed_probe() -> float:
    """Seconds (about 0.1) taken by a fixed mix of Python-level loops over
    4x4 numpy calls and 32x32 LAPACK eigh, the same mix as the workloads
    but none of it from smpx.

    On a machine whose cores are shared with other tenants the same call
    can take 1.6x longer while they are busy.  A call's times are scaled by
    PROBE_REF_S over the mean of the probes just before and after it: this
    removes most of that drift (quartile spread over runs from 15-20% to
    about 5% on a 2-core VM) and none of the program's own speed.
    """
    small = np.arange(16.0).reshape(4, 4)
    small = small + small.T
    mid = np.cos(np.arange(1024.0)).reshape(32, 32)
    mid = mid + mid.T
    acc = 0.0
    began = time.perf_counter()
    for i in range(4000):
        vals, _ = np.linalg.eigh(small + i * 1e-3)
        acc += float(np.exp(vals - vals[-1]).sum()) + sum([j * 0.5 for j in range(16)])
    for _ in range(400):
        acc += float(np.linalg.eigh(mid)[0][0])
    return time.perf_counter() - began


def replications(cfg: dict) -> int:
    """Solver runs one call makes: seeds times horizons."""
    c = bench.ExperimentConfig.from_dict(dict(cfg))
    return len(c.seed_list()) * len(c.horizons())


def instance_bytes(cfg: dict) -> int:
    """Size of the instance as the library stores it."""
    source = cfg["instance"]
    if "path" in source:
        return os.path.getsize(source["path"])
    payload = bench.build_instance_payload(source["kind"], source["params"], source["seed"])
    return len(bench.canonical_json(payload).encode("utf-8"))


def run_once(cfg: dict, tracer=None) -> Repeat:
    """Time one run_experiment call (traced when a tracer is given) and check it."""
    gc.collect()
    with tracer if tracer is not None else contextlib.nullcontext():
        began = time.perf_counter()
        records, summary, files = bench.run_experiment(cfg)
        run_s = time.perf_counter() - began
    runs = [rec for recs in records.values() for rec in recs]
    outputs = [files.get("csv"), files.get("json")]
    problems = check(cfg, summary, outputs)
    digests, out_bytes = [], 0
    for path in outputs:
        if path and os.path.isfile(path):
            with open(path, "rb") as fh:
                data = fh.read()
            digests.append(hashlib.sha256(data).hexdigest())
            out_bytes += len(data)
    return Repeat(
        run_s=run_s,
        loop_s=sum(rec.wall_ms for rec in runs) / 1000.0,
        iters=sum(rec.t for rec in runs),
        err_final=float(summary.mean("err_nash")[-1]),
        digests=tuple(digests),
        out_bytes=out_bytes,
        problems=problems,
    )


def check(cfg: dict, summary, outputs) -> list:
    """Failed output checks of one call, as messages."""
    problems = []
    for column, values in summary.per_seed.items():
        if not np.all(np.isfinite(values)):
            problems.append(f"non-finite {column}")
    err = summary.per_seed["err_nash"]
    if np.nanmin(err) < ERR_FLOOR:
        problems.append(f"err_nash {np.nanmin(err):.3g} below {ERR_FLOOR}")
    if cfg["solver"] == "smp":
        # K0* bounds SMP's expected error; the rmsa baseline is exempt
        means = summary.mean("err_nash")
        for mean, bound in zip(means, summary.bounds):
            if bound["t"] == bound["horizon"] and not mean <= bound["k0_star"]:
                problems.append(
                    f"mean err_nash {mean:.4g} above k0_star {bound['k0_star']:.4g} "
                    f"at t={bound['t']}"
                )
    for path in outputs:
        if not (path and os.path.isfile(path)):
            problems.append(f"output file missing: {path}")
    return problems


def units(trace: int) -> dict:
    """Metric name -> unit of a run with tracing off (0) or on (1)."""
    if not trace:
        return END_TO_END
    return {**{k: layers.unit(k) for k in layers.LAYER_METRICS}, **EXTRA_LAYER_UNITS}


def interquartile_mean(values) -> float:
    """Mean of the middle half: steadier than the median, as robust to stalls."""
    vals = sorted(values)
    cut = len(vals) // 4
    return statistics.mean(vals[cut:len(vals) - cut])


def end_to_end(calls) -> dict:
    """End-to-end metrics over a run's untraced calls, times speed-scaled."""
    return {
        "run_s": interquartile_mean(r.run_s * r.scale for r in calls),
        "setup_s": statistics.median(r.setup_s * r.scale for r in calls),
        "iters_per_s": interquartile_mean(r.iters_per_s / r.scale for r in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_summary(cfg, plain, traced, problems) -> dict:
    """Per-layer medians over the traced calls, plus the computed extras.

    `traced` holds (call, its layer metrics, the untraced call just before
    it or None); inconsistencies are appended to `problems`.
    """
    metrics = {}
    for key in layers.LAYER_METRICS:
        values = [m[key] for _, m, _ in traced]
        if layers.unit(key) == "count" and len(set(values)) > 1:
            problems.append(f"count {key} differs between traced calls: {sorted(set(values))}")
        metrics[key] = statistics.median(values)
    metrics["bench.out_bytes"] = plain[0].out_bytes
    metrics["bench.instance_bytes"] = instance_bytes(cfg)
    ratios = [r.run_s / before.run_s for r, _, before in traced if before is not None]
    metrics["trace.overhead"] = statistics.median(ratios or [
        statistics.median(r.run_s for r, _, _ in traced) / statistics.median(r.run_s for r in plain)])
    metrics["err_final"] = plain[0].err_final
    return metrics


def git_commit(root: str) -> str:
    """HEAD commit read from the .git directory, or 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment(root: str, blas_threads: int) -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": blas_threads,
        "SMPX_THREADS": os.environ.get("SMPX_THREADS"),
        "commit": git_commit(root),
    }

