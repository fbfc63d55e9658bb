"""Span tracing of smpx's layers from outside the library.

`Tracer` replaces the public functions and methods listed in `TARGETS` by
wrappers that record one span per call, and puts the originals back on
exit.  A span is (name, start, end, parent index); spans stay in memory
until `dump` writes them.  A layer's self time is the duration of its spans
minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _solver_counts(counters, args, record):
    counters["solver.iters"] += record.t
    counters["solver.oracle_calls"] += record.oracle_calls


def _eigh_work(counters, args, result):
    counters["symmat.eigh.block_p3"] += sum(p ** 3 for p in args[0].structure.block_sizes)


# span name -> (module, attribute path, optional post-call counter hook)
TARGETS = {
    "bench.run_experiment": ("smpx.bench", "run_experiment", None),
    "bench.load_payload": ("smpx.bench", "load_payload", None),
    "bench.build_instance_payload": ("smpx.bench", "build_instance_payload", None),
    "bench.payload_to_instance": ("smpx.bench", "payload_to_instance", None),
    "solver.smp_run": ("smpx.solver", "smp_run", _solver_counts),
    "solver.rmsa_run": ("smpx.solver", "rmsa_run", _solver_counts),
    "geometry.prox_simplex": ("smpx.geometry", "SimplexSetup.prox_map", None),
    "geometry.prox_spectahedron": ("smpx.geometry", "SpectahedronSetup.prox_map", None),
    "geometry.prox_product": ("smpx.geometry", "ProductSetup.prox_map", None),
    "symmat.eigh": ("smpx.symmat", "eigh", _eigh_work),
    "symmat.cached_eigh": ("smpx.symmat", "cached_eigh", None),
    "symmat.entropy_map": ("smpx.symmat", "entropy_map", None),
    "symmat.matrix_log": ("smpx.symmat", "matrix_log", None),
    "eigopt.sample_xi": ("smpx.eigopt", "sample_xi", None),
    "eigopt.exact_operator": ("smpx.eigopt", "exact_operator", None),
    "eigopt.objective_and_gap": ("smpx.eigopt", "objective_and_gap", None),
    "composite.composite_oracle": ("smpx.composite", "composite_oracle", None),
    "composite.sdf_scale": ("smpx.composite", "sdf_scale", None),
    "composite.component_violations": ("smpx.composite", "component_violations", None),
    "rng.normals": ("smpx.rng", "RandomStream.normals", None),
    "rng.uniform": ("smpx.rng", "RandomStream.uniform", None),
    "rng.uniforms": ("smpx.rng", "RandomStream.uniforms", None),
    "vi.probe_set_build": ("smpx.vi", "ProbeSet.__init__", None),
    "vi.lower_bound": ("smpx.vi", "ProbeSet.lower_bound", None),
}


def resolve(target):
    """(owner, attribute name, current value) of a (module, path, hook) target."""
    module, path, _ = target
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Context manager that traces every target while it is active."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack = []
        self._saved = []

    def __enter__(self):
        try:
            for name, target in TARGETS.items():
                owner, attr, original = resolve(target)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, target[2]))
        except BaseException:
            self.__exit__()  # a target that cannot be resolved leaves nothing wrapped
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, name, fn, hook):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def layer_totals(self) -> dict:
        """Span name -> (calls, self seconds); every target is present."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {name: [0, 0.0] for name in TARGETS}
        for (name, start, end, _), child in zip(self.spans, covered):
            totals[name][0] += 1
            totals[name][1] += (end - start) - child
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def dump(self, path: str) -> None:
        """Write the spans, times relative to the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        names = list(TARGETS)
        index = {name: i for i, name in enumerate(names)}
        rows = [
            [index[name], round(start - origin, 9), round(end - origin, 9), parent]
            for name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


# layers whose metrics sum more than one span
SPAN_GROUPS = {
    "solver": ("solver.smp_run", "solver.rmsa_run"),
    "rng.uniform": ("rng.uniform", "rng.uniforms"),  # scalar and vector draws
}

# Per-layer metrics.  `<layer>.calls` counts the layer's spans and
# `<layer>.self_s` sums their self time; the others are counter totals,
# except the eigh cache hit ratio, 1 - eigh calls / cached_eigh calls.
LAYER_METRICS = (
    "solver.self_s", "solver.iters", "solver.oracle_calls",
    "geometry.prox_simplex.calls", "geometry.prox_simplex.self_s",
    "geometry.prox_spectahedron.calls", "geometry.prox_spectahedron.self_s",
    "geometry.prox_product.self_s",
    "symmat.eigh.calls", "symmat.eigh.self_s", "symmat.eigh.block_p3",
    "symmat.eigh_cache.hit_ratio", "symmat.entropy_map.self_s", "symmat.matrix_log.self_s",
    "eigopt.sample_xi.calls", "eigopt.sample_xi.self_s",
    "eigopt.exact_operator.calls", "eigopt.exact_operator.self_s",
    "eigopt.objective_and_gap.calls", "eigopt.objective_and_gap.self_s",
    "composite.composite_oracle.calls", "composite.composite_oracle.self_s",
    "composite.sdf_scale.self_s", "composite.component_violations.self_s",
    "rng.normals.calls", "rng.normals.self_s", "rng.uniform.calls",
    "vi.probe_set_build.self_s", "vi.lower_bound.calls", "vi.lower_bound.self_s",
    "bench.load_payload.self_s", "bench.payload_to_instance.self_s",
    "bench.build_instance_payload.self_s",
)


def unit(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    return "ratio" if metric.endswith("hit_ratio") else "count"


def layer_metrics(tracer: Tracer) -> dict:
    """Every LAYER_METRICS value for one traced run."""
    totals = tracer.layer_totals()
    out = {}
    for metric in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        spans = SPAN_GROUPS.get(layer, (layer,))
        if stat == "calls":
            out[metric] = float(sum(totals[s][0] for s in spans))
        elif stat == "self_s":
            out[metric] = sum(totals[s][1] for s in spans)
        elif stat == "hit_ratio":
            cached = totals["symmat.cached_eigh"][0]
            out[metric] = 1.0 - totals["symmat.eigh"][0] / cached if cached else 0.0
        else:
            out[metric] = float(tracer.counters[metric])
    return out
