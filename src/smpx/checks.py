"""Self-check routines shared by the CLI verify command and the test suite.

Each helper returns measured worst-case margins; callers decide the
tolerance.  All sampling is seeded, so a failing margin reproduces exactly.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from . import bench, composite, eigopt, symmat
from .geometry import (
    EuclideanBallSetup,
    ProductSetup,
    ProxSetup,
    SimplexSetup,
    SpectahedronSetup,
    inner,
    stack,
    unstack,
)
from .rng import RandomStream
from .symmat import BlockStructure


def standard_setups() -> dict:
    """The three base geometries plus a product, at small desk sizes."""
    return {
        "euclidean": EuclideanBallSetup(8, radius=1.5),
        "simplex": SimplexSetup(12),
        "spectahedron": SpectahedronSetup(BlockStructure((3, 2, 4))),
        "product": ProductSetup(
            SimplexSetup(5), SpectahedronSetup(BlockStructure((2, 3)))
        ),
    }


def prox_inequality_margins(
    setup: ProxSetup, n_triples: int = 1000, seed: int = 0, dual_scale: float = 3.0
) -> dict:
    """Worst-case violation margins of the prox inequalities.

    Checks, over seeded random (z, zeta, eta, u):
      nonexpansive   ||P(z,zeta) - P(z,eta)|| <= ||zeta - eta||_* / alpha
      three_point    V(P(z,zeta), u) <= V(z,u) + <zeta, u - P> - V(z, P)
      young          V(P(z,zeta), u) <= V(z,u) + <zeta, u - z> + ||zeta||_*^2/(2 alpha)
      two_prox       V(r+, u) - V(z, u) <= <eta, u - w> + ||zeta - eta||_*^2/(2 alpha)
                                           - (alpha/2) ||w - z||^2
      containment    ||u - center|| <= omega_radius

    Every margin should be <= 0 up to round-off; positive values measure
    the violation.
    """
    stream = RandomStream(seed)
    alpha = setup.alpha
    worst = dict.fromkeys(
        ("nonexpansive", "three_point", "young", "two_prox", "containment"),
        -math.inf,
    )
    for i in range(n_triples):
        z = setup.random_point(stream, interior=True)
        u = setup.random_point(stream, interior=(i % 2 == 0))
        zeta = setup.random_dual(stream, dual_scale * stream.uniform())
        eta = setup.random_dual(stream, dual_scale * stream.uniform())
        w = setup.prox_map(z, zeta)
        rp = setup.prox_map(z, eta)
        v_zu = setup.bregman(z, u)
        v_wu = setup.bregman(w, u)
        worst["nonexpansive"] = max(
            worst["nonexpansive"],
            setup.norm(w - rp) - setup.dual_norm(zeta - eta) / alpha,
        )
        worst["three_point"] = max(
            worst["three_point"],
            v_wu - (v_zu + inner(zeta, u - w) - setup.bregman(z, w)),
        )
        worst["young"] = max(
            worst["young"],
            v_wu - (v_zu + inner(zeta, u - z) + setup.dual_norm(zeta) ** 2 / (2 * alpha)),
        )
        worst["two_prox"] = max(
            worst["two_prox"],
            setup.bregman(rp, u)
            - v_zu
            - (
                inner(eta, u - w)
                + setup.dual_norm(zeta - eta) ** 2 / (2 * alpha)
                - 0.5 * alpha * setup.norm(w - z) ** 2
            ),
        )
        worst["containment"] = max(
            worst["containment"], setup.norm(u - setup.center) - setup.omega_radius
        )
    return worst


def spectahedron_log_linearity_margin(
    sizes=(4, 4), n_cases: int = 50, seed: int = 1, scale: float = 2.0
) -> float:
    """Worst deviation of prox(H(a), xi) from H(a - xi) in the trace norm."""
    structure = BlockStructure(sizes)
    setup = SpectahedronSetup(structure)
    stream = RandomStream(seed)
    worst = -math.inf
    for _ in range(n_cases):
        a = setup.random_dual(stream, scale)
        xi = setup.random_dual(stream, scale)
        lhs = setup.prox_map(symmat.entropy_map(a), xi)
        rhs = symmat.entropy_map(a - xi)
        worst = max(worst, setup.norm(lhs - rhs))
    return worst


def large_dual_step_margin(spread: float = 800.0) -> float:
    """Distance from the center after a step from it with a dual vector of the
    given spread, which underflows a coordinate (an eigenvalue) of the point
    to 0, and a step back; summed over the simplex and blocks (2, 2)."""
    spect = SpectahedronSetup(BlockStructure((2, 2)))
    big = symmat.BlockSymMatrix(spect.structure, [np.zeros((2, 2)), np.diag([0.0, spread])])
    total = 0.0
    one = np.ones(1)  # the rate of the stack of one
    for setup, xi in ((SimplexSetup(3), np.array([0.0, spread, 0.0])), (spect, big)):
        s = setup.step(stack([setup.logits(setup.center)]), stack([xi]), one)[0]
        back = unstack(setup.step(s, stack([-xi]), one)[1])[0]
        total += setup.norm(back - setup.center)
    return total


def enumeration_margin(n: int = 3, sizes=(2, 1), seed: int = 3) -> float:
    """Gap between the enumerated oracle expectation and the exact operator."""
    payload = bench.build_instance_payload("eig_min", {"n": n, "blocks": sizes}, seed)
    _, inst = bench.payload_to_instance(payload)
    setup = eigopt.build_setup(inst)
    stream = RandomStream(seed + 1)
    worst = -math.inf
    for _ in range(5):
        z = setup.random_point(stream, interior=True)
        exact = unstack(eigopt.exact_operator(inst, stack([z])))[0]
        diff = eigopt.enumerate_expectation(inst, z) - exact
        worst = max(worst, setup.dual_norm(diff))
    return worst


def reproducibility_ok(tmpdir: str | None = None, config: dict | None = None) -> bool:
    """Run one experiment config twice and compare the output bytes."""
    own = tmpdir is None
    ctx = tempfile.TemporaryDirectory() if own else None
    base = ctx.name if own else tmpdir
    try:
        cfg = config or {
            "instance": {"kind": "eig_min", "params": {"n": 4, "blocks": [2, 2]}, "seed": 5},
            "solver": "smp",
            "t": 64,
            "oracle": "sampled",
            "seeds": [0, 1],
            "checkpoints": "geometric",
            "n_probes": 10,
        }
        cfg = dict(cfg)
        cfg["out"] = os.path.join(base, "run")
        snapshots = []
        for _ in range(2):
            _, _, files = bench.run_experiment(dict(cfg))
            snapshots.append(
                tuple(open(files[key], "rb").read() for key in ("csv", "json"))
            )
        return snapshots[0] == snapshots[1]
    finally:
        if ctx is not None:
            ctx.cleanup()


def instance_arrays(obj) -> list:
    """The data arrays of a decoded EigInstance or SDFSystem, in a fixed order."""
    if isinstance(obj, eigopt.EigInstance):
        return [*obj.a0.stacks, *obj.stacks]
    out = []
    for part in obj.parts:
        comp = part.component
        if isinstance(comp, composite.NoisyAffineComponent):
            out += [comp.base.c0, comp.base.cs]
        else:
            out += [comp.b0, comp.bs, comp.c0]
    return out


def instance_round_trip_ok() -> bool:
    """Write eig_min and sdf_system instance files (version 3), load them
    back, and compare the decoded data with the in-memory payload's, byte
    for byte."""
    cases = (
        ("eig_min", {"n": 5, "blocks": [3, 2, 3]}, 4),
        ("sdf_system", {"n": 4, "blocks": [2, 3], "delta": 0.1}, 6),
    )
    with tempfile.TemporaryDirectory() as base:
        for kind, params, seed in cases:
            payload = bench.build_instance_payload(kind, params, seed)
            path = bench.save_payload(os.path.join(base, kind + ".json"), payload)
            raw = bench.load_payload(path)
            if raw["version"] != 3:
                return False
            loaded = instance_arrays(bench.payload_to_instance(raw)[1])
            direct = instance_arrays(bench.payload_to_instance(payload)[1])
            if len(loaded) != len(direct) or any(
                a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes()
                for a, b in zip(loaded, direct)
            ):
                return False
    return True


def run_all(full: bool = False):
    """Bundle of fast self-checks; returns a list of (name, ok, detail)."""
    n_triples = 1000 if full else 200
    results = []
    for name, setup in standard_setups().items():
        margins = prox_inequality_margins(setup, n_triples=n_triples, seed=11)
        for key, value in margins.items():
            tol = 1e-10 if key == "containment" else 1e-8
            results.append(
                (f"prox/{name}/{key}", value <= tol, f"margin={value:.3e}")
            )
    log_lin = spectahedron_log_linearity_margin()
    results.append(("spectahedron/log_linearity", log_lin <= 1e-8, f"gap={log_lin:.3e}"))
    big = large_dual_step_margin()
    results.append(("geometry/large_dual_step", big <= 1e-12, f"distance={big:.3e}"))
    enum_gap = enumeration_margin()
    results.append(("oracle/enumeration", enum_gap <= 1e-12, f"gap={enum_gap:.3e}"))
    results.append(("outputs/reproducible", reproducibility_ok(), "byte comparison"))
    results.append(("instance/round_trip", instance_round_trip_ok(), "byte comparison"))
    return results
