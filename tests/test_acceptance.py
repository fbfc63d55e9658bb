"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The stochastic
criteria are seeded and deterministic; stated tolerances are asserted
as written here.  Criteria 5 and 7 run each horizon sweep as one
lock-step batch (``solver.run_batch``) whose rows retire when they reach
their horizon, and criteria 6 and 8 run the seeds of each run as one
batch; every row gets the numbers of its run alone.  In one
``--durations`` run of the whole test suite on a 2-core machine, this
module took about 66 s, 26 s of them in the feasibility-pipeline rate
check.
"""

import time

import numpy as np
import pytest

from helpers import exact_at, mild_simplex_point, simplex_prox_argmin
from smpx import bench, checks, composite, eigopt, solver, symmat, vi
from smpx.geometry import Pair, SimplexSetup, SpectahedronSetup
from smpx.rng import RandomStream
from smpx.symmat import BlockStructure


def report(criterion: int, ok: bool, detail: str, began: float):
    took = time.time() - began
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} ({took:.1f}s): {detail}"
    print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared instances


@pytest.fixture(scope="module")
def game():
    """The bilinear simplex-vs-spectahedron instance used by criteria 4-6, 8."""
    payload = bench.build_instance_payload(
        "bilinear_simplex_spectahedron", {"n": 20, "blocks": [4, 4, 4]}, 7
    )
    _, inst = bench.payload_to_instance(payload)
    saddle = eigopt.build_saddle(inst)
    return inst, saddle


@pytest.fixture(scope="module")
def tuned_noise(game):
    inst, saddle = game
    oracle = eigopt.averaged_oracle(inst, 1)
    return vi.estimate_noise_level(oracle, saddle.problem, seed=1000)


@pytest.fixture(scope="module")
def sdf_system():
    """Feasible system: one smooth and two noisy components, tight at a vertex."""
    payload = bench.build_instance_payload(
        "sdf_system",
        {"n": 6, "blocks": [3, 3, 3], "delta": 0.0, "noise_m": 0.5, "n_smooth": 1},
        11,
    )
    _, system = bench.payload_to_instance(payload)
    return system


def gap_error_fn(inst):
    return lambda z: {"gap": eigopt.objective_and_gap(inst, z)[1]}


# ---------------------------------------------------------------------------


def test_criterion_1_prox_inequalities():
    began = time.time()
    worst_overall = {}
    for name, setup in checks.standard_setups().items():
        margins = checks.prox_inequality_margins(setup, n_triples=1000, seed=29)
        for key, value in margins.items():
            tol = 1e-10 if key == "containment" else 1e-8
            worst_overall[f"{name}/{key}"] = (value, tol)
    bad = {k: v for k, (v, tol) in worst_overall.items() if v > tol}
    worst = max(v for v, _ in worst_overall.values())
    report(
        1,
        not bad,
        f"prox inequalities over 1000 triples x 4 setups, worst margin {worst:.2e}"
        + (f"; violations: {bad}" if bad else ""),
        began,
    )


def test_criterion_2_closed_form_cross_checks():
    began = time.time()
    stream = RandomStream(31)
    worst_simplex = 0.0
    for n in range(2, 11):
        setup = SimplexSetup(n)
        for _ in range(6):
            z = mild_simplex_point(setup, stream)
            xi = np.clip(setup.random_dual(stream), -1.5, 1.5)
            closed = setup.prox_map(z, xi)
            numeric = simplex_prox_argmin(z, xi)
            worst_simplex = max(worst_simplex, float(np.max(np.abs(closed - numeric))))

    worst_spect = 0.0
    for sizes in ((8,), (4, 4), (2, 3, 3), (8, 5)):
        setup = SpectahedronSetup(BlockStructure(sizes))
        for _ in range(40):
            a = setup.random_dual(stream, 2.0)
            xi = setup.random_dual(stream, 2.0)
            lhs = setup.prox_map(symmat.entropy_map(a), xi)
            rhs = symmat.entropy_map(a - xi)
            worst_spect = max(worst_spect, setup.norm(lhs - rhs))

    ok = worst_simplex <= 1e-6 and worst_spect <= 1e-8
    report(
        2,
        ok,
        f"simplex closed form vs argmin {worst_simplex:.2e} (tol 1e-6); "
        f"matrix-log prox identity {worst_spect:.2e} (tol 1e-8)",
        began,
    )


def test_criterion_3_oracle_unbiasedness_by_enumeration():
    began = time.time()
    cases = [
        ("scalar_minimax", {"scalars": [1.0, 3.0]}, 0),
        ("scalar_minimax", {"n": 4}, 1),
        ("eig_min", {"n": 4, "blocks": [2, 2]}, 2),
        ("eig_min", {"n": 3, "blocks": [1, 2]}, 3),
        ("eig_min", {"n": 4, "blocks": [2, 2, 2]}, 4),
    ]
    worst = 0.0
    stream = RandomStream(37)
    for kind, params, seed in cases:
        payload = bench.build_instance_payload(kind, params, seed)
        _, inst = bench.payload_to_instance(payload)
        for _ in range(4):
            x = stream.uniforms(inst.n) + 0.05
            x = x / x.sum()
            blocks = []
            for p in inst.structure.block_sizes:
                g = stream.normals((p, p))
                blocks.append(g @ g.T + 0.02 * np.eye(p))
            y = symmat.BlockSymMatrix(inst.structure, blocks, _validate=False)
            y = y * (1.0 / y.trace())
            z = Pair(x, y)
            diff = eigopt.enumerate_expectation(inst, z) - exact_at(inst, z)
            worst = max(worst, float(np.abs(diff.x).max()), symmat.spectral_norm(diff.y))
    report(
        3,
        worst <= 1e-12,
        f"enumerated oracle expectation vs exact operator, worst gap {worst:.2e} "
        "(tol 1e-12)",
        began,
    )


def test_criterion_4_deterministic_rate(game):
    began = time.time()
    inst, saddle = game
    problem = saddle.problem
    lip = problem.lip_l
    radius = problem.setup.omega_radius
    gamma = solver.constant_stepsize(1.0, radius, lip, 0.0, 10**4)
    cps = [100, 316, 1000, 3162, 10000]
    rec = solver.smp_run(
        problem,
        vi.exact_oracle(problem),
        solver.StepsizePolicy(gamma, 10**4),
        0,
        cps,
        error_fn=gap_error_fn(inst),
    )
    gaps = rec.errors["gap"]
    bound_ok = all(
        gap <= 1.75 * radius**2 * lip / cp
        for cp, gap in zip(cps, gaps)
        if cp in (100, 1000, 10000)
    )
    slope = float(np.polyfit(np.log(cps), np.log(gaps), 1)[0])
    ok = bound_ok and -1.2 <= slope <= -0.8
    report(
        4,
        ok,
        f"exact-oracle gap at t=1e4 {gaps[-1]:.2e} vs bound "
        f"{1.75 * radius**2 * lip / 10**4:.2e}; slope {slope:.3f} in [-1.2, -0.8]",
        began,
    )


def test_criterion_5_stochastic_rate(game, tuned_noise):
    began = time.time()
    inst, saddle = game
    problem = saddle.problem
    lip = problem.lip_l
    radius = problem.setup.omega_radius
    oracle = eigopt.averaged_oracle(inst, 1)
    worst_case = eigopt.regularity_constants(inst, 1)
    horizons = [100, 316, 1000, 3162, 10000]
    # one batch of 20 seeds per horizon, longest horizon first
    rows = [t for t in reversed(horizons) for _ in range(20)]
    batch = solver.run_batch(
        "smp", problem, oracle,
        [solver.StepsizePolicy(solver.constant_stepsize(1.0, radius, lip, tuned_noise, t), t)
         for t in rows],
        list(range(20)) * len(horizons), [[t] for t in rows], error_fn=gap_error_fn(inst),
    )
    means = [float(np.mean([rec.errors["gap"][0] for rec in batch if rec.t == t]))
             for t in horizons]
    k0, _ = solver.theoretical_bounds(1.0, radius, lip, worst_case.noise, 0.0, 10**4)
    slope = float(np.polyfit(np.log(horizons), np.log(means), 1)[0])
    ok = means[-1] <= k0 and -0.65 <= slope <= -0.35
    report(
        5,
        ok,
        f"20-seed mean gap at t=1e4 {means[-1]:.4f} <= worst-case bound {k0:.2f}; "
        f"slope {slope:.3f} in [-0.65, -0.35]",
        began,
    )


def test_criterion_6_large_deviations(game, tuned_noise):
    began = time.time()
    inst, saddle = game
    problem = saddle.problem
    lip = problem.lip_l
    radius = problem.setup.omega_radius
    oracle = eigopt.averaged_oracle(inst, 1)
    worst_case = eigopt.regularity_constants(inst, 1)
    t = 10**3
    gamma = solver.constant_stepsize(1.0, radius, lip, tuned_noise, t)
    k0, k1 = solver.theoretical_bounds(1.0, radius, lip, worst_case.noise, 0.0, t)
    threshold = k0 + 3.0 * k1
    batch = solver.run_batch(
        "smp", problem, oracle, solver.StepsizePolicy(gamma, t), range(100), [t],
        error_fn=gap_error_fn(inst),
    )
    exceed = sum(rec.errors["gap"][0] > threshold for rec in batch)
    frac = exceed / 100.0
    report(
        6,
        frac <= 0.10,
        f"fraction of 100 runs above K0* + 3 K1* = {threshold:.1f}: {frac:.2f} "
        "(allowed 0.10)",
        began,
    )


def test_criterion_7_sdf_pipeline(sdf_system):
    began = time.time()
    system = sdf_system
    smooth_idx = [i for i, p in enumerate(system.parts) if p.noise_m == 0.0]
    noisy_idx = [i for i, p in enumerate(system.parts) if p.noise_m > 0.0]
    assert len(smooth_idx) == 1 and len(noisy_idx) == 2

    # rate split: the pipeline stepsize shrinks like 1/sqrt(t), so the
    # asymptotic regime starts around t=1e3; fit over a decade and a half.
    # One batch, longest horizon first: 12 sweep seeds per horizon, and at
    # t=1e4 also 8 fresh seeds for the accuracy check.  Every horizon
    # steps with one geometry, each row weighted for its horizon.
    horizons = [1000, 3162, 10000, 31623]
    scaled = {t: composite.sdf_scale(system, t) for t in horizons}
    geometry = composite.build_vi(scaled[horizons[0]].problem).setup
    problems = {
        t: composite.build_vi(sc.problem, lip_l=sc.lip_l, var_m=sc.noise_m, setup=geometry)
        for t, sc in scaled.items()
    }
    rows = [(t, seed) for t in reversed(horizons) for seed in range(20 if t == 10**4 else 12)]
    oracle = composite.build_oracle(composite.batch_problem([scaled[t].problem for t, _ in rows]))
    batch = solver.run_batch(
        "smp", [problems[t] for t, _ in rows], oracle,
        [solver.StepsizePolicy(scaled[t].gamma, t) for t, _ in rows],
        [seed for _, seed in rows], [[t] for t, _ in rows],
    )
    viols = {
        t: np.array([composite.component_violations(system, rec.averages[0].x)
                     for rec in batch if rec.t == t])
        for t in horizons
    }
    means = np.array([viols[t][:12].mean(axis=0) for t in horizons])

    # accuracy check at t=1e4 over 20 seeds (12 from the sweep + 8 fresh)
    all_viol = viols[10**4]
    scaled_1e4 = scaled[10**4]
    per_comp_bound = scaled_1e4.predicted_bound / scaled_1e4.betas
    mean_1e4 = all_viol.mean(axis=0)
    bound_ok = bool(np.all(mean_1e4 <= per_comp_bound))

    logt = np.log(horizons)
    slopes = [float(np.polyfit(logt, np.log(means[:, i]), 1)[0]) for i in
              range(len(system.parts))]
    smooth_ok = slopes[smooth_idx[0]] <= -0.8
    noisy_ok = all(-0.65 <= slopes[i] <= -0.35 for i in noisy_idx)
    ok = bound_ok and smooth_ok and noisy_ok
    report(
        7,
        ok,
        f"20-seed mean violations at t=1e4 {np.round(mean_1e4, 4).tolist()} vs "
        f"allowances {np.round(per_comp_bound, 4).tolist()}; smooth slope "
        f"{slopes[smooth_idx[0]]:.3f} <= -0.8; noisy slopes "
        f"{[round(slopes[i], 3) for i in noisy_idx]} in [-0.65, -0.35]",
        began,
    )


def test_criterion_8_smp_vs_rmsa(game, tuned_noise):
    began = time.time()
    inst, saddle = game
    problem = saddle.problem
    lip = problem.lip_l
    radius = problem.setup.omega_radius
    err_fn = gap_error_fn(inst)
    budget = 2 * 10**4
    # the baseline's scale constant covers both sup ||F||_* and the noise
    mbar = max(
        eigopt.operator_sup_bound(inst), eigopt.sample_deviation_bound(inst)
    )

    # L-dominated: exact oracle, deterministic
    exact = vi.exact_oracle(problem)
    g_smp = solver.constant_stepsize(1.0, radius, lip, 0.0, budget // 2)
    smp_l = solver.run_batch(
        "smp", problem, exact, solver.StepsizePolicy(g_smp, budget // 2), [0],
        [budget // 2], error_fn=err_fn,
    )[0].errors["gap"][0]
    g_rmsa = solver.rmsa_stepsize(1.0, radius, mbar, budget)
    rmsa_l = solver.run_batch(
        "rmsa", problem, exact, solver.StepsizePolicy(g_rmsa, budget), [0], [budget],
        error_fn=err_fn,
    )[0].errors["gap"][0]
    l_ok = smp_l <= 0.5 * rmsa_l

    # M-dominated: single-sample oracle, 10 seeds each
    oracle = eigopt.averaged_oracle(inst, 1)
    g_smp2 = solver.constant_stepsize(1.0, radius, lip, tuned_noise, budget // 2)
    g_rmsa2 = solver.rmsa_stepsize(1.0, radius, mbar, budget)
    smp_vals = [rec.errors["gap"][0] for rec in solver.run_batch(
        "smp", problem, oracle, solver.StepsizePolicy(g_smp2, budget // 2), range(10),
        [budget // 2], error_fn=err_fn,
    )]
    rmsa_vals = [rec.errors["gap"][0] for rec in solver.run_batch(
        "rmsa", problem, oracle, solver.StepsizePolicy(g_rmsa2, budget), range(10),
        [budget], error_fn=err_fn,
    )]
    ratio = float(np.mean(smp_vals) / np.mean(rmsa_vals))
    m_ok = 0.5 <= ratio <= 2.0
    report(
        8,
        l_ok and m_ok,
        f"L-dominated: smp {smp_l:.2e} vs rmsa {rmsa_l:.2e} "
        f"(need smp <= rmsa/2); M-dominated mean ratio {ratio:.3f} in [0.5, 2]",
        began,
    )


def test_criterion_9_reproducibility(tmp_path):
    began = time.time()
    config = {
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
    }
    ok = checks.reproducibility_ok(str(tmp_path), config=config)
    report(9, ok, "two runs of one config produced byte-identical CSV and JSON", began)
