import math

import numpy as np
import pytest
from helpers import (
    assert_same_bytes,
    operator_at,
    parts,
    per_seed,
    ref_composite_oracle,
    ref_exact_operator,
    ref_run,
    ref_sample_xi,
    ref_step,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from smpx import bench, composite, eigopt
from smpx.errors import ConfigError, NumericalError
from smpx.geometry import EuclideanBallSetup, Pair, SimplexSetup, stack, unstack
from smpx.rng import RandomStream
from smpx.solver import (
    ORACLE_CALLS,
    RunBatch,
    StepsizePolicy,
    constant_stepsize,
    geometric_checkpoints,
    rmsa_run,
    rmsa_stepsize,
    run_batch,
    smp_run,
    theoretical_bounds,
)
from smpx.symmat import BlockSymMatrix
from smpx.vi import VIProblem, exact_oracle


def one_dim(lip=1.0):
    setup = EuclideanBallSetup(1, 1.0)
    return VIProblem(setup, lambda z: np.asarray(z, dtype=float), lip_l=lip)


def eig_problem(n=6, blocks=(2, 2), seed=3):
    payload = bench.build_instance_payload("eig_min", {"n": n, "blocks": list(blocks)}, seed)
    _, inst = bench.payload_to_instance(payload)
    return inst, eigopt.build_saddle(inst)


class TestStepsize:
    def test_noise_branch_value(self):
        gamma = constant_stepsize(1.0, math.sqrt(2.0), 0.0, 1.0, 42)
        assert gamma == pytest.approx(2.0 / math.sqrt(882.0))

    def test_smooth_branch_value(self):
        assert constant_stepsize(1.0, 1.0, 1.0, 0.0, 10) == pytest.approx(
            1.0 / math.sqrt(3.0)
        )

    def test_noise_branch_takes_over_for_large_t(self):
        g_small = constant_stepsize(1.0, 1.0, 1.0, 0.1, 10)
        g_large = constant_stepsize(1.0, 1.0, 1.0, 0.1, 10**8)
        assert g_small == pytest.approx(1.0 / math.sqrt(3.0))
        assert g_large < g_small
        assert g_large == pytest.approx(10.0 * math.sqrt(2.0 / (21.0 * 10**8)))

    def test_unconstrained_case_rejected(self):
        with pytest.raises(ConfigError):
            constant_stepsize(1.0, 1.0, 0.0, 0.0, 10)

    def test_rmsa_stepsize(self):
        assert rmsa_stepsize(1.0, 2.0, 4.0, 25) == pytest.approx(0.1)


class TestBounds:
    def test_smooth_only(self):
        k0, k1 = theoretical_bounds(1.0, 2.0, 3.0, 0.0, 0.0, 10)
        assert k0 == pytest.approx(1.75 * 4.0 * 3.0 / 10.0)
        assert k1 == 0.0

    def test_noise_only_value(self):
        k0, k1 = theoretical_bounds(1.0, math.sqrt(2.0), 0.0, 1.0, 0.0, 49)
        assert k0 == pytest.approx(math.sqrt(2.0))
        assert k1 == pytest.approx(0.5 * math.sqrt(2.0))

    def test_nonincreasing_in_t(self):
        values = [
            theoretical_bounds(1.0, 1.0, 2.0, 3.0, 0.1, t)[0] for t in (1, 10, 100)
        ]
        assert values[0] >= values[1] >= values[2]

    def test_bias_term(self):
        k0, _ = theoretical_bounds(1.0, 2.0, 0.0, 0.0, 0.5, 10)
        assert k0 == pytest.approx(2.0 * 0.5 * 2.0)


class TestPolicy:
    def test_invalid_gamma_rejected(self):
        with pytest.raises(ConfigError):
            StepsizePolicy(gamma=0.0, t=10)
        with pytest.raises(ConfigError):
            StepsizePolicy(gamma=1.0, t=0)

    def test_infeasible_gamma_for_problem(self):
        prob = one_dim(lip=2.0)
        limit = 1.0 / (math.sqrt(3.0) * 2.0)
        pol = StepsizePolicy(gamma=limit * 1.01, t=5)
        with pytest.raises(ConfigError):
            smp_run(prob, exact_oracle(prob), pol, 0, [5])

    def test_checkpoints_validated(self):
        prob = one_dim()
        pol = StepsizePolicy(gamma=0.1, t=5)
        with pytest.raises(ConfigError):
            smp_run(prob, exact_oracle(prob), pol, 0, [])
        with pytest.raises(ConfigError):
            smp_run(prob, exact_oracle(prob), pol, 0, [6])


class TestSmpRun:
    def test_zero_operator_fixes_center(self):
        _, saddle = eig_problem()
        prob = VIProblem(saddle.problem.setup, lambda zs: 0.0 * saddle.problem.operator(zs))
        pol = StepsizePolicy(gamma=0.3, t=4)
        rec = smp_run(prob, exact_oracle(prob), pol, 0, [1, 4])
        center = prob.setup.center
        for avg in rec.averages:
            assert prob.setup.norm(avg - center) <= 1e-12

    def test_hand_simulated_trajectory(self):
        prob = one_dim()
        pol = StepsizePolicy(gamma=0.5, t=3)
        rec = smp_run(
            prob, exact_oracle(prob), pol, 0, [1, 2, 3], _start=np.array([1.0])
        )
        # w-sequence from the two-line recursion: 0.5, 0.375, 0.28125
        assert rec.averages[0][0] == pytest.approx(0.5)
        assert rec.averages[1][0] == pytest.approx((0.5 + 0.375) / 2.0)
        assert rec.averages[2][0] == pytest.approx((0.5 + 0.375 + 0.28125) / 3.0)
        assert rec.oracle_calls == 6

    def test_default_start_is_center(self):
        prob = one_dim()
        pol = StepsizePolicy(gamma=0.5, t=2)
        rec = smp_run(prob, exact_oracle(prob), pol, 0, [2])
        assert rec.averages[0][0] == pytest.approx(0.0)

    def test_average_matches_query_points(self):
        # the oracle sees r0, w1, r1, w2, ...; averages must equal the
        # running means of the even-indexed (w) query points
        inst, saddle = eig_problem()
        prob = saddle.problem
        seen = []

        def spy(z, stream):
            seen.append(z)
            return operator_at(prob.operator, z)

        gamma = constant_stepsize(1.0, prob.setup.omega_radius, prob.lip_l, 0.0, 8)
        rec = smp_run(prob, per_seed(spy), StepsizePolicy(gamma, 8), 0, [2, 5, 8])
        ws = seen[1::2]
        for cp, avg in zip(rec.checkpoints, rec.averages):
            ref = ws[0]
            for w in ws[1:cp]:
                ref = ref + w
            ref = (1.0 / cp) * ref
            assert prob.setup.norm(avg - ref) <= 1e-12

    def test_iterates_stay_feasible(self):
        inst, saddle = eig_problem()
        prob = saddle.problem
        queried = []

        def spy(z, stream):
            queried.append(z)
            return eigopt.sample_xi(inst, z, stream)

        gamma = constant_stepsize(
            1.0, prob.setup.omega_radius, prob.lip_l,
            eigopt.sample_deviation_bound(inst), 50,
        )
        smp_run(prob, per_seed(spy), StepsizePolicy(gamma, 50), 1, [50])
        for z in queried:
            assert prob.setup.contains(z, tol=1e-10)
            assert prob.setup.in_interior(z)

    def test_bit_identical_replay(self):
        inst, saddle = eig_problem()
        prob = saddle.problem
        orc = eigopt.averaged_oracle(inst, 2)
        gamma = constant_stepsize(
            1.0, prob.setup.omega_radius, prob.lip_l,
            eigopt.regularity_constants(inst, 2).noise, 40
        )
        pol = StepsizePolicy(gamma, 40)
        rec1 = smp_run(prob, orc, pol, 7, [10, 40])
        rec2 = smp_run(prob, orc, pol, 7, [10, 40])
        for a, b in zip(rec1.averages, rec2.averages):
            assert np.array_equal(a.x, b.x)
            for ba, bb in zip(a.y.blocks, b.y.blocks):
                assert np.array_equal(ba, bb)

    def test_nonfinite_oracle_reports_step(self):
        prob = one_dim()
        calls = {"n": 0}

        def broken(z, stream):
            calls["n"] += 1
            if calls["n"] == 5:
                return np.array([float("nan")])
            return np.asarray(z)

        with pytest.raises(NumericalError, match="step 3"):
            smp_run(
                prob,
                per_seed(broken),
                StepsizePolicy(0.5, 10),
                0,
                [10],
            )

    def test_error_fn_recorded_per_checkpoint(self):
        prob = one_dim()
        pol = StepsizePolicy(gamma=0.5, t=4)
        rec = smp_run(
            prob,
            exact_oracle(prob),
            pol,
            0,
            [2, 4],
            error_fn=lambda z: {"abs": abs(float(z[0]))},
        )
        assert list(rec.errors) == ["abs"]
        assert len(rec.errors["abs"]) == 2

    def test_smooth_error_halves_when_t_doubles(self):
        inst, saddle = eig_problem(n=8, blocks=(3, 3), seed=11)
        prob = saddle.problem
        gamma = constant_stepsize(1.0, prob.setup.omega_radius, prob.lip_l, 0.0, 1600)
        rec = smp_run(
            prob,
            exact_oracle(prob),
            StepsizePolicy(gamma, 1600),
            0,
            [200, 400, 800, 1600],
            error_fn=lambda z: {"gap": eigopt.objective_and_gap(inst, z)[1]},
        )
        gaps = rec.errors["gap"]
        for a, b in zip(gaps, gaps[1:]):
            assert 1.6 <= a / b <= 2.4


class TestRmsaRun:
    def test_zero_operator_fixes_center(self):
        prob = one_dim()
        rec = rmsa_run(
            VIProblem(prob.setup, lambda zs: np.zeros_like(zs)),
            exact_oracle(VIProblem(prob.setup, lambda zs: np.zeros_like(zs))),
            StepsizePolicy(0.5, 3),
            0,
            [3],
        )
        assert rec.averages[0][0] == pytest.approx(0.0)
        assert rec.oracle_calls == 3

    def test_hand_simulated_trajectory(self):
        prob = one_dim()
        rec = rmsa_run(
            prob,
            exact_oracle(prob),
            StepsizePolicy(0.5, 3),
            0,
            [1, 2, 3],
            _start=np.array([1.0]),
        )
        # r-sequence: 0.5, 0.25, 0.125; averages of the iterates
        assert rec.averages[0][0] == pytest.approx(0.5)
        assert rec.averages[1][0] == pytest.approx(0.375)
        assert rec.averages[2][0] == pytest.approx((0.5 + 0.25 + 0.125) / 3.0)


class TestCheckpoints:
    def test_geometric_pattern(self):
        assert geometric_checkpoints(10) == [1, 2, 4, 8, 10]
        assert geometric_checkpoints(8) == [1, 2, 4, 8]
        assert geometric_checkpoints(1) == [1]


def assert_same_point(a, b):
    assert_same_bytes(a.x, b.x)
    assert a.y.structure == b.y.structure
    for u, v in zip(a.y.stacks, b.y.stacks, strict=True):
        assert_same_bytes(u, v)


def assert_records_equal_reference(batch, seeds, reference):
    """Each seed's record has the bytes of its per-point reference run."""
    assert [rec.seed for rec in batch] == seeds
    for rec in batch:
        averages, errors = reference(rec.seed)
        assert len(rec.averages) == len(averages)
        for a, b in zip(rec.averages, averages):
            assert_same_point(a, b)
        assert list(rec.errors) == list(errors)
        for name, values in errors.items():
            assert_same_bytes(np.array(rec.errors[name]), np.array(values))


def ref_draw(inst, z, stream):
    """The per-point randomized-oracle draw of ``helpers.ref_sample_xi``."""
    xi_x, xi_y, _, _ = ref_sample_xi(
        inst.a0.blocks, [m.blocks for m in inst.mats], z.x, z.y.blocks, stream
    )
    return Pair(xi_x, BlockSymMatrix(inst.structure, xi_y, _validate=False))


def assert_rows_equal_per_horizon_runs(batch, seeds, horizons, alone):
    """Row (h, seed) of a batch whose rows are horizon-major, in the order
    of horizons, has the bytes of that seed's record in alone(h), the batch
    of horizon h by itself."""
    assert len(batch) == len(horizons) * len(seeds)
    for h in range(len(horizons)):
        rows = batch[h * len(seeds):(h + 1) * len(seeds)]
        for rec, ref in zip(rows, alone(h), strict=True):
            assert (rec.seed, rec.t, rec.gamma, rec.checkpoints, rec.oracle_calls) == (
                ref.seed, ref.t, ref.gamma, ref.checkpoints, ref.oracle_calls)
            for a, b in zip(rec.averages, ref.averages, strict=True):
                assert_same_point(a, b)
            assert list(rec.errors) == list(ref.errors)
            for name, values in ref.errors.items():
                assert_same_bytes(np.array(rec.errors[name]), np.array(values))


# block structures with 1 x 1 blocks and mixed sizes, so that the sampled
# block of different seeds falls in different size groups
SIZES = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda s: sum(s) >= 2)
SEEDS = st.lists(st.integers(0, 3), min_size=1, max_size=5)  # duplicates included
# the horizons of a sweep, longest first; repeats included
HORIZONS = st.lists(st.integers(1, 8), min_size=1, max_size=3).map(
    lambda ts: sorted(ts, reverse=True))


class TestRunBatch:
    """A seed's record in a lock-step batch has the bytes of the per-point
    run of that seed, whatever the batch size and the other seeds."""

    @given(sizes=SIZES, n=st.integers(2, 6), method=st.sampled_from(["smp", "rmsa"]),
           kind=st.sampled_from(["sampled", "sampled_k2", "exact", "adapter"]),
           seeds=SEEDS, t=st.integers(1, 10), step=st.floats(0.05, 1.0), data=st.data())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_eig_records_equal_per_point_runs(self, sizes, n, method, kind, seeds, t, step,
                                              data):
        inst, saddle = eig_problem(n=n, blocks=sizes, seed=len(sizes) + n)
        problem = saddle.problem
        gamma = step / (math.sqrt(3.0) * problem.lip_l)
        cps = sorted(data.draw(st.sets(st.integers(1, t), min_size=1)))
        oracle, ref_oracle = {
            "sampled": (eigopt.averaged_oracle(inst, 1), lambda z, s: ref_draw(inst, z, s)),
            "sampled_k2": (eigopt.averaged_oracle(inst, 2),
                           lambda z, s: 0.5 * (ref_draw(inst, z, s) + ref_draw(inst, z, s))),
            "exact": (exact_oracle(problem), lambda z, s: ref_exact_operator(inst, z)),
            "adapter": (per_seed(lambda z, s: eigopt.sample_xi(inst, z, s)),
                        lambda z, s: ref_draw(inst, z, s)),
        }[kind]
        error_fn = lambda z: {"gap": eigopt.objective_and_gap(inst, z)[1]}  # noqa: E731
        batch = run_batch(method, problem, oracle, StepsizePolicy(gamma, t), seeds, cps,
                          error_fn)
        assert_records_equal_reference(batch, seeds, lambda seed: ref_run(
            method, problem, ref_oracle, gamma, t, seed, cps, error_fn))

    @given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
               lambda s: sum(s) >= 2),
           method=st.sampled_from(["smp", "rmsa"]), kind=st.sampled_from(["sampled", "exact"]),
           seeds=SEEDS, t=st.integers(1, 6))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_sdf_records_equal_per_point_runs(self, sizes, method, kind, seeds, t):
        payload = bench.build_instance_payload(
            "sdf_system",
            {"n": 3, "blocks": sizes, "delta": 0.0, "noise_m": 0.5, "n_smooth": 1}, 11)
        _, system = bench.payload_to_instance(payload)
        scaled = composite.sdf_scale(system, t)
        problem = composite.build_vi(scaled.problem, lip_l=scaled.lip_l, var_m=scaled.noise_m)
        exact = kind == "exact"
        oracle = exact_oracle(problem) if exact else composite.build_oracle(scaled.problem)
        ref_oracle = lambda z, s: ref_composite_oracle(scaled.problem, z, s, exact)  # noqa: E731

        def error_fn(z):
            viols = composite.component_violations(system, z.x)
            return {f"viol_{i}": v for i, v in enumerate(viols)}

        batch = run_batch(method, problem, oracle, StepsizePolicy(scaled.gamma, t), seeds, [t],
                          error_fn)
        assert_records_equal_reference(batch, seeds, lambda seed: ref_run(
            method, problem, ref_oracle, scaled.gamma, t, seed, [t], error_fn))

    @given(sizes=SIZES, n=st.integers(2, 5), method=st.sampled_from(["smp", "rmsa"]),
           kind=st.sampled_from(["sampled", "exact"]), seeds=SEEDS, horizons=HORIZONS,
           step=st.floats(0.05, 1.0), data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_eig_mixed_horizon_rows_equal_per_horizon_runs(self, sizes, n, method, kind, seeds,
                                                           horizons, step, data):
        inst, saddle = eig_problem(n=n, blocks=sizes, seed=len(sizes) + n)
        problem = saddle.problem
        oracle = eigopt.averaged_oracle(inst, 1) if kind == "sampled" else exact_oracle(problem)
        gammas = [step / (math.sqrt(3.0) * problem.lip_l * (h + 1)) for h in range(len(horizons))]
        cps = [sorted(data.draw(st.sets(st.integers(1, t), min_size=1))) for t in horizons]
        error_fn = lambda z: {"gap": eigopt.objective_and_gap(inst, z)[1]}  # noqa: E731
        live = []

        def spy(zs, streams):
            live.append(len(streams))
            return oracle(zs, streams)

        rows = [h for h in range(len(horizons)) for _ in seeds]
        batch = run_batch(method, problem, spy,
                          [StepsizePolicy(gammas[h], horizons[h]) for h in rows],
                          seeds * len(horizons), [cps[h] for h in rows], error_fn)
        assert_rows_equal_per_horizon_runs(batch, seeds, horizons, lambda h: run_batch(
            method, problem, oracle, StepsizePolicy(gammas[h], horizons[h]), seeds, cps[h],
            error_fn))
        # each oracle call sees the rows that have not yet reached their horizon
        assert live == [sum(horizons[h] >= tau for h in rows)
                        for tau in range(1, horizons[0] + 1) for _ in range(ORACLE_CALLS[method])]

    @given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
               lambda s: sum(s) >= 2),
           method=st.sampled_from(["smp", "rmsa"]), kind=st.sampled_from(["sampled", "exact"]),
           seeds=SEEDS, horizons=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(
               lambda ts: sorted(ts, reverse=True)))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_sdf_mixed_horizon_rows_equal_per_horizon_runs(self, sizes, method, kind, seeds,
                                                           horizons):
        payload = bench.build_instance_payload(
            "sdf_system",
            {"n": 3, "blocks": sizes, "delta": 0.0, "noise_m": 0.5, "n_smooth": 1}, 11)
        _, system = bench.payload_to_instance(payload)
        scaled = [composite.sdf_scale(system, t) for t in horizons]
        exact = kind == "exact"

        def error_fn(z):
            viols = composite.component_violations(system, z.x)
            return {f"viol_{i}": v for i, v in enumerate(viols)}

        # one geometry and one oracle for all rows, row r weighted for its horizon
        shared = composite.build_vi(scaled[0].problem).setup
        problems = [composite.build_vi(sc.problem, lip_l=sc.lip_l, var_m=sc.noise_m,
                                       setup=shared) for sc in scaled]
        rows = [h for h in range(len(horizons)) for _ in seeds]
        cp = composite.batch_problem([scaled[h].problem for h in rows])
        oracle = exact_oracle(composite.build_vi(cp)) if exact else composite.build_oracle(cp)
        batch = run_batch(method, [problems[h] for h in rows], oracle,
                          [StepsizePolicy(scaled[h].gamma, horizons[h]) for h in rows],
                          seeds * len(horizons), [[horizons[h]] for h in rows], error_fn)

        def alone(h):
            sc = scaled[h]
            problem = composite.build_vi(sc.problem, lip_l=sc.lip_l, var_m=sc.noise_m)
            orc = exact_oracle(problem) if exact else composite.build_oracle(sc.problem)
            return run_batch(method, problem, orc, StepsizePolicy(sc.gamma, horizons[h]), seeds,
                             [horizons[h]], error_fn)

        assert_rows_equal_per_horizon_runs(batch, seeds, horizons, alone)

    @pytest.mark.parametrize("method", ["smp", "rmsa"])
    def test_points_handed_to_the_oracle_are_not_written(self, method):
        # the running sum of the averaged iterates is the loop's own copy,
        # so an oracle may keep the stacks it is given
        inst, saddle = eig_problem(blocks=(2, 1, 2))
        oracle = exact_oracle(saddle.problem)
        seen = []

        def keeper(zs, streams):
            seen.append((zs, [a.copy() for a in parts(zs)]))
            return oracle(zs, streams)

        policies = [StepsizePolicy(0.01, 6), StepsizePolicy(0.01, 3)]
        run_batch(method, saddle.problem, keeper, policies, [1, 2], [[3, 6], [1, 3]])
        assert len(seen) == ORACLE_CALLS[method] * 6
        for zs, copies in seen:
            for a, b in zip(parts(zs), copies, strict=True):
                assert_same_bytes(a, b)

    def test_batch_rows_are_checked(self):
        prob = one_dim()
        steep = VIProblem(prob.setup, prob.operator, lip_l=4.0)
        oracle = exact_oracle(prob)
        policies = [StepsizePolicy(0.3, 3), StepsizePolicy(0.3, 5)]
        with pytest.raises(ConfigError, match="non-increasing horizon order"):
            run_batch("smp", prob, oracle, policies, [0, 1], [3])
        # each row's stepsize is checked against its own L
        policies.reverse()
        run_batch("smp", [prob, prob], oracle, policies, [0, 1], [3])
        with pytest.raises(ConfigError, match="feasibility limit"):
            run_batch("smp", [prob, steep], oracle, policies, [0, 1], [3])
        with pytest.raises(ConfigError, match="one geometry"):
            run_batch("rmsa", [prob, one_dim()], oracle, policies, [0, 1], [3])
        with pytest.raises(ConfigError, match="one checkpoint list per row"):
            run_batch("smp", prob, oracle, policies, [0, 1], [[5], [3], [1]])

    def test_simplex_step_rows_equal_per_point_steps(self):
        # enough rows that some totals are values whose numpy vector log
        # differs from math.log
        setup = SimplexSetup(5)
        stream = RandomStream(3)
        s = np.log(stream.uniforms((20_000, 5)) + 0.01)
        s -= np.log(np.exp(s).sum(axis=1, keepdims=True))
        xi = 3.0 * stream.normals((20_000, 5))
        got_s, got_z = setup.step(s, xi, np.ones(len(s)))
        for row in range(len(s)):
            ref_s, ref_z = ref_step(setup, s[row], xi[row])
            assert_same_bytes(got_s[row], ref_s)
            assert_same_bytes(got_z[row], ref_z)

    def test_step_and_seed_of_a_failure_are_named(self):
        inst, saddle = eig_problem()
        calls = []

        def broken(z, stream):
            calls.append(stream.base_seed)
            xi = eigopt.sample_xi(inst, z, stream)
            if stream.base_seed == 5 and calls.count(5) == 3:
                return float("nan") * xi
            return xi

        with pytest.raises(NumericalError, match="step 2 for seed 5"):
            run_batch("smp", saddle.problem, per_seed(broken), StepsizePolicy(0.01, 4),
                      [3, 5, 8], [4])

    def test_failure_names_the_seed_and_horizon_of_its_row(self):
        inst, saddle = eig_problem()
        oracle = eigopt.averaged_oracle(inst, 1)
        calls = []

        def broken(zs, streams):
            calls.append(len(streams))
            xi = oracle(zs, streams)
            if len(calls) == 3:  # step 2's first half; row 2 is seed 5's 2-step run
                bad = xi.x.copy()
                bad[2] = float("nan")
                return Pair(bad, xi.y)
            return xi

        policies = [StepsizePolicy(0.01, 4), StepsizePolicy(0.01, 4), StepsizePolicy(0.01, 2)]
        with pytest.raises(NumericalError, match="in the 2-step run at step 2 for seed 5:"):
            run_batch("smp", saddle.problem, broken, policies, [5, 3, 5], [[4], [4], [2]])

    def test_runners_take_one_seed_or_a_batch(self):
        inst, saddle = eig_problem()
        orc = eigopt.averaged_oracle(inst, 1)
        policy = StepsizePolicy(0.01, 7)
        one = smp_run(saddle.problem, orc, policy, 2, [7])
        batch = smp_run(saddle.problem, orc, policy, [1, 2], [7])
        assert isinstance(batch, RunBatch) and len(batch) == 2
        assert_same_point(batch[1].averages[0], one.averages[0])
        assert (batch.t, batch.oracle_calls) == (14, 28)
        assert len(rmsa_run(saddle.problem, orc, policy, (4, 4, 4), [7])) == 3

    def test_wall_ms_splits_the_loop_time(self):
        inst, saddle = eig_problem()
        batch = run_batch("smp", saddle.problem, eigopt.averaged_oracle(inst, 1),
                          StepsizePolicy(0.01, 30), [0, 1, 2], [30])
        share = batch[0].wall_ms
        assert share > 0.0 and all(rec.wall_ms == share for rec in batch)

    def test_stack_round_trip(self):
        inst, saddle = eig_problem(blocks=(2, 1, 2))
        setup = saddle.problem.setup
        points = [setup.random_point(RandomStream(i)) for i in range(3)]
        for a, b in zip(unstack(stack(points)), points, strict=True):
            assert_same_point(a, b)
