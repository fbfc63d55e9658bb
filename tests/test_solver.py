import math

import numpy as np
import pytest

from smpx import bench, eigopt
from smpx.errors import ConfigError, NumericalError
from smpx.geometry import EuclideanBallSetup
from smpx.solver import (
    StepsizePolicy,
    constant_stepsize,
    geometric_checkpoints,
    rmsa_run,
    rmsa_stepsize,
    smp_run,
    theoretical_bounds,
)
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
        prob = VIProblem(saddle.problem.setup, lambda z: 0.0 * saddle.problem.operator(z))
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
            return eigopt.exact_operator(inst, z)

        gamma = constant_stepsize(1.0, prob.setup.omega_radius, prob.lip_l, 0.0, 8)
        rec = smp_run(prob, spy, StepsizePolicy(gamma, 8), 0, [2, 5, 8])
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
        smp_run(prob, spy, StepsizePolicy(gamma, 50), 1, [50])
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
                broken,
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
            VIProblem(prob.setup, lambda z: np.zeros(1)),
            exact_oracle(VIProblem(prob.setup, lambda z: np.zeros(1))),
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
