import math

import numpy as np
import pytest
from helpers import exact_at

from smpx import bench, composite, eigopt
from smpx.errors import InputError
from smpx.geometry import EuclideanBallSetup, Pair
from smpx.rng import RandomStream
from smpx.symmat import BlockStructure, BlockSymMatrix
from smpx.vi import (
    SaddleInstance,
    VIProblem,
    default_probes,
    err_nash_saddle,
    err_vi_lower,
    estimate_noise_level,
    exact_oracle,
    oracle_stats,
    spot_check_regularity,
)


def one_dim_problem():
    setup = EuclideanBallSetup(1, 1.0)
    return VIProblem(setup, lambda z: np.asarray(z, dtype=float), lip_l=1.0)


def scalar_instance():
    # x in the 2-simplex against the singleton y = [[1]]: payoff x1 + 3 x2
    payload = bench.build_instance_payload("scalar_minimax", {"scalars": [1.0, 3.0]}, 0)
    _, inst = bench.payload_to_instance(payload)
    y = BlockSymMatrix(BlockStructure((1,)), [np.array([[1.0]])])
    return inst, y


def small_saddle(seed=13):
    payload = bench.build_instance_payload("eig_min", {"n": 4, "blocks": [2, 2]}, seed)
    _, inst = bench.payload_to_instance(payload)
    return inst, eigopt.build_saddle(inst)


class TestErrViLower:
    def test_hand_enumerated_example(self):
        prob = one_dim_problem()
        z = np.array([0.5])
        probes = [np.array([-1.0]), np.array([0.0]), np.array([1.0])]
        # <F(u), z - u> over the probes: -1.5, 0, -0.5
        assert err_vi_lower(prob, z, probes) == pytest.approx(0.0)

    def test_solution_scores_nonpositive(self):
        prob = one_dim_problem()
        stream = RandomStream(0)
        probes = [prob.setup.random_point(stream) for _ in range(50)]
        assert err_vi_lower(prob, np.array([0.0]), probes) <= 1e-8

    def test_self_probe_contributes_zero(self):
        prob = one_dim_problem()
        z = np.array([0.5])
        probes = [np.array([-1.0])]
        base = err_vi_lower(prob, z, probes)
        with_self = err_vi_lower(prob, z, probes + [z])
        assert with_self >= base
        assert with_self == pytest.approx(max(base, 0.0))

    def test_empty_probes_rejected(self):
        with pytest.raises(InputError):
            err_vi_lower(one_dim_problem(), np.array([0.0]), [])

    def test_probe_set_matches_direct_computation(self):
        _, saddle = small_saddle()
        prob = saddle.problem
        probes = default_probes(prob, seed=3, n_random=20)
        points = list(prob.setup.probe_points(RandomStream(3), 20))
        stream = RandomStream(4)
        for _ in range(5):
            z = prob.setup.random_point(stream)
            assert probes.lower_bound(z) == pytest.approx(err_vi_lower(prob, z, points))


class TestErrNash:
    def test_scalar_instance_gap(self):
        inst, y = scalar_instance()
        z = Pair(np.array([0.5, 0.5]), y)
        _, gap = eigopt.objective_and_gap(inst, z)
        assert gap == pytest.approx(1.0)

    def test_scalar_instance_zero_at_saddle(self):
        inst, y = scalar_instance()
        z = Pair(np.array([1.0, 0.0]), y)
        f, gap = eigopt.objective_and_gap(inst, z)
        assert f == pytest.approx(1.0)
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_gap_equals_saddle_instance_measure(self):
        inst, saddle = small_saddle()
        stream = RandomStream(5)
        for _ in range(10):
            z = saddle.problem.setup.random_point(stream)
            _, gap = eigopt.objective_and_gap(inst, z)
            assert err_nash_saddle(saddle, z) == pytest.approx(gap)

    def test_dominates_probe_lower_bound(self):
        _, saddle = small_saddle()
        prob = saddle.problem
        probes = default_probes(prob, seed=5, n_random=50)
        stream = RandomStream(6)
        for _ in range(20):
            z = prob.setup.random_point(stream)
            assert err_nash_saddle(saddle, z) >= probes.lower_bound(z) - 1e-8

    def test_weak_duality_on_samples(self):
        _, saddle = small_saddle()
        stream = RandomStream(7)
        for _ in range(50):
            z = saddle.problem.setup.random_point(stream)
            assert saddle.primal_value(z.x) >= saddle.dual_value(z.y) - 1e-8

    def test_minimization_reduces_to_objective_residual(self):
        # constant dual value: the gap is phi(x) - min phi
        setup = EuclideanBallSetup(1, 1.0)
        prob = VIProblem(setup, lambda z: np.asarray(z), lip_l=1.0)
        inst = SaddleInstance(
            problem=prob,
            primal_value=lambda x: 0.5 * float(x[0]) ** 2,
            dual_value=lambda y: 0.0,
        )
        z = Pair(np.array([0.6]), np.array([0.0]))
        assert err_nash_saddle(inst, z) == pytest.approx(0.18)


class TestOracleStats:
    def test_exact_oracle_has_zero_stats(self):
        prob = one_dim_problem()
        bias, m2 = oracle_stats(exact_oracle(prob), prob, np.array([0.3]), 100, 0)
        assert bias == 0.0
        assert m2 == 0.0

    def test_deterministic_for_fixed_seed(self):
        inst, saddle = small_saddle()
        orc = eigopt.averaged_oracle(inst, 1)
        z = saddle.problem.setup.random_point(RandomStream(1))
        a = oracle_stats(orc, saddle.problem, z, 200, seed=9)
        b = oracle_stats(orc, saddle.problem, z, 200, seed=9)
        assert a == b

    def test_vertex_scalar_draws_are_exact(self):
        # single 1x1 block and a vertex x: both index draws are forced,
        # so every sample equals the operator value exactly
        inst, y = scalar_instance()
        z = Pair(np.array([1.0, 0.0]), y)
        f = exact_at(inst, z)
        stream = RandomStream(2)
        for _ in range(20):
            xi = eigopt.sample_xi(inst, z, stream)
            assert np.array_equal(xi.x, f.x)
            assert np.array_equal(xi.y.blocks[0], f.y.blocks[0])

    def test_averaging_shrinks_second_moment(self):
        payload = bench.build_instance_payload(
            "eig_min", {"n": 5, "blocks": [2, 2]}, 21
        )
        _, inst = bench.payload_to_instance(payload)
        saddle = eigopt.build_saddle(inst)
        z = saddle.problem.setup.random_point(RandomStream(3))
        _, m2_1 = oracle_stats(
            eigopt.averaged_oracle(inst, 1), saddle.problem, z, 20000, seed=4
        )
        _, m2_4 = oracle_stats(
            eigopt.averaged_oracle(inst, 4), saddle.problem, z, 20000, seed=5
        )
        ratio = m2_1 / m2_4
        assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2


    @pytest.mark.parametrize("family", ["eig", "composite"])
    def test_noise_level_equals_per_point_stats(self, family):
        # the points run as the rows of one stack; each keeps the second
        # moment of its own oracle_stats loop, to the bit
        if family == "eig":
            inst, saddle = small_saddle()
            problem, orc = saddle.problem, eigopt.averaged_oracle(inst, 1)
        else:
            payload = bench.build_instance_payload(
                "sdf_system", {"n": 4, "blocks": [2, 1, 2], "n_smooth": 1}, 3)
            _, system = bench.payload_to_instance(payload)
            cp = composite.sdf_scale(system, 50).problem
            problem, orc = composite.build_vi(cp), composite.build_oracle(cp)
        got = estimate_noise_level(orc, problem, n_points=4, n_samples=60, seed=5,
                                   safety=1.3)
        stream = RandomStream(5)
        points = [problem.setup.center] + [problem.setup.random_point(stream)
                                           for _ in range(3)]
        worst = 0.0
        for i, z in enumerate(points):
            _, m2 = oracle_stats(orc, problem, z, 60, 5 + 1 + i)
            worst = max(worst, math.sqrt(m2))
        assert got == 1.3 * worst


class TestRegularity:
    def test_monotone_and_lipschitz_on_samples(self):
        payload = bench.build_instance_payload(
            "eig_min", {"n": 6, "blocks": [2, 3]}, 13
        )
        _, inst = bench.payload_to_instance(payload)
        prob = eigopt.build_saddle(inst).problem
        worst_mono, worst_lip = spot_check_regularity(prob, n_pairs=1000, seed=8)
        assert worst_mono >= -1e-8
        assert worst_lip <= 1e-8
