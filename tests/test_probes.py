"""The stacked probe set: its bound equals the per-probe loop bit for bit."""

import numpy as np
import pytest
from helpers import assert_same_bytes, ref_lower_bound

from smpx import bench, composite, eigopt, vi
from smpx.errors import InputError, NumericalError
from smpx.geometry import EuclideanBallSetup, Pair, SimplexSetup, SpectahedronSetup
from smpx.rng import RandomStream
from smpx.symmat import BlockStructure


def game_problem():
    payload = bench.build_instance_payload(
        "bilinear_simplex_spectahedron", {"n": 7, "blocks": [3, 1, 3, 2]}, 3
    )
    _, inst = bench.payload_to_instance(payload)
    return eigopt.build_saddle(inst).problem


def ball_problem():
    # F(z) = (S + K) z + b with S positive semidefinite and K skew: monotone
    stream = RandomStream(4)
    g = stream.normals((5, 5))
    a = g @ g.T / 5.0 + (g - g.T)
    b = stream.normals(5)
    return vi.VIProblem(EuclideanBallSetup(5, 2.0), lambda z: a @ z + b, lip_l=1.0)


def sdf_problem():
    payload = bench.build_instance_payload(
        "sdf_system", {"n": 5, "blocks": [3, 2, 3], "delta": 0.1, "noise_m": 0.5}, 6
    )
    _, system = bench.payload_to_instance(payload)
    scaled = composite.sdf_scale(system, 100)
    return composite.build_vi(scaled.problem, lip_l=scaled.lip_l, var_m=scaled.noise_m)


PROBLEMS = {"game": game_problem, "ball": ball_problem, "sdf": sdf_problem}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_lower_bound_equals_per_probe_loop(name):
    problem = PROBLEMS[name]()
    stream = RandomStream(5)
    points = list(problem.setup.probe_points(stream, 60))
    assert len(points) > 2 * vi._CHUNK and len(points) % vi._CHUNK  # last chunk partial
    probes = vi.ProbeSet(problem, points)
    for _ in range(6):
        z = problem.setup.random_point(stream)
        ref = ref_lower_bound(problem, z, points)
        assert_same_bytes(probes.lower_bound(z), ref)
        assert_same_bytes(vi.err_vi_lower(problem, z, points), ref)


@pytest.mark.parametrize("where", [0, 1, 2])
def test_non_finite_term_rejected_wherever_it_falls(where):
    problem = vi.VIProblem(SimplexSetup(3), lambda z: z)
    points = [np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.2, 0.2]), np.full(3, 1 / 3)]
    z = np.full(3, 1 / 3)
    points[where] = np.array([float("nan"), 0.5, 0.5])
    with pytest.raises(NumericalError):
        vi.err_vi_lower(problem, z, points)
    with pytest.raises(NumericalError):
        vi.ProbeSet(problem, points).lower_bound(z)
    with pytest.raises(NumericalError):
        vi.ProbeSet(problem, points[:where] + points[where + 1:]).lower_bound(
            np.array([0.5, float("inf"), 0.5])
        )


def test_points_and_values_are_views_of_the_stacks():
    problem = game_problem()
    probes = vi.ProbeSet(problem, problem.setup.probe_points(RandomStream(1), 10))
    for stack in probes.chunks[0]:
        with pytest.raises(ValueError):
            stack.x[0, 0] = 1.0
        with pytest.raises(ValueError):
            stack.y.stacks[0][0, 0, 0, 0] = 1.0


def test_generator_and_list_give_the_same_bound():
    problem = game_problem()
    points = list(problem.setup.probe_points(RandomStream(2), 50))
    assert len(points) > vi._CHUNK and len(points) % vi._CHUNK  # last chunk partial
    from_list = vi.ProbeSet(problem, points)
    from_gen = vi.ProbeSet(problem, problem.setup.probe_points(RandomStream(2), 50))
    assert len(from_gen) == len(from_list) == len(points)
    stream = RandomStream(3)
    for _ in range(4):
        z = problem.setup.random_point(stream)
        assert_same_bytes(from_gen.lower_bound(z), from_list.lower_bound(z))


def test_mismatched_probes_rejected():
    problem = vi.VIProblem(SimplexSetup(3), lambda z: z)
    with pytest.raises(InputError):
        vi.ProbeSet(problem, [np.full(3, 1 / 3), np.full(4, 0.25)])
    with pytest.raises(InputError):
        vi.ProbeSet(problem, [])


@pytest.mark.parametrize("odd", [np.full(4, 0.25), np.array([[0.5, 0.5, 0.0]]), "pair"])
def test_mismatched_probe_in_a_later_chunk_rejected(odd):
    # every probe of the second chunk matches the others there, not the first
    problem = vi.VIProblem(SimplexSetup(3), lambda z: z)
    if isinstance(odd, str):
        odd = Pair(np.full(3, 1 / 3), np.full(3, 1 / 3))
    points = [np.full(3, 1 / 3)] * vi._CHUNK + [odd] * 3
    with pytest.raises(InputError):
        vi.ProbeSet(problem, points)
    with pytest.raises(InputError):
        vi.ProbeSet(problem, iter(points))


def test_mismatched_block_structure_in_a_later_chunk_rejected():
    setups = [SpectahedronSetup(BlockStructure((2, 2))), SpectahedronSetup(BlockStructure((4,)))]
    problem = vi.VIProblem(setups[0], lambda z: z)
    points = [setups[0].center] * vi._CHUNK + [setups[1].center]
    with pytest.raises(InputError):
        vi.ProbeSet(problem, points)
