"""The probe set: its bound <F(u), z> - <F(u), u> against the per-probe loop.

The stored form sums in another order than ``inner(F(u), z - u)``, so the
bound agrees with the references within 1e-12 max(1, |ref|), not bit for bit.
"""

import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from helpers import assert_same_bytes, operator_at, ref_lower_bound
from hypothesis import given, settings
from hypothesis import strategies as st

from smpx import bench, composite, eigopt, vi
from smpx.errors import InputError, NumericalError
from smpx.geometry import (
    PROBE_CHUNK,
    EuclideanBallSetup,
    Pair,
    SimplexSetup,
    SpectahedronSetup,
    flat_rows,
)
from smpx.rng import RandomStream
from smpx.symmat import BlockStructure, BlockSymMatrix


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
    return vi.VIProblem(EuclideanBallSetup(5, 2.0), lambda zs: (a @ zs[:, :, None])[:, :, 0] + b,
                        lip_l=1.0)


def sdf_problem():
    payload = bench.build_instance_payload(
        "sdf_system", {"n": 5, "blocks": [3, 2, 3], "delta": 0.1, "noise_m": 0.5}, 6
    )
    _, system = bench.payload_to_instance(payload)
    scaled = composite.sdf_scale(system, 100)
    return composite.build_vi(scaled.problem, lip_l=scaled.lip_l, var_m=scaled.noise_m)


PROBLEMS = {"game": game_problem, "ball": ball_problem, "sdf": sdf_problem}


def assert_close(got, ref):
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_lower_bound_equals_per_probe_loop(name):
    problem = PROBLEMS[name]()
    stream = RandomStream(5)
    points = list(problem.setup.probe_points(stream, 60))
    assert len(points) > 2 * PROBE_CHUNK and len(points) % PROBE_CHUNK  # last chunk partial
    probes = vi.ProbeSet.from_points(problem, points)
    for _ in range(6):
        z = problem.setup.random_point(stream)
        ref = ref_lower_bound(problem, z, points)
        assert_close(probes.lower_bound(z), ref)
        assert_close(vi.err_vi_lower(problem, z, points), ref)


def exact_lower_bound(problem, z, probes):
    """max over probes u of the exactly rounded sum of F(u) * (z - u)."""
    def parts(a):
        if isinstance(a, Pair):
            return [*parts(a.x), *parts(a.y)]
        if isinstance(a, BlockSymMatrix):
            return [np.ravel(b) for b in a.blocks]
        return [np.ravel(a)]

    return max(
        math.fsum(itertools.chain.from_iterable(
            f * d for f, d in zip(parts(operator_at(problem.operator, u)), parts(z - u),
                                  strict=True)
        ))
        for u in probes
    )


@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4).filter(lambda s: sum(s) >= 2),
    n=st.integers(2, 6),
    full_chunks=st.integers(0, 2),
    rest=st.integers(1, PROBE_CHUNK - 1),
    stacked=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_lower_bound_matches_exact_sum(sizes, n, full_chunks, rest, stacked, seed):
    # eig saddles on random block structures (1 x 1 blocks and mixed sizes
    # included), through the probe operator or the per-row one, with a
    # partial last chunk
    payload = bench.build_instance_payload("eig_min", {"n": n, "blocks": sizes}, seed)
    _, inst = bench.payload_to_instance(payload)
    problem = eigopt.build_saddle(inst).problem
    if not stacked:
        problem = dataclasses.replace(problem, probe_operator=None)
    stream = RandomStream(seed)
    count = full_chunks * PROBE_CHUNK + rest
    points = list(itertools.islice(problem.setup.probe_points(stream, count), count))
    assert len(points) == count
    probes = vi.ProbeSet.from_points(problem, points)
    for _ in range(3):
        z = problem.setup.random_point(stream)
        assert_close(probes.lower_bound(z), exact_lower_bound(problem, z, points))


@pytest.mark.parametrize("where", [0, 1, 2])
def test_non_finite_term_rejected_wherever_it_falls(where):
    problem = vi.VIProblem(SimplexSetup(3), lambda z: z)
    points = [np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.2, 0.2]), np.full(3, 1 / 3)]
    z = np.full(3, 1 / 3)
    points[where] = np.array([float("nan"), 0.5, 0.5])
    with pytest.raises(NumericalError):
        vi.err_vi_lower(problem, z, points)
    with pytest.raises(NumericalError):
        vi.ProbeSet.from_points(problem, points).lower_bound(z)
    with pytest.raises(NumericalError):
        vi.ProbeSet.from_points(problem, points[:where] + points[where + 1:]).lower_bound(
            np.array([0.5, float("inf"), 0.5])
        )


def test_rows_are_read_only_and_no_point_stack_is_kept(monkeypatch):
    problem = game_problem()
    stacked = []

    def stack(points):
        out = real(points)
        stacked.extend(weakref.ref(r.base) for r in flat_rows(out))
        return out

    real = vi.stack
    monkeypatch.setattr(vi, "stack", stack)
    probes = vi.ProbeSet.from_points(problem, problem.setup.probe_points(RandomStream(1), 50))
    gc.collect()
    # ProbeSet stacks only the points, so every stack recorded here is a
    # chunk of points
    assert len(probes.chunks) == 3 and stacked
    assert all(ref() is None for ref in stacked)
    for rows, c in probes.chunks:
        assert c.shape == (len(rows[0]),) and not c.flags.writeable
        for r in rows:
            assert r.ndim == 2 and not r.flags.writeable
            with pytest.raises(ValueError):
                r[0, 0] = 1.0


def test_generator_and_list_give_the_same_bound():
    problem = game_problem()
    points = list(problem.setup.probe_points(RandomStream(2), 50))
    assert len(points) > PROBE_CHUNK and len(points) % PROBE_CHUNK  # last chunk partial
    from_list = vi.ProbeSet.from_points(problem, points)
    from_gen = vi.ProbeSet.from_points(problem, problem.setup.probe_points(RandomStream(2), 50))
    assert len(from_gen) == len(from_list) == len(points)
    stream = RandomStream(3)
    for _ in range(4):
        z = problem.setup.random_point(stream)
        assert_same_bytes(from_gen.lower_bound(z), from_list.lower_bound(z))


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_stacked_chunks_give_the_values_of_restacked_points(name):
    # default_probes hands the operator the chunks of probe_chunks as they
    # are built; stacking the same points one by one gives the same bytes
    problem = PROBLEMS[name]()
    chunked = vi.default_probes(problem, 3, 70)
    restacked = vi.ProbeSet.from_points(problem, problem.setup.probe_points(RandomStream(3), 70))
    assert len(chunked) == len(restacked) and len(chunked.chunks) > 2
    for (rows, c), (ref_rows, ref_c) in zip(chunked.chunks, restacked.chunks, strict=True):
        for got, want in zip(rows, ref_rows, strict=True):
            assert_same_bytes(got, want)
        assert_same_bytes(c, ref_c)


def test_mismatched_probes_rejected():
    problem = vi.VIProblem(SimplexSetup(3), lambda z: z)
    with pytest.raises(InputError):
        vi.ProbeSet.from_points(problem, [np.full(3, 1 / 3), np.full(4, 0.25)])
    with pytest.raises(InputError):
        vi.ProbeSet.from_points(problem, [])


def test_mismatched_point_rejected_by_the_bound():
    problem = game_problem()
    probes = vi.ProbeSet.from_points(problem, problem.setup.probe_points(RandomStream(1), 5))
    z = problem.setup.center
    other = SpectahedronSetup(BlockStructure((3, 3, 1, 2))).center
    for odd in (z.x, z.y, Pair(z.x[:-1], z.y), Pair(z.x, other), Pair(z.y, z.x)):
        with pytest.raises(InputError):
            probes.lower_bound(odd)


@pytest.mark.parametrize("odd", [np.full(4, 0.25), np.array([[0.5, 0.5, 0.0]]), "pair"])
def test_mismatched_probe_in_a_later_chunk_rejected(odd):
    # every probe of the second chunk matches the others there, not the first
    problem = vi.VIProblem(SimplexSetup(3), lambda z: z)
    if isinstance(odd, str):
        odd = Pair(np.full(3, 1 / 3), np.full(3, 1 / 3))
    points = [np.full(3, 1 / 3)] * PROBE_CHUNK + [odd] * 3
    with pytest.raises(InputError):
        vi.ProbeSet.from_points(problem, points)
    with pytest.raises(InputError):
        vi.ProbeSet.from_points(problem, iter(points))


def test_mismatched_block_structure_in_a_later_chunk_rejected():
    setups = [SpectahedronSetup(BlockStructure((2, 2))), SpectahedronSetup(BlockStructure((4,)))]
    problem = vi.VIProblem(setups[0], lambda z: z)
    points = [setups[0].center] * PROBE_CHUNK + [setups[1].center]
    with pytest.raises(InputError):
        vi.ProbeSet.from_points(problem, points)
