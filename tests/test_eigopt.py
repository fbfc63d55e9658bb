import dataclasses
import itertools
import math

import numpy as np
import pytest
from helpers import (
    assert_same_bytes,
    exact_at,
    operator_at,
    ref_combination,
    ref_exact_operator,
    ref_sample_xi,
    ref_trace_vector,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from smpx import bench, composite, eigopt, symmat, vi
from smpx.errors import ConfigError, InputError, NumericalError
from smpx.geometry import Pair, stack, unstack
from smpx.rng import RandomStream
from smpx.symmat import BlockStructure, BlockSymMatrix


def load(kind, params, seed):
    payload = bench.build_instance_payload(kind, params, seed)
    _, inst = bench.payload_to_instance(payload)
    return inst


def scalar_inst():
    return load("scalar_minimax", {"scalars": [1.0, 3.0]}, 0)


def unit_y():
    return BlockSymMatrix(BlockStructure((1,)), [np.array([[1.0]])])


class CountingStream:
    """Wraps a stream and counts uniform draws."""

    def __init__(self, stream):
        self._s = stream
        self.uniform_draws = 0

    def uniform(self):
        self.uniform_draws += 1
        return self._s.uniform()

    def uniforms(self, n, out=None):
        self.uniform_draws += n
        return self._s.uniforms(n, out=out)

    def normals(self, shape):
        return self._s.normals(shape)


class TestExactOperator:
    def test_scalar_example(self):
        z = Pair(np.array([0.5, 0.5]), unit_y())
        f = exact_at(scalar_inst(), z)
        assert np.allclose(f.x, [1.0, 3.0])
        assert np.allclose(f.y.blocks[0], [[-2.0]])

    def test_uniform_y_gives_scaled_traces(self):
        inst = load("eig_min", {"n": 5, "blocks": [2, 3]}, 4)
        setup = eigopt.build_setup(inst)
        z = Pair(setup.sx.center, setup.sy.center)
        f = exact_at(inst, z)
        n_total = inst.p_total
        expected = np.array([m.trace() / n_total for m in inst.mats])
        assert np.allclose(f.x, expected)

    def test_matches_composite_reduction(self):
        # build the same bilinear saddle through the generic machinery
        inst = load("eig_min", {"n": 4, "blocks": [2, 2]}, 5)
        comps = [
            composite.AffineMatrixComponent(
                inst.a0.blocks[i], np.stack([m.blocks[i] for m in inst.mats])
            )
            for i in range(2)
        ]
        cp = composite.matrix_minimax_problem(
            eigopt.build_setup(inst).sx, comps
        )
        setup = eigopt.build_setup(inst)
        stream = RandomStream(6)
        for _ in range(10):
            z = setup.random_point(stream)
            a = exact_at(inst, z)
            b = operator_at(composite.build_vi(cp).operator, z)
            assert np.max(np.abs(a.x - b.x)) <= 1e-12
            assert setup.sy.dual_norm(a.y - b.y) <= 1e-12


class TestExactOperatorRows:
    """Each row of the exact operator on a stack has the bytes of the
    per-point reference at that row, whatever the other rows."""

    # 1 x 1 blocks and mixed sizes, so that size groups interleave
    @given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
               lambda s: sum(s) >= 2),
           n=st.integers(2, 8), n_rows=st.integers(1, 5), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_rows_equal_per_point_reference(self, sizes, n, n_rows, seed):
        inst = load("eig_min", {"n": n, "blocks": sizes}, seed)
        setup = eigopt.build_setup(inst)
        stream = RandomStream(seed)
        points = [setup.random_point(stream, interior=row % 2 == 0) for row in range(n_rows)]
        got = eigopt.exact_operator(inst, stack(points))
        assert got.x.shape == (n_rows, n)
        for f, z in zip(unstack(got), points, strict=True):
            ref = ref_exact_operator(inst, z)
            assert_same_bytes(f.x, ref.x)
            for a, b in zip(f.y.blocks, ref.y.blocks, strict=True):
                assert_same_bytes(a, b)


class TestSampleXi:
    def test_deterministic_at_vertex(self):
        z = Pair(np.array([1.0, 0.0]), unit_y())
        xi = eigopt.sample_xi(scalar_inst(), z, RandomStream(0))
        assert np.allclose(xi.x, [1.0, 3.0])
        assert np.allclose(xi.y.blocks[0], [[-1.0]])

    def test_two_uniform_draws_per_call(self):
        inst = load("eig_min", {"n": 5, "blocks": [2, 3]}, 7)
        setup = eigopt.build_setup(inst)
        z = setup.random_point(RandomStream(1))
        counter = CountingStream(RandomStream(2))
        eigopt.sample_xi(inst, z, counter)
        assert counter.uniform_draws == 2

    def test_boundedness_certificates(self):
        inst = load("eig_min", {"n": 6, "blocks": [2, 2, 3]}, 8)
        setup = eigopt.build_setup(inst)
        stream = RandomStream(9)
        for _ in range(1000):
            z = setup.random_point(stream)
            xi = eigopt.sample_xi(inst, z, stream)
            f = exact_at(inst, z)
            assert np.abs(xi.x).max() <= inst.a_inf + 1e-12
            assert symmat.spectral_norm(xi.y - f.y) <= 2.0 * inst.a_inf + 1e-12

    def test_unbiased_by_enumeration(self):
        # scalar blocks and 2x2 blocks, n <= 4
        cases = [
            ("scalar_minimax", {"scalars": [0.3, -1.2, 0.8]}, 1),
            ("eig_min", {"n": 4, "blocks": [2, 2]}, 2),
            ("eig_min", {"n": 3, "blocks": [1, 2]}, 3),
        ]
        for kind, params, seed in cases:
            inst = load(kind, params, seed)
            stream = RandomStream(seed + 10)
            n = inst.n
            x = stream.uniforms(n) + 0.1
            x = x / x.sum()
            blocks = []
            for p in inst.structure.block_sizes:
                g = stream.normals((p, p))
                blocks.append(g @ g.T + 0.05 * np.eye(p))
            y = BlockSymMatrix(inst.structure, blocks, _validate=False)
            y = y * (1.0 / y.trace())
            z = Pair(x, y)
            diff = eigopt.enumerate_expectation(inst, z) - exact_at(inst, z)
            assert np.abs(diff.x).max() <= 1e-12
            assert symmat.spectral_norm(diff.y) <= 1e-12

    @pytest.mark.parametrize("bad_blocks, message", [
        ([np.diag([-0.1, 0.0]), np.diag([0.6, 0.5])], "drifted negative"),
        ([np.zeros((2, 2)), np.zeros((2, 2))], "sum to zero"),
    ])
    def test_bad_block_traces_name_their_row(self, bad_blocks, message):
        inst = load("eig_min", {"n": 3, "blocks": [2, 2]}, 5)
        good = eigopt.build_setup(inst).center
        bad = Pair(good.x, BlockSymMatrix(inst.structure, bad_blocks))
        with pytest.raises(NumericalError, match=message) as info:
            eigopt.averaged_oracle(inst, 1)(stack([good, bad, good]),
                                            [RandomStream(s) for s in range(3)])
        assert info.value.row == 1


class TestAveragedOracle:
    def test_k1_matches_single_draw(self):
        inst = load("eig_min", {"n": 4, "blocks": [2, 2]}, 11)
        setup = eigopt.build_setup(inst)
        z = setup.random_point(RandomStream(0))
        a = vi.draw(eigopt.averaged_oracle(inst, 1), z, RandomStream(5))
        b = eigopt.sample_xi(inst, z, RandomStream(5))
        assert np.array_equal(a.x, b.x)

    def test_noise_level_scaling(self):
        inst = load("eig_min", {"n": 6, "blocks": [2, 2]}, 12)
        m1 = eigopt.regularity_constants(inst, 1).noise
        m4 = eigopt.regularity_constants(inst, 4).noise
        assert m4 == pytest.approx(m1 / 2.0)

    def test_invalid_k_rejected(self):
        inst = load("eig_min", {"n": 4, "blocks": [2, 2]}, 13)
        with pytest.raises(ConfigError):
            eigopt.averaged_oracle(inst, 0)


class TestConstants:
    def test_literal_formula(self):
        inst = load("eig_min", {"n": 8, "blocks": [4, 4]}, 15)
        consts = eigopt.regularity_constants(inst, 1)
        assert consts.lip == pytest.approx(18.0 * math.log(2.0))
        assert consts.noise == pytest.approx(
            27.0 * (math.log(8) + math.log(8)) * inst.a_inf
        )
        assert consts.norm_weights == pytest.approx(
            (2.0 * math.log(8), 4.0 * math.log(8))
        )

    def test_quadrupling_k_halves_noise(self):
        inst = load("eig_min", {"n": 8, "blocks": [4, 4]}, 15)
        assert eigopt.regularity_constants(inst, 4).noise == pytest.approx(
            eigopt.regularity_constants(inst, 1).noise / 2.0
        )

    def test_small_instances_rejected(self):
        inst = load("eig_min", {"n": 2, "blocks": [3, 3]}, 16)
        with pytest.raises(ConfigError):
            eigopt.regularity_constants(inst, 1)
        inst2 = load("eig_min", {"n": 4, "blocks": [2]}, 17)
        with pytest.raises(ConfigError):
            eigopt.regularity_constants(inst2, 1)

    def test_effective_constant_dominates_observed_ratios(self):
        inst = load("eig_min", {"n": 6, "blocks": [2, 3]}, 18)
        setup = eigopt.build_setup(inst)
        lip = eigopt.effective_lipschitz(inst)
        stream = RandomStream(19)
        for _ in range(1000):
            z1 = setup.random_point(stream)
            z2 = setup.random_point(stream)
            d = setup.norm(z1 - z2)
            if d < 1e-9:
                continue
            num = setup.dual_norm(exact_at(inst, z1) - exact_at(inst, z2))
            assert num <= lip * d + 1e-8

    def test_deviation_bound_below_worst_case_level(self):
        inst = load("eig_min", {"n": 20, "blocks": [4, 4, 4]}, 7)
        assert eigopt.sample_deviation_bound(inst) <= eigopt.regularity_constants(
            inst, 1
        ).noise


class TestObjective:
    def test_scalar_values(self):
        inst = scalar_inst()
        f, gap = eigopt.objective_and_gap(inst, Pair(np.array([0.5, 0.5]), unit_y()))
        assert (f, gap) == (pytest.approx(2.0), pytest.approx(1.0))
        f2, gap2 = eigopt.objective_and_gap(inst, Pair(np.array([1.0, 0.0]), unit_y()))
        assert (f2, gap2) == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-12))

    def test_weak_duality_sampled(self):
        inst = load("eig_min", {"n": 5, "blocks": [2, 2]}, 20)
        setup = eigopt.build_setup(inst)
        stream = RandomStream(21)
        for _ in range(100):
            z = setup.random_point(stream, interior=False)
            f, gap = eigopt.objective_and_gap(inst, z)
            assert gap >= -1e-8
            assert f >= eigopt.dual_value(inst, z.y) - 1e-8


@pytest.mark.parametrize("sizes", [(3, 1, 3, 2), (4, 4, 4)])
class TestStackedInstance:
    """The instance holds A_1..A_n once and matches the per-block loops."""

    def test_mats_are_read_only_views_of_one_stack(self, sizes):
        inst = load("eig_min", {"n": 5, "blocks": list(sizes)}, 21)
        for j, m in enumerate(inst.mats):
            for s, full in zip(m.stacks, inst._stacks):
                assert s.base is full
                assert np.shares_memory(s, full[j])
        with pytest.raises(ValueError):
            inst.mats[0].blocks[0][0, 0] = 1.0

    def test_operator_matches_reference(self, sizes):
        inst = load("eig_min", {"n": 5, "blocks": list(sizes)}, 22)
        setup = eigopt.build_setup(inst)
        mats = [m.blocks for m in inst.mats]
        stream = RandomStream(23)
        for _ in range(5):
            z = setup.random_point(stream)
            assert_same_bytes(inst.trace_vector(z.y), ref_trace_vector(mats, z.y.blocks))
            for x, y in zip(inst.combination(z.x).blocks,
                            ref_combination(inst.a0.blocks, mats, z.x)):
                assert_same_bytes(x, y)

    def test_sample_xi_matches_reference(self, sizes):
        inst = load("eig_min", {"n": 5, "blocks": list(sizes)}, 24)
        setup = eigopt.build_setup(inst)
        mats = [m.blocks for m in inst.mats]
        z = setup.random_point(RandomStream(25))
        got_stream, ref_stream = RandomStream(26), RandomStream(26)
        seen = set()
        for _ in range(200):
            xi = eigopt.sample_xi(inst, z, got_stream)
            xi_x, xi_y, j, i = ref_sample_xi(
                inst.a0.blocks, mats, z.x, z.y.blocks, ref_stream
            )
            seen.add(i)
            assert_same_bytes(xi.x, xi_x)
            for x, y in zip(xi.y.blocks, xi_y):
                assert_same_bytes(x, y)
        assert seen == set(range(len(sizes)))


def probe_chunk(inst, seed, size=vi._CHUNK):
    """The first ``size`` default probe points and their stacks."""
    setup = eigopt.build_setup(inst)
    chunk = list(itertools.islice(setup.probe_points(RandomStream(seed), size), size))
    return chunk, vi._stack(chunk, chunk[0])


class TestStackedOperator:
    """The probe set's chunked operator against the per-row exact operator.

    Its products add in another order than the per-point ones, so the check
    is a stated tolerance: 1e-12 of the largest entry of each part.
    """

    def test_matches_exact_operator_within_tolerance(self):
        # 32 x 32 blocks and n = 120, in two size groups with the 3 x 3 block
        # between the 32 x 32 ones
        inst = load("eig_min", {"n": 120, "blocks": [32, 3, 32]}, 31)
        chunk, points = probe_chunk(inst, 32)
        got = eigopt.probe_operator(inst, points)
        ref = eigopt.exact_operator(inst, points)
        assert not got.x.flags.writeable
        assert got.x.shape == ref.x.shape == (len(chunk), 120)
        assert np.abs(got.x - ref.x).max() <= 1e-12 * np.abs(ref.x).max()
        for s, t in zip(got.y.stacks, ref.y.stacks, strict=True):
            assert not s.flags.writeable
            assert s.shape == t.shape
            assert np.abs(s - t).max() <= 1e-12 * np.abs(t).max()

    def test_probe_set_uses_it_and_bounds_agree(self, monkeypatch):
        inst = load("eig_min", {"n": 30, "blocks": [8, 2, 8]}, 34)
        problem = eigopt.build_saddle(inst).problem
        per_row = dataclasses.replace(problem, probe_operator=None)
        stream = RandomStream(35)
        points = list(problem.setup.probe_points(stream, 50))
        calls = []
        real = eigopt.exact_operator
        monkeypatch.setattr(eigopt, "exact_operator", lambda *a: calls.append(1) or real(*a))
        stacked = vi.ProbeSet(problem, points)
        assert calls == []
        reference = vi.ProbeSet(per_row, points)
        assert len(calls) == len(reference.chunks) == len(stacked.chunks)
        assert len(reference) == len(points) == len(stacked)
        for _ in range(5):
            z = problem.setup.random_point(stream)
            want = reference.lower_bound(z)
            assert abs(stacked.lower_bound(z) - want) <= 1e-12 * max(1.0, abs(want))

    def test_wrong_dimension_or_structure_rejected(self):
        inst = load("eig_min", {"n": 5, "blocks": [3, 2]}, 36)
        _, points = probe_chunk(inst, 37, 4)
        _, other = probe_chunk(load("eig_min", {"n": 5, "blocks": [2, 3]}, 36), 37, 4)
        for operator in (eigopt.exact_operator, eigopt.probe_operator):
            with pytest.raises(InputError):
                operator(inst, Pair(points.x[:, :-1], points.y))
            with pytest.raises(InputError):
                operator(inst, Pair(points.x, other.y))
