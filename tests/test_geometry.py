import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_same_bytes,
    mild_simplex_point,
    parts,
    ref_extreme_points,
    ref_step,
    ref_spectahedron_extreme_points,
    ref_random_point,
    ref_spectahedron_random_point,
    simplex_prox_argmin,
    step_one,
)
from smpx import bench, checks, eigopt, geometry, symmat
from smpx.errors import ConfigError, DomainError, InputError
from smpx.geometry import (
    PROBE_CHUNK,
    EuclideanBallSetup,
    Pair,
    ProductSetup,
    SimplexSetup,
    SpectahedronSetup,
    inner,
    stack,
    unstack,
)
from smpx.rng import RandomStream
from smpx.solver import StepsizePolicy, smp_run
from smpx.symmat import BlockStructure
from smpx.vi import exact_oracle


def all_setups():
    return [
        EuclideanBallSetup(4, radius=1.5),
        SimplexSetup(6),
        SpectahedronSetup(BlockStructure((2, 3))),
        ProductSetup(SimplexSetup(4), SpectahedronSetup(BlockStructure((2, 2)))),
    ]


class TestCapacity:
    def test_simplex(self):
        setup = SimplexSetup(8)
        assert (setup.alpha, setup.theta, setup.omega_radius) == pytest.approx(
            (1.0, math.log(8), math.sqrt(2 * math.log(8)))
        )

    def test_euclidean_unit_ball(self):
        setup = EuclideanBallSetup(3, 1.0)
        assert (setup.alpha, setup.theta, setup.omega_radius) == pytest.approx(
            (1.0, 0.5, 1.0)
        )

    def test_spectahedron_blocks(self):
        setup = SpectahedronSetup(BlockStructure((2, 3)))
        assert setup.theta == pytest.approx(math.log(5))

    def test_radius_formula(self):
        for setup in all_setups():
            assert setup.omega_radius == pytest.approx(
                math.sqrt(2 * setup.theta / setup.alpha)
            )

    def test_small_domains_rejected(self):
        with pytest.raises(ConfigError):
            SimplexSetup(1)
        with pytest.raises(ConfigError):
            SpectahedronSetup(BlockStructure((1,)))


class TestBregman:
    def test_zero_at_same_point(self):
        z = np.array([0.3, 0.4])
        assert EuclideanBallSetup(2, 1.0).bregman(z, z) == 0.0

    def test_euclidean_half_squared_distance(self):
        setup = EuclideanBallSetup(2, 1.0)
        v = setup.bregman(np.zeros(2), np.array([0.6, 0.8]))
        assert v == pytest.approx(0.5)

    def test_simplex_kl_value(self):
        v = SimplexSetup(2).bregman(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert v == pytest.approx(0.25 * math.log(0.5) + 0.75 * math.log(1.5))

    def test_lower_bounded_by_squared_norm(self):
        stream = RandomStream(1)
        for setup in all_setups():
            for _ in range(50):
                z = setup.random_point(stream)
                u = setup.random_point(stream)
                v = setup.bregman(z, u)
                assert v >= 0.5 * setup.alpha * setup.norm(u - z) ** 2 - 1e-8

    def test_boundary_z_rejected(self):
        setup = SimplexSetup(3)
        with pytest.raises(DomainError):
            setup.bregman(np.array([0.0, 0.5, 0.5]), setup.center)


class TestProx:
    def test_simplex_identity(self):
        setup = SimplexSetup(3)
        z = np.full(3, 1.0 / 3.0)
        assert np.allclose(setup.prox_map(z, np.zeros(3)), z)

    def test_euclidean_projection(self):
        out = EuclideanBallSetup(2, 1.0).prox_map(np.zeros(2), np.array([2.0, 0.0]))
        assert np.allclose(out, [-1.0, 0.0])

    def test_simplex_closed_form_example(self):
        setup = SimplexSetup(3)
        z = np.full(3, 1.0 / 3.0)
        xi = np.array([math.log(2.0), 0.0, 0.0])
        out = setup.prox_map(z, xi)
        assert np.allclose(out, [0.2, 0.4, 0.4])
        assert np.max(np.abs(out - simplex_prox_argmin(z, xi))) <= 1e-6

    def test_simplex_closed_form_vs_argmin_random(self):
        stream = RandomStream(2)
        for n in (2, 4, 7, 10):
            setup = SimplexSetup(n)
            for _ in range(3):
                z = mild_simplex_point(setup, stream)
                xi = np.clip(setup.random_dual(stream), -1.5, 1.5)
                closed = setup.prox_map(z, xi)
                assert np.max(np.abs(closed - simplex_prox_argmin(z, xi))) <= 1e-6

    def test_simplex_large_dual_is_stable(self):
        setup = SimplexSetup(4)
        out = setup.prox_map(setup.center, np.array([700.0, -700.0, 0.0, 1.0]))
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0)
        assert out[1] == pytest.approx(1.0, abs=1e-100)

    def test_nonfinite_dual_rejected(self):
        for setup in all_setups():
            xi = setup.random_dual(RandomStream(3))
            bad = float("nan") * xi
            with pytest.raises(InputError):
                setup.prox_map(setup.center, bad)

    def test_boundary_point_rejected(self):
        setup = SimplexSetup(3)
        with pytest.raises(DomainError):
            setup.prox_map(np.array([1.0, 0.0, 0.0]), np.zeros(3))
        spect = SpectahedronSetup(BlockStructure((2,)))
        boundary = symmat.BlockSymMatrix(
            BlockStructure((2,)), [np.diag([1.0, 0.0])]
        )
        with pytest.raises(DomainError):
            spect.prox_map(boundary, spect.random_dual(RandomStream(4)))

    def test_nan_coordinate_rejected(self):
        setup = SimplexSetup(3)
        z = np.array([float("nan"), 0.5, 0.5])
        assert not setup.in_interior(z)
        with pytest.raises(DomainError):
            setup.prox_map(z, np.zeros(3))

    def test_result_stays_interior(self):
        stream = RandomStream(5)
        for setup in all_setups():
            z = setup.center
            for _ in range(20):
                z = setup.prox_map(z, setup.random_dual(stream, 2.0))
                assert setup.in_interior(z)
                assert setup.contains(z, tol=1e-10)

    def test_spectahedron_log_linearity(self):
        setup = SpectahedronSetup(BlockStructure((3, 2)))
        stream = RandomStream(6)
        a = setup.random_dual(stream, 2.0)
        xi = setup.random_dual(stream, 2.0)
        lhs = setup.prox_map(symmat.entropy_map(a), xi)
        rhs = symmat.entropy_map(a - xi)
        assert setup.norm(lhs - rhs) <= 1e-8


class TestCenter:
    def test_center_minimizes_omega(self):
        # first-order optimality of the center against sampled directions
        stream = RandomStream(7)
        for setup in all_setups():
            c = setup.center
            g = setup.omega_grad(c)
            for _ in range(100):
                u = setup.random_point(stream, interior=False)
                assert inner(g, u - c) >= -1e-9

    def test_strong_convexity_sampled(self):
        stream = RandomStream(8)
        for setup in all_setups():
            for _ in range(100):
                z = setup.random_point(stream)
                u = setup.random_point(stream)
                lhs = inner(setup.omega_grad(z) - setup.omega_grad(u), z - u)
                assert lhs >= setup.alpha * setup.norm(z - u) ** 2 - 1e-8


class TestProduct:
    def test_capacity_always_normalized(self):
        for sx in (SimplexSetup(3), EuclideanBallSetup(2, 2.0)):
            for sy in (SpectahedronSetup(BlockStructure((2, 2))), SimplexSetup(5)):
                ps = ProductSetup(sx, sy)
                assert (ps.alpha, ps.theta, ps.omega_radius) == pytest.approx(
                    (1.0, 1.0, math.sqrt(2.0))
                )

    def test_center_is_pair_of_centers(self):
        sx, sy = SimplexSetup(3), SpectahedronSetup(BlockStructure((2,)))
        c = ProductSetup(sx, sy).center
        assert np.allclose(c.x, sx.center)
        assert np.allclose(c.y.blocks[0], sy.center.blocks[0])

    def test_bregman_additivity(self):
        sx, sy = SimplexSetup(3), SpectahedronSetup(BlockStructure((2, 2)))
        ps = ProductSetup(sx, sy)
        stream = RandomStream(9)
        z, u = ps.random_point(stream), ps.random_point(stream)
        expected = (
            sx.bregman(z.x, u.x) / (sx.alpha * sx.omega_radius**2)
            + sy.bregman(z.y, u.y) / (sy.alpha * sy.omega_radius**2)
        )
        assert ps.bregman(z, u) == pytest.approx(expected)

    def test_prox_splits_with_rescaled_duals(self):
        sx, sy = SimplexSetup(4), SimplexSetup(3)
        ps = ProductSetup(sx, sy)
        stream = RandomStream(10)
        z = ps.random_point(stream)
        xi = ps.random_dual(stream)
        out = ps.prox_map(z, xi)
        assert np.allclose(
            out.x, sx.prox_map(z.x, sx.alpha * sx.omega_radius**2 * xi.x)
        )
        assert np.allclose(
            out.y, sy.prox_map(z.y, sy.alpha * sy.omega_radius**2 * xi.y)
        )

    def test_dual_norm_formula(self):
        sx, sy = SimplexSetup(3), EuclideanBallSetup(2, 1.5)
        ps = ProductSetup(sx, sy)
        xi = Pair(np.array([1.0, -2.0, 0.5]), np.array([0.3, -0.4]))
        expected = math.sqrt(
            sx.omega_radius**2 * sx.dual_norm(xi.x) ** 2
            + sy.omega_radius**2 * sy.dual_norm(xi.y) ** 2
        )
        assert ps.dual_norm(xi) == pytest.approx(expected)

    def test_pairing_inequality(self):
        ps = ProductSetup(SimplexSetup(4), SpectahedronSetup(BlockStructure((3,))))
        stream = RandomStream(11)
        for _ in range(100):
            z = ps.random_point(stream)
            u = ps.random_point(stream)
            xi = ps.random_dual(stream, 2.0)
            assert inner(xi, z - u) <= ps.dual_norm(xi) * ps.norm(z - u) + 1e-10


def _logit_mass(setup, s) -> float:
    """sum exp(s) on the simplex, Tr exp(L) on the spectahedron."""
    if isinstance(setup, SimplexSetup):
        return math.fsum(np.exp(s))
    return math.fsum(np.exp(np.concatenate([np.linalg.eigvalsh(b) for b in s.blocks])))


class TestLogitSteps:
    """Steps in logit coordinates agree with the prox, take no matrix log
    after the start point, and survive dual steps whose spread underflows
    the point to the boundary."""

    def test_prox_equals_entropy_map_of_log(self):
        setup = SpectahedronSetup(BlockStructure((3, 1, 3, 2)))
        stream = RandomStream(8)
        with_decomposition = setup.random_point(stream)  # an entropy-map output
        plain = symmat.BlockSymMatrix(
            setup.structure, setup.random_point(stream, interior=False).blocks
        )
        for z in (with_decomposition, plain):
            for _ in range(3):
                xi = setup.random_dual(stream, 2.0)
                got = setup.prox_map(z, xi)
                ref = symmat.entropy_map(symmat.matrix_log(z) - xi)
                for a, b in zip(got.stacks, ref.stacks):
                    assert_same_bytes(a, b)

    @given(
        sizes=st.one_of(
            st.integers(2, 8),  # a simplex of this dimension
            st.lists(st.integers(1, 5), min_size=1, max_size=4).filter(lambda s: sum(s) >= 2),
        ),
        k=st.integers(1, 6),
        scale=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_chained_steps_match_chained_prox(self, sizes, k, scale, seed):
        if isinstance(sizes, int):
            setup = SimplexSetup(sizes)
        else:
            setup = SpectahedronSetup(BlockStructure(sizes))
        stream = RandomStream(seed)
        z = setup.center
        s, point = setup.logits(z), z
        for _ in range(k):
            xi = setup.random_dual(stream, scale)
            s, point = step_one(setup, s, xi)
            z = setup.prox_map(z, xi)
            assert setup.norm(point - z) <= 1e-12
            assert abs(_logit_mass(setup, s) - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [1, 7, 40])
    def test_smp_run_logs_only_the_start_point(self, monkeypatch, t):
        payload = bench.build_instance_payload("eig_min", {"n": 4, "blocks": [2, 1, 3]}, 3)
        problem = eigopt.build_saddle(bench.payload_to_instance(payload)[1]).problem
        real_log = symmat.matrix_log
        calls = []
        monkeypatch.setattr(symmat, "matrix_log", lambda a: calls.append(a) or real_log(a))
        gamma = 0.5 / (math.sqrt(3.0) * problem.lip_l)
        smp_run(problem, exact_oracle(problem), StepsizePolicy(gamma, t), 0, [t])
        assert len(calls) == 1
        for a, b in zip(calls[0].stacks, problem.setup.center.y.stacks):
            assert_same_bytes(a, b)

    def test_simplex_large_dual_step(self):
        setup = SimplexSetup(3)
        xi = np.array([0.0, 800.0, 0.0])
        s, z = step_one(setup, setup.logits(setup.center), xi)
        assert z[1] == 0.0  # the point is on the boundary, the logits are not
        assert np.isfinite(s).all()
        assert abs(_logit_mass(setup, s) - 1.0) <= 1e-12
        s, z = step_one(setup, s, -xi)
        assert np.isfinite(s).all()
        assert abs(_logit_mass(setup, s) - 1.0) <= 1e-12
        assert setup.norm(z - setup.center) <= 1e-12

    def test_spectahedron_large_dual_step(self):
        setup = SpectahedronSetup(BlockStructure((2, 2)))
        xi = symmat.BlockSymMatrix(setup.structure, [np.zeros((2, 2)), np.diag([0.0, 800.0])])
        s, z = step_one(setup, setup.logits(setup.center), xi)
        assert symmat.lambda_min(z) == 0.0
        assert s.is_finite()
        assert abs(_logit_mass(setup, s) - 1.0) <= 1e-12
        s, z = step_one(setup, s, -xi)
        assert s.is_finite()
        assert abs(_logit_mass(setup, s) - 1.0) <= 1e-12
        assert setup.norm(z - setup.center) <= 1e-12

    def test_large_dual_step_check_passes(self):
        assert checks.large_dual_step_margin() <= 1e-12

    def test_boundary_point_rejected_on_every_call(self):
        setup = SpectahedronSetup(BlockStructure((2, 1)))
        z = symmat.BlockSymMatrix(setup.structure, [np.diag([1.0, 0.0]), np.zeros((1, 1))])
        xi = setup.random_dual(RandomStream(9))
        for _ in range(2):
            with pytest.raises(DomainError):
                setup.prox_map(z, xi)
        with pytest.raises(InputError):
            setup.prox_map(SpectahedronSetup(BlockStructure((3,))).center, xi)


def stack_setups():
    """One setup per geometry; the block sizes mix groups, 1 x 1 blocks
    among them, so block order differs from group order."""
    return [
        EuclideanBallSetup(4, radius=1.5),
        SimplexSetup(6),
        SpectahedronSetup(BlockStructure((2, 1, 3, 1))),
        ProductSetup(SimplexSetup(4), SpectahedronSetup(BlockStructure((1, 2, 2)))),
    ]


_SETUP_IDS = ["ball", "simplex", "spectahedron", "product"]


def closed_form_dual_norm(setup, xi) -> float:
    """The conjugate norm of one dual vector by its closed form: the
    Euclidean norm, the largest absolute entry, the spectral norm, or
    sqrt(R_x^2 ||xi_x||^2 + R_y^2 ||xi_y||^2) on a product."""
    if isinstance(setup, ProductSetup):
        return math.sqrt(
            setup.sx.omega_radius**2 * closed_form_dual_norm(setup.sx, xi.x) ** 2
            + setup.sy.omega_radius**2 * closed_form_dual_norm(setup.sy, xi.y) ** 2
        )
    if isinstance(setup, SpectahedronSetup):
        return symmat.spectral_norm(xi)
    if isinstance(setup, SimplexSetup):
        return float(np.abs(xi).max())
    return float(np.linalg.norm(xi))


class TestStack:
    """``stack`` returns read-only stacks and rejects points that differ from
    the first in type, shape or block structure, or that are not numbers."""

    @pytest.mark.parametrize("setup", stack_setups(), ids=_SETUP_IDS)
    def test_stacks_are_read_only(self, setup):
        stream = RandomStream(4)
        stacked = stack([setup.random_point(stream) for _ in range(3)])
        for a in parts(stacked):
            assert len(a) == 3 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_stacks_copy_the_points(self):
        x = np.full(3, 1 / 3)
        stacked = stack([x, x])
        x[0] = 1.0
        assert_same_bytes(stacked, np.full((2, 3), 1 / 3))
        assert x.flags.writeable

    @pytest.mark.parametrize("points", [
        pytest.param(lambda x, y: [Pair(x, y), x], id="pair-then-array"),
        pytest.param(lambda x, y: [x, Pair(x, y)], id="array-then-pair"),
        pytest.param(lambda x, y: [y, x], id="block-matrix-then-array"),
        pytest.param(lambda x, y: [x, np.full(4, 0.25)], id="shape"),
        pytest.param(lambda x, y: [x, x[:, None]], id="rank"),
        pytest.param(lambda x, y: [y, SpectahedronSetup(BlockStructure((2, 1))).center],
                     id="block-structure"),
        pytest.param(lambda x, y: [Pair(x, y), Pair(x, SimplexSetup(3).center)],
                     id="pair-part"),
        pytest.param(lambda x, y: [x, ["a", 0.5, 0.5]], id="text"),
        pytest.param(lambda x, y: [x, [{}, 0.5, 0.5]], id="object"),
    ])
    def test_mismatched_points_rejected(self, points):
        x = np.full(3, 1 / 3)
        y = SpectahedronSetup(BlockStructure((2, 1, 3))).center
        with pytest.raises(InputError):
            stack(points(x, y))


class TestStackedStep:
    """Row r of ``step(s, xi, rates)`` is the per-point step by rates[r] *
    xi_r, bit for bit, and the step writes neither s nor xi."""

    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("setup", stack_setups(), ids=_SETUP_IDS)
    def test_rows_equal_per_point_steps(self, setup, n_rows):
        stream = RandomStream(20 + n_rows)
        s = stack([setup.logits(setup.random_point(stream)) for _ in range(n_rows)])
        xi = stack([setup.random_dual(stream, 3.0) for _ in range(n_rows)])
        for a in parts(xi):
            a.setflags(write=False)
        rates = np.array([0.37, 1.0, 2.9, 0.011, 1.3])[:n_rows]
        s_before = [a.copy() for a in parts(s)]
        got_s, got_z = setup.step(s, xi, rates)
        for a, b in zip(parts(s), s_before, strict=True):
            assert_same_bytes(a, b)
        rows = zip(unstack(s), unstack(xi), unstack(got_s), unstack(got_z), strict=True)
        for rate, (s_r, xi_r, got_s_r, got_z_r) in zip(rates, rows):
            ref_s, ref_z = ref_step(setup, s_r, rate * xi_r)
            for a, b in zip(parts(got_s_r) + parts(got_z_r), parts(ref_s) + parts(ref_z),
                            strict=True):
                assert_same_bytes(a, b)

    @pytest.mark.parametrize("setup", stack_setups(), ids=_SETUP_IDS)
    def test_dual_norms_equal_per_row_dual_norms(self, setup):
        stream = RandomStream(6)
        xi = stack([setup.random_dual(stream, 2.0) for _ in range(5)])
        got = setup.dual_norms(xi)
        assert_same_bytes(got, np.array([setup.dual_norm(row) for row in unstack(xi)]))
        # the closed forms are code apart from the stacked kernels
        ref = np.array([closed_form_dual_norm(setup, row) for row in unstack(xi)])
        assert_same_bytes(got, ref)


class TestExtremePoints:
    """Closed-form spectahedron points equal the entropy-map construction, and
    the product yields its cyclic pairs one at a time."""

    @pytest.mark.parametrize(
        "sizes", [(32, 32, 32, 32), (4, 4, 4), (3, 1, 3, 2), (9, 2, 9, 1, 2), (3, 3, 3)]
    )
    def test_spectahedron_points_equal_entropy_map(self, sizes):
        structure = BlockStructure(sizes)
        got = list(SpectahedronSetup(structure).extreme_points())
        ref = ref_spectahedron_extreme_points(structure)
        assert len(got) == len(ref) == 2 * sum(sizes)
        for a, b in zip(got, ref):
            assert a._eig is None
            for s, t in zip(a.stacks, b.stacks, strict=True):
                assert_same_bytes(s, t)

    @pytest.mark.parametrize("n, sizes", [(9, (2, 1)), (3, (3, 2))])  # x, then y longer
    def test_product_yields_cyclic_pairs(self, n, sizes):
        structure = BlockStructure(sizes)
        setup = ProductSetup(SimplexSetup(n), SpectahedronSetup(structure))
        ex = list(SimplexSetup(n).extreme_points())
        ey = ref_spectahedron_extreme_points(structure)
        points = setup.extreme_points()
        assert iter(points) is points
        got = list(points)
        assert len(got) == max(len(ex), len(ey)) > min(len(ex), len(ey))
        for i, z in enumerate(got):
            assert_same_bytes(z.x, ex[i % len(ex)])
            for s, t in zip(z.y.stacks, ey[i % len(ey)].stacks, strict=True):
                assert_same_bytes(s, t)


@pytest.mark.parametrize(
    "sizes", [(4, 4, 4), (32, 32, 32, 32), (3, 1, 3, 2), (9, 2, 9, 1, 2)]
)
def test_spectahedron_boundary_point_equals_per_block_draws(sizes):
    # one uniforms draw for all blocks gives the per-block normals bit for
    # bit and leaves the stream where the per-block calls leave it
    structure = BlockStructure(sizes)
    setup = SpectahedronSetup(structure)
    got_stream, ref_stream = RandomStream(9), RandomStream(9)
    for _ in range(3):
        got = setup.random_point(got_stream, interior=False)
        ref = ref_spectahedron_random_point(structure, ref_stream)
        for s, t in zip(got.stacks, ref.stacks, strict=True):
            assert_same_bytes(s, t)
        assert_same_bytes(got_stream.uniform(), ref_stream.uniform())


def _draw_chunk(setup):
    """Random points per ``random_points`` call of ``probe_points``."""
    width = setup._draw_width
    return 1 if width is None else max(1, geometry._DRAW_BUDGET // width)


@st.composite
def drawing_setups(draw):
    """Every geometry kind; spectahedra with a 1 x 1 and a 12 x 12 block among
    others, so the size groups are mixed and a chunk is at most 226 points."""
    kind = draw(st.sampled_from(["simplex", "spectahedron", "product", "ball"]))
    if kind == "ball":
        return EuclideanBallSetup(draw(st.integers(1, 6)), 2.0)
    if kind == "simplex":
        return SimplexSetup(draw(st.integers(150, 600)))
    sizes = draw(st.permutations(draw(st.lists(st.integers(1, 9), max_size=3)) + [1, 12]))
    spect = SpectahedronSetup(BlockStructure(sizes))
    if kind == "spectahedron":
        return spect
    return ProductSetup(SimplexSetup(draw(st.integers(2, 40))), spect)


@given(setup=drawing_setups(), seed=st.integers(0, 2**16))
@settings(max_examples=16, deadline=None, derandomize=True)
def test_random_points_equal_successive_draws(setup, seed):
    # one stacked draw gives the points of the per-point calls bit for bit
    # and leaves the stream where they leave it, at and around a chunk; the
    # per-point calls agree with a reference that draws part by part
    chunk = _draw_chunk(setup)
    for count in sorted({0, 1, chunk - 1, chunk, chunk + 1}):
        streams = [RandomStream(seed) for _ in range(3)]
        got = setup.random_points(streams[0], count)
        per_point = [setup.random_point(streams[1], interior=False) for _ in range(count)]
        ref = [ref_random_point(setup, streams[2]) for _ in range(count)]
        rows = unstack(got)
        assert len(rows) == count
        for z, q, r in zip(rows, per_point, ref):
            for s, t, w in zip(parts(z), parts(q), parts(r), strict=True):
                assert_same_bytes(s, t)
                assert_same_bytes(s, w)
        after = [stream.uniform() for stream in streams]
        assert_same_bytes(after[0], after[1])
        assert_same_bytes(after[0], after[2])


@pytest.mark.parametrize("setup", [
    ProductSetup(SimplexSetup(200), SpectahedronSetup(BlockStructure([32] * 4))),
    SpectahedronSetup(BlockStructure([32, 1, 32])),
    EuclideanBallSetup(3),
], ids=["eig_mid", "spectahedron", "ball"])
def test_probe_points_draw_in_chunks_as_per_point_calls(setup):
    # chunks of a few eig-sized points: the random probes span three chunks
    n_random = 2 * _draw_chunk(setup) + 1
    got = list(setup.probe_points(RandomStream(4), n_random))
    head = [setup.center, *setup.extreme_points()]
    ref_stream = RandomStream(4)
    ref = head + [setup.random_point(ref_stream, interior=False) for _ in range(n_random)]
    assert len(got) == len(ref)
    for z, r in zip(got, ref):
        for s, t in zip(parts(z), parts(r), strict=True):
            assert_same_bytes(s, t)


_FAMILY_SETUPS = {
    "eig_mid": lambda: ProductSetup(SimplexSetup(200), SpectahedronSetup(BlockStructure([32] * 4))),
    "mixed": lambda: ProductSetup(SimplexSetup(5), SpectahedronSetup(BlockStructure([2, 3, 2, 1]))),
    "x_longer": lambda: ProductSetup(SimplexSetup(40), SpectahedronSetup(BlockStructure([3, 1]))),
    "spectahedron": lambda: SpectahedronSetup(BlockStructure([32, 1, 32])),
    "simplex": lambda: SimplexSetup(70),
    "ball": lambda: EuclideanBallSetup(3, 2.0),
    "ball_product": lambda: ProductSetup(EuclideanBallSetup(2), SimplexSetup(3)),
}


@pytest.mark.parametrize("name", sorted(_FAMILY_SETUPS))
def test_extreme_stack_equals_per_point_references(name):
    # in index order, and for indices out of order and repeated
    setup = _FAMILY_SETUPS[name]()
    ref = ref_extreme_points(setup)
    assert setup.n_extreme == len(ref) > 0
    idx = np.arange(len(ref))
    for order in (idx, idx[::-1], np.array([len(ref) - 1, 0, len(ref) - 1])):
        got = unstack(setup.extreme_stack(order))
        assert len(got) == len(order)
        for z, i in zip(got, order.tolist()):
            for s, t in zip(parts(z), parts(ref[i]), strict=True):
                assert_same_bytes(s, t)


@pytest.mark.parametrize("name", sorted(_FAMILY_SETUPS))
def test_probe_chunks_equal_per_point_probes(name):
    # center, extreme points and random points in stacks of PROBE_CHUNK, the
    # last one partial, with the bytes of the per-point references; the
    # random points span several draws
    setup = _FAMILY_SETUPS[name]()
    n_random = 2 * _draw_chunk(setup) + 5
    drawn, stream = RandomStream(4), RandomStream(4)
    chunks = list(setup.probe_chunks(drawn, n_random))
    ref = [setup.center, *ref_extreme_points(setup),
           *(ref_random_point(setup, stream) for _ in range(n_random))]
    got = [z for chunk in chunks for z in unstack(chunk)]
    sizes = [len(unstack(chunk)) for chunk in chunks]
    assert sizes == [min(PROBE_CHUNK, len(ref) - k) for k in range(0, len(ref), PROBE_CHUNK)]
    assert sizes[-1] < PROBE_CHUNK
    for z, r in zip(got, ref, strict=True):
        for s, t in zip(parts(z), parts(r), strict=True):
            assert_same_bytes(s, t)
    assert_same_bytes(drawn.uniform(), stream.uniform())
