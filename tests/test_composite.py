import dataclasses
import math

import numpy as np
import pytest
from helpers import assert_same_bytes, operator_at, ref_composite_oracle, ref_noisy_sample
from hypothesis import given, settings
from hypothesis import strategies as st

from smpx import bench, composite, symmat, vi
from smpx.composite import (
    AffineMatrixComponent,
    NoisyAffineComponent,
    QuadraticMatrixComponent,
    SdfComponent,
    SDFSystem,
    composite_oracle,
    lipschitz_constants,
    matrix_minimax_problem,
    sdf_scale,
)
from smpx.errors import ConfigError, InputError, NumericalError
from smpx.geometry import EuclideanBallSetup, Pair, SimplexSetup, stack, unstack
from smpx.rng import RandomStream
from smpx.solver import StepsizePolicy, run_batch
from smpx.symmat import BlockStructure, BlockSymMatrix


def affine_minimax(n=4, sizes=(2, 2), seed=5, m_x=0.0):
    stream = RandomStream(seed)
    comps = []
    for p in sizes:
        c0 = stream.symmetric(p)
        cs = np.stack([stream.symmetric(p) for _ in range(n)])
        comps.append(AffineMatrixComponent(c0, cs))
    return matrix_minimax_problem(SimplexSetup(n), comps, m_x=m_x)


def assert_same_pair(a, b):
    assert_same_bytes(a.x, b.x)
    assert a.y.structure == b.y.structure
    for s, t in zip(a.y.stacks, b.y.stacks, strict=True):
        assert_same_bytes(s, t)


class ZeroGen:  # every uniform is 0, so every normal is 0
    def random(self, n=None, out=None):
        if out is not None:
            out[...] = 0.0
            return out
        return 0.0 if n is None else np.zeros(n)


def zero_stream():
    stream = RandomStream(0)
    stream._gen = ZeroGen()
    return stream


def sample(comp, x, y_l, stream):
    """One draw of comp at one point: its ``rows`` on a stack of one."""
    f_hat, g = comp.rows(x[None], np.asarray(y_l)[None], stream.uniforms(comp.uniforms)[None])
    return f_hat[0], g[0]


def sdf_system(n=5, sizes=(3, 3, 3), seed=2, delta=0.0):
    payload = bench.build_instance_payload(
        "sdf_system",
        {"n": n, "blocks": list(sizes), "delta": delta, "noise_m": 0.5},
        seed,
    )
    _, sys_ = bench.payload_to_instance(payload)
    return sys_


class TestOperator:
    def test_bilinear_special_case(self):
        # one affine component, identity-like map: F = [grad* y ; -phi(x)]
        cp = affine_minimax(n=3, sizes=(2,), seed=1)
        comp = cp.components[0]
        stream = RandomStream(2)
        z = Pair(
            SimplexSetup(3).random_point(stream),
            composite.SpectahedronSetup(BlockStructure((2,))).random_point(stream),
        )
        f = operator_at(composite.build_vi(cp).operator, z)
        assert np.allclose(f.x, comp.grad_adjoint(z.x, z.y.blocks[0]))
        assert np.allclose(f.y.blocks[0], -comp.value(z.x))

    def test_monotone_on_samples(self):
        cp = affine_minimax()
        prob = composite.build_vi(cp)
        worst_mono, _ = vi.spot_check_regularity(prob, n_pairs=1000, seed=3)
        assert worst_mono >= -1e-8

    def test_component_error_carries_index(self):
        cp = affine_minimax()
        bad = Pair(np.full(4, 0.25), None)
        with pytest.raises(Exception, match="component 0"):
            composite.build_vi(cp).operator(stack([bad]))


class TestOracle:
    def test_exact_components_reproduce_operator(self):
        cp = affine_minimax()
        setup = composite.build_vi(cp).setup
        stream = RandomStream(4)
        z = setup.random_point(stream)
        a = operator_at(composite.build_vi(cp).operator, z)
        b = composite_oracle(cp, z, RandomStream(5))
        assert np.allclose(a.x, b.x)
        assert setup.sy.dual_norm(a.y - b.y) <= 1e-12

    def test_noisy_oracle_mean_within_band(self):
        sys_ = sdf_system()
        scaled = sdf_scale(sys_, 100)
        cp = scaled.problem
        prob = composite.build_vi(cp, lip_l=scaled.lip_l, var_m=scaled.noise_m)
        setup = prob.setup
        stream = RandomStream(6)
        z = setup.random_point(stream)
        f = operator_at(composite.build_vi(cp).operator, z)
        n_samples = 100_000
        acc = None
        sq = 0.0
        draw = RandomStream(7)
        for _ in range(n_samples):
            d = composite_oracle(cp, z, draw) - f
            sq += setup.dual_norm(d) ** 2
            acc = d if acc is None else acc + d
        mean_dev = (1.0 / n_samples) * acc
        second_moment = sq / n_samples
        # componentwise CLT band at three sigmas
        sigma = math.sqrt(second_moment / n_samples)
        assert setup.dual_norm(mean_dev) <= 3.0 * sigma + 1e-12
        assert second_moment <= scaled.noise_m**2

    def test_second_moment_below_declared_level(self):
        sys_ = sdf_system()
        scaled = sdf_scale(sys_, 64)
        prob = composite.build_vi(scaled.problem, lip_l=scaled.lip_l,
                                  var_m=scaled.noise_m)
        orc = composite.build_oracle(scaled.problem)
        z = prob.setup.random_point(RandomStream(8))
        _, m2 = vi.oracle_stats(orc, prob, z, 20_000, seed=9)
        assert m2 <= scaled.noise_m**2


class TestConstants:
    def test_zero_constants_give_zero_l_m(self):
        cp = affine_minimax(m_x=0.0)
        assert lipschitz_constants(cp) == (0.0, 0.0)

    def test_minimax_formula_reduction(self):
        cp = affine_minimax(m_x=0.7)
        ox = cp.x_setup.omega_radius
        oy = cp.y_setup.omega_radius
        lip, noise = lipschitz_constants(cp)
        assert lip == pytest.approx(5.0 * ox * oy * 0.7)
        assert noise == pytest.approx(2.0 * oy * ox * 0.7)

    def test_declared_constants_hold_empirically(self):
        sys_ = sdf_system()
        scaled = sdf_scale(sys_, 256)
        prob = composite.build_vi(scaled.problem, lip_l=scaled.lip_l,
                                  var_m=scaled.noise_m)
        _, worst_lip = vi.spot_check_regularity(prob, n_pairs=1000, seed=10)
        assert worst_lip <= 1e-8


class TestComponents:
    def test_quadratic_is_psd_convex(self):
        stream = RandomStream(11)
        comp = QuadraticMatrixComponent(
            stream.normals((3, 3)), np.stack([stream.normals((3, 3)) for _ in range(4)])
        )
        for _ in range(200):
            x1 = SimplexSetup(4).random_point(stream)
            x2 = SimplexSetup(4).random_point(stream)
            lam = stream.uniform()
            mix = lam * comp.value(x1) + (1 - lam) * comp.value(x2)
            at_mix = comp.value(lam * x1 + (1 - lam) * x2)
            gap = np.linalg.eigvalsh(mix - at_mix)[0]
            assert gap >= -1e-8

    def test_selector_image_is_psd_on_domain(self):
        cp = affine_minimax()
        stream = RandomStream(12)
        for _ in range(100):
            y = cp.y_setup.random_point(stream, interior=False)
            for psi in y.blocks:  # A_l y for every l
                assert np.linalg.eigvalsh(psi)[0] >= -1e-10

    def test_quadratic_gradient_matches_finite_differences(self):
        stream = RandomStream(13)
        comp = QuadraticMatrixComponent(
            stream.normals((2, 3)), np.stack([stream.normals((2, 3)) for _ in range(4)])
        )
        x = SimplexSetup(4).random_point(stream)
        u = stream.symmetric(3)
        grad = comp.grad_adjoint(x, u)
        eps = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = eps
            fd = (
                np.sum(comp.value(x + e) * u) - np.sum(comp.value(x - e) * u)
            ) / (2 * eps)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_noisy_component_bounds(self):
        base = AffineMatrixComponent(
            np.zeros((3, 3)), np.stack([np.eye(3) * 0.2 for _ in range(4)])
        )
        noisy = NoisyAffineComponent(base, rho_f=0.8, rho_g=0.5)
        stream = RandomStream(14)
        x = SimplexSetup(4).random_point(stream)
        for _ in range(300):
            u = stream.symmetric(3)
            f_hat, g = sample(noisy, x, u, stream)
            dev = f_hat - base.value(x)
            # value noise has spectral norm exactly rho_f
            assert np.abs(np.linalg.eigvalsh(dev)).max() <= 0.8 + 1e-12
            gap = g - base.grad_adjoint(x, u)
            # gradient bump is rho_g <U, u> times signs with |U|_inf = 1,
            # so its entries never exceed rho_g |u|_1
            tn = np.abs(np.linalg.eigvalsh(u)).sum()
            assert np.abs(gap).max() <= 0.5 * tn + 1e-12


class TestOneDrawNoise:
    """The one-draw noisy sample equals one stream call per variate."""

    @pytest.mark.parametrize("p,n", [(1, 3), (2, 4), (3, 6), (4, 5), (5, 2)])
    def test_sample_equals_split_draws(self, p, n):
        data = RandomStream(20 + p)
        base = AffineMatrixComponent(
            data.symmetric(p), np.stack([data.symmetric(p) for _ in range(n)])
        )
        noisy = NoisyAffineComponent(base, rho_f=0.8, rho_g=0.5)
        x = SimplexSetup(n).random_point(data)
        ours, ref = RandomStream(21), RandomStream(21)
        for _ in range(10):
            u = data.symmetric(p)
            f_hat, g = sample(noisy, x, u, ours)
            f_ref, g_ref = ref_noisy_sample(noisy, x, u, ref)
            assert_same_bytes(f_hat, f_ref)
            assert_same_bytes(g, g_ref)
            assert ours.uniform() == ref.uniform()  # the streams stand at one position

    def test_zero_normals_take_the_guard(self):
        base = AffineMatrixComponent(np.eye(3), np.stack([np.eye(3)] * 4))
        noisy = NoisyAffineComponent(base, rho_f=0.8, rho_g=0.5)
        x = np.full(4, 0.25)
        f_hat, g = sample(noisy, x, np.eye(3), zero_stream())
        f_ref, g_ref = ref_noisy_sample(noisy, x, np.eye(3), zero_stream())
        assert_same_bytes(f_hat, f_ref)
        assert_same_bytes(g, g_ref)

    def test_oracle_equals_sum_of_padded_terms(self):
        scaled = sdf_scale(sdf_system(sizes=(3, 2, 3), delta=0.1), 50)
        cp = scaled.problem
        z = composite.build_vi(cp).setup.random_point(RandomStream(22))
        ours, ref = RandomStream(23), RandomStream(23)
        for _ in range(5):
            a = composite_oracle(cp, z, ours)
            b = ref_composite_oracle(cp, z, ref)
            assert_same_bytes(a.x, b.x)
            for s, t in zip(a.y.stacks, b.y.stacks):
                assert_same_bytes(s, t)

    def test_operator_equals_sum_of_padded_terms(self):
        # the reference takes the exact data of every component once the
        # noisy ones are swapped for their bases
        scaled = sdf_scale(sdf_system(sizes=(3, 2, 3), delta=0.1), 50)
        cp = scaled.problem
        exact = dataclasses.replace(cp, components=tuple(
            getattr(c, "base", c) for c in cp.components
        ))
        stream = RandomStream(24)
        for _ in range(5):
            z = composite.build_vi(cp).setup.random_point(stream)
            a = operator_at(composite.build_vi(cp).operator, z)
            b = ref_composite_oracle(exact, z, RandomStream(0))
            assert_same_bytes(a.x, b.x)
            for s, t in zip(a.y.stacks, b.y.stacks):
                assert_same_bytes(s, t)

    @staticmethod
    def _fixed(out):
        class Fixed(composite.Component):  # a value with a -0.0 entry
            p = len(out)

            def value(self, x):
                return out

            def grad_adjoint(self, x, u):
                return np.zeros(2)

        return Fixed()

    @staticmethod
    def _draws(cp, z, n_rows):
        """(oracle draws, exact values) at n_rows copies of z: through the
        one-point entry points for one row, else as the rows of a stack."""
        if n_rows == 1:
            return ([composite_oracle(cp, z, RandomStream(0))],
                    [operator_at(composite.build_vi(cp).operator, z)])
        zs = stack([z] * n_rows)
        draws = composite.build_oracle(cp)(zs, [RandomStream(0) for _ in range(n_rows)])
        return unstack(draws), unstack(composite.build_vi(cp).operator(zs))

    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_one_component_keeps_the_sign_of_zero(self, n_rows):
        cp = matrix_minimax_problem(
            SimplexSetup(2), [self._fixed(np.array([[-0.0, 1.0], [1.0, 2.0]]))]
        )
        z = Pair(np.full(2, 0.5), cp.y_setup.center)
        b = ref_composite_oracle(cp, z, RandomStream(0))
        draws, values = self._draws(cp, z, n_rows)
        for a, exact in zip(draws, values, strict=True):
            for fy in (a.y, exact.y):
                assert_same_bytes(fy.stacks[0], b.y.stacks[0])
            assert not np.signbit(exact.y.stacks[0][0, 0, 0])  # F_y = -(-0.0)

    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_two_components_turn_negative_zero_positive(self, n_rows):
        # the padded sum adds +0.0 to every entry once m >= 2
        comps = [
            self._fixed(np.array([[-0.0, 1.0], [1.0, 2.0]])),
            self._fixed(np.array([[1.0, -0.0, 0.5], [-0.0, 3.0, 0.0], [0.5, 0.0, 2.0]])),
        ]
        cp = matrix_minimax_problem(SimplexSetup(2), comps, betas=[1.0, 0.5])
        z = Pair(np.full(2, 0.5), cp.y_setup.center)
        b = ref_composite_oracle(cp, z, RandomStream(0))
        draws, values = self._draws(cp, z, n_rows)
        for fy in [a.y for a in draws] + [a.y for a in values]:
            for s, t in zip(fy.stacks, b.y.stacks):
                assert_same_bytes(s, t)
            assert np.signbit(fy.stacks[0][0, 0, 0])  # F_y = -(+0.0)


def random_component(kind, n, p, stream):
    """An exact affine, a noisy affine or a quadratic component with a
    factor of 1 to 3 rows and nonzero B_0 and C_0."""
    if kind == "quadratic":
        rows = 1 + int(3 * stream.uniform())
        return QuadraticMatrixComponent(stream.normals((rows, p)),
                                        stream.normals((n, rows, p)), stream.symmetric(p))
    base = AffineMatrixComponent(stream.symmetric(p),
                                 np.stack([stream.symmetric(p) for _ in range(n)]))
    return base if kind == "affine" else NoisyAffineComponent(base, rho_f=0.8, rho_g=0.5)


class _FailsOnThirdValue(composite.Component):
    """A value/gradient-only component whose third value call raises, so
    the default row loop fails on row 2 of the first stack it sees."""

    p = 2

    def __init__(self):
        self.calls = 0

    def value(self, x):
        self.calls += 1
        if self.calls == 3:
            raise ValueError("boom")
        return np.eye(2)

    def grad_adjoint(self, x, u):
        return np.zeros(len(x))


class TestStackedOperator:
    """Each row of the stacked oracle and operator has the bytes of the
    per-point reference on that row, whatever the other rows."""

    # 1 x 1 blocks and mixed sizes; one to four components of each kind, so
    # from no smooth component to all smooth ones, and m = 1 (the -0.0 pad)
    @given(kinds=st.lists(st.tuples(st.integers(1, 3),
                                    st.sampled_from(["affine", "noisy", "quadratic"])),
                          min_size=1, max_size=4).filter(lambda k: sum(p for p, _ in k) >= 2),
           n=st.integers(2, 12), seeds=st.lists(st.integers(0, 3), min_size=1, max_size=5),
           data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_oracle_rows_equal_per_point_draws(self, kinds, n, seeds, data):
        stream = RandomStream(len(kinds) + 10 * n)
        comps = [random_component(kind, n, p, stream) for p, kind in kinds]
        betas = [0.5 + stream.uniform() for _ in comps]
        cp = matrix_minimax_problem(SimplexSetup(n), comps, betas)
        setup = composite.build_vi(cp).setup
        points = [setup.random_point(stream) for _ in seeds]
        zero = data.draw(st.none() | st.integers(0, len(seeds) - 1))  # guard on one row

        def streams():
            out = [RandomStream(seed) for seed in seeds]
            if zero is not None:
                out[zero] = zero_stream()
            return out

        ours, refs = streams(), streams()
        oracle = composite.build_oracle(cp)
        for _ in range(2):
            got = unstack(oracle(stack(points), ours))
            for a, z, ref in zip(got, points, refs, strict=True):
                assert_same_pair(a, ref_composite_oracle(cp, z, ref))
        for a, b in zip(ours, refs):
            assert a.uniform() == b.uniform()  # the streams stand at one position
        exact = unstack(composite.build_vi(cp).operator(stack(points)))
        for a, z in zip(exact, points, strict=True):
            assert_same_pair(a, ref_composite_oracle(cp, z, None, exact=True))

    @staticmethod
    def _assert_rows_equal_reference(cp, row_problems, points, streams):
        """Two oracle draws and the exact operator at the stacked points: row
        r has the bytes of the reference on row_problems[r] at points[r]."""
        ours, refs = streams(), streams()
        oracle = composite.build_oracle(cp)
        for _ in range(2):
            got = unstack(oracle(stack(points), ours))
            for a, rp, z, ref in zip(got, row_problems, points, refs, strict=True):
                assert_same_pair(a, ref_composite_oracle(rp, z, ref))
        for a, b in zip(ours, refs, strict=True):
            assert a.uniform() == b.uniform()  # the streams stand at one position
        exact = unstack(composite.build_vi(cp).operator(stack(points)))
        for a, rp, z in zip(exact, row_problems, points, strict=True):
            assert_same_pair(a, ref_composite_oracle(rp, z, None, exact=True))

    def test_sdf_workload_rows_equal_per_point_draws(self):
        # the sdf benchmark's system (one quadratic, then a run of two noisy
        # 3 x 3 components) at 12 rows: 4 seeds of 3 horizons' weights
        sys_ = bench.payload_to_instance(bench.build_instance_payload(
            "sdf_system",
            {"n": 6, "blocks": [3, 3, 3], "delta": 0.0, "noise_m": 0.5, "n_smooth": 1}, 11,
        ))[1]
        cps = [sdf_scale(sys_, t).problem for t in (100, 200, 400)]
        row_problems = [cps[r // 4] for r in range(12)]
        cp = composite.batch_problem(row_problems)
        assert [(run.comps.start, run.comps.stop) for run in cp.runs] == [(0, 1), (1, 3)]
        setup = composite.build_vi(cps[0]).setup
        points = [setup.random_point(RandomStream(40 + r)) for r in range(12)]
        self._assert_rows_equal_reference(
            cp, row_problems, points, lambda: [RandomStream(r) for r in range(12)])

    def test_runs_break_at_size_and_class(self):
        # three noisy components in a row, a run broken by a size change and
        # one broken by a quadratic; one row's uniforms are all zero
        kinds = [(2, "noisy")] * 3 + [(3, "noisy")] * 2 + [(3, "quadratic")] + [(3, "noisy")] * 2
        stream = RandomStream(41)
        comps = [random_component(kind, 5, p, stream) for p, kind in kinds]
        cp = matrix_minimax_problem(SimplexSetup(5), comps, [0.5 + stream.uniform() for _ in comps])
        assert [(run.comps.start, run.comps.stop) for run in cp.runs] == [
            (0, 3), (3, 5), (5, 6), (6, 8)]
        setup = composite.build_vi(cp).setup
        points = [setup.random_point(stream) for _ in range(5)]
        self._assert_rows_equal_reference(
            cp, [cp] * 5, points,
            lambda: [RandomStream(r) for r in range(4)] + [zero_stream()])

    def test_probe_chunks_equal_per_probe_operator(self):
        cp = sdf_scale(sdf_system(sizes=(3, 1, 2), delta=0.1), 50).problem
        problem = composite.build_vi(cp)
        points = list(problem.setup.probe_points(RandomStream(3), 60))
        probes = vi.ProbeSet(problem, points)
        assert len(probes.chunks) > 1
        for k, (rows, _) in enumerate(probes.chunks):
            chunk = points[k * vi._CHUNK:(k + 1) * vi._CHUNK]
            ref = vi._stack([operator_at(problem.operator, u) for u in chunk], points[0])
            for got, want in zip(rows, vi._rows(ref), strict=True):
                assert not got.flags.writeable
                assert_same_bytes(got, want)

    def _failing_problem(self):
        stream = RandomStream(30)
        comps = [random_component("noisy", 3, 2, stream), _FailsOnThirdValue()]
        return matrix_minimax_problem(SimplexSetup(3), comps)

    def test_component_error_names_index_and_row(self):
        cp = self._failing_problem()
        zs = stack([composite.build_vi(cp).setup.center] * 4)
        with pytest.raises(InputError, match="component 1 failed at row 2: boom") as info:
            composite.build_vi(cp).operator(zs)
        assert info.value.row == 2

    def test_run_batch_names_the_failing_seed(self):
        cp = self._failing_problem()
        problem = composite.build_vi(cp, lip_l=1.0, var_m=0.0)
        with pytest.raises(NumericalError,
                           match="step 1 for seed 12: component 1 failed at row 2"):
            run_batch("smp", problem, composite.build_oracle(cp), StepsizePolicy(0.01, 3),
                      [10, 11, 12, 13], [3])


    def test_shared_geometry_and_batch_weights_are_checked(self):
        stream = RandomStream(31)
        comps = [random_component("affine", 3, 2, stream) for _ in range(2)]
        x_setup = SimplexSetup(3)
        cp = matrix_minimax_problem(x_setup, comps, [1.0, 2.0])
        rescaled = matrix_minimax_problem(x_setup, comps, [3.0, 0.5])
        shared = composite.build_vi(cp).setup
        assert composite.build_vi(rescaled, setup=shared).setup is shared
        assert np.array_equal(composite.batch_problem([cp, rescaled, cp]).betas,
                              [[1.0, 2.0], [3.0, 0.5], [1.0, 2.0]])
        other = matrix_minimax_problem(SimplexSetup(3), comps)
        with pytest.raises(ConfigError, match="product geometry"):
            composite.build_vi(other, setup=shared)
        with pytest.raises(ConfigError, match="share components and geometry"):
            composite.batch_problem([cp, other])
        with pytest.raises(ConfigError, match="share components and geometry"):
            composite.batch_problem([cp, matrix_minimax_problem(x_setup, comps[::-1])])


class TestPhiRepresentation:
    def test_max_lambda_equals_support_maximum(self):
        # the outer function agrees with its conjugate representation
        stream = RandomStream(15)
        sizes = (2, 3)
        structure = BlockStructure(sizes)
        for _ in range(50):
            us = [stream.symmetric(p, 2.0) for p in sizes]
            direct = max(float(np.linalg.eigvalsh(u)[-1]) for u in us)
            via_support = symmat.lambda_max(
                BlockSymMatrix(structure, us, _validate=False)
            )
            assert direct == pytest.approx(via_support, abs=1e-8)


class TestSdfScale:
    def test_single_component_identity(self):
        sys_ = SDFSystem(
            x_setup=SimplexSetup(3),
            parts=(
                SdfComponent(
                    AffineMatrixComponent(
                        np.zeros((2, 2)), np.stack([np.eye(2)] * 3)
                    ),
                    lip_l=0.0,
                    noise_m=1.0,
                ),
            ),
        )
        scaled = sdf_scale(sys_, 100)
        assert scaled.betas == pytest.approx([1.0])
        assert scaled.mu == pytest.approx(1.0)

    def test_beta_ratio(self):
        mk = lambda m: SdfComponent(
            AffineMatrixComponent(np.zeros((2, 2)), np.stack([np.eye(2) * m] * 3)),
            lip_l=0.0,
            noise_m=m,
        )
        sys_ = SDFSystem(x_setup=SimplexSetup(3), parts=(mk(2.0), mk(1.0)))
        scaled = sdf_scale(sys_, 50)
        assert scaled.betas == pytest.approx([1.0, 2.0])

    def test_predicted_bound_formula(self):
        sys_ = SDFSystem(
            x_setup=EuclideanBallSetup(2, 1.0),
            parts=(
                SdfComponent(
                    AffineMatrixComponent(
                        np.zeros((3, 3)), np.stack([np.eye(3) * 0.5] * 2)
                    ),
                    lip_l=0.0,
                    noise_m=1.0,
                ),
            ),
        )
        scaled = sdf_scale(sys_, 100)
        assert scaled.predicted_bound == pytest.approx(
            80.0 * 1.0 * math.sqrt(math.log(3.0)) * 1.0 / 10.0
        )
        # the pipeline stepsize saturates the feasibility limit
        assert scaled.gamma == pytest.approx(1.0 / (math.sqrt(3.0) * scaled.lip_l))

    def test_zero_scale_rejected(self):
        sys_ = SDFSystem(
            x_setup=SimplexSetup(3),
            parts=(
                SdfComponent(
                    AffineMatrixComponent(np.zeros((2, 2)), np.zeros((3, 2, 2))),
                    lip_l=0.0,
                    noise_m=0.0,
                ),
            ),
        )
        with pytest.raises(ConfigError):
            sdf_scale(sys_, 10)

    def test_scaling_preserves_violation_sign(self):
        sys_ = sdf_system()
        scaled = sdf_scale(sys_, 100)
        stream = RandomStream(16)
        for _ in range(50):
            x = sys_.x_setup.random_point(stream)
            raw = composite.component_violations(sys_, x)
            cp = scaled.problem
            for part, beta, r in zip(cp.components, cp.betas, raw):
                scaled_lm = float(np.linalg.eigvalsh(beta * part.value(x))[-1])
                assert (scaled_lm <= 0) == (r <= 0)
                assert scaled_lm == pytest.approx(beta * r, rel=1e-10, abs=1e-12)

    def test_feasible_point_satisfies_margin(self):
        sys_ = sdf_system(delta=0.1)
        x_star = np.asarray(sys_.meta["x_star"], dtype=float)
        viol = composite.component_violations(sys_, x_star)
        assert np.all(viol <= -0.1 + 1e-9)
