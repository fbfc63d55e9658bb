import numpy as np
import pytest
from helpers import (
    assert_same_bytes,
    ref_eigh,
    ref_entropy_map,
    ref_frob_inner,
    ref_matrix_log,
)

from smpx import symmat
from smpx.errors import ConfigError, InputError, NumericalError
from smpx.rng import RandomStream
from smpx.symmat import BlockStructure, BlockSymMatrix


def mat(blocks):
    sizes = [np.asarray(b).shape[0] for b in blocks]
    return BlockSymMatrix(BlockStructure(sizes), blocks)


class TestStructure:
    def test_derived_fields(self):
        s = BlockStructure((4, 1, 3))
        assert s.total_dim == 8
        assert s.max_block == 4
        assert s.sum_sq == 26

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            BlockStructure((2, 0))
        with pytest.raises(ConfigError):
            BlockStructure(())


class TestConstruction:
    def test_rejects_asymmetric_block(self):
        with pytest.raises(InputError):
            mat([np.array([[0.0, 1.0], [0.0, 0.0]])])

    def test_accepts_roundoff_asymmetry(self):
        a = np.array([[1.0, 0.5], [0.5 + 1e-14, 2.0]])
        m = mat([a])
        assert np.allclose(m.blocks[0], m.blocks[0].T)

    def test_blocks_and_stacks_are_read_only(self):
        # points are shared between iterates and runs, so an in-place
        # write must fail rather than corrupt another iterate
        m = mat([np.eye(2), np.eye(3), 2.0 * np.eye(2)])
        with pytest.raises(ValueError):
            m.blocks[1][0, 0] = 5.0
        with pytest.raises(ValueError):
            m.stacks[0][0] = 0.0
        z = symmat.entropy_map(m)
        vals, _ = symmat.cached_eigh(z)[0]
        with pytest.raises(ValueError):
            vals[0] = 1.0
        with pytest.raises(ValueError):
            (z + m).blocks[0][0, 0] = 1.0

    def test_size_groups(self):
        s = BlockStructure((3, 1, 3, 2))
        assert s.groups == ((3, (0, 2)), (1, (1,)), (2, (3,)))
        assert s.slots == ((0, 0), (1, 0), (0, 1), (2, 0))
        m = mat([np.full((p, p), float(i)) for i, p in enumerate(s.block_sizes)])
        assert [b.shape for b in m.blocks] == [(3, 3), (1, 1), (3, 3), (2, 2)]
        assert [float(b[0, 0]) for b in m.blocks] == [0.0, 1.0, 2.0, 3.0]
        assert np.array_equal(m.block_traces(), [0.0, 1.0, 6.0, 6.0])

    def test_structure_mismatch_raises(self):
        a = mat([np.eye(2)])
        b = BlockSymMatrix(BlockStructure((3,)), [np.eye(3)])
        with pytest.raises(InputError):
            a + b
        with pytest.raises(InputError):
            symmat.frob_inner(a, b)


class TestEigh:
    def test_diagonal(self):
        vals, q = symmat.eigh(mat([np.diag([1.0, 2.0])]))[0]
        assert np.allclose(vals, [2.0, 1.0])
        assert np.allclose(np.abs(q), [[0.0, 1.0], [1.0, 0.0]])

    def test_offdiagonal_symmetry(self):
        vals, _ = symmat.eigh(mat([np.array([[0.0, 1.0], [1.0, 0.0]])]))[0]
        assert np.allclose(vals, [1.0, -1.0])

    def test_reconstruction_residual(self):
        stream = RandomStream(5)
        a = mat([stream.symmetric(5, 2.0)])
        scale = 1.0 + np.abs(a.blocks[0]).max()
        for (vals, q), blk in zip(symmat.eigh(a), a.blocks):
            assert np.max(np.abs(q @ q.T - np.eye(len(vals)))) <= 1e-10
            recon = (q * vals) @ q.T
            assert np.max(np.abs(recon - blk)) <= 1e-9 * scale
            assert np.all(np.diff(vals) <= 0)

    def test_batched_blocks_match_single(self):
        stream = RandomStream(6)
        blocks = [stream.symmetric(3) for _ in range(4)]
        m = mat(blocks)
        for (vals, q), blk in zip(symmat.eigh(m), blocks):
            ref = np.linalg.eigvalsh(0.5 * (blk + blk.T))[::-1]
            assert np.allclose(vals, ref)


    @pytest.mark.parametrize("shape", [(1, 3, 4, 4), (6, 2, 1, 1), (2, 4, 32, 32)])
    def test_descending_eigh_is_numpy_eigh_reversed(self, shape):
        a = RandomStream(7).normals(shape)
        a = a + a.swapaxes(-1, -2)
        vals, vecs = symmat.descending_eigh(a)
        lam, q = np.linalg.eigh(a)
        assert_same_bytes(vals, lam[..., ::-1].copy())
        assert_same_bytes(vecs, q[..., ::-1].copy())
        assert vals.flags.c_contiguous and vecs.flags.c_contiguous

    def test_unconverged_decomposition_raises(self, monkeypatch):
        class Unconverged:
            @staticmethod
            def eigh_lo(a, signature):
                return np.full(a.shape[:-1], np.nan), np.full(a.shape, np.nan)

        monkeypatch.setattr(symmat, "_umath_linalg", Unconverged)
        with pytest.raises(NumericalError, match="did not converge"):
            symmat.descending_eigh(np.eye(3)[None])


class TestEntropyMap:
    def test_zero_maps_to_normalized_identity(self):
        z = symmat.entropy_map(BlockSymMatrix.zeros(BlockStructure((2, 3))))
        assert np.allclose(z.dense(), np.eye(5) / 5.0)

    def test_diagonal_example(self):
        z = symmat.entropy_map(mat([np.diag([np.log(2.0), 0.0])]))
        assert np.allclose(z.blocks[0], np.diag([2.0 / 3.0, 1.0 / 3.0]))

    def test_unit_trace_random(self):
        stream = RandomStream(7)
        for _ in range(20):
            b = mat([stream.symmetric(3, 3.0), stream.symmetric(2, 3.0)])
            z = symmat.entropy_map(b)
            assert abs(z.trace() - 1.0) <= 1e-12
            assert symmat.lambda_min(z) >= 0.0

    def test_large_spectral_range_stays_finite(self):
        b = mat([np.diag([700.0, -700.0, 0.0])])
        z = symmat.entropy_map(b)
        assert z.is_finite()
        assert abs(z.trace() - 1.0) <= 1e-12

    def test_log_roundtrip_on_interior(self):
        stream = RandomStream(8)
        b = mat([stream.symmetric(4), stream.symmetric(2)])
        z = symmat.entropy_map(b)
        again = symmat.entropy_map(symmat.matrix_log(z))
        diff = max(
            np.max(np.abs(x - y)) for x, y in zip(z.blocks, again.blocks)
        )
        assert diff <= 1e-9


class TestNorms:
    def test_diag_example(self):
        a = mat([np.diag([1.0, -2.0])])
        assert symmat.trace_norm(a) == pytest.approx(3.0)
        assert symmat.spectral_norm(a) == pytest.approx(2.0)
        assert symmat.lambda_max(a) == pytest.approx(1.0)

    def test_frob_inner_identity_gives_trace(self):
        stream = RandomStream(9)
        a = mat([stream.symmetric(3), stream.symmetric(4)])
        eye = BlockSymMatrix.identity(a.structure)
        assert symmat.frob_inner(eye, a) == pytest.approx(a.trace())

    def test_trace_norm_duality(self):
        # |a|_1 = max over |b|_inf <= 1 of <a, b>; the sign certificate is exact
        stream = RandomStream(10)
        a = mat([stream.symmetric(4, 2.0), stream.symmetric(3, 2.0)])
        tn = symmat.trace_norm(a)
        cert_blocks = []
        for vals, q in symmat.eigh(a):
            cert_blocks.append((q * np.sign(vals)) @ q.T)
        cert = BlockSymMatrix(a.structure, cert_blocks, _validate=False)
        assert symmat.spectral_norm(cert) <= 1.0 + 1e-12
        assert symmat.frob_inner(a, cert) == pytest.approx(tn, rel=1e-12)
        best = 0.0
        for _ in range(200):
            b = mat([stream.symmetric(4), stream.symmetric(3)])
            b = b * (1.0 / max(symmat.spectral_norm(b), 1e-12))
            best = max(best, symmat.frob_inner(a, b))
        assert best <= tn + 1e-10
        assert best >= 0.5 * tn  # random probes get within range; cert is exact

    def test_lambda_max_as_support_function(self):
        # max over unit-trace PSD of <a, S> is attained at the top eigenvector
        stream = RandomStream(11)
        a = mat([stream.symmetric(3), stream.symmetric(2)])
        decomp = symmat.eigh(a)
        lmax = symmat.lambda_max(a)
        idx = int(np.argmax([vals[0] for vals, _ in decomp]))
        blocks = [np.zeros((p, p)) for p in a.structure.block_sizes]
        top = decomp[idx][1][:, 0]
        blocks[idx] = np.outer(top, top)
        cert = BlockSymMatrix(a.structure, blocks, _validate=False)
        assert abs(cert.trace() - 1.0) <= 1e-12
        assert symmat.frob_inner(a, cert) == pytest.approx(lmax, abs=1e-10)
        for _ in range(100):
            g = [stream.normals((p, p)) for p in a.structure.block_sizes]
            w = BlockSymMatrix(
                a.structure, [x @ x.T for x in g], _validate=False
            )
            s = w * (1.0 / w.trace())
            assert symmat.frob_inner(a, s) <= lmax + 1e-10

    def test_block_traces(self):
        a = mat([np.diag([1.0, 2.0]), np.diag([3.0])])
        assert np.allclose(a.block_traces(), [3.0, 3.0])


@pytest.mark.parametrize("sizes", [(3, 1, 3, 2), (4, 4, 4), (9, 2, 9)])
class TestStackedMatchesReference:
    """Stacked kernels equal the per-block loops bit for bit."""

    def draw(self, sizes, seed, scale=3.0):
        stream = RandomStream(seed)
        return mat([stream.symmetric(p, scale) for p in sizes])

    def test_eigh(self, sizes):
        a = self.draw(sizes, 1)
        got = symmat.eigh(a)
        assert len(got) == len(sizes)
        for (vals, q), (rv, rq) in zip(got, ref_eigh(a.blocks)):
            assert_same_bytes(vals, rv)
            assert_same_bytes(q, rq)

    def test_entropy_map_and_matrix_log(self, sizes):
        b = self.draw(sizes, 2)
        z = symmat.entropy_map(b)
        for x, y in zip(z.blocks, ref_entropy_map(b.blocks)):
            assert_same_bytes(x, y)
        fresh = BlockSymMatrix(z.structure, z.blocks)  # no cached decomposition
        for x, y in zip(symmat.matrix_log(fresh).blocks, ref_matrix_log(fresh.blocks)):
            assert_same_bytes(x, y)

    def test_frob_inner_and_traces(self, sizes):
        a, b = self.draw(sizes, 3), self.draw(sizes, 4)
        assert_same_bytes(symmat.frob_inner(a, b), ref_frob_inner(a.blocks, b.blocks))
        assert_same_bytes(a.block_traces(), [np.trace(x) for x in a.blocks])
        assert_same_bytes(a.trace(), float(sum(np.trace(x) for x in a.blocks)))
