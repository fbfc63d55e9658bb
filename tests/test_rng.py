import numpy as np
import pytest

from smpx.errors import InputError
from smpx.rng import RandomStream, inverse_cdf_index, uniform_rows


class TestStream:
    def test_same_key_replays(self):
        a = RandomStream(42).uniforms(100)
        b = RandomStream(42).uniforms(100)
        assert np.array_equal(a, b)

    def test_run_index_changes_stream(self):
        a = RandomStream(42, 0).uniforms(10)
        b = RandomStream(42, 1).uniforms(10)
        assert not np.array_equal(a, b)

    def test_uniform_range(self):
        u = RandomStream(1).uniforms(10000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_normals_shape_and_moments(self):
        z = RandomStream(2).normals(20000)
        assert z.shape == (20000,)
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03
        assert RandomStream(2).normals((3, 5)).shape == (3, 5)

    @pytest.mark.parametrize("n", [1, 7, 35])
    def test_rows_equal_separate_calls(self, n):
        # three calls each: the rows, one call into a row, one plain call
        streams = [RandomStream(5, i) for i in range(4)]
        refs = [RandomStream(5, i) for i in range(4)]
        for _ in range(3):
            rows = uniform_rows(streams, n)
            assert rows.shape == (4, n)
            for row, ref in zip(rows, refs, strict=True):
                assert row.tobytes() == ref.uniforms(n).tobytes()
        out = np.empty((4, n))
        for stream, ref, row in zip(streams, refs, out, strict=True):
            assert stream.uniforms(n, out=row) is row
            assert row.tobytes() == ref.uniforms(n).tobytes()
        for stream, ref in zip(streams, refs, strict=True):
            assert stream.uniform() == ref.uniform()  # one position per stream

    def test_out_of_the_wrong_shape_rejected(self):
        stream, ref = RandomStream(6), RandomStream(6)
        with pytest.raises(InputError, match="expected"):
            stream.uniforms(3, out=np.empty(4))
        assert stream.uniform() == ref.uniform()  # nothing was drawn

    def test_symmetric_matrix(self):
        s = RandomStream(3).symmetric(4, scale=2.0)
        assert np.array_equal(s, s.T)


class TestInverseCdf:
    def test_basic_bins(self):
        cum = np.array([0.5, 1.0])
        assert inverse_cdf_index(cum, 0.2) == 0
        assert inverse_cdf_index(cum, 0.7) == 1

    def test_tie_resolves_to_smaller_index(self):
        cum = np.array([0.5, 1.0])
        assert inverse_cdf_index(cum, 0.5) == 0

    def test_degenerate_distribution(self):
        cum = np.array([1.0, 1.0])
        assert inverse_cdf_index(cum, 0.999) == 0
        assert inverse_cdf_index(cum, 0.0) == 0

    def test_clamps_top(self):
        cum = np.array([0.3, 0.6, 0.6])
        assert inverse_cdf_index(cum, 0.99) == 2
