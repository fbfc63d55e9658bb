"""Deterministic random streams for reproducible experiments.

Streams are built on Philox 4x64 (10 rounds, the documented round constants
of Salmon et al., as shipped in numpy).  Philox is counter-based: the key is
set directly to ``(base_seed, run_index)`` and the position within the
stream is the Philox counter, so every variate is addressed by
``(base_seed, run_index, call position)`` and replays identically across
platforms.  Gaussian variates are produced by an explicit Box-Muller
transform from uniform pairs rather than numpy's ziggurat, which keeps the
uniform-to-normal mapping pinned by this codebase.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


class RandomStream:
    """Seeded stream of uniforms and derived variates, keyed by
    ``(base_seed, run_index)``."""

    __slots__ = ("base_seed", "run_index", "_gen")

    def __init__(self, base_seed: int, run_index: int = 0):
        self.base_seed = int(base_seed)
        self.run_index = int(run_index)
        key = np.array(
            [self.base_seed & _MASK64, self.run_index & _MASK64], dtype=np.uint64
        )
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self) -> float:
        """One double in [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        return self._gen.random(n)

    def normals(self, shape) -> np.ndarray:
        """Standard normals via Box-Muller on uniform pairs."""
        n = int(shape) if np.isscalar(shape) else int(math.prod(shape))
        m = (n + 1) // 2
        u1 = self._gen.random(m)
        u2 = self._gen.random(m)
        return box_muller(u1, u2, n).reshape(shape)

    def symmetric(self, p: int, scale: float = 1.0) -> np.ndarray:
        """Random symmetric p x p matrix with N(0, scale^2) entries, symmetrized."""
        g = self.normals((p, p))
        return scale * 0.5 * (g + g.T)


def box_muller(u1: np.ndarray, u2: np.ndarray, n: int) -> np.ndarray:
    """Standard normals from uniform pairs, along the last axis.

    Returns the first n of [r cos(2 pi u2), r sin(2 pi u2)] with
    r = sqrt(-2 log(1 - u1)); every operation is elementwise, so a row of a
    stacked call equals the call on that row alone.
    """
    # 1 - u1 lies in (0, 1], so the log is finite.
    r = np.sqrt(-2.0 * np.log1p(-u1))
    ang = (2.0 * math.pi) * u2
    return np.concatenate([r * np.cos(ang), r * np.sin(ang)], axis=-1)[..., :n]


def inverse_cdf_index(cumulative: np.ndarray, u):
    """Smallest i with cumulative[..., i] >= u, capped at the last index, per
    row of a stack of nondecreasing rows; consumes no randomness itself.

    The index is the count of entries below u, so ties at a cumulative
    boundary resolve toward the smaller index.
    """
    # the count over all but the last entry is the capped count
    return (cumulative[..., :-1] < np.asarray(u)[..., None]).sum(axis=-1)
