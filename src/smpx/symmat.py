"""Block-diagonal symmetric matrix algebra.

A matrix is stored as one C-contiguous (k, p, p) array per block-size
group: the k diagonal blocks of size p, in block order.  ``BlockStructure``
works out the groups once, and every kernel makes one numpy call per group,
not one per block.  The full N x N matrix is never materialized.  The
stored stacks are read-only, and ``.blocks`` is a read-only tuple of views
into them for callers that pick out one block, so a matrix shared between
iterates cannot be written through.

Spectral computations go through numpy's symmetric eigensolver, with
eigenvalues reported in descending order.  Objects carry an optional cached
eigendecomposition so that chained entropy-map / matrix-log calls (the
spectahedron prox) pay for one decomposition, not two.

Sums that reach results (traces, Frobenius products, the entropy-map
normalizer) add per-block sums in block order, so the values do not depend
on how the blocks are grouped.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InputError

_SYM_RTOL = 1e-12
_LOG_FLOOR = 1e-300  # eigenvalue clamp before logarithms


class BlockStructure:
    """Sizes (p_1, ..., p_m) of the diagonal blocks and their size groups.

    ``groups`` lists (p, block indices) per distinct size, in order of first
    appearance; ``slots[i]`` is (group, row in group) of block i.
    """

    __slots__ = ("block_sizes", "total_dim", "max_block", "sum_sq", "groups", "slots",
                 "_order")

    def __init__(self, block_sizes):
        sizes = tuple(int(p) for p in block_sizes)
        if not sizes or any(p < 1 for p in sizes):
            raise ConfigError(f"block sizes must be positive integers, got {sizes!r}")
        self.block_sizes = sizes
        self.total_dim = sum(sizes)
        self.max_block = max(sizes)
        self.sum_sq = sum(p * p for p in sizes)
        members: dict[int, list[int]] = {}
        for i, p in enumerate(sizes):
            members.setdefault(p, []).append(i)
        self.groups = tuple((p, tuple(idx)) for p, idx in members.items())
        slots = [None] * len(sizes)
        for g, (_, idx) in enumerate(self.groups):
            for r, i in enumerate(idx):
                slots[i] = (g, r)
        self.slots = tuple(slots)
        # position of block i in the concatenation of the groups' rows
        self._order = None if len(self.groups) == 1 else np.argsort(
            np.concatenate([idx for _, idx in self.groups])
        )

    def in_block_order(self, per_group) -> np.ndarray:
        """Concatenate one value per block, given per group, into block order."""
        if self._order is None:
            return per_group[0]
        return np.concatenate(per_group)[self._order]

    def __eq__(self, other):
        return other is self or (
            isinstance(other, BlockStructure) and self.block_sizes == other.block_sizes
        )

    def __hash__(self):
        return hash(self.block_sizes)

    def __repr__(self):
        return f"BlockStructure{self.block_sizes}"


class Eigh:
    """Eigendecomposition of a block matrix, stacked like the matrix.

    ``vals[g]`` is (k, p) with each row descending and ``vecs[g]`` is
    (k, p, p) with orthonormal columns, so block = Q diag(lam) Q^T.
    Indexing or iterating gives the per-block (eigenvalues, eigenvectors)
    pairs in block order.
    """

    __slots__ = ("structure", "vals", "vecs")

    def __init__(self, structure: BlockStructure, vals, vecs):
        for a in (*vals, *vecs):
            a.setflags(write=False)
        self.structure = structure
        self.vals = tuple(vals)
        self.vecs = tuple(vecs)

    def __len__(self):
        return len(self.structure.block_sizes)

    def __getitem__(self, i):
        g, r = self.structure.slots[i]
        return self.vals[g][r], self.vecs[g][r]

    def __iter__(self):
        return (self[i] for i in range(len(self)))


class BlockSymMatrix:
    """Immutable block-diagonal symmetric matrix.

    Each block must be symmetric to within 1e-12 relative tolerance; blocks
    are exactly symmetrized on construction so downstream identities hold to
    round-off.  ``stacks`` holds one read-only (k, p, p) array per size
    group of the structure.  ``_eig`` and ``_log`` memoize the
    eigendecomposition and, for interior spectahedron points, the matrix
    logarithm.
    """

    __slots__ = ("structure", "stacks", "_eig", "_blocks", "_log")

    def __init__(self, structure: BlockStructure, blocks, _validate: bool = True):
        blocks = [np.asarray(b, dtype=float) for b in blocks]
        if _validate and len(blocks) != len(structure.block_sizes):
            raise InputError(
                f"expected {len(structure.block_sizes)} blocks, got {len(blocks)}"
            )
        stacks = []
        for p, idx in structure.groups:
            if _validate:
                for i in idx:
                    if blocks[i].shape != (p, p):
                        raise InputError(
                            f"block shape {blocks[i].shape} does not match size {p}"
                        )
            s = np.stack([blocks[i] for i in idx])
            if _validate:
                if not np.all(np.isfinite(s)):
                    raise InputError("non-finite entries in block")
                st = s.transpose(0, 2, 1)
                scale = np.abs(s).max(axis=(1, 2))
                if np.any(np.abs(s - st).max(axis=(1, 2)) > _SYM_RTOL * (1.0 + scale)):
                    raise InputError("block is not symmetric within tolerance")
                s = 0.5 * (s + st)
            stacks.append(s)
        self._set(structure, stacks, None)

    def _set(self, structure, stacks, eig):
        for s in stacks:
            s.setflags(write=False)
        self.structure = structure
        self.stacks = tuple(stacks)
        self._eig = eig
        self._blocks = None
        self._log = None

    @classmethod
    def from_stacks(cls, structure: BlockStructure, stacks, eig=None) -> "BlockSymMatrix":
        """Wrap per-group (k, p, p) stacks without copying or validation."""
        out = cls.__new__(cls)
        out._set(structure, stacks, eig)
        return out

    @property
    def blocks(self) -> tuple:
        """Read-only views of the blocks, in block order."""
        if self._blocks is None:
            self._blocks = tuple(self.stacks[g][r] for g, r in self.structure.slots)
        return self._blocks

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, structure: BlockStructure) -> "BlockSymMatrix":
        return cls.from_stacks(
            structure, [np.zeros((len(idx), p, p)) for p, idx in structure.groups]
        )

    @classmethod
    def identity(cls, structure: BlockStructure, scale: float = 1.0) -> "BlockSymMatrix":
        """scale * I, carrying its decomposition (scale, I)."""
        eyes = [np.broadcast_to(np.eye(p), (len(idx), p, p)) for p, idx in structure.groups]
        eig = Eigh(
            structure,
            [np.full((len(idx), p), float(scale)) for p, idx in structure.groups],
            [e.copy() for e in eyes],
        )
        return cls.from_stacks(structure, [scale * e for e in eyes], eig)

    # -- arithmetic (all return new objects) ---------------------------

    def _like(self, stacks) -> "BlockSymMatrix":
        return BlockSymMatrix.from_stacks(self.structure, stacks)

    def __add__(self, other):
        self._check(other)
        return self._like([a + b for a, b in zip(self.stacks, other.stacks)])

    def __sub__(self, other):
        self._check(other)
        return self._like([a - b for a, b in zip(self.stacks, other.stacks)])

    def __neg__(self):
        return self._like([-a for a in self.stacks])

    def __mul__(self, c):
        c = float(c)
        return self._like([c * a for a in self.stacks])

    __rmul__ = __mul__

    def _check(self, other):
        if not isinstance(other, BlockSymMatrix) or other.structure != self.structure:
            raise InputError("block structure mismatch")

    # -- basic queries -------------------------------------------------

    def trace(self) -> float:
        return float(sum(self.block_traces()))

    def block_traces(self) -> np.ndarray:
        return self.structure.in_block_order(
            [s.trace(axis1=1, axis2=2) for s in self.stacks]
        )

    def is_finite(self) -> bool:
        return all(np.isfinite(s).all() for s in self.stacks)

    def dense(self) -> np.ndarray:
        """Full matrix; test/debug helper only."""
        n = self.structure.total_dim
        out = np.zeros((n, n))
        k = 0
        for b, p in zip(self.blocks, self.structure.block_sizes):
            out[k:k + p, k:k + p] = b
            k += p
        return out

    def __repr__(self):
        return f"BlockSymMatrix(sizes={self.structure.block_sizes})"


def eigh(a: BlockSymMatrix) -> Eigh:
    """Spectral decomposition with eigenvalues descending, one batched
    LAPACK call per size group."""
    if not a.is_finite():
        raise InputError("non-finite entries")
    vals, vecs = [], []
    for s in a.stacks:
        lam, q = np.linalg.eigh(s)
        vals.append(lam[:, ::-1].copy())
        vecs.append(q[:, :, ::-1].copy())
    return Eigh(a.structure, vals, vecs)


def cached_eigh(a: BlockSymMatrix) -> Eigh:
    """Like :func:`eigh` but memoized on the matrix object."""
    if a._eig is None:
        a._eig = eigh(a)
    return a._eig


def _rebuild(q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Q diag(lam) Q^T for every block of a group."""
    return (q * lam[:, None, :]) @ q.transpose(0, 2, 1)


def eigenvalues(a: BlockSymMatrix) -> np.ndarray:
    """All eigenvalues, concatenated over blocks (each block descending)."""
    return np.concatenate([vals for vals, _ in cached_eigh(a)])


def entropy_map(b: BlockSymMatrix) -> BlockSymMatrix:
    """Normalized matrix exponential exp(b) / Tr(exp(b)).

    The largest eigenvalue across all blocks is subtracted before
    exponentiating, so the map stays finite for spectral ranges up to ~700.
    The result is PSD with unit total trace and carries its decomposition.
    """
    decomp = cached_eigh(b)
    shift = max(float(vals[:, 0].max()) for vals in decomp.vals)
    ws = [np.exp(vals - shift) for vals in decomp.vals]
    structure = b.structure
    total = sum(structure.in_block_order([w.sum(axis=1) for w in ws]).tolist())
    lams = [w / total for w in ws]
    stacks = [_rebuild(q, lam) for q, lam in zip(decomp.vecs, lams)]
    return BlockSymMatrix.from_stacks(structure, stacks, Eigh(structure, lams, decomp.vecs))


def matrix_log(a: BlockSymMatrix) -> BlockSymMatrix:
    """Principal logarithm through the eigendecomposition.

    Eigenvalues are clamped below at 1e-300 before the log, the same
    boundary guard the entropy geometry uses.
    """
    decomp = cached_eigh(a)
    stacks = [
        _rebuild(q, np.log(np.maximum(vals, _LOG_FLOOR)))
        for vals, q in zip(decomp.vals, decomp.vecs)
    ]
    return BlockSymMatrix.from_stacks(a.structure, stacks)


def _spectra(a: BlockSymMatrix):
    """Per-group (k, p) eigenvalue arrays, row order unspecified; computes
    no eigenvectors when no decomposition is cached."""
    if a._eig is not None:
        return a._eig.vals
    return [np.linalg.eigvalsh(s) for s in a.stacks]


def lambda_max(a: BlockSymMatrix) -> float:
    """Largest eigenvalue across blocks."""
    return float(max(vals.max() for vals in _spectra(a)))


def lambda_min(a: BlockSymMatrix) -> float:
    return float(min(vals.min() for vals in _spectra(a)))


def trace_norm(a: BlockSymMatrix) -> float:
    """Sum of absolute eigenvalues over all blocks."""
    decomp = cached_eigh(a)
    return float(sum(a.structure.in_block_order(
        [np.abs(vals).sum(axis=1) for vals in decomp.vals]
    )))


def spectral_norm(a: BlockSymMatrix) -> float:
    """Largest absolute eigenvalue; the norm conjugate to the trace norm."""
    return max(float(np.abs(vals).max()) for vals in _spectra(a))


def frob_inner(a: BlockSymMatrix, b: BlockSymMatrix) -> float:
    """Frobenius inner product Tr(a b)."""
    a._check(b)
    return float(sum(a.structure.in_block_order(
        [(x * y).reshape(len(x), -1).sum(axis=1) for x, y in zip(a.stacks, b.stacks)]
    )))
