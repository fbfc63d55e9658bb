"""Block-diagonal symmetric matrix algebra.

A matrix is stored as one C-contiguous (k, p, p) array per block-size
group: the k diagonal blocks of size p, in block order.  ``BlockStructure``
works out the groups once, and every kernel makes one numpy call per group,
not one per block.  The full N x N matrix is never materialized.  The
stored stacks are read-only, so a matrix shared between iterates cannot be
written through.  ``.blocks`` builds read-only per-block views on each
read; kernels pick one block as ``stacks[g][r]`` via ``structure.slots``.

Spectral computations go through numpy's symmetric eigensolver, with
eigenvalues reported in descending order.  Objects carry an optional cached
eigendecomposition, and an entropy-map result comes with its own, so its
norms and its logarithm cost no second decomposition.

Sums that reach results (traces, Frobenius products, the entropy-map
normalizer) add per-block sums in block order, so the values do not depend
on how the blocks are grouped.

``BlockStack`` holds R matrices of one structure as (R, k, p, p) arrays,
the rows of a lock-step batch.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ConfigError, InputError, NumericalError

_SYM_RTOL = 1e-12


class BlockStructure:
    """Sizes (p_1, ..., p_m) of the diagonal blocks and their size groups.

    ``groups`` lists (p, block indices) per distinct size, in order of first
    appearance; ``slots[i]`` is (group, row in group) of block i, and
    ``slot_group`` and ``slot_row`` hold the same as two read-only integer
    arrays, so an array of block indices maps to both with one gather each.
    """

    __slots__ = ("block_sizes", "total_dim", "max_block", "sum_sq", "groups", "slots",
                 "slot_group", "slot_row", "_order")

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
        self.slot_group, self.slot_row = np.array(slots, dtype=np.intp).T.copy()
        self.slot_group.setflags(write=False)
        self.slot_row.setflags(write=False)
        # position of block i in the concatenation of the groups' rows
        self._order = None if len(self.groups) == 1 else np.argsort(
            np.concatenate([idx for _, idx in self.groups])
        )

    def in_block_order(self, per_group) -> np.ndarray:
        """Concatenate one value per block, given per group along the last
        axis, into block order along that axis."""
        if self._order is None:
            return per_group[0]
        return np.concatenate(per_group, axis=-1)[..., self._order]

    def flat_columns(self) -> list:
        """Per size group, the (k, p * p) positions of its blocks' entries in
        a matrix stored flat: its blocks in block order, each in C order."""
        starts = np.cumsum([0, *(p * p for p in self.block_sizes)])
        return [starts[list(idx), None] + np.arange(p * p) for p, idx in self.groups]

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

    @classmethod
    def wrap(cls, structure: BlockStructure, vals, vecs) -> "Eigh":
        """A decomposition of read-only per-group arrays, taken as they are."""
        out = cls.__new__(cls)
        out.structure = structure
        out.vals = tuple(vals)
        out.vecs = tuple(vecs)
        return out

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
    group of the structure; ``.blocks`` gives per-block views of them in
    block order, built on each read and not kept.  ``_eig`` memoizes the
    eigendecomposition.
    """

    __slots__ = ("structure", "stacks", "_eig")

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
                symmetrize(s)
            stacks.append(s)
        self._set(structure, stacks, None)

    def _set(self, structure, stacks, eig):
        for s in stacks:
            s.setflags(write=False)
        self.structure = structure
        self.stacks = tuple(stacks)
        self._eig = eig

    @classmethod
    def from_stacks(cls, structure: BlockStructure, stacks, eig=None) -> "BlockSymMatrix":
        """Wrap per-group (k, p, p) stacks without copying or validation."""
        out = cls.__new__(cls)
        out._set(structure, stacks, eig)
        return out

    @property
    def blocks(self) -> tuple:
        """Read-only views of the blocks, in block order, made on each read."""
        return tuple(self.stacks[g][r] for g, r in self.structure.slots)

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


def symmetrize(s: np.ndarray) -> None:
    """Make the p x p matrices of a writable float64 stack exactly symmetric,
    (s + s^T) / 2 in place, after checking that they are finite and
    symmetric to within 1e-12 relative tolerance (InputError otherwise)."""
    if not np.isfinite(s).all():
        raise InputError("non-finite entries in block")
    st = s.swapaxes(-1, -2)
    scale = np.abs(s).max(axis=(-2, -1))
    if np.any(np.abs(s - st).max(axis=(-2, -1)) > _SYM_RTOL * (1.0 + scale)):
        raise InputError("block is not symmetric within tolerance")
    s[...] = 0.5 * (s + st)  # s + st is a fresh array, so st is read whole first


class BlockStack:
    """Block matrices stacked along a leading axis: one (R, k, p, p) array
    per size group, whose row r holds the stacks of the r-th matrix.

    The stacked form of ``BlockSymMatrix`` for the rows of a batch (the
    seeds of a lock-step solver run, the probes of a probe-set chunk).
    Arithmetic is elementwise, in place for ``+=`` and ``*=``, so each row
    gets the bytes it gets alone;
    ``rows`` gives the row matrices as views.  ``eig``, when set, holds the
    rows' decompositions as per-group (R, k, p) eigenvalue and (R, k, p, p)
    eigenvector stacks, which ``rows(decomposed=True)`` makes read-only and
    hands to the row matrices.
    """

    __slots__ = ("structure", "stacks", "eig")

    def __init__(self, structure: BlockStructure, stacks, eig=None):
        self.structure = structure
        self.stacks = tuple(stacks)
        self.eig = eig

    def rows(self, decomposed: bool = False) -> list:
        out = [BlockSymMatrix.from_stacks(self.structure, r) for r in zip(*self.stacks)]
        if decomposed and self.eig is not None:
            vals, vecs = self.eig
            for a in (*vals, *vecs):
                a.setflags(write=False)
            for a, v, q in zip(out, zip(*vals), zip(*vecs)):
                a._eig = Eigh.wrap(self.structure, v, q)
        return out

    def _check(self, other):
        if not isinstance(other, BlockStack) or other.structure != self.structure:
            raise InputError("block structure mismatch")

    def __add__(self, other):
        self._check(other)
        return BlockStack(self.structure, [a + b for a, b in zip(self.stacks, other.stacks)])

    def __sub__(self, other):
        self._check(other)
        return BlockStack(self.structure, [a - b for a, b in zip(self.stacks, other.stacks)])

    def __mul__(self, c):
        c = float(c)
        return BlockStack(self.structure, [c * a for a in self.stacks])

    __rmul__ = __mul__

    def __iadd__(self, other):
        self._check(other)
        for a, b in zip(self.stacks, other.stacks):
            a += b
        return self

    def __imul__(self, c):
        c = float(c)
        for a in self.stacks:
            a *= c
        return self

    def copy(self) -> "BlockStack":
        """The matrices in fresh arrays, without their decompositions."""
        return BlockStack(self.structure, [a.copy() for a in self.stacks])


def descending_eigh(s: np.ndarray):
    """(eigenvalues, eigenvectors) of each matrix of a finite float64 stack
    of symmetric matrices, in descending order, as C-contiguous arrays.

    One LAPACK call through ``numpy.linalg._umath_linalg.eigh_lo``, the
    private gufunc that ``numpy.linalg.eigh`` calls, so the results are
    its results: on a stack of 4 x 4 blocks that wrapper's argument checks
    and error-state context take about as long as the decomposition.  A
    decomposition that does not converge comes back as NaN and raises
    NumericalError.
    """
    lam, q = _umath_linalg.eigh_lo(s, signature="d->dd")
    if np.count_nonzero(np.isfinite(lam)) != lam.size:  # cheaper than .all()
        raise NumericalError("eigendecomposition did not converge")
    return lam[..., ::-1].copy(), q[..., ::-1].copy()


def eigh(a: BlockSymMatrix) -> Eigh:
    """Spectral decomposition with eigenvalues descending, one batched
    LAPACK call per size group."""
    if not a.is_finite():
        raise InputError("non-finite entries")
    vals, vecs = zip(*(descending_eigh(s) for s in a.stacks))
    return Eigh(a.structure, vals, vecs)


def cached_eigh(a: BlockSymMatrix) -> Eigh:
    """Like :func:`eigh` but memoized on the matrix object."""
    if a._eig is None:
        a._eig = eigh(a)
    return a._eig


def eigenvalues(a: BlockSymMatrix) -> np.ndarray:
    """All eigenvalues, concatenated over blocks (each block descending)."""
    return np.concatenate([vals for vals, _ in cached_eigh(a)])


def entropy_map(b: BlockSymMatrix) -> BlockSymMatrix:
    """Normalized matrix exponential exp(b) / Tr(exp(b)).

    Subtracting the largest eigenvalue across all blocks first keeps it
    finite for any spectrum; eigenvalues ~745 below the largest give 0.
    The result is PSD with unit total trace and carries its decomposition.
    It is ``entropy_rows`` on a stack of one.
    """
    decomp = cached_eigh(b)
    points, lams, _ = entropy_rows(
        b.structure, [v[None] for v in decomp.vals], [q[None] for q in decomp.vecs]
    )
    return BlockSymMatrix.from_stacks(
        b.structure, [a[0] for a in points], Eigh(b.structure, [a[0] for a in lams], decomp.vecs)
    )


def entropy_rows(structure: BlockStructure, vals, vecs):
    """The entropy map of each row of a stack of block matrices, given their
    decompositions as per-group (R, k, p) eigenvalues, each row descending,
    and (R, k, p, p) eigenvectors.

    Returns the points and their eigenvalues in the same layout, and the
    (R, 1, 1) log Tr exp(b) of each row.  A row's shift is its largest
    eigenvalue, taken over the groups as ``max`` takes it, and its total
    adds the per-block sums in block order, so a row gets the bytes it gets
    in a stack of one.
    """
    shift = np.maximum.reduce(vals[0][:, :, :1], axis=1, keepdims=True)
    for v in vals[1:]:
        top = np.maximum.reduce(v[:, :, :1], axis=1, keepdims=True)
        shift = np.where(top > shift, top, shift)
    ws = [np.subtract(v, shift) for v in vals]
    sums = []
    for w in ws:
        np.exp(w, out=w)
        sums.append(np.add.reduce(w, axis=2))
    total = np.array([sum(row) for row in structure.in_block_order(sums).tolist()])[:, None, None]
    for w in ws:
        np.divide(w, total, out=w)
    points = [np.matmul(q * w[:, :, None, :], q.swapaxes(2, 3)) for q, w in zip(vecs, ws)]
    return points, ws, shift + np.log(total)


def matrix_log(a: BlockSymMatrix) -> BlockSymMatrix:
    """Principal logarithm through the eigendecomposition, for a positive
    definite a; a zero eigenvalue gives non-finite entries."""
    decomp = cached_eigh(a)
    stacks = [(q * np.log(vals)[:, None, :]) @ q.transpose(0, 2, 1)
              for vals, q in zip(decomp.vals, decomp.vecs)]
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
