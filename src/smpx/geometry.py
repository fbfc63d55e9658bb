"""Prox geometries for the three standard domains and their products.

A ``ProxSetup`` bundles a norm, its conjugate, a distance-generating
function omega with strong-convexity modulus alpha, the omega-minimizer
(the center), the capacity Theta, and the prox-mapping

    prox(z, xi) = argmin_{u in Z} { omega(u) + <xi - omega'(z), u> }.

Implemented domains:

* Euclidean ball of radius R centered at the origin, omega = ||z||^2 / 2;
* the full probability simplex with the entropy omega;
* the full spectahedron (unit-trace PSD block matrices) with matrix entropy;
* products of any two setups, combined with capacity-normalized weights so
  the result always has alpha = 1, Theta = 1, radius sqrt(2).

The solver steps in logit coordinates (``logits``, ``step``), where the
entropy proxes are linear; steps have no limit on the spread of the dual
vector, and ``prox_map`` from a boundary point raises DomainError.

``step(s, xi, rates)`` works on stacks: the logits and the dual vectors
of R points along a leading axis, one row per seed of a lock-step solver
batch, with an (R, n) array for a vector, a ``BlockStack`` of
(R, k, p, p) arrays for a block matrix and a pair of stacks for a pair.
``stack`` is the one function that stacks given points; it checks that
they agree in type, shape and block structure and hold numbers, and its
stacks are read-only.  ``unstack`` gives the rows back, ``flat_rows`` the parts as
(R, d) views.  ``dual_norm`` is ``dual_norms`` on a stack of one (the
ball's is its norm).  Row r steps by rates[r] times its dual vector, its
own stepsize, so the step takes the raw oracle values; it forms the
products in a temporary of its own, which the geometry's arithmetic then
overwrites, and writes neither s nor xi.  Each row gets the bytes it gets
in a stack of one: the arithmetic is elementwise or one LAPACK/BLAS call
per matrix, and the per-row reductions (a simplex total and its
``math.log``, a spectahedron shift and trace) add as the one-row step
adds.  A row whose dual vector is not finite raises InputError with its
``row``.  ``prox_map`` is the step of a stack of one at rate 1.0, which
leaves every dual value as it is.  ``take_rows`` cuts a stack to its
first rows, so a solver batch can retire rows.

``random_points(stream, count)`` stacks the points of ``count``
successive ``random_point(stream, interior=False)`` calls, bit for bit:
the simplex, the spectahedron and their products map one (count, width)
uniform draw row by row, and a non-interior ``random_point`` is its stack
of one.  ``extreme_stack(idx)`` stacks extreme points by index, from
closed forms.  ``probe_chunks`` gives the probe family (center, extreme
points, random points) as stacks of ``PROBE_CHUNK`` probes built so, one
chunk at a time, and ``extreme_points`` and ``probe_points`` are their
unstacked views.

All setups are immutable and safe to share across concurrent runs; every
operation is a pure function.
"""

from __future__ import annotations

import math

import numpy as np

from . import symmat
from .errors import ConfigError, DomainError, InputError
from .rng import box_muller
from .symmat import BlockStack, BlockStructure, BlockSymMatrix

# Probes per stack of ``ProxSetup.probe_chunks``, so per operator call of
# a probe-set build: a chunk of points of an eig instance with 200 matrices
# of blocks 4 x 32 is 1.1 MB, against 12.3 MB for all 357 of its probes.
PROBE_CHUNK = 32

# Uniforms per stacked draw of the random probes: 256 KB, every random
# probe of a small instance's chunk in one draw, or 7 points of the eig
# instance above (4296 uniforms a point), so a draw's temporaries stay
# small next to the instance.
_DRAW_BUDGET = 1 << 15


class Pair:
    """Ordered pair of points (or dual vectors) on a product space."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def __add__(self, other):
        return Pair(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return Pair(self.x - other.x, self.y - other.y)

    def __neg__(self):
        return Pair(-self.x, -self.y)

    def __mul__(self, c):
        return Pair(c * self.x, c * self.y)

    __rmul__ = __mul__

    def __iadd__(self, other):
        self.x += other.x
        self.y += other.y
        return self

    def copy(self):
        return Pair(self.x.copy(), self.y.copy())

    def __iter__(self):
        yield self.x
        yield self.y

    def __repr__(self):
        return f"Pair({self.x!r}, {self.y!r})"


def stack(points):
    """Points (or dual vectors) of one kind stacked along a new leading axis,
    read-only: an (R, ...) array for arrays, a ``BlockStack`` for block
    matrices, a pair of stacks for pairs.

    Every point must have the type, shape and block structure of the first
    and hold numbers, or InputError is raised.
    """
    first = points[0]
    if isinstance(first, Pair):
        if not all(isinstance(z, Pair) for z in points):
            raise InputError("stacked points differ in type")
        return Pair(stack([z.x for z in points]), stack([z.y for z in points]))
    if isinstance(first, BlockSymMatrix):
        if not all(isinstance(z, BlockSymMatrix) and z.structure == first.structure
                   for z in points):
            raise InputError("stacked points differ in block structure")
        out = BlockStack(first.structure, [np.array(g) for g in zip(*[z.stacks for z in points])])
    elif any(isinstance(z, (Pair, BlockSymMatrix)) or np.shape(z) != np.shape(first)
             for z in points):
        raise InputError("stacked points differ in type or shape")
    else:
        try:
            out = np.array(points, dtype=float)
        except (TypeError, ValueError):
            raise InputError("stacked points are not arrays of numbers") from None
    for a in getattr(out, "stacks", [out]):
        a.setflags(write=False)
    return out


def unstack(stacked, decomposed: bool = False) -> list:
    """The rows of a ``stack`` result, as views; with ``decomposed``, block
    matrices carry the decompositions that their stack holds."""
    if isinstance(stacked, np.ndarray):
        return list(stacked)
    if isinstance(stacked, Pair):
        return list(map(Pair, unstack(stacked.x, decomposed), unstack(stacked.y, decomposed)))
    return stacked.rows(decomposed)


def flat_rows(stacked) -> list:
    """The parts of a ``stack`` result as 2-D (R, d) views, one row per
    point: x before y for a pair, one per size group for block matrices."""
    if isinstance(stacked, Pair):
        return flat_rows(stacked.x) + flat_rows(stacked.y)
    if isinstance(stacked, BlockStack):
        return [s.reshape(len(s), -1) for s in stacked.stacks]
    return [stacked.reshape(len(stacked), -1)]


def concat(stacks):
    """The rows of several ``stack`` results of one kind, stacked in order;
    a single stack is returned as it is."""
    first = stacks[0]
    if len(stacks) == 1:
        return first
    if isinstance(first, Pair):
        return Pair(concat([z.x for z in stacks]), concat([z.y for z in stacks]))
    if isinstance(first, BlockStack):
        return BlockStack(first.structure,
                          [np.concatenate(g) for g in zip(*(z.stacks for z in stacks))])
    return np.concatenate(stacks)


def take_rows(stacked, n: int):
    """The first n rows of a ``stack`` result, as views."""
    if isinstance(stacked, Pair):
        return Pair(take_rows(stacked.x, n), take_rows(stacked.y, n))
    if isinstance(stacked, BlockStack):
        return BlockStack(stacked.structure, [a[:n] for a in stacked.stacks])
    return stacked[:n]


def _require_finite(parts) -> None:
    """InputError naming the first row with a non-finite entry in any of the
    (R, ...) arrays."""
    for a in parts:
        if np.count_nonzero(np.isfinite(a)) != a.size:  # cheaper than .all()
            ok = np.logical_and.reduce(
                [np.isfinite(b).reshape(len(b), -1).all(axis=1) for b in parts])
            raise InputError("non-finite dual vector", row=int(np.argmin(ok)))


def inner(a, b) -> float:
    """Inner product on the ambient space: dot / Frobenius / sum over parts."""
    if isinstance(a, Pair):
        return inner(a.x, b.x) + inner(a.y, b.y)
    if isinstance(a, BlockSymMatrix):
        return symmat.frob_inner(a, b)
    return float(np.dot(np.ravel(a), np.ravel(b)))


class ProxSetup:
    """Geometry bundle: norm, conjugate norm, omega, prox-mapping, capacity."""

    alpha: float
    theta: float

    @property
    def omega_radius(self) -> float:
        return math.sqrt(2.0 * self.theta / self.alpha)

    @property
    def center(self):
        raise NotImplementedError

    def norm(self, z) -> float:
        raise NotImplementedError

    def dual_norm(self, xi) -> float:
        """The conjugate norm of xi: ``dual_norms`` of its stack of one."""
        return float(self.dual_norms(stack([xi]))[0])

    def dual_norms(self, xi) -> np.ndarray:
        """(R,) conjugate norms of the rows of a stack, each row's from the
        row alone."""
        raise NotImplementedError

    def omega(self, z) -> float:
        raise NotImplementedError

    def omega_grad(self, z):
        """Continuous subgradient selection of omega on the domain interior:
        the logits, up to a constant on the domain, unless overridden."""
        return self.logits(z)

    def logits(self, z):
        """Coordinates of the point z in which the prox is linear."""
        raise NotImplementedError

    def step(self, s, xi, rates):
        """(logits, points) of prox(z, rates[r] * xi) for each row r of a
        stack, given the stacked s = logits(z), xi and the (R,) rates;
        writes neither s nor xi."""
        return self._step(s, self._times(rates, xi))

    def _times(self, rates, xi):
        """Row r of the stacked xi times rates[r], in fresh arrays: an
        elementwise product that gives each row the bytes of rates[r] times
        the row alone.  This form is for (R, n) vector stacks."""
        return rates[:, None] * xi

    def _step(self, s, t):
        """``step`` given t = ``_times(rates, xi)``, which the step may
        overwrite and hand back."""
        raise NotImplementedError

    def prox_map(self, z, xi):
        s = stack([self.logits(z)])
        # rate 1.0: 1.0 * xi is xi, bit for bit
        return unstack(self.step(s, stack([xi]), np.ones(1))[1], decomposed=True)[0]

    def bregman(self, z, u) -> float:
        """omega(u) - omega(z) - <omega'(z), u - z>."""
        return self.omega(u) - self.omega(z) - inner(self.omega_grad(z), u - z)

    def contains(self, z, tol: float = 1e-9) -> bool:
        raise NotImplementedError

    def in_interior(self, z) -> bool:
        raise NotImplementedError

    def random_point(self, stream, interior: bool = True):
        """Seeded feasible point; interior=True keeps it strictly inside."""
        raise NotImplementedError

    # Uniforms per point of a stacked ``random_points`` draw, for a
    # geometry whose random_point(interior=False) maps a fixed number of
    # uniforms through ``_from_uniforms``; None keeps the per-point loop.
    _draw_width = None

    def random_points(self, stream, count: int):
        """The stack of the points of ``count`` successive
        ``random_point(stream, interior=False)`` calls, bit for bit, leaving
        the stream where they leave it.

        With a ``_draw_width``, one (count, width) uniform draw: Philox gives
        the same doubles for one draw as for the per-point draws in turn.
        """
        if self._draw_width is not None:
            return self._from_uniforms(stream.uniforms((count, self._draw_width)))
        points = [self.random_point(stream, interior=False) for _ in range(count)]
        return stack(points) if points else take_rows(stack([self.center]), 0)

    def _from_uniforms(self, u):
        """The stacked points of the (count, ``_draw_width``) uniforms u,
        row r from row r alone."""
        raise NotImplementedError

    def random_dual(self, stream, scale: float = 1.0):
        raise NotImplementedError

    # size of the small deterministic family of extreme-ish points used
    # for probes, which ``extreme_stack`` indexes
    n_extreme = 0

    def extreme_stack(self, idx):
        """The stack of the extreme points with the indices idx, an integer
        array of values below ``n_extreme``."""
        raise NotImplementedError

    def extreme_points(self):
        """The extreme points in index order, yielded, ``PROBE_CHUNK`` of
        them stacked at a time."""
        for start in range(0, self.n_extreme, PROBE_CHUNK):
            yield from unstack(self.extreme_stack(
                np.arange(start, min(start + PROBE_CHUNK, self.n_extreme))))

    def probe_chunks(self, stream, n_random: int = 100):
        """Default probe set as stacks of ``PROBE_CHUNK`` probes (the last
        one may be shorter), yielded: center, extreme points, seeded random
        points.

        The random points are those of n_random ``random_point(stream,
        interior=False)`` calls, drawn by ``random_points`` at most
        ``_DRAW_BUDGET`` uniforms at a time (one point at a time without a
        ``_draw_width``).  A chunk's pieces are concatenated, so only one
        chunk is held at a time; a generator stopped early leaves the
        stream after its last chunk's draws.
        """
        n_head = 1 + self.n_extreme
        total = n_head + n_random
        width = self._draw_width
        per_draw = 1 if width is None else max(1, _DRAW_BUDGET // width)
        for start in range(0, total, PROBE_CHUNK):
            stop = min(start + PROBE_CHUNK, total)
            pieces = [stack([self.center])] if start == 0 else []
            if max(start, 1) < min(stop, n_head):
                pieces.append(self.extreme_stack(np.arange(max(start, 1), min(stop, n_head)) - 1))
            for a in range(max(start, n_head), stop, per_draw):
                pieces.append(self.random_points(stream, min(per_draw, stop - a)))
            yield concat(pieces)

    def probe_points(self, stream, n_random: int = 100):
        """The probes of ``probe_chunks``, yielded one at a time."""
        for chunk in self.probe_chunks(stream, n_random):
            yield from unstack(chunk)


class EuclideanBallSetup(ProxSetup):
    """Ball of radius R about the origin with omega(z) = z'z / 2."""

    def __init__(self, dim: int, radius: float = 1.0):
        if dim < 1:
            raise ConfigError("dimension must be >= 1")
        if radius <= 0:
            raise ConfigError("radius must be positive")
        self.dim = int(dim)
        self.radius = float(radius)
        self.alpha = 1.0
        self.theta = 0.5 * self.radius**2
        self.n_extreme = 2 * self.dim

    @property
    def center(self):
        return np.zeros(self.dim)

    def norm(self, z):
        return float(np.linalg.norm(z))

    dual_norm = norm

    def dual_norms(self, xi):
        return np.array([self.norm(row) for row in xi])

    def omega(self, z):
        return 0.5 * float(np.dot(z, z))

    def bregman(self, z, u):
        d = np.asarray(u) - np.asarray(z)
        return 0.5 * float(np.dot(d, d))

    def logits(self, z):
        return np.asarray(z, dtype=float)

    def _step(self, s, t):
        _require_finite([t])
        v = np.subtract(s, t, out=t)
        for r, row in enumerate(v):
            n = float(np.linalg.norm(row))
            if n > self.radius:
                v[r] = row * (self.radius / n)
        return v, v

    def contains(self, z, tol=1e-9):
        return float(np.linalg.norm(z)) <= self.radius + tol

    # omega is differentiable everywhere, so the interior is the whole ball
    in_interior = contains

    def random_point(self, stream, interior=True):
        g = stream.normals(self.dim)
        n = float(np.linalg.norm(g))
        if n == 0.0:
            return np.zeros(self.dim)
        r = self.radius * stream.uniform() ** (1.0 / self.dim)
        if interior:
            r *= 0.999
        return (r / n) * g

    def random_dual(self, stream, scale=1.0):
        return scale * stream.normals(self.dim)

    def extreme_stack(self, idx):
        # +-R e_j, the sign alternating: the negated e_j holds -0.0 off j
        out = np.zeros((len(idx), self.dim))
        out[np.arange(len(idx)), idx // 2] = self.radius
        odd = idx % 2 == 1
        out[odd] = -out[odd]
        return out


class SimplexSetup(ProxSetup):
    """Full probability simplex with the entropy distance generator.

    Norm is l1, the conjugate is sup-norm; the prox has the exponential
    closed form.  Steps keep the logits normalized, logsumexp(s) = 0; a
    coordinate below exp(-745) of the largest is 0 in the point only.
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise ConfigError("simplex needs dimension >= 2")
        self.dim = int(dim)
        self.alpha = 1.0
        self.theta = math.log(self.dim)
        self._draw_width = self.dim
        self.n_extreme = self.dim

    @property
    def center(self):
        return np.full(self.dim, 1.0 / self.dim)

    def norm(self, z):
        return float(np.abs(z).sum())

    def dual_norms(self, xi):
        return np.maximum.reduce(np.abs(xi), axis=1)

    def omega(self, z):
        z = np.asarray(z, dtype=float)
        pos = z[z > 0]
        return float(np.sum(pos * np.log(pos)))

    def omega_grad(self, z):
        return 1.0 + self.logits(z)

    def bregman(self, z, u):
        u = np.asarray(u, dtype=float)
        mask = u > 0
        return float(np.sum(u[mask] * (np.log(u[mask]) - self.logits(z)[mask])))

    def logits(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise InputError(f"expected point of dimension {self.dim}")
        if not (z > 0.0).all():  # also rejects NaN coordinates
            raise DomainError("simplex point has a coordinate that is not positive")
        return np.log(z)

    def _step(self, s, t):
        s = np.subtract(s, t, out=t)
        _require_finite([s])
        s -= np.maximum.reduce(s, axis=1, keepdims=True)
        w = np.exp(s)
        total = np.add.reduce(w, axis=1, keepdims=True)
        # math.log per row: numpy's vector log rounds some values differently
        s -= np.array([math.log(v) for (v,) in total.tolist()])[:, None]
        return s, np.divide(w, total, out=w)

    def contains(self, z, tol=1e-9):
        z = np.asarray(z, dtype=float)
        return bool(np.all(z >= -tol) and abs(float(z.sum()) - 1.0) <= tol)

    def in_interior(self, z):
        z = np.asarray(z, dtype=float)
        return bool(np.all(z > 0.0) and abs(float(z.sum()) - 1.0) <= 1e-9)

    def random_point(self, stream, interior=True):
        if not interior:
            return self.random_points(stream, 1)[0]
        # exponential spacings give a flat Dirichlet draw
        g = np.maximum(-np.log1p(-stream.uniforms(self.dim)), 1e-12)
        return g / g.sum()

    def _from_uniforms(self, u):
        g = -np.log1p(-u)
        # a row's sum adds as the sum of the row alone
        return np.divide(g, np.add.reduce(g, axis=1, keepdims=True), out=g)

    def random_dual(self, stream, scale=1.0):
        return scale * stream.normals(self.dim)

    def extreme_stack(self, idx):
        return np.eye(self.dim)[idx]


class SpectahedronSetup(ProxSetup):
    """Unit-trace PSD block matrices with the matrix-entropy generator.

    Norm is the trace norm, the conjugate is the spectral norm.  The prox
    is linear in the matrix logarithm: prox(z, xi) = H(log z - xi) with
    H(b) = exp(b) / Tr exp(b), computed blockwise through eigendecomposition
    with a global max-eigenvalue shift.  Steps take the new logits from the
    same decomposition, log H(b) = b - log Tr exp(b) I.  A step makes one
    ``eigh`` call per size group for all rows and hands the decompositions
    to ``symmat.entropy_rows``, the kernel of ``symmat.entropy_map``.
    """

    def __init__(self, structure: BlockStructure):
        if not isinstance(structure, BlockStructure):
            structure = BlockStructure(structure)
        if structure.total_dim < 2:
            raise ConfigError("spectahedron needs total dimension >= 2")
        self.structure = structure
        self.alpha = 1.0
        self.theta = math.log(structure.total_dim)
        self.n_extreme = 2 * structure.total_dim
        # the columns of each block's uniforms in a point's draw, per group
        widths = [2 * ((p * p + 1) // 2) for p in structure.block_sizes]
        starts = np.cumsum([0, *widths])
        self._draw_width = int(starts[-1])
        self._draw_cols = tuple(starts[list(idx), None] + np.arange(2 * ((p * p + 1) // 2))
                                for p, idx in structure.groups)

    @property
    def center(self):
        return BlockSymMatrix.identity(self.structure, 1.0 / self.structure.total_dim)

    def norm(self, z):
        return symmat.trace_norm(z)

    def dual_norms(self, xi):
        # one eigvalsh per size group: the per-matrix LAPACK calls of the rows
        out = None
        for a in xi.stacks:
            top = np.maximum.reduce(np.abs(np.linalg.eigvalsh(a)).reshape(len(a), -1), axis=1)
            out = top if out is None else np.maximum(out, top)
        return out

    def omega(self, z):
        lam = symmat.eigenvalues(z)
        pos = lam[lam > 0]
        return float(np.sum(pos * np.log(pos)))

    def logits(self, z):
        if not isinstance(z, BlockSymMatrix) or z.structure != self.structure:
            raise InputError("point does not match the block structure")
        if min(vals.min() for vals in symmat.cached_eigh(z).vals) <= 0.0:
            raise DomainError("matrix has a nonpositive eigenvalue")
        return symmat.matrix_log(z)

    def _times(self, rates, xi):
        structure = self.structure
        if not isinstance(xi, BlockStack) or (xi.structure is not structure
                                              and xi.structure != structure):
            raise InputError("block structure mismatch")
        c = rates[:, None, None, None]  # the stacks are (R, k, p, p)
        return BlockStack(structure, [c * a for a in xi.stacks])

    def _step(self, s, t):
        structure = self.structure
        b = t.stacks
        for a, c in zip(s.stacks, b):
            np.subtract(a, c, out=c)
        _require_finite(b)
        vals, vecs = zip(*map(symmat.descending_eigh, b))
        points, lams, log_trace = symmat.entropy_rows(structure, vals, vecs)
        for a, (p, _) in zip(b, structure.groups):
            a.reshape(len(a), -1, p * p)[:, :, ::p + 1] -= log_trace  # the diagonals
        return t, BlockStack(structure, points, (lams, vecs))

    def contains(self, z, tol=1e-9):
        if not isinstance(z, BlockSymMatrix) or z.structure != self.structure:
            return False
        return symmat.lambda_min(z) >= -tol and abs(z.trace() - 1.0) <= tol

    def in_interior(self, z):
        if not isinstance(z, BlockSymMatrix) or z.structure != self.structure:
            return False
        return symmat.lambda_min(z) > 0.0 and abs(z.trace() - 1.0) <= 1e-9

    def random_point(self, stream, interior=True):
        if interior:
            b = BlockSymMatrix(
                self.structure,
                [stream.symmetric(p) for p in self.structure.block_sizes],
                _validate=False,
            )
            return symmat.entropy_map(b)
        return self.random_points(stream, 1).rows()[0]

    def _from_uniforms(self, u):
        # a point's uniforms hold, per block in block order, the Box-Muller
        # pairs of a p x p normal matrix (the m first members, then the m
        # second ones): the uniforms of one stream.normals((p, p)) call per
        # block.  One gather, one transform and one g g^T per size group.
        structure = self.structure
        stacks = []
        for (p, idx), cols in zip(structure.groups, self._draw_cols):
            m = (p * p + 1) // 2
            # (count, k, 2m) in C order: a fancy index u[:, cols] would lay the
            # rows innermost, and g g^T of such strides rounds differently
            rows = np.take(u, cols, axis=1)
            g = box_muller(rows[..., :m], rows[..., m:], p * p).reshape(len(u), len(idx), p, p)
            stacks.append(g @ g.swapaxes(2, 3))
        # each row's trace adds its block traces in block order, as
        # BlockSymMatrix.trace adds them
        traces = structure.in_block_order([s.trace(axis1=2, axis2=3) for s in stacks])
        scale = np.array([1.0 / sum(row) for row in traces.tolist()])[:, None, None, None]
        return BlockStack(structure, [scale * s for s in stacks])

    def random_dual(self, stream, scale=1.0):
        return BlockSymMatrix(
            self.structure,
            [stream.symmetric(p, scale) for p in self.structure.block_sizes],
            _validate=False,
        )

    def extreme_stack(self, idx):
        """Entropy-map images of +-6 e_d e_d^T: index 2 i is the one of +6 at
        diagonal position i of the whole matrix, index 2 i + 1 that of -6.

        The image of a diagonal matrix is the diagonal exp(diag - shift) /
        total, so no decomposition is computed.  The total adds as
        ``symmat.entropy_map`` adds it (each block's values in descending
        order, the per-block sums in block order), so the points equal its
        results bit for bit; it depends on the block and the sign alone.
        """
        structure = self.structure
        sizes = structure.block_sizes
        pos = idx // 2
        block = np.repeat(np.arange(len(sizes)), sizes)[pos]
        offset = pos - np.cumsum([0, *sizes])[block]
        group, row = np.array(structure.slots).T[:, block]
        sign = np.where(idx % 2 == 0, 6.0, -6.0)
        shift = np.maximum(sign, 0.0)[:, None, None]
        total = self._extreme_totals()[idx % 2, block][:, None, None]
        stacks = []
        for g, (q, ids) in enumerate(structure.groups):
            mine = np.flatnonzero(group == g)
            v = np.zeros((len(idx), len(ids), q))
            v[mine, row[mine], offset[mine]] = sign[mine]
            s = np.zeros((len(idx), len(ids), q, q))
            s[:, :, range(q), range(q)] = np.exp(v - shift) / total
            stacks.append(s)
        return BlockStack(structure, stacks)

    def _extreme_totals(self):
        """(2, m) normalizers of the extreme points: [0, b] for +6 in block
        b, [1, b] for -6."""
        sizes = self.structure.block_sizes
        out = np.empty((2, len(sizes)))
        for k, sign in enumerate((6.0, -6.0)):
            # per block size, the sum of a block without and with the signed
            # entry; the values of every other block are all exp(-shift)
            v = {q: np.zeros((2, q)) for q, _ in self.structure.groups}
            sums = {}
            for q, a in v.items():
                a[1, 0] = sign
                sums[q] = np.exp(np.sort(a, axis=1)[:, ::-1] - max(sign, 0.0)).sum(axis=1).tolist()
            plain = [sums[p][0] for p in sizes]
            for b, p in enumerate(sizes):
                out[k, b] = sum([*plain[:b], sums[p][1], *plain[b + 1:]])
        return out


class ProductSetup(ProxSetup):
    """Capacity-normalized product of two setups.

    The norm is sqrt(||x||_x^2 / R_x^2 + ||y||_y^2 / R_y^2) with R the
    constituent radii, omega is the matching weighted sum, and the prox
    splits into the two constituent proxes with rescaled dual arguments.
    Whatever the parts, alpha = 1, Theta = 1 and the radius is sqrt(2).
    """

    def __init__(self, sx: ProxSetup, sy: ProxSetup):
        self.sx = sx
        self.sy = sy
        self.scale_x = sx.alpha * sx.omega_radius**2  # = 2 Theta_x
        self.scale_y = sy.alpha * sy.omega_radius**2
        self.alpha = 1.0
        self.theta = 1.0
        if sx._draw_width is not None and sy._draw_width is not None:
            self._draw_width = sx._draw_width + sy._draw_width
        if sx.n_extreme and sy.n_extreme:
            self.n_extreme = max(sx.n_extreme, sy.n_extreme)

    @property
    def center(self):
        return Pair(self.sx.center, self.sy.center)

    def norm(self, z):
        return math.sqrt(
            self.sx.norm(z.x) ** 2 / self.sx.omega_radius**2
            + self.sy.norm(z.y) ** 2 / self.sy.omega_radius**2
        )

    def dual_norms(self, xi):
        wx, wy = self.sx.omega_radius**2, self.sy.omega_radius**2
        return np.array([
            math.sqrt(wx * a**2 + wy * b**2)
            for a, b in zip(self.sx.dual_norms(xi.x).tolist(), self.sy.dual_norms(xi.y).tolist())
        ])

    def omega(self, z):
        return self.sx.omega(z.x) / self.scale_x + self.sy.omega(z.y) / self.scale_y

    def omega_grad(self, z):
        return Pair(
            (1.0 / self.scale_x) * self.sx.omega_grad(z.x),
            (1.0 / self.scale_y) * self.sy.omega_grad(z.y),
        )

    def bregman(self, z, u):
        return (
            self.sx.bregman(z.x, u.x) / self.scale_x
            + self.sy.bregman(z.y, u.y) / self.scale_y
        )

    def logits(self, z):
        return Pair(self.sx.logits(z.x), self.sy.logits(z.y))

    def _times(self, rates, xi):
        return Pair(self.sx._times(rates, xi.x), self.sy._times(rates, xi.y))

    def _step(self, s, t):
        # scale_x * (rate * xi), two products: one by rate * scale_x would
        # round differently
        tx, ty = t.x, t.y
        tx *= self.scale_x
        ty *= self.scale_y
        sx, x = self.sx._step(s.x, tx)
        sy, y = self.sy._step(s.y, ty)
        return Pair(sx, sy), Pair(x, y)

    def contains(self, z, tol=1e-9):
        return self.sx.contains(z.x, tol) and self.sy.contains(z.y, tol)

    def in_interior(self, z):
        return self.sx.in_interior(z.x) and self.sy.in_interior(z.y)

    def random_point(self, stream, interior=True):
        return Pair(
            self.sx.random_point(stream, interior),
            self.sy.random_point(stream, interior),
        )

    def _from_uniforms(self, u):
        # a point draws x, then y
        wx = self.sx._draw_width
        return Pair(self.sx._from_uniforms(u[:, :wx]), self.sy._from_uniforms(u[:, wx:]))

    def random_dual(self, stream, scale=1.0):
        return Pair(self.sx.random_dual(stream, scale), self.sy.random_dual(stream, scale))

    def extreme_stack(self, idx):
        """Pairs of extreme points i % n_x of x and i % n_y of y: a side
        that runs out before the other starts again.  There are none when
        either side has none."""
        return Pair(self.sx.extreme_stack(idx % self.sx.n_extreme),
                    self.sy.extreme_stack(idx % self.sy.n_extreme))
