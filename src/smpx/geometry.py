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

All setups are immutable and safe to share across concurrent runs; every
operation is a pure function.
"""

from __future__ import annotations

import math

import numpy as np

from . import symmat
from .errors import ConfigError, DomainError, InputError
from .symmat import BlockStructure, BlockSymMatrix

_LOG_FLOOR = 1e-300


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

    def __iter__(self):
        yield self.x
        yield self.y

    def __repr__(self):
        return f"Pair({self.x!r}, {self.y!r})"


def inner(a, b) -> float:
    """Inner product on the ambient space: dot / Frobenius / sum over parts."""
    if isinstance(a, Pair):
        return inner(a.x, b.x) + inner(a.y, b.y)
    if isinstance(a, BlockSymMatrix):
        return symmat.frob_inner(a, b)
    return float(np.dot(np.ravel(a), np.ravel(b)))


def is_finite(a) -> bool:
    if isinstance(a, Pair):
        return is_finite(a.x) and is_finite(a.y)
    if isinstance(a, BlockSymMatrix):
        return a.is_finite()
    return bool(np.all(np.isfinite(a)))


def copy_point(a):
    if isinstance(a, Pair):
        return Pair(copy_point(a.x), copy_point(a.y))
    if isinstance(a, BlockSymMatrix):
        return a  # read-only storage, safe to share
    return np.array(a, dtype=float, copy=True)


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
        raise NotImplementedError

    def omega(self, z) -> float:
        raise NotImplementedError

    def omega_grad(self, z):
        """Continuous subgradient selection of omega on the domain interior."""
        raise NotImplementedError

    def prox_map(self, z, xi):
        raise NotImplementedError

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

    def random_dual(self, stream, scale: float = 1.0):
        raise NotImplementedError

    def extreme_points(self):
        """Small deterministic family of extreme-ish points, used for probes."""
        return []

    def probe_points(self, stream, n_random: int = 100):
        """Default probe set, yielded: center, extreme points, seeded random points."""
        yield self.center
        yield from self.extreme_points()
        for _ in range(n_random):
            yield self.random_point(stream, interior=False)


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

    @property
    def center(self):
        return np.zeros(self.dim)

    def norm(self, z):
        return float(np.linalg.norm(z))

    dual_norm = norm

    def omega(self, z):
        return 0.5 * float(np.dot(z, z))

    def omega_grad(self, z):
        return np.asarray(z, dtype=float)

    def bregman(self, z, u):
        d = np.asarray(u) - np.asarray(z)
        return 0.5 * float(np.dot(d, d))

    def prox_map(self, z, xi):
        xi = np.asarray(xi, dtype=float)
        if not np.isfinite(xi).all():
            raise InputError("non-finite dual vector")
        v = np.asarray(z, dtype=float) - xi
        n = float(np.linalg.norm(v))
        if n > self.radius:
            v = v * (self.radius / n)
        return v

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

    def extreme_points(self):
        out = []
        for j in range(self.dim):
            e = np.zeros(self.dim)
            e[j] = self.radius
            out.append(e.copy())
            out.append(-e)
        return out


class SimplexSetup(ProxSetup):
    """Full probability simplex with the entropy distance generator.

    Norm is l1, the conjugate is sup-norm; the prox has the exponential
    closed form, evaluated with a max-shift so dual vectors with entries up
    to ~700 stay finite.
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise ConfigError("simplex needs dimension >= 2")
        self.dim = int(dim)
        self.alpha = 1.0
        self.theta = math.log(self.dim)

    @property
    def center(self):
        return np.full(self.dim, 1.0 / self.dim)

    def norm(self, z):
        return float(np.abs(z).sum())

    def dual_norm(self, xi):
        return float(np.abs(xi).max())

    def omega(self, z):
        z = np.asarray(z, dtype=float)
        pos = z[z > 0]
        return float(np.sum(pos * np.log(pos)))

    def _require_interior(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise InputError(f"expected point of dimension {self.dim}")
        if not (z > 0.0).all():  # also rejects NaN coordinates
            raise DomainError("simplex point has a coordinate that is not positive")
        return z

    def omega_grad(self, z):
        z = self._require_interior(z)
        return 1.0 + np.log(np.maximum(z, _LOG_FLOOR))

    def bregman(self, z, u):
        z = self._require_interior(z)
        u = np.asarray(u, dtype=float)
        mask = u > 0
        return float(np.sum(u[mask] * (np.log(u[mask]) - np.log(z[mask]))))

    def prox_map(self, z, xi):
        xi = np.asarray(xi, dtype=float)
        if not np.isfinite(xi).all():
            raise InputError("non-finite dual vector")
        z = self._require_interior(z)
        s = np.log(np.maximum(z, _LOG_FLOOR)) - xi
        s -= s.max()
        w = np.exp(s)
        return w / w.sum()

    def contains(self, z, tol=1e-9):
        z = np.asarray(z, dtype=float)
        return bool(np.all(z >= -tol) and abs(float(z.sum()) - 1.0) <= tol)

    def in_interior(self, z):
        z = np.asarray(z, dtype=float)
        return bool(np.all(z > 0.0) and abs(float(z.sum()) - 1.0) <= 1e-9)

    def random_point(self, stream, interior=True):
        # exponential spacings give a flat Dirichlet draw
        g = -np.log1p(-stream.uniforms(self.dim))
        g = np.maximum(g, 1e-12) if interior else g
        return g / g.sum()

    def random_dual(self, stream, scale=1.0):
        return scale * stream.normals(self.dim)

    def extreme_points(self):
        return [row.copy() for row in np.eye(self.dim)]


class SpectahedronSetup(ProxSetup):
    """Unit-trace PSD block matrices with the matrix-entropy generator.

    Norm is the trace norm, the conjugate is the spectral norm.  The prox
    is linear in the matrix logarithm: prox(z, xi) = H(log z - xi) with
    H(b) = exp(b) / Tr exp(b), computed blockwise through eigendecomposition
    with a global max-eigenvalue shift.
    """

    def __init__(self, structure: BlockStructure):
        if not isinstance(structure, BlockStructure):
            structure = BlockStructure(structure)
        if structure.total_dim < 2:
            raise ConfigError("spectahedron needs total dimension >= 2")
        self.structure = structure
        self.alpha = 1.0
        self.theta = math.log(structure.total_dim)

    @property
    def center(self):
        return BlockSymMatrix.identity(self.structure, 1.0 / self.structure.total_dim)

    def norm(self, z):
        return symmat.trace_norm(z)

    def dual_norm(self, xi):
        return symmat.spectral_norm(xi)

    def omega(self, z):
        lam = symmat.eigenvalues(z)
        pos = lam[lam > 0]
        return float(np.sum(pos * np.log(pos)))

    def _interior_log(self, z):
        """log z of an interior point.

        The log and the interior check that guards it are memoized on the
        immutable point, so the two prox steps that SMP takes from one
        iterate compute them once.
        """
        if not isinstance(z, BlockSymMatrix) or z.structure != self.structure:
            raise InputError("point does not match the block structure")
        if z._log is None:
            if min(vals.min() for vals in symmat.cached_eigh(z).vals) <= 0.0:
                raise DomainError("matrix has a nonpositive eigenvalue")
            z._log = symmat.matrix_log(z)
        return z._log

    def omega_grad(self, z):
        return self._interior_log(z)

    def prox_map(self, z, xi):
        if not isinstance(xi, BlockSymMatrix) or xi.structure != self.structure:
            raise InputError("dual vector does not match the block structure")
        if not xi.is_finite():
            raise InputError("non-finite dual vector")
        return symmat.entropy_map(self._interior_log(z) - xi)

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
        blocks = []
        for p in self.structure.block_sizes:
            g = stream.normals((p, p))
            blocks.append(g @ g.T)
        w = BlockSymMatrix(self.structure, blocks, _validate=False)
        return w * (1.0 / w.trace())

    def random_dual(self, stream, scale=1.0):
        return BlockSymMatrix(
            self.structure,
            [stream.symmetric(p, scale) for p in self.structure.block_sizes],
            _validate=False,
        )

    def extreme_points(self):
        # entropy-map images of +-tau along each diagonal unit direction
        tau = 6.0
        structure = self.structure
        out = []
        for (g, r), p in zip(structure.slots, structure.block_sizes):
            for d in range(p):
                for sign in (tau, -tau):
                    stacks = [np.zeros((len(idx), q, q)) for q, idx in structure.groups]
                    stacks[g][r, d, d] = sign
                    out.append(symmat.entropy_map(BlockSymMatrix.from_stacks(structure, stacks)))
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

    @property
    def center(self):
        return Pair(self.sx.center, self.sy.center)

    def norm(self, z):
        return math.sqrt(
            self.sx.norm(z.x) ** 2 / self.sx.omega_radius**2
            + self.sy.norm(z.y) ** 2 / self.sy.omega_radius**2
        )

    def dual_norm(self, xi):
        return math.sqrt(
            self.sx.omega_radius**2 * self.sx.dual_norm(xi.x) ** 2
            + self.sy.omega_radius**2 * self.sy.dual_norm(xi.y) ** 2
        )

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

    def prox_map(self, z, xi):
        return Pair(
            self.sx.prox_map(z.x, self.scale_x * xi.x),
            self.sy.prox_map(z.y, self.scale_y * xi.y),
        )

    def contains(self, z, tol=1e-9):
        return self.sx.contains(z.x, tol) and self.sy.contains(z.y, tol)

    def in_interior(self, z):
        return self.sx.in_interior(z.x) and self.sy.in_interior(z.y)

    def random_point(self, stream, interior=True):
        return Pair(
            self.sx.random_point(stream, interior),
            self.sy.random_point(stream, interior),
        )

    def random_dual(self, stream, scale=1.0):
        return Pair(self.sx.random_dual(stream, scale), self.sy.random_dual(stream, scale))

    def extreme_points(self):
        ex, ey = self.sx.extreme_points(), self.sy.extreme_points()
        if not ex or not ey:
            return []
        k = max(len(ex), len(ey))
        return [Pair(ex[i % len(ex)], ey[i % len(ey)]) for i in range(k)]

