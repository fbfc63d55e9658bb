"""Eigenvalue minimization over the simplex via a randomized bilinear oracle.

The problem is min over the simplex of lambda_max(A_0 + x_1 A_1 + ... +
x_n A_n) with block-diagonal symmetric data.  Its saddle reformulation on
simplex x spectahedron has the bilinear operator

    F(x, y) = [ (Tr(y A_1), ..., Tr(y A_n)) ; -(A_0 + sum_j x_j A_j) ]

which the single-sample oracle estimates by drawing one index from x and
one block index from the block traces of y: the y-part uses the sampled
matrix -(A_0 + A_j), the x-part the traces against the normalized sampled
block.  Averaging k independent samples cuts the noise level by sqrt(k).
The sampler draws at every row of a stack of points at once, each row's
uniforms from its own stream, and ``sample_xi`` is its stack of one.

The exact operator works on a stack of points too, with one matrix-vector
product per row and block, so a row gets the bytes it gets in a stack of
one.  The probe set evaluates it a chunk of stacked points at a time
through ``probe_operator``, with one matrix product per block-size group
and operator part across the rows, which rounds differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import symmat
from .errors import ConfigError, InputError, NumericalError
from .geometry import Pair, ProductSetup, SimplexSetup, SpectahedronSetup, stack, unstack
from .rng import inverse_cdf_index, uniform_rows
from .symmat import BlockStack, BlockStructure, BlockSymMatrix
from .vi import SaddleInstance, VIProblem, draw

_TRACE_SLACK = 1e-12


@dataclass(frozen=True)
class EigInstance:
    """Data matrices A_0..A_n on a common block structure.

    a_inf is the largest spectral norm among A_1..A_n (A_0 excluded).
    A_1..A_n are held once, as one read-only (n, k, p, p) stack per
    block-size group (a 1 x 1 group also as a (k, n, 1) copy); ``mats[j]``
    are views into it, and operator and oracle calls index the stack with
    one vectorized pass per group.
    """

    structure: BlockStructure
    a0: BlockSymMatrix
    mats: tuple  # A_1..A_n as BlockSymMatrix views of _stacks
    a_inf: float = field(init=False)
    _stacks: tuple = field(init=False, repr=False)  # per group: (n, k, p, p)
    _flats: tuple = field(init=False, repr=False)  # per group: (k, n, p * p)

    def __post_init__(self):
        if len(self.mats) < 2:
            raise ConfigError("need n >= 2 data matrices")
        for m in self.mats:
            if m.structure != self.structure:
                raise InputError("matrix does not match the instance structure")
        if self.a0.structure != self.structure:
            raise InputError("offset matrix does not match the instance structure")
        n = len(self.mats)
        stacks = tuple(
            np.stack([m.stacks[g] for m in self.mats])
            for g in range(len(self.structure.groups))
        )
        for s in stacks:
            s.setflags(write=False)
        object.__setattr__(self, "_stacks", stacks)
        object.__setattr__(self, "mats", tuple(
            BlockSymMatrix.from_stacks(self.structure, [s[j] for s in stacks])
            for j in range(n)
        ))
        flats = [s.reshape(n, s.shape[1], -1).transpose(1, 0, 2) for s in stacks]
        # x @ flat[r] of a 1 x 1 group is a dot product, which rounds one way
        # on a unit-stride column and another on a strided one; a copy (n k
        # numbers) gives each block the unit-stride column it has alone
        flats = [f.copy() if f.shape[2] == 1 else f for f in flats]
        for f in flats:
            f.setflags(write=False)
        object.__setattr__(self, "_flats", tuple(flats))
        object.__setattr__(self, "a_inf", max(
            float(np.abs(np.linalg.eigvalsh(s)).max()) for s in stacks
        ))

    @property
    def n(self) -> int:
        return len(self.mats)

    @property
    def p_total(self) -> int:
        return self.structure.total_dim

    def combination(self, x: np.ndarray) -> BlockSymMatrix:
        """A_0 + sum_j x_j A_j."""
        x = np.asarray(x, dtype=float)
        return BlockSymMatrix.from_stacks(self.structure, [
            a0 + (x @ flat).reshape(a0.shape) for a0, flat in zip(self.a0.stacks, self._flats)
        ])

    def trace_vector(self, y: BlockSymMatrix) -> np.ndarray:
        """(Tr(y A_1), ..., Tr(y A_n)), the per-block products added in block order."""
        per_group = [
            flat @ ys.reshape(len(ys), -1, 1) for flat, ys in zip(self._flats, y.stacks)
        ]
        out = np.zeros(self.n)
        for g, r in self.structure.slots:
            out += per_group[g][r, :, 0]
        return out


class RegularityConstants(NamedTuple):
    """Operator and oracle constants for the randomized-oracle setup.

    lip is the literal bound 2 ln(n) + 4 ln(p); the effective constant used
    for stepsizes carries the extra a_inf factor (see ``effective_lipschitz``).
    norm_weights are the denominators (2 ln n, 4 ln p) of the weighted
    product norm under which the constants were derived.
    """

    lip: float
    noise: float
    norm_weights: tuple


def regularity_constants(inst: EigInstance, k: int) -> RegularityConstants:
    """Constants for the k-averaged oracle; requires n >= 3 and p >= 3."""
    if k < 1:
        raise ConfigError("averaging width k must be >= 1")
    n, p1 = inst.n, inst.p_total
    if n < 3 or p1 < 3:
        raise ConfigError("constants need n >= 3 and total block dimension >= 3")
    lip = 2.0 * math.log(n) + 4.0 * math.log(p1)
    # the k-averaged oracle's noise level 27 (ln n + ln p) a_inf / sqrt(k)
    noise = 27.0 * (math.log(n) + math.log(p1)) * inst.a_inf / math.sqrt(k)
    return RegularityConstants(lip, noise, (2.0 * math.log(n), 4.0 * math.log(p1)))


def effective_lipschitz(inst: EigInstance) -> float:
    """(2 ln n + 4 ln p) * a_inf: the literal constant scaled by the data size."""
    n, p1 = inst.n, inst.p_total
    return (2.0 * math.log(n) + 4.0 * math.log(p1)) * inst.a_inf


def sample_deviation_bound(inst: EigInstance) -> float:
    """Almost-sure bound on ||Xi - F||_* for the single-sample oracle.

    Both oracle parts deviate by at most 2 a_inf in their sup norms, so in
    the product dual norm the deviation is at most
    2 a_inf sqrt(2 ln n + 2 ln p).  Bounded deviations make the oracle
    subgaussian at this level, and the bound also caps the second moment.
    """
    n, p1 = inst.n, inst.p_total
    return 2.0 * inst.a_inf * math.sqrt(2.0 * math.log(n) + 2.0 * math.log(p1))


def operator_sup_bound(inst: EigInstance) -> float:
    """Upper bound on sup_z ||F(z)||_* over the product domain."""
    n, p1 = inst.n, inst.p_total
    a0_inf = symmat.spectral_norm(inst.a0)
    return math.sqrt(
        2.0 * math.log(n) * inst.a_inf**2
        + 2.0 * math.log(p1) * (a0_inf + inst.a_inf) ** 2
    )


def build_setup(inst: EigInstance) -> ProductSetup:
    """Simplex-times-spectahedron product geometry for the instance."""
    return ProductSetup(SimplexSetup(inst.n), SpectahedronSetup(inst.structure))


def _check_stack(inst: EigInstance, zs: Pair) -> None:
    if zs.x.ndim != 2 or zs.x.shape[1] != inst.n:
        raise InputError("x-dimension mismatch")
    if not isinstance(zs.y, BlockStack) or zs.y.structure != inst.structure:
        raise InputError("y block structure mismatch")


def exact_operator(inst: EigInstance, zs: Pair) -> Pair:
    """The bilinear saddle operator at the rows of a stack of points;
    Lipschitz with M = 0.

    zs.x is (R, n) and zs.y a ``BlockStack``.  Per row and block, F_x takes
    one (n, p^2) x (p^2) product, added in block order as in
    ``trace_vector``, and F_y = -(A_0 + sum_j x_j A_j) one (n) x (n, p^2)
    product, so a row gets the bytes it gets in a stack of one.
    """
    _check_stack(inst, zs)
    xs, ys = zs.x, zs.y
    n_rows = len(xs)
    per_group = [
        flat @ s.reshape(n_rows, len(flat), -1, 1) for flat, s in zip(inst._flats, ys.stacks)
    ]
    fx = np.zeros((n_rows, inst.n))
    for g, r in inst.structure.slots:
        fx += per_group[g][:, r, :, 0]
    fy = []
    for a0, flat in zip(inst.a0.stacks, inst._flats):
        v = (xs[:, None, None, :] @ flat).reshape(n_rows, *a0.shape)
        v += a0
        fy.append(np.negative(v, out=v))
    return Pair(fx, BlockStack(inst.structure, fy))


def probe_operator(inst: EigInstance, points: Pair) -> Pair:
    """``exact_operator`` at a chunk of P stacked points, as read-only stacks.

    Per block-size group, F_x is one (k, n, p^2) x (k, p^2, P) product whose
    per-block results add in block order, and F_y = -(A_0 + sum_j x_j A_j)
    is one (P, n) x (n, k p^2) product, so the data is read once per chunk,
    not once per point.  The products sum in another order than the
    per-row ones, so the values agree with ``exact_operator`` to round-off,
    not bit for bit.
    """
    _check_stack(inst, points)
    xs, ys = points.x, points.y
    n_points = len(xs)
    per_group = [
        flat @ s.reshape(n_points, len(flat), -1).transpose(1, 2, 0)
        for flat, s in zip(inst._flats, ys.stacks)
    ]
    fx = np.zeros((inst.n, n_points))
    for g, r in inst.structure.slots:
        fx += per_group[g][r]
    fx = fx.T.copy()
    fy = []
    for a0, s in zip(inst.a0.stacks, inst._stacks):
        v = (xs @ s.reshape(inst.n, -1)).reshape(n_points, *a0.shape)
        v += a0
        fy.append(np.negative(v, out=v))
    for a in (fx, *fy):
        a.setflags(write=False)
    return Pair(fx, BlockStack(inst.structure, tuple(fy)))


def _block_probabilities(ys: BlockStack) -> np.ndarray:
    """(R, m) block-sampling probabilities of each row's block traces."""
    nu = ys.structure.in_block_order([s.trace(axis1=2, axis2=3) for s in ys.stacks])
    if nu.min() < -_TRACE_SLACK:
        raise NumericalError("block trace drifted negative beyond tolerance",
                             row=int(np.argmax((nu < -_TRACE_SLACK).any(axis=1))))
    nu = np.maximum(nu, 0.0)
    total = nu.sum(axis=1, keepdims=True)
    if total.min() <= 0.0:
        raise NumericalError("block traces sum to zero", row=int(np.argmax(total[:, 0] <= 0.0)))
    return nu / total


def _xi_from_indices(inst: EigInstance, ys: BlockStack, js, blocks) -> Pair:
    """Oracle values at the rows of ys for sampled matrix indices js and
    block indices ``blocks``, one of each per row.

    The x-part of the rows that sampled block i is one (n, p^2) x
    (rows, p^2, 1) product: a matrix-vector product per row, with no copy
    of the data.
    """
    structure = inst.structure
    rows_of = {}
    for row, i in enumerate(blocks.tolist()):
        rows_of.setdefault(i, []).append(row)
    # with one block sampled, its product is the whole x-part
    fx = None if len(rows_of) == 1 else np.empty((len(js), inst.n))
    for i, rows in rows_of.items():
        g, r = structure.slots[i]
        yb = ys.stacks[g][rows, r]
        ybar = yb / np.maximum(yb.trace(axis1=1, axis2=2), 1e-300)[:, None, None]
        part = (inst._flats[g][r] @ ybar.reshape(len(rows), -1, 1))[:, :, 0]
        if fx is None:
            fx = part
        else:
            fx[rows] = part
    fy = []
    for a0, s in zip(inst.a0.stacks, inst._stacks):
        v = s[js]
        v += a0
        fy.append(np.negative(v, out=v))
    return Pair(fx, BlockStack(structure, fy))


def _sample(inst: EigInstance, zs: Pair, u: np.ndarray) -> Pair:
    """One oracle draw per row, with the (R, 2) uniforms u.

    The matrix index follows the x-coordinates read as a probability vector
    (from u[:, 0]), the block index the block traces of y, clamped at zero
    and renormalized against round-off (from u[:, 1]).  Cost is one pass
    over the data restricted to the sampled blocks plus one copy of the
    sampled matrices.
    """
    js = inverse_cdf_index(np.cumsum(zs.x, axis=1), u[:, 0])
    blocks = inverse_cdf_index(np.cumsum(_block_probabilities(zs.y), axis=1), u[:, 1])
    return _xi_from_indices(inst, zs.y, js, blocks)


def sample_xi(inst: EigInstance, z: Pair, stream) -> Pair:
    """One draw of the randomized oracle at z: ``averaged_oracle(inst, 1)``
    on a stack of one."""
    return draw(averaged_oracle(inst, 1), z, stream)


def averaged_oracle(inst: EigInstance, k: int) -> Callable:
    """Stacked oracle averaging k independent draws; noise shrinks by sqrt(k).

    Each row takes its 2k uniforms in one call on its stream, two per draw
    in draw order.
    """
    if k < 1:
        raise ConfigError("averaging width k must be >= 1")

    def oracle(zs, streams):
        u = uniform_rows(streams, 2 * k)
        acc = _sample(inst, zs, u[:, :2])
        for d in range(1, k):
            acc = acc + _sample(inst, zs, u[:, 2 * d:2 * d + 2])
        return acc if k == 1 else (1.0 / k) * acc

    return oracle


def enumerate_expectation(inst: EigInstance, z: Pair) -> Pair:
    """Full enumeration of E{Xi(z)} over both sampled indices; test oracle."""
    zs = stack([z])
    nu = _block_probabilities(zs.y)[0]
    acc = None
    for j in range(inst.n):
        for i in range(len(nu)):
            w = float(z.x[j]) * float(nu[i])
            if w == 0.0:
                continue
            xi = unstack(_xi_from_indices(inst, zs.y, np.array([j]), np.array([i])))[0]
            acc = w * xi if acc is None else acc + w * xi
    if acc is None:
        raise NumericalError("all outcomes have zero probability")
    return acc


def objective_and_gap(inst: EigInstance, z: Pair):
    """(f(x), duality gap) with both sides evaluated exactly.

    f(x) = lambda_max(A_0 + sum x_j A_j); the dual value at y is
    <A_0, y> + min_j <A_j, y>, and the gap is their difference.
    """
    f_value = primal_value(inst, z.x)
    return f_value, f_value - dual_value(inst, z.y)


def primal_value(inst: EigInstance, x: np.ndarray) -> float:
    return symmat.lambda_max(inst.combination(x))


def dual_value(inst: EigInstance, y: BlockSymMatrix) -> float:
    return symmat.frob_inner(inst.a0, y) + float(inst.trace_vector(y).min())


def build_saddle(inst: EigInstance) -> SaddleInstance:
    """Saddle instance with the exact operator and closed-form values.

    The declared Lipschitz constant is the effective one (literal constant
    times a_inf); the exact operator has no stochastic part (M = 0).  The
    problem's ``probe_operator`` evaluates the operator for probe sets.  Both
    closures look the functions up at call time, so a wrapper put on the
    module sees every call.
    """
    setup = build_setup(inst)
    problem = VIProblem(
        setup=setup,
        operator=lambda zs: exact_operator(inst, zs),
        lip_l=effective_lipschitz(inst),
        var_m=0.0,
        probe_operator=lambda points: probe_operator(inst, points),
    )
    return SaddleInstance(
        problem=problem,
        primal_value=lambda x: primal_value(inst, x),
        dual_value=lambda y: dual_value(inst, y),
    )
