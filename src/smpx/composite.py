"""Composite minimization as a saddle-point v.i., and the SDF pipeline.

A composite problem min_x Phi(phi_1(x), ..., phi_m(x)) whose outer function
has the conjugate representation max_y { sum <u_l, A_l y + b_l> - Phi_*(y) }
turns into a convex-concave saddle problem with the monotone operator

    F(x, y) = [ sum_l [phi_l'(x)]^* (A_l y + b_l) ;
               -sum_l A_l^* phi_l(x) + Phi_*'(y) ].

F is linear in the component values and gradients, so unbiased component
oracles induce an unbiased oracle for F.  One family is represented: the
matrix-minimax one, Phi(u) = max_l lambda_max(u_l), where A_l selects the
l-th diagonal block of a spectahedron variable y, b_l = 0 and Phi_* = 0.
So F(x, y) = [ sum_l [phi_l'(x)]^* y_l ; -sum_l A_l^* phi_l(x) ].

The semidefinite-feasibility pipeline rebalances a system psi_l <= 0 so
every component contributes the same regularity scale, builds the induced
matrix-minimax problem, and reports the stepsize and accuracy prediction
for a given step budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InputError
from .geometry import (
    Pair,
    ProductSetup,
    ProxSetup,
    SpectahedronSetup,
)
from .rng import RandomStream, box_muller
from .symmat import BlockStructure, BlockSymMatrix
from .vi import StochasticOracle, VIProblem


# ---------------------------------------------------------------------------
# the block selectors A_l


class BlockSelector:
    """A_l y = y_l on a block-diagonal y-space; the adjoint embeds the block.

    Output lives in the symmetric matrices with the spectral norm, whose
    dual is the trace norm; the selectors split the trace norm of y across
    the blocks, so A = max_{||y||_y <= 1} sum_l ||A_l y||_* is exactly one.
    """

    def __init__(self, structure: BlockStructure, index: int):
        self.structure = structure
        self.index = int(index)

    def apply(self, y: BlockSymMatrix):
        return y.blocks[self.index]

    def adjoint(self, u) -> BlockSymMatrix:
        stacks = [np.zeros((len(idx), p, p)) for p, idx in self.structure.groups]
        g, r = self.structure.slots[self.index]
        stacks[g][r] = u
        return BlockSymMatrix.from_stacks(self.structure, stacks)


# ---------------------------------------------------------------------------
# components phi_l


class Component:
    """PSD-convex map into S^p with a subgradient selection and an oracle.

    ``sample`` returns a value estimate together with a callable applying
    the sampled adjoint gradient; the default oracle is exact.
    """

    p: int = 1
    subgaussian: bool = True

    def value(self, x):
        raise NotImplementedError

    def grad_adjoint(self, x, u):
        """Vector with entries <(d phi / d x_j), u>."""
        raise NotImplementedError

    def sample(self, x, stream: RandomStream):
        return self.value(x), lambda u: self.grad_adjoint(x, u)


class AffineMatrixComponent(Component):
    """phi(x) = C_0 + sum_j x_j C_j with symmetric coefficient matrices."""

    def __init__(self, c0, cs):
        self.c0 = np.asarray(c0, dtype=float)
        self.cs = np.asarray(cs, dtype=float)  # (n, p, p)
        if self.cs.ndim != 3 or self.c0.shape != self.cs.shape[1:]:
            raise InputError("coefficient shapes are inconsistent")
        self.n = self.cs.shape[0]
        self.p = self.c0.shape[0]
        self._flat = self.cs.reshape(self.n, -1)

    def value(self, x):
        p = self.p
        return self.c0 + (np.asarray(x, dtype=float) @ self._flat).reshape(p, p)

    def grad_adjoint(self, x, u):
        return self._flat @ np.asarray(u, dtype=float).ravel()

    def grad_sup_norm(self) -> float:
        """max_j |C_j|_inf: bounds |phi'(x) h|_inf over ||h||_1 <= 1."""
        return max(
            float(np.abs(np.linalg.eigvalsh(c)).max()) for c in self.cs
        )


class QuadraticMatrixComponent(Component):
    """phi(x) = B(x)^T B(x) + C_0 with B(x) = B_0 + sum_j x_j B_j.

    Gram maps of affine matrix pencils are PSD-convex with a Lipschitz
    derivative, which makes them the smooth building block of synthetic
    feasibility systems.
    """

    def __init__(self, b0, bs, c0=None):
        self.b0 = np.asarray(b0, dtype=float)
        self.bs = np.asarray(bs, dtype=float)  # (n, r, p)
        if self.bs.ndim != 3 or self.b0.shape != self.bs.shape[1:]:
            raise InputError("factor shapes are inconsistent")
        self.n = self.bs.shape[0]
        self.p = self.bs.shape[2]
        self.c0 = (
            np.zeros((self.p, self.p)) if c0 is None else np.asarray(c0, dtype=float)
        )
        self._flat = self.bs.reshape(self.n, -1)
        self._rows = self.bs.shape[1]

    def _factor(self, x):
        return (np.asarray(x, dtype=float) @ self._flat).reshape(
            self._rows, self.p
        ) + self.b0

    def value(self, x):
        b = self._factor(x)
        return b.T @ b + self.c0

    def grad_adjoint(self, x, u):
        bu = self._factor(x) @ np.asarray(u, dtype=float)
        return 2.0 * (self._flat @ bu.ravel())

    def lipschitz_bounds(self, omega_x: float):
        """Smallest L such that the derivative conditions hold with M = 0."""
        sig = [float(np.linalg.norm(b, 2)) for b in self.bs]
        smax = max(sig)
        s0 = float(np.linalg.norm(self.b0, 2))
        curvature = 2.0 * smax * smax
        grad_bound = 2.0 * (s0 + smax) * smax / omega_x
        return max(curvature, grad_bound)


class NoisyAffineComponent(Component):
    """Affine component observed through a bounded-noise oracle.

    The value estimate adds rho_f times a unit-spectral-norm random
    symmetric matrix; the gradient estimate adds a rank-style perturbation
    h -> (d^T h) * rho_g * U with Rademacher d.  Both perturbations are
    mean-zero and almost surely bounded, hence subgaussian at their scale.
    """

    def __init__(self, base: AffineMatrixComponent, rho_f: float, rho_g: float):
        self.base = base
        self.rho_f = float(rho_f)
        self.rho_g = float(rho_g)
        self.n = base.n
        self.p = base.p

    def value(self, x):
        return self.base.value(x)

    def grad_adjoint(self, x, u):
        return self.base.grad_adjoint(x, u)

    def sample(self, x, stream: RandomStream):
        # U_f and U_g are signed normalized rank-one outer products
        # +-qq^T / q^T q: spectral norm exactly one, mean zero, no eigensolve.
        # One draw of uniforms holds, per matrix, the m Box-Muller pairs
        # (the m first members, then the m second ones) and the sign, then
        # the n Rademacher signs: the order of one call per variate.
        p, m = self.p, (self.p + 1) // 2
        u = stream.uniforms(2 * (2 * m + 1) + self.n)
        rows = u[:2 * (2 * m + 1)].reshape(2, 2 * m + 1)
        q = box_muller(rows[:, :m], rows[:, m:2 * m], p)
        nsq = np.vecdot(q, q)
        zero = nsq == 0.0
        if zero.any():
            q[zero] = 1.0
            nsq[zero] = float(p)
        scale = np.where(rows[:, 2 * m] < 0.5, 1.0, -1.0) / nsq
        u_f, u_g = scale[:, None, None] * (q[:, :, None] * q[:, None, :])
        f_hat = self.base.value(x) + self.rho_f * u_f
        signs = np.where(u[2 * (2 * m + 1):] < 0.5, 1.0, -1.0)
        base_adj = self.base.grad_adjoint

        def g_adjoint(u, _signs=signs, _ug=u_g):
            bump = self.rho_g * float(np.sum(_ug * np.asarray(u, dtype=float)))
            return base_adj(x, u) + bump * _signs

        return f_hat, g_adjoint


class ScaledComponent(Component):
    """beta * phi with the oracle rescaled accordingly."""

    def __init__(self, base: Component, beta: float):
        self.base = base
        self.beta = float(beta)
        self.p = base.p
        self.subgaussian = base.subgaussian

    def value(self, x):
        return self.beta * self.base.value(x)

    def grad_adjoint(self, x, u):
        return self.beta * self.base.grad_adjoint(x, u)

    def sample(self, x, stream):
        f_hat, g_adj = self.base.sample(x, stream)
        return self.beta * f_hat, lambda u: self.beta * g_adj(u)


# ---------------------------------------------------------------------------
# the composite problem


@dataclass(frozen=True)
class CompositeProblem:
    """Saddle data of a matrix-minimax problem: geometries, components, maps.

    ``maps`` are the block selectors A_l; the offsets b_l and the outer
    conjugate Phi_* are zero.  l_x, m_x bound the component derivatives
    per the composite contract.
    """

    x_setup: ProxSetup
    y_setup: ProxSetup
    components: tuple
    maps: tuple
    l_x: float = 0.0
    m_x: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.components)


def _saddle_operator(cp: CompositeProblem, z: Pair, draw) -> Pair:
    """F(z) assembled from per-component data.

    ``draw(comp, x)`` returns the component's value (or its estimate) and a
    callable applying the matching adjoint gradient.  Components are drawn
    in index order, and errors are annotated with the component index.
    """
    x, y = z.x, z.y
    fx = None
    acc_y = None
    for idx, (comp, amap) in enumerate(zip(cp.components, cp.maps)):
        try:
            f_hat, g_adj = draw(comp, x)
            gx = g_adj(amap.apply(y))
            term = amap.adjoint(f_hat)
        except Exception as exc:  # noqa: BLE001 - annotate with the component index
            raise InputError(f"component {idx} failed: {exc}") from exc
        fx = gx if fx is None else fx + gx
        acc_y = term if acc_y is None else acc_y + term
    return Pair(fx, -acc_y)


def _exact_data(comp: Component, x):
    return comp.value(x), lambda u: comp.grad_adjoint(x, u)


def composite_operator(cp: CompositeProblem, z: Pair) -> Pair:
    """Exact monotone operator of the saddle reformulation."""
    return _saddle_operator(cp, z, _exact_data)


def composite_oracle(cp: CompositeProblem, z: Pair, stream: RandomStream) -> Pair:
    """One oracle draw: plugs sampled component values/gradients into F.

    Linearity of F in the component data makes the estimate unbiased.
    Components are sampled in index order off the single run stream.
    """
    return _saddle_operator(cp, z, lambda comp, x: comp.sample(x, stream))


def lipschitz_constants(cp: CompositeProblem) -> tuple:
    """(L, M) of the saddle operator from the composite constants.

    The paper's closed forms with A = 1 (the block selectors) and B = 0
    (no offsets): L = 5 A ox oy (ox l_x + m_x) + B ox^2 l_x and
    M = (2 A oy + B) ox m_x.
    """
    ox = cp.x_setup.omega_radius
    oy = cp.y_setup.omega_radius
    lip = 5.0 * ox * oy * (ox * cp.l_x + cp.m_x)
    noise = 2.0 * oy * ox * cp.m_x
    return lip, noise


def build_vi(cp: CompositeProblem, lip_l=None, var_m=None) -> VIProblem:
    """VI problem over the product geometry with declared constants.

    Constants default to the composite formulas; pipeline-specific
    (sharper or rounded) constants can be passed in.
    """
    if lip_l is None or var_m is None:
        lip, noise = lipschitz_constants(cp)
        lip_l = lip if lip_l is None else lip_l
        var_m = noise if var_m is None else var_m
    setup = ProductSetup(cp.x_setup, cp.y_setup)
    return VIProblem(
        setup=setup,
        operator=lambda z: composite_operator(cp, z),
        lip_l=float(lip_l),
        var_m=float(var_m),
    )


def build_oracle(cp: CompositeProblem, noise_m=None) -> StochasticOracle:
    if noise_m is None:
        _, noise_m = lipschitz_constants(cp)
    return StochasticOracle(
        sampler=lambda z, stream: composite_oracle(cp, z, stream),
        bias_mu=0.0,
        noise_m=float(noise_m),
        subgaussian=all(c.subgaussian for c in cp.components),
    )


def matrix_minimax_problem(
    x_setup: ProxSetup, components: Sequence[Component], meta=None, **constants
) -> CompositeProblem:
    """min_x max_l lambda_max(phi_l(x)) over a unit-trace block y-variable."""
    comps = tuple(components)
    structure = BlockStructure([c.p for c in comps])
    y_setup = SpectahedronSetup(structure)
    maps = tuple(BlockSelector(structure, i) for i in range(len(comps)))
    return CompositeProblem(
        x_setup=x_setup,
        y_setup=y_setup,
        components=comps,
        maps=maps,
        meta=meta or {},
        **constants,
    )


def minimax_primal_value(cp: CompositeProblem, x) -> float:
    """max_l lambda_max(phi_l(x)) for the matrix-minimax family."""
    return max(
        float(np.linalg.eigvalsh(c.value(x))[-1]) for c in cp.components
    )


# ---------------------------------------------------------------------------
# semidefinite feasibility pipeline


@dataclass(frozen=True)
class SdfComponent:
    """One inequality psi_l <= 0 with its regularity constants."""

    component: Component
    lip_l: float
    noise_m: float


@dataclass(frozen=True)
class SDFSystem:
    """Feasible system of matrix inequalities over a common x-domain."""

    x_setup: ProxSetup
    parts: tuple
    meta: dict = field(default_factory=dict)

    @property
    def block_sizes(self) -> tuple:
        return tuple(p.component.p for p in self.parts)


class ScaledSdf(NamedTuple):
    problem: CompositeProblem
    gamma: float
    predicted_bound: float
    betas: np.ndarray
    mu: float
    lip_l: float
    noise_m: float


def sdf_scale(sys: SDFSystem, t: int) -> ScaledSdf:
    """Rebalance the system for a t-step run and build the minimax problem.

    Component l is scaled by beta_l = mu / mu_l where mu_l combines its
    smoothness (discounted by sqrt(t)) and noise, and mu is the worst scale.
    Returns the scaled problem, the pipeline stepsize, and the accuracy
    prediction 80 R_x sqrt(ln sum p) mu / sqrt(t) for the scaled violations.
    """
    if t < 1:
        raise ConfigError("step budget must be >= 1")
    ox = sys.x_setup.omega_radius
    rt = math.sqrt(t)
    mus = np.array([ox * p.lip_l / rt + p.noise_m for p in sys.parts])
    if np.all(mus == 0.0):
        raise ConfigError("all components have zero scale; nothing to rebalance")
    if np.any(mus == 0.0):
        raise ConfigError("a component has zero scale and cannot be rebalanced")
    mu = float(mus.max())
    betas = mu / mus
    comps = [
        ScaledComponent(p.component, b) for p, b in zip(sys.parts, betas)
    ]
    cp = matrix_minimax_problem(
        sys.x_setup,
        comps,
        meta=dict(sys.meta),
        l_x=mu * rt / ox,
        m_x=mu,
    )
    logp = math.log(sum(sys.block_sizes))
    lip = 10.0 * math.sqrt(logp) * ox * mu * (rt + 1.0)
    noise = 4.0 * math.sqrt(logp) * ox * mu
    gamma = 1.0 / (10.0 * math.sqrt(3.0 * logp) * ox * mu * (rt + 1.0))
    bound = 80.0 * ox * math.sqrt(logp) * mu / rt
    return ScaledSdf(cp, gamma, bound, betas, mu, lip, noise)


def component_violations(sys: SDFSystem, x) -> np.ndarray:
    """lambda_max(psi_l(x)) for each raw (unscaled) component."""
    return np.array(
        [
            float(np.linalg.eigvalsh(p.component.value(x))[-1])
            for p in sys.parts
        ]
    )
