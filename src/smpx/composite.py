"""Composite minimization as a saddle-point v.i., and the SDF pipeline.

A composite problem min_x Phi(phi_1(x), ..., phi_m(x)) whose outer function
has the conjugate representation max_y { sum <u_l, A_l y + b_l> - Phi_*(y) }
turns into a convex-concave saddle problem with the monotone operator

    F(x, y) = [ sum_l [phi_l'(x)]^* (A_l y + b_l) ;
               -sum_l A_l^* phi_l(x) + Phi_*'(y) ].

F is linear in the component values and gradients, so unbiased component
oracles induce an unbiased oracle for F.  One family is represented: the
matrix-minimax one, Phi(u) = max_l lambda_max(u_l), where A_l selects the
l-th diagonal block of a spectahedron variable y, b_l = 0, Phi_* = 0 and
component l has a weight beta_l: F(x, y) = [ sum_l beta_l [phi_l'(x)]^* y_l ;
-blockdiag(beta_l phi_l(x)) ].  The operator works on a stack of R points
(the seeds of a lock-step run, the probes of a probe-set chunk) and goes
by runs: maximal sequences of consecutive components of one class and one
block size.  A run's blocks are consecutive rows of one size group of the
y stack and its uniforms consecutive columns, so a run evaluates the values
and adjoint gradients of all its components at all rows in one call, exact
or drawn from a row's uniforms; noisy affine components draw a whole run
in one stacked pass, other classes go one component at a time.  The
operator weights the values of a run into its rows of one y stack and adds
the weighted gradients one component at a time in index order.  The oracle
of F fills each row's uniforms in one call on that row's stream and hands
each run its columns in index order.  Every operation is a product or an
elementwise step per row and component, never one matrix product or sum
across the rows or the components of a run, so a row gets the bytes it
gets in a stack of one.

The semidefinite-feasibility pipeline rebalances a system psi_l <= 0 so
every component contributes the same regularity scale, builds the induced
matrix-minimax problem, and reports the stepsize and accuracy prediction
for a given step budget.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InputError, SmpxError
from .geometry import Pair, ProductSetup, ProxSetup, SpectahedronSetup
from .rng import RandomStream, box_muller, uniform_rows
from .symmat import BlockStack, BlockStructure
from .vi import VIProblem, draw


# ---------------------------------------------------------------------------
# components phi_l


class Component:
    """PSD-convex map into S^p with a subgradient selection and an oracle.

    ``rows(xs, ys, u)`` evaluates the component at the rows of an (R, n)
    stack of points against an (R, p, p) stack of blocks y_l: (R, p, p)
    values and (R, n) adjoint gradients, exact when u is None, else value
    and gradient estimates drawn from the (R, uniforms) array u.  The
    default draws nothing and evaluates ``value`` and ``grad_adjoint`` row
    by row; an error is tagged with its row.

    ``run_rows(comps, first)`` builds the evaluator of a run: m consecutive
    components of this class and one block size, comps[0] being component
    ``first`` of the problem.  The evaluator maps the (R, n) points, the
    run's (R, m, p, p) blocks and its (R, m * uniforms) uniforms (or None)
    to (R, m, p, p) values and (R, m, n) gradients.  The default calls
    ``rows`` one component at a time, so any component works; a subclass
    may evaluate the run in one pass if each row and component keeps its
    bytes.  ``first`` names the failing component in an error raised one
    component at a time; an error of a stacked pass names comps[0].
    """

    p: int = 1
    uniforms: int = 0  # uniforms one draw takes per row

    def value(self, x):
        raise NotImplementedError

    def grad_adjoint(self, x, u):
        """Vector with entries <(d phi / d x_j), u>."""
        raise NotImplementedError

    def rows(self, xs, ys, u=None):
        vals, grads = [], []
        for row, (x, y_l) in enumerate(zip(xs, ys, strict=True)):
            try:
                vals.append(self.value(x))
                grads.append(self.grad_adjoint(x, y_l))
            except Exception as exc:  # noqa: BLE001 - annotate with the row
                raise InputError(str(exc), row=row) from exc
        return np.array(vals, dtype=float), np.array(grads, dtype=float)

    @classmethod
    def run_rows(cls, comps, first: int) -> Callable:
        k = comps[0].uniforms

        def rows(xs, ys, u):
            vals = np.empty(ys.shape)
            grads = np.empty((len(xs), len(comps), xs.shape[1]))
            for j, comp in enumerate(comps):
                try:
                    vals[:, j], grads[:, j] = comp.rows(
                        xs, ys[:, j], None if u is None else u[:, j * k:(j + 1) * k]
                    )
                except Exception as exc:  # noqa: BLE001 - annotate with the component index
                    raise _component_error(first + j, exc) from exc
            return vals, grads

        return rows


class _ComponentError(InputError):
    """An error that names its component, and its row if known."""


def _component_error(idx: int, exc: Exception) -> _ComponentError:
    """The error of component idx, at the row that ``exc`` names if any."""
    row = exc.row if isinstance(exc, SmpxError) else None
    at = "" if row is None else f" at row {row}"
    return _ComponentError(f"component {idx} failed{at}: {exc}", row=row)


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

    def rows(self, xs, ys, u=None):
        n_rows = len(xs)
        vals = (xs[:, None, :] @ self._flat).reshape(n_rows, self.p, self.p)
        vals += self.c0
        return vals, (self._flat @ ys.reshape(n_rows, -1, 1))[:, :, 0]

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

    def rows(self, xs, ys, u=None):
        """The exact values and adjoint gradients from one factor B(x) per row."""
        n_rows = len(xs)
        b = (xs[:, None, :] @ self._flat).reshape(n_rows, self._rows, self.p) + self.b0
        grads = self._flat @ (b @ ys).reshape(n_rows, -1, 1)
        return b.transpose(0, 2, 1) @ b + self.c0, 2.0 * grads[:, :, 0]

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
    A run of these components draws in one stacked pass (``_noisy_run``),
    and ``rows`` is its run of one.
    """

    def __init__(self, base: AffineMatrixComponent, rho_f: float, rho_g: float):
        self.base = base
        self.rho_f = float(rho_f)
        self.rho_g = float(rho_g)
        self.n = base.n
        self.p = base.p
        # per matrix, the m Box-Muller pairs and the sign; then n Rademacher signs
        self.uniforms = 2 * (2 * ((self.p + 1) // 2) + 1) + self.n

    def value(self, x):
        return self.base.value(x)

    def grad_adjoint(self, x, u):
        return self.base.grad_adjoint(x, u)

    def rows(self, xs, ys, u=None):
        f_hat, grads = _noisy_run((self,))(xs, ys[:, None], u)
        return f_hat[:, 0], grads[:, 0]

    @classmethod
    def run_rows(cls, comps, first: int) -> Callable:
        return _noisy_run(comps)


def _noisy_run(comps) -> Callable:
    """The stacked draw of a run of m noisy components of one size p and one
    dimension n: (xs, ys, u) -> (R, m, p, p) values and (R, m, n) gradients
    for (R, m, p, p) blocks ys and (R, m * uniforms) uniforms u, exact when
    u is None.  The coefficients are stacked once, here.
    """
    p, n, m = comps[0].p, comps[0].n, len(comps)
    if any(c.p != p or c.n != n for c in comps):
        raise InputError("the components of a run differ in size")
    flat = np.stack([c.base._flat for c in comps])  # (m, n, p * p)
    c0 = np.stack([c.base.c0 for c in comps])
    rho_f = np.array([c.rho_f for c in comps])[:, None, None]
    rho_g = np.array([c.rho_g for c in comps])
    h = (p + 1) // 2  # Box-Muller pairs per matrix

    def draw(xs, ys, u):
        # U_f and U_g are signed normalized rank-one outer products
        # +-qq^T / q^T q: spectral norm exactly one, mean zero, no eigensolve.
        # A component's uniforms hold, per matrix, the h Box-Muller pairs (the
        # h first members, then the h second ones) and the sign, then the n
        # Rademacher signs: the order of one stream call per variate.
        n_rows = len(xs)
        vals = (xs[:, None, None, :] @ flat).reshape(n_rows, m, p, p)
        vals += c0
        grads = (flat @ ys.reshape(n_rows, m, -1, 1))[..., 0]
        if u is None:
            return vals, grads
        u = u.reshape(n_rows, m, -1)
        pairs = u[..., :2 * (2 * h + 1)].reshape(n_rows, m, 2, 2 * h + 1)
        signs = np.where(u < 0.5, 1.0, -1.0)  # one call; only the sign columns are read
        q = box_muller(pairs[..., :h], pairs[..., h:2 * h], p)
        nsq = np.vecdot(q, q)
        if not np.logical_and.reduce(nsq, axis=None):  # some q is zero
            zero = nsq == 0.0
            q[zero] = 1.0
            nsq[zero] = float(p)
        scale = signs[..., 2 * h:2 * (2 * h + 1):2 * h + 1] / nsq  # columns 2h, 4h + 1
        mats = scale[..., None, None] * (q[..., :, None] * q[..., None, :])
        bump = rho_g * np.add.reduce((mats[:, :, 1] * ys).reshape(n_rows, m, -1), axis=2)
        vals += rho_f * mats[:, :, 0]
        grads += bump[..., None] * signs[..., 2 * (2 * h + 1):]
        return vals, grads

    return draw


# ---------------------------------------------------------------------------
# the composite problem


@dataclass(frozen=True)
class CompositeProblem:
    """Saddle data of a matrix-minimax problem: geometries and components.

    min_x max_l lambda_max(beta_l phi_l(x)).  Component l owns block l of
    the spectahedron y_setup, whose selector is A_l; the offsets b_l and the
    outer conjugate Phi_* are zero.  l_x, m_x bound the weighted derivatives.
    ``runs`` splits the components into runs of one class and one block
    size, each with its evaluator, once per problem; ``with_betas`` carries
    them to a reweighted problem.
    """

    x_setup: ProxSetup
    y_setup: SpectahedronSetup
    components: tuple
    betas: tuple  # (m,) weights, or an (R, m) array: one row per batch row
    l_x: float = 0.0
    m_x: float = 0.0
    runs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comps, structure = self.components, self.y_setup.structure
        sizes = structure.block_sizes
        if len(comps) != len(sizes):
            raise ConfigError(f"{len(comps)} components for {len(sizes)} blocks")
        runs, col = [], 0
        for (cls, _), ids in groupby(range(len(comps)), lambda i: (type(comps[i]), sizes[i])):
            ids = list(ids)
            first, stop = ids[0], ids[-1] + 1
            g, r = structure.slots[first]
            width = sum(c.uniforms for c in comps[first:stop])
            runs.append(_Run(slice(first, stop), g, slice(r, r + len(ids)),
                             slice(col, col + width), cls.run_rows(comps[first:stop], first)))
            col += width
        object.__setattr__(self, "runs", tuple(runs))

    def with_betas(self, betas, l_x=None, m_x=None) -> "CompositeProblem":
        """The problem with the weights ``betas`` (and l_x, m_x when given),
        sharing this one's geometries, components and runs, which do not
        depend on the weights."""
        out = copy.copy(self)
        for name, value in (("betas", betas), ("l_x", l_x), ("m_x", m_x)):
            if value is not None:
                object.__setattr__(out, name, value)
        return out


class _Run(NamedTuple):
    """Components ``comps`` of one class and block size: rows ``blocks`` of
    y size group ``group``, uniform columns ``cols``, and their evaluator."""

    comps: slice
    group: int
    blocks: slice
    cols: slice
    rows: Callable


def _saddle_operator(cp: CompositeProblem, zs: Pair, u=None) -> Pair:
    """F at the rows of a stack of points, in one pass over the runs.

    zs.x is (R, n) and zs.y a ``BlockStack``.  u is None for the exact
    operator, else an (R, U) array of uniforms, component l taking the next
    ``uniforms`` columns in index order.  Component l is weighted by
    column l of ``cp.betas``: one weight for all rows, or row r's own when
    the weights are (R0, m) and the R <= R0 rows are the live rows of a
    batch.  Errors carry the component index and, when known, the row.
    F_y is beta_l f_l + pad in block l of one stack, negated.  A sum
    of zero-padded blocks turns -0.0 into +0.0 once m >= 2; pad = +0.0
    keeps those bytes, and pad = -0.0 (no change) serves m = 1.  F_x adds
    beta_l g_l one component at a time in index order.  The values come
    back as read-only stacks.
    """
    xs, ys = zs.x, zs.y
    structure = cp.y_setup.structure
    stacks = [np.empty((len(xs), len(ids), p, p)) for p, ids in structure.groups]
    pad = 0.0 if len(cp.components) > 1 else -0.0
    betas = np.atleast_2d(cp.betas)[:len(xs)]  # (1, m), or the live rows' (R, m)
    fx = None
    for run in cp.runs:
        beta = betas[:, run.comps]
        try:
            f_hat, gx = run.rows(xs, ys.stacks[run.group][:, run.blocks],
                                 None if u is None else u[:, run.cols])
            np.multiply(beta[:, :, None, None], f_hat, out=stacks[run.group][:, run.blocks])
        except _ComponentError:
            raise
        except Exception as exc:  # noqa: BLE001 - a stacked pass names its first component
            raise _component_error(run.comps.start, exc) from exc
        for j in range(beta.shape[1]):
            term = beta[:, j, None] * gx[:, j]
            fx = term if fx is None else np.add(fx, term, out=fx)
    for s in stacks:  # every entry is one component's: pad the whole stack
        s += pad
        np.negative(s, out=s)
    for a in (fx, *stacks):
        a.setflags(write=False)
    return Pair(fx, BlockStack(structure, stacks))


def composite_oracle(cp: CompositeProblem, z: Pair, stream: RandomStream) -> Pair:
    """One oracle draw at one point: ``build_oracle`` on a stack of one.

    Linearity of F in the component data makes the estimate unbiased.
    """
    return draw(build_oracle(cp), z, stream)


def lipschitz_constants(cp: CompositeProblem) -> tuple:
    """(L, M) of the saddle operator from the composite constants.

    The paper's closed forms with A = 1 and B = 0 (no offsets):
    L = 5 A ox oy (ox l_x + m_x) + B ox^2 l_x and M = (2 A oy + B) ox m_x.
    A = max_{||y||_y <= 1} sum_l ||A_l y||_* is exactly one because the
    block selectors split the trace norm of y across the blocks.
    """
    ox = cp.x_setup.omega_radius
    oy = cp.y_setup.omega_radius
    lip = 5.0 * ox * oy * (ox * cp.l_x + cp.m_x)
    noise = 2.0 * oy * ox * cp.m_x
    return lip, noise


def build_vi(cp: CompositeProblem, lip_l=None, var_m=None, setup=None) -> VIProblem:
    """VI problem over the product geometry with declared constants.

    Constants default to the composite formulas; pipeline-specific
    (sharper or rounded) constants can be passed in.  ``setup``, when
    given, is that product geometry built once for several problems: the
    horizons of an SDF sweep share one, so their rows can step together.
    """
    if lip_l is None or var_m is None:
        lip, noise = lipschitz_constants(cp)
        lip_l = lip if lip_l is None else lip_l
        var_m = noise if var_m is None else var_m
    if setup is None:
        setup = ProductSetup(cp.x_setup, cp.y_setup)
    elif not (isinstance(setup, ProductSetup) and setup.sx is cp.x_setup
              and setup.sy.structure == cp.y_setup.structure):
        raise ConfigError("setup is not the product geometry of the problem")
    return VIProblem(
        setup=setup,
        operator=lambda zs: _saddle_operator(cp, zs),
        lip_l=float(lip_l),
        var_m=float(var_m),
    )


def batch_problem(cps: Sequence[CompositeProblem]) -> CompositeProblem:
    """One problem whose row r is weighted as cps[r], for the oracle of a
    batch whose rows run different rescalings of one system (the horizons
    of an SDF sweep); the problems must share components and geometry."""
    first = cps[0]
    for cp in cps:
        if (cp.components != first.components or cp.x_setup is not first.x_setup
                or cp.y_setup.structure != first.y_setup.structure):
            raise ConfigError("batched problems must share components and geometry")
    return first.with_betas(np.array([cp.betas for cp in cps]))


def build_oracle(cp: CompositeProblem) -> Callable:
    """Stacked oracle: one draw of F per row, row r's uniforms from one
    call on streams[r]; rows whose components are all exact draw nothing."""
    total = sum(c.uniforms for c in cp.components)

    def oracle(zs, streams):
        return _saddle_operator(cp, zs, uniform_rows(streams, total) if total else None)

    return oracle


def matrix_minimax_problem(
    x_setup: ProxSetup, components: Sequence[Component], betas=None, **constants
) -> CompositeProblem:
    """min_x max_l lambda_max(beta_l phi_l(x)); the weights default to 1.0."""
    comps = tuple(components)
    weights = (1.0,) * len(comps) if betas is None else tuple(float(b) for b in betas)
    y_setup = SpectahedronSetup(BlockStructure([c.p for c in comps]))
    return CompositeProblem(x_setup, y_setup, comps, weights, **constants)


def minimax_primal_value(cp: CompositeProblem, x) -> float:
    """max_l lambda_max(beta_l phi_l(x)) for the matrix-minimax family."""
    return max(
        float(np.linalg.eigvalsh(b * c.value(x))[-1])
        for c, b in zip(cp.components, cp.betas, strict=True)
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

    @cached_property
    def problem(self) -> CompositeProblem:
        """The unweighted minimax problem of the components, built once:
        ``sdf_scale`` reweights it for each horizon."""
        return matrix_minimax_problem(self.x_setup, [p.component for p in self.parts])


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

    Component l is weighted by beta_l = mu / mu_l where mu_l combines its
    smoothness (discounted by sqrt(t)) and noise, and mu is the worst scale.
    Returns the weighted problem, the pipeline stepsize, and the accuracy
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
    cp = sys.problem.with_betas(tuple(float(b) for b in betas), l_x=mu * rt / ox, m_x=mu)
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
