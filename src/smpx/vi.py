"""Variational-inequality problems, stochastic oracles and error measures.

A problem couples a geometry with a monotone operator F and the regularity
constants (L, M) of ||F(z) - F(z')||_* <= L ||z - z'|| + M.  The residual
of a candidate z is max_u <F(u), z - u>; since the exact maximum is
intractable in general, ``err_vi_lower`` reports the certified lower bound
over a finite probe set.  For saddle-point instances the functional (Nash)
error is the exact duality gap and is computed from the instance's closed
forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InputError, NumericalError
from .geometry import Pair, ProxSetup, inner
from .rng import RandomStream
from .symmat import BlockStructure, BlockSymMatrix

# Probes per numpy call in ProbeSet.lower_bound.  The chunk bounds the
# temporaries: about 1 MB for 4 blocks of 32 x 32, against 12 MB for 357
# such probes in one call.  One call for all of a game's 125 probes would
# save about 50 us per bound, under 0.5% of a run.
_CHUNK = 32


@dataclass(frozen=True)
class VIProblem:
    """Domain setup plus exact operator and its regularity constants."""

    setup: ProxSetup
    operator: Callable
    lip_l: float = 0.0
    var_m: float = 0.0


@dataclass(frozen=True)
class StochasticOracle:
    """Seeded sampler returning a random estimate of F(z).

    bias_mu bounds ||E{sample - F(z)}||_*, noise_m bounds the second moment
    of the deviation in the conjugate norm; subgaussian marks oracles whose
    deviation satisfies the exponential moment condition at level noise_m.
    """

    sampler: Callable  # (point, RandomStream) -> dual vector
    bias_mu: float = 0.0
    noise_m: float = 0.0
    subgaussian: bool = False

    def sample(self, z, stream: RandomStream):
        return self.sampler(z, stream)


def exact_oracle(problem: VIProblem) -> StochasticOracle:
    """Oracle that returns F itself: zero bias, zero noise, trivially subgaussian."""
    return StochasticOracle(
        sampler=lambda z, stream: problem.operator(z),
        bias_mu=0.0,
        noise_m=0.0,
        subgaussian=True,
    )


@dataclass(frozen=True)
class SaddleInstance:
    """Saddle-point problem with exact primal and dual value functions.

    primal_value(x) is the inner maximum over y, dual_value(y) the inner
    minimum over x; weak duality makes their difference a nonnegative gap.
    """

    problem: VIProblem
    primal_value: Callable
    dual_value: Callable
    meta: dict = field(default_factory=dict)


def err_vi_lower(problem: VIProblem, z, probes: Sequence) -> float:
    """Certified lower bound max over probes of <F(u), z - u>.

    Any weak solution scores <= 0 against every probe set; the bound is
    reported alongside the probe count by the harness.
    """
    return ProbeSet(problem, probes).lower_bound(z)


class _Blocks(NamedTuple):
    """Block matrices stacked over probes: one (P, k, p, p) array per group."""

    structure: BlockStructure
    stacks: tuple


def _alloc(first, n: int):
    """Empty stack for n items shaped like ``first``: an (n, ...) array for
    arrays, ``_Blocks`` for block matrices, a Pair for pairs."""
    if isinstance(first, Pair):
        return Pair(_alloc(first.x, n), _alloc(first.y, n))
    if isinstance(first, BlockSymMatrix):
        return _Blocks(first.structure, tuple(np.empty((n,) + s.shape) for s in first.stacks))
    return np.empty((n,) + np.shape(first))


def _put(stack, i: int, item) -> None:
    """Write item i into the stack; it must have the type and shape of the others."""
    if isinstance(stack, Pair):
        if not isinstance(item, Pair):
            raise InputError("probe items differ in type")
        _put(stack.x, i, item.x)
        _put(stack.y, i, item.y)
    elif isinstance(stack, _Blocks):
        if not isinstance(item, BlockSymMatrix) or item.structure != stack.structure:
            raise InputError("probe items differ in block structure")
        for s, blk in zip(stack.stacks, item.stacks):
            s[i] = blk
    else:
        if isinstance(item, (Pair, BlockSymMatrix)) or np.shape(item) != stack.shape[1:]:
            raise InputError("probe items differ in type or shape")
        stack[i] = item


def _freeze(stack) -> None:
    """Make every array of the stack read-only."""
    if isinstance(stack, Pair):
        _freeze(stack.x)
        _freeze(stack.y)
    else:
        for a in stack.stacks if isinstance(stack, _Blocks) else (stack,):
            a.setflags(write=False)


def _item(stack, i: int):
    """Item i of a stack, made of views into it."""
    if isinstance(stack, Pair):
        return Pair(_item(stack.x, i), _item(stack.y, i))
    if isinstance(stack, _Blocks):
        return BlockSymMatrix.from_stacks(stack.structure, [s[i] for s in stack.stacks])
    return stack[i]


def _inner_rows(f, z, u, rows: slice) -> np.ndarray:
    """<F_i, z - U_i> for the probes i in ``rows``.

    f and u are the value and point stacks.  The sums run in the order of
    ``geometry.inner``: one dot per row for arrays, per-block sums added in
    block order for block matrices, the two parts of a pair added last.
    """
    if isinstance(f, Pair):
        if not isinstance(z, Pair):
            raise InputError("point is not a pair")
        return _inner_rows(f.x, z.x, u.x, rows) + _inner_rows(f.y, z.y, u.y, rows)
    if isinstance(f, _Blocks):
        if not isinstance(z, BlockSymMatrix) or not z.structure == f.structure == u.structure:
            raise InputError("block structure mismatch")
        per_group = []
        for fs, zs, us in zip(f.stacks, z.stacks, u.stacks):
            d = zs - us[rows]
            d *= fs[rows]
            per_group.append(d.reshape(len(d), len(zs), -1).sum(axis=2))
        out = np.zeros(len(per_group[0]))
        for g, r in f.structure.slots:
            out += per_group[g][:, r]
        return out
    fr = f[rows]
    d = np.asarray(z, dtype=float) - u[rows]
    return np.vecdot(fr.reshape(len(fr), -1), d.reshape(len(d), -1))


class ProbeSet:
    """Fixed probe family with pre-evaluated operator values.

    Evaluating F at the probes once makes repeated residual lower bounds
    cheap along a trajectory.  The points and the values are each stored
    once, as read-only stacks with a leading probe axis (``point_stack``,
    ``value_stack``); ``probes`` and ``values`` are per-probe views of
    them.  ``lower_bound`` handles a chunk of probes per numpy call and
    adds in the order of the per-probe ``inner(F(u), z - u)``, so it
    returns the same float.
    """

    def __init__(self, problem: VIProblem, probes: Sequence):
        probes = list(probes)
        if not probes:
            raise InputError("probe set is empty")
        n = len(probes)
        self.point_stack = _alloc(probes[0], n)
        for i, u in enumerate(probes):
            _put(self.point_stack, i, u)
            fu = problem.operator(u)
            if i == 0:
                self.value_stack = _alloc(fu, n)
            _put(self.value_stack, i, fu)
        _freeze(self.point_stack)
        _freeze(self.value_stack)
        self._n = n

    def __len__(self):
        return self._n

    @property
    def probes(self) -> list:
        """The probe points, as views of ``point_stack``."""
        return [_item(self.point_stack, i) for i in range(self._n)]

    @property
    def values(self) -> list:
        """F at the probe points, as views of ``value_stack``."""
        return [_item(self.value_stack, i) for i in range(self._n)]

    def lower_bound(self, z) -> float:
        """max over the probes u of <F(u), z - u>.

        Raises NumericalError when a term is not finite, so that a NaN is
        neither skipped nor returned depending on where it falls.
        """
        terms = np.concatenate([
            _inner_rows(self.value_stack, z, self.point_stack, slice(lo, lo + _CHUNK))
            for lo in range(0, self._n, _CHUNK)
        ])
        if not np.isfinite(terms).all():
            raise NumericalError("non-finite probe term in the residual bound")
        return max(terms.tolist())


def default_probes(problem: VIProblem, seed: int = 0, n_random: int = 100) -> ProbeSet:
    """Center, extreme points and seeded random feasible points."""
    stream = RandomStream(seed)
    return ProbeSet(problem, problem.setup.probe_points(stream, n_random))


def err_nash_saddle(inst: SaddleInstance, z) -> float:
    """Duality gap primal_value(x) - dual_value(y) of z = (x, y)."""
    return float(inst.primal_value(z.x) - inst.dual_value(z.y))


def oracle_stats(
    oracle: StochasticOracle,
    problem: VIProblem,
    z,
    n_samples: int,
    seed: int,
):
    """Monte-Carlo estimates of the oracle bias and second moment at z.

    Returns (||mean deviation||_*, mean ||deviation||_*^2); deterministic
    for a fixed seed.
    """
    if n_samples < 1:
        raise InputError("need at least one sample")
    stream = RandomStream(seed)
    fz = problem.operator(z)
    dual_norm = problem.setup.dual_norm
    acc = None
    m2 = 0.0
    for _ in range(n_samples):
        d = oracle.sample(z, stream) - fz
        m2 += dual_norm(d) ** 2
        acc = d if acc is None else acc + d
    bias = dual_norm((1.0 / n_samples) * acc)
    return bias, m2 / n_samples


def estimate_noise_level(
    oracle: StochasticOracle,
    problem: VIProblem,
    n_points: int = 6,
    n_samples: int = 3000,
    seed: int = 0,
    safety: float = 1.2,
) -> float:
    """Empirical oracle noise level for stepsize tuning.

    Takes the largest sampled root-mean-square deviation over the center
    and seeded random points, inflated by the safety factor.  Deterministic
    for a fixed seed; used when the worst-case noise constants are too
    conservative to give informative stepsizes.
    """
    stream = RandomStream(seed)
    points = [problem.setup.center] + [
        problem.setup.random_point(stream) for _ in range(max(n_points - 1, 0))
    ]
    worst = 0.0
    for i, z in enumerate(points):
        _, m2 = oracle_stats(oracle, problem, z, n_samples, seed + 1 + i)
        worst = max(worst, math.sqrt(m2))
    return safety * worst


def spot_check_regularity(
    problem: VIProblem, n_pairs: int = 1000, seed: int = 0
):
    """Sampled monotonicity and (L, M)-regularity margins.

    Returns (worst_monotonicity, worst_lipschitz_excess): the first should
    be >= -tol for a monotone operator, the second <= tol when the declared
    constants are valid.
    """
    stream = RandomStream(seed)
    setup = problem.setup
    op = problem.operator
    worst_mono = float("inf")
    worst_lip = -float("inf")
    for _ in range(n_pairs):
        z = setup.random_point(stream)
        u = setup.random_point(stream)
        fz, fu = op(z), op(u)
        worst_mono = min(worst_mono, inner(fz - fu, z - u))
        gap = setup.dual_norm(fz - fu) - (
            problem.lip_l * setup.norm(z - u) + problem.var_m
        )
        worst_lip = max(worst_lip, gap)
    return worst_mono, worst_lip
