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

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InputError, NumericalError
from .geometry import Pair, ProxSetup, inner
from .rng import RandomStream
from .symmat import BlockStructure, BlockSymMatrix

# Probes per stored chunk of a ProbeSet, so per numpy call in lower_bound.
# The chunk bounds the temporaries of the build and of the bound: about 1 MB
# for 4 blocks of 32 x 32, against 12 MB for 357 such probes in one call.  One call for all of a game's 125 probes would
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


def _stack(items, first):
    """The items stacked along a new leading axis: an (n, ...) read-only
    array for arrays, ``_Blocks`` for block matrices, a Pair for pairs.

    Every item must have the type, shape and block structure of ``first``,
    the first probe's item, or InputError is raised.
    """
    if isinstance(first, Pair):
        if not all(isinstance(u, Pair) for u in items):
            raise InputError("probe items differ in type")
        return Pair(_stack([u.x for u in items], first.x), _stack([u.y for u in items], first.y))
    if isinstance(first, BlockSymMatrix):
        if not all(isinstance(u, BlockSymMatrix) and u.structure == first.structure
                   for u in items):
            raise InputError("probe items differ in block structure")
        stacks = tuple(np.stack(group) for group in zip(*(u.stacks for u in items)))
        for s in stacks:
            s.setflags(write=False)
        return _Blocks(first.structure, stacks)
    if any(isinstance(u, (Pair, BlockSymMatrix)) or np.shape(u) != np.shape(first)
           for u in items):
        raise InputError("probe items differ in type or shape")
    out = np.array(items, dtype=float)
    out.setflags(write=False)
    return out


def _inner_rows(f, z, u) -> np.ndarray:
    """<F_i, z - U_i> for every probe i of a chunk.

    f and u are the chunk's value and point stacks.  The sums run in the
    order of ``geometry.inner``: one dot per row for arrays, per-block sums
    added in block order for block matrices, the two parts of a pair added
    last.
    """
    if isinstance(f, Pair):
        if not isinstance(z, Pair):
            raise InputError("point is not a pair")
        return _inner_rows(f.x, z.x, u.x) + _inner_rows(f.y, z.y, u.y)
    if isinstance(f, _Blocks):
        if not isinstance(z, BlockSymMatrix) or not z.structure == f.structure == u.structure:
            raise InputError("block structure mismatch")
        per_group = []
        for fs, zs, us in zip(f.stacks, z.stacks, u.stacks):
            d = zs - us
            d *= fs
            per_group.append(d.reshape(len(d), len(zs), -1).sum(axis=2))
        out = np.zeros(len(per_group[0]))
        for g, r in f.structure.slots:
            out += per_group[g][:, r]
        return out
    d = np.asarray(z, dtype=float) - u
    return np.vecdot(f.reshape(len(f), -1), d.reshape(len(d), -1))


class ProbeSet:
    """Fixed probe family with pre-evaluated operator values.

    Evaluating F at the probes once makes repeated residual lower bounds
    cheap along a trajectory.  The probes are taken ``_CHUNK`` at a time,
    so a generator of points is never held whole; each chunk's points and
    values are stored as read-only stacks with a leading probe axis
    (``chunks``, a list of (points, values) pairs).  ``lower_bound``
    handles one chunk per numpy call and adds in the order of the
    per-probe ``inner(F(u), z - u)``, so it returns the same float.
    """

    def __init__(self, problem: VIProblem, probes: Iterable):
        self.chunks = []
        self._n = 0
        first = None
        probes = iter(probes)
        while chunk := list(itertools.islice(probes, _CHUNK)):
            # the points are checked before F sees them
            points = _stack(chunk, chunk[0] if first is None else first[0])
            values = [problem.operator(u) for u in chunk]
            if first is None:
                first = (chunk[0], values[0])
            self.chunks.append((points, _stack(values, first[1])))
            self._n += len(chunk)
        if not self.chunks:
            raise InputError("probe set is empty")

    def __len__(self):
        return self._n

    def lower_bound(self, z) -> float:
        """max over the probes u of <F(u), z - u>.

        Raises NumericalError when a term is not finite, so that a NaN is
        neither skipped nor returned depending on where it falls.
        """
        terms = np.concatenate([_inner_rows(f, z, u) for u, f in self.chunks])
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
