"""Variational-inequality problems, stochastic oracles and error measures.

A problem couples a geometry with a monotone operator F and the regularity
constants (L, M) of ||F(z) - F(z')||_* <= L ||z - z'|| + M.  F maps a stack
of points (``geometry.stack``) to its values at the rows, and a stochastic
oracle is a plain function (zs, streams) -> random estimates of F at the
rows, row r drawn from streams[r] alone; either way a row gets the values
it gets in a stack of one.  ``exact_oracle`` is F itself, drawing nothing.
The bias and noise constants of an oracle enter only the stepsize and
bound calculators, which take them as numbers.

The residual of a candidate z is max_u <F(u), z - u>; since the exact
maximum is intractable in general, ``err_vi_lower`` reports the certified
lower bound over a finite probe set.  Written as <F(u), z> - <F(u), u>,
the bound needs of a probe only its operator value and one number, both
computed once, so the probe set keeps those and not the points.  The
probes come as stacked chunks (``ProxSetup.probe_chunks``), and each
chunk's values from one call of the problem's ``probe_operator``; probes
given one by one, and the candidate z, are stacked by ``geometry.stack``,
which checks their type, shape and block structure.  For saddle-point
instances the functional (Nash) error is the exact duality gap and is
computed from the instance's closed forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InputError, NumericalError
from .geometry import PROBE_CHUNK, Pair, ProxSetup, flat_rows, inner, stack, unstack
from .rng import RandomStream
from .symmat import BlockStack


@dataclass(frozen=True)
class VIProblem:
    """Domain setup plus exact operator and its regularity constants.

    ``operator(zs)`` gives F at the rows of a stack of points, in the same
    layout, each row with the bytes it gets in a stack of one.
    ``probe_operator``, when set, does the same for a chunk of probe points
    stacked as ``ProbeSet`` stacks them, agreeing with ``operator`` to
    round-off; ``ProbeSet`` uses ``operator`` when it is not set.
    """

    setup: ProxSetup
    operator: Callable
    lip_l: float = 0.0
    var_m: float = 0.0
    probe_operator: Callable | None = None


def draw(oracle: Callable, z, stream):
    """One estimate of F(z) from a stacked oracle: its stack of one."""
    return unstack(oracle(stack([z]), [stream]))[0]


def exact_oracle(problem: VIProblem) -> Callable:
    """Oracle F(z) per row that draws nothing: zero bias, zero noise."""
    return lambda zs, streams: problem.operator(zs)


@dataclass(frozen=True)
class SaddleInstance:
    """Saddle-point problem with exact primal and dual value functions.

    primal_value(x) is the inner maximum over y, dual_value(y) the inner
    minimum over x; weak duality makes their difference a nonnegative gap.
    """

    problem: VIProblem
    primal_value: Callable
    dual_value: Callable


def err_vi_lower(problem: VIProblem, z, probes: Sequence) -> float:
    """Certified lower bound max over probes of <F(u), z - u>.

    Any weak solution scores <= 0 against every probe set; the bound is
    reported alongside the probe count by the harness.
    """
    return ProbeSet.from_points(problem, probes).lower_bound(z)


def _kind(stacked):
    """The type of a stack of probes, with its probes' shape or block
    structure: what the stacks of one probe set have in common."""
    if isinstance(stacked, Pair):
        return ("pair", _kind(stacked.x), _kind(stacked.y))
    if isinstance(stacked, BlockStack):
        return ("blocks", stacked.structure)
    return ("array", np.shape(stacked)[1:])


class ProbeSet:
    """Fixed probe family, kept as what the residual bound needs of it.

    A probe u enters max_u <F(u), z> - <F(u), u> through its operator value
    and c = <F(u), u>, both computed once, so the points are held only
    while their chunk is built.  The probes come as stacked chunks, as
    ``ProxSetup.probe_chunks`` yields them (``from_points`` stacks a
    sequence of points), and the chunks are taken one at a time, so a
    generator of chunks is never held whole.  ``chunks`` lists, per chunk,
    the values as read-only (P, d) views of their stacks (one per part, as
    ``flat_rows`` gives them) and c as a read-only (P,) array.  The values
    of a chunk come from one ``problem.probe_operator`` call, or one
    ``problem.operator`` call when the problem has no probe operator.
    """

    def __init__(self, problem: VIProblem, chunks: Iterable):
        self.chunks = []
        self._n = 0
        self._kind = None  # what a bound's point is checked against
        operator = problem.probe_operator or problem.operator
        for points in chunks:
            # the points are checked before F sees them
            kind = _kind(points)
            if self._kind is None:
                self._kind = kind
            elif kind != self._kind:
                raise InputError("probe chunks differ in type, shape or block structure")
            rows = flat_rows(operator(points))
            c = sum(np.vecdot(v, u) for v, u in zip(rows, flat_rows(points), strict=True))
            c.setflags(write=False)
            self.chunks.append((rows, c))
            self._n += len(c)
        if not self.chunks:
            raise InputError("probe set is empty")

    @classmethod
    def from_points(cls, problem: VIProblem, points: Iterable) -> "ProbeSet":
        """The probe set of a sequence of points, stacked ``PROBE_CHUNK`` at a
        time; InputError unless the points agree in type, shape and block
        structure."""
        def chunks():
            it = iter(points)
            while chunk := list(itertools.islice(it, PROBE_CHUNK)):
                yield stack(chunk)

        return cls(problem, chunks())

    def __len__(self):
        return self._n

    def lower_bound(self, z) -> float:
        """max over the probes u of <F(u), z> - <F(u), u>.

        Raises InputError when z differs from the probes in type, shape or
        block structure, and NumericalError when a term is not finite, so
        that a NaN is neither skipped nor returned depending on where it
        falls.
        """
        zs = stack([z])
        if _kind(zs) != self._kind:
            raise InputError("point differs from the probes in type, shape or block structure")
        zs = [r[0] for r in flat_rows(zs)]
        terms = np.concatenate(
            [sum(v @ x for v, x in zip(rows, zs)) - c for rows, c in self.chunks]
        )
        if not np.isfinite(terms).all():
            raise NumericalError("non-finite probe term in the residual bound")
        return max(terms.tolist())


def default_probes(problem: VIProblem, seed: int = 0, n_random: int = 100) -> ProbeSet:
    """Center, extreme points and seeded random feasible points."""
    return ProbeSet(problem, problem.setup.probe_chunks(RandomStream(seed), n_random))


def err_nash_saddle(inst: SaddleInstance, z) -> float:
    """Duality gap primal_value(x) - dual_value(y) of z = (x, y)."""
    return float(inst.primal_value(z.x) - inst.dual_value(z.y))


def oracle_stats(
    oracle: Callable,
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
    fz = unstack(problem.operator(stack([z])))[0]
    dual_norm = problem.setup.dual_norm
    acc = None
    m2 = 0.0
    for _ in range(n_samples):
        d = draw(oracle, z, stream) - fz
        m2 += dual_norm(d) ** 2
        acc = d if acc is None else acc + d
    bias = dual_norm((1.0 / n_samples) * acc)
    return bias, m2 / n_samples


def estimate_noise_level(
    oracle: Callable,
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
    conservative to give informative stepsizes.  The points are the rows of
    one stack, point i drawing from stream seed + 1 + i, and one
    ``dual_norms`` call per draw gives each row the norm ``dual_norm`` gives
    it, so each gets the second moment that ``oracle_stats`` gives it.
    """
    if n_samples < 1:
        raise InputError("need at least one sample")
    stream = RandomStream(seed)
    points = [problem.setup.center] + [
        problem.setup.random_point(stream) for _ in range(max(n_points - 1, 0))
    ]
    streams = [RandomStream(seed + 1 + i) for i in range(len(points))]
    zs = stack(points)
    fz = problem.operator(zs)
    dual_norms = problem.setup.dual_norms
    m2 = [0.0] * len(points)
    for _ in range(n_samples):
        for i, v in enumerate(dual_norms(oracle(zs, streams) - fz).tolist()):
            m2[i] += v**2
    return safety * max(0.0, *(math.sqrt(v / n_samples) for v in m2))


def spot_check_regularity(
    problem: VIProblem, n_pairs: int = 1000, seed: int = 0
):
    """Sampled monotonicity and (L, M)-regularity margins.

    Returns (worst_monotonicity, worst_lipschitz_excess): the first should
    be >= -tol for a monotone operator, the second <= tol when the declared
    constants are valid.  The pairs are drawn first, z then u from one
    stream, and F is evaluated on the stack of each side.
    """
    stream = RandomStream(seed)
    setup = problem.setup
    zs, us = [], []
    for _ in range(n_pairs):
        zs.append(setup.random_point(stream))
        us.append(setup.random_point(stream))
    fzs, fus = (unstack(problem.operator(stack(points))) for points in (zs, us))
    worst_mono = float("inf")
    worst_lip = -float("inf")
    for z, u, fz, fu in zip(zs, us, fzs, fus):
        worst_mono = min(worst_mono, inner(fz - fu, z - u))
        gap = setup.dual_norm(fz - fu) - (
            problem.lip_l * setup.norm(z - u) + problem.var_m
        )
        worst_lip = max(worst_lip, gap)
    return worst_mono, worst_lip
