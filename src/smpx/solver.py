"""The two-prox stochastic solver, its one-prox baseline, and bound calculators.

Each iteration of the mirror-prox scheme queries the oracle twice:

    w_tau = prox(r_{tau-1}, gamma * Xi(r_{tau-1}))
    r_tau = prox(r_{tau-1}, gamma * Xi(w_tau))

and the reported solution is the average of the w's.  The baseline
(robust mirror stochastic approximation) takes a single prox step per
iteration and averages the r's.  Runs start at the omega-minimizer, use a
constant stepsize, and are deterministic given the seed.  The loop carries
r's logits (``ProxSetup.step``), so it takes log r once, at the start.

There is one loop, ``run_batch``: it runs R seeds of one problem in lock
step, their logits and iterates stacked along a leading axis
(``geometry.stack``), so a half-step is one stacked oracle call and one
stacked ``step``.  Seed s draws from ``RandomStream(s)`` alone, and every
stacked operation gives each row the bytes it gives a stack of one, so a
seed's record does not depend on R or on the other seeds.  ``smp_run`` and
``rmsa_run`` are batches of one.  Each record's ``wall_ms`` is the batch's
loop time divided by R, so the records of a batch sum to its loop time.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable

from .errors import ConfigError, InputError, NumericalError
from .geometry import stack, unstack
from .rng import RandomStream
from .vi import VIProblem

_FEAS_SLACK = 1e-12

# oracle calls per iteration of each method
ORACLE_CALLS = {"smp": 2, "rmsa": 1}


@dataclass(frozen=True)
class StepsizePolicy:
    """Constant stepsize gamma over a fixed horizon of t steps."""

    gamma: float
    t: int

    def __post_init__(self):
        if not (self.gamma > 0.0) or not math.isfinite(self.gamma):
            raise ConfigError(f"stepsize must be positive, got {self.gamma}")
        if self.t < 1:
            raise ConfigError("horizon must be >= 1")


@dataclass
class RunRecord:
    """Trajectory summary of one solver run."""

    algorithm: str
    seed: int
    t: int
    gamma: float
    oracle_calls: int
    checkpoints: list
    averages: list  # averaged solution snapshot per checkpoint
    errors: dict = field(default_factory=dict)  # column -> per-checkpoint values
    wall_ms: float = 0.0


class RunBatch(list):
    """The records of one lock-step batch, one per seed, in seed order.

    ``t`` and ``oracle_calls`` are the batch's totals, its solver
    iterations and its oracle calls, so a sum of ``t`` over what the
    runners return counts every iteration, whether a call ran one seed or
    a batch.
    """

    @property
    def t(self) -> int:
        return sum(rec.t for rec in self)

    @property
    def oracle_calls(self) -> int:
        return sum(rec.oracle_calls for rec in self)


def constant_stepsize(
    alpha: float, omega_radius: float, lip_l: float, noise_m: float, t: int
) -> float:
    """Constant stepsize min[alpha / (sqrt(3) L), (alpha R / M) sqrt(2 / (21 t))].

    With noise_m = 0 the first branch is returned, with lip_l = 0 the
    second; both zero leaves the stepsize unconstrained and is rejected.
    """
    if t < 1:
        raise ConfigError("horizon must be >= 1")
    if lip_l < 0 or noise_m < 0:
        raise ConfigError("constants must be nonnegative")
    if lip_l == 0.0 and noise_m == 0.0:
        raise ConfigError("L = M = 0 leaves the stepsize unconstrained")
    smooth = alpha / (math.sqrt(3.0) * lip_l) if lip_l > 0 else float("inf")
    noise = (
        (alpha * omega_radius / noise_m) * math.sqrt(2.0 / (21.0 * t))
        if noise_m > 0
        else float("inf")
    )
    return min(smooth, noise)


def rmsa_stepsize(alpha: float, omega_radius: float, sup_bound: float, t: int) -> float:
    """Baseline constant stepsize alpha R / (Mbar sqrt(t)).

    Mbar is a bound covering both sup ||F||_* and the oracle noise level,
    supplied by the instance.
    """
    if t < 1:
        raise ConfigError("horizon must be >= 1")
    if sup_bound <= 0:
        raise ConfigError("sup bound must be positive")
    return alpha * omega_radius / (sup_bound * math.sqrt(t))


def theoretical_bounds(
    alpha: float,
    omega_radius: float,
    lip_l: float,
    noise_m: float,
    bias_mu: float,
    t: int,
):
    """Expected-error bound K0* and deviation scale K1* at horizon t.

    K0* = (7/4) R^2 L / t + 7 R M / sqrt(t) + 2 mu R,  K1* = (7/2) R M / sqrt(t).
    """
    if t < 1:
        raise ConfigError("horizon must be >= 1")
    del alpha  # the optimized bound does not depend on it
    r = omega_radius
    k0 = 1.75 * r * r * lip_l / t + 7.0 * r * noise_m / math.sqrt(t) + 2.0 * bias_mu * r
    k1 = 3.5 * r * noise_m / math.sqrt(t)
    return k0, k1


def _check_policy(problem: VIProblem, policy: StepsizePolicy):
    alpha = problem.setup.alpha
    if problem.lip_l > 0:
        limit = alpha / (math.sqrt(3.0) * problem.lip_l)
        if policy.gamma > limit + _FEAS_SLACK:
            raise ConfigError(
                f"stepsize {policy.gamma:.6g} exceeds the feasibility limit "
                f"{limit:.6g} for L = {problem.lip_l:.6g}"
            )


def _check_checkpoints(checkpoints, t: int):
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps:
        raise ConfigError("need at least one checkpoint")
    if cps[0] < 1 or cps[-1] > t:
        raise ConfigError(f"checkpoints must lie in 1..{t}")
    return cps


def run_batch(method: str, problem: VIProblem, oracle: Callable, policy: StepsizePolicy,
              seeds, checkpoints, error_fn=None, _start=None) -> RunBatch:
    """Run the seeds of one problem in lock step; one ``RunRecord`` per seed.

    ``method`` is "smp" (two prox steps per iteration, the w's averaged) or
    "rmsa" (one, the r's averaged).  ``oracle(zs, streams)`` estimates F at
    the rows of a stack of points, row r from streams[r] (see ``vi``).
    ``error_fn``, when given, maps one seed's averaged point to a dict of
    named error values recorded at each checkpoint.  The start point is the
    geometry's center (a keyword hook overrides it for tests only).  A step
    that fails raises NumericalError naming the step and the seed.
    """
    if method not in ORACLE_CALLS:
        raise ConfigError(f"unknown method {method!r}")
    if method == "smp":
        _check_policy(problem, policy)
    cps = _check_checkpoints(checkpoints, policy.t)
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigError("need at least one seed")
    cp_set = set(cps)
    setup = problem.setup
    gamma = policy.gamma
    streams = [RandomStream(seed) for seed in seeds]
    start = setup.center if _start is None else _start
    s = stack([setup.logits(start)] * len(seeds))
    r = stack([start] * len(seeds))
    smp = method == "smp"
    averages = [[] for _ in seeds]
    errors = [{} for _ in seeds]
    acc = None
    began = time.perf_counter()
    for tau in range(1, policy.t + 1):
        try:
            if smp:
                w = setup.step(s, gamma * oracle(r, streams))[1]
                s, r = setup.step(s, gamma * oracle(w, streams))
            else:
                s, r = setup.step(s, gamma * oracle(r, streams))
                w = r
        except (InputError, NumericalError) as exc:
            row = 0 if len(seeds) == 1 else exc.row
            who = f"seed {seeds[row]}" if row is not None else f"seeds {seeds}"
            raise NumericalError(f"solver failed at step {tau} for {who}: {exc}") from exc
        acc = w if acc is None else acc + w
        if tau in cp_set:
            for i, avg in enumerate(unstack((1.0 / tau) * acc)):
                averages[i].append(avg)
                if error_fn is not None:
                    for name, value in error_fn(avg).items():
                        errors[i].setdefault(name, []).append(float(value))
    wall_ms = 1000.0 * (time.perf_counter() - began) / len(seeds)
    return RunBatch(
        RunRecord(
            algorithm=method,
            seed=seed,
            t=policy.t,
            gamma=gamma,
            oracle_calls=ORACLE_CALLS[method] * policy.t,
            checkpoints=list(cps),
            averages=averages[i],
            errors=errors[i],
            wall_ms=wall_ms,
        )
        for i, seed in enumerate(seeds)
    )


def _run(method, problem, oracle, policy, seed, checkpoints, error_fn, start):
    """One seed's record, or the batch of a sequence of seeds."""
    if isinstance(seed, numbers.Integral):
        return run_batch(method, problem, oracle, policy, [seed], checkpoints, error_fn,
                         start)[0]
    return run_batch(method, problem, oracle, policy, seed, checkpoints, error_fn, start)


def smp_run(
    problem: VIProblem,
    oracle: Callable,
    policy: StepsizePolicy,
    seed,
    checkpoints,
    error_fn=None,
    _start=None,
):
    """Run the two-prox solver and snapshot the averaged solution.

    ``seed`` is one seed, for one ``RunRecord``, or a sequence of seeds run
    as one lock-step batch, for a ``RunBatch`` (see ``run_batch``).  Two
    oracle calls are made per step; a record is bit-reproducible for a
    fixed seed.
    """
    return _run("smp", problem, oracle, policy, seed, checkpoints, error_fn, _start)


def rmsa_run(
    problem: VIProblem,
    oracle: Callable,
    policy: StepsizePolicy,
    seed,
    checkpoints,
    error_fn=None,
    _start=None,
):
    """One-prox baseline: r_tau = prox(r_{tau-1}, gamma * Xi(r_{tau-1})).

    Averages the iterates themselves and makes one oracle call per step;
    ``seed`` is one seed or a sequence of them, as for ``smp_run``.
    """
    return _run("rmsa", problem, oracle, policy, seed, checkpoints, error_fn, _start)


def geometric_checkpoints(t: int) -> list:
    """Powers of two up to t, with t itself appended: {1, 2, 4, ..., t}."""
    if t < 1:
        raise ConfigError("horizon must be >= 1")
    out = []
    c = 1
    while c < t:
        out.append(c)
        c *= 2
    out.append(t)
    return out
