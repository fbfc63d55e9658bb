"""The two-prox stochastic solver, its one-prox baseline, and bound calculators.

Each iteration of the mirror-prox scheme queries the oracle twice:

    w_tau = prox(r_{tau-1}, gamma * Xi(r_{tau-1}))
    r_tau = prox(r_{tau-1}, gamma * Xi(w_tau))

and the reported solution is the average of the w's.  The baseline
(robust mirror stochastic approximation) takes a single prox step per
iteration and averages the r's.  Runs start at the omega-minimizer, use a
constant stepsize, and are deterministic given the seed.  The loop carries
r's logits (``ProxSetup.step``), so it takes log r once, at the start.

There is one loop, ``run_batch``: it runs R rows in lock step, their
logits and iterates stacked along a leading axis (``geometry.stack``), so
a half-step is one stacked oracle call and one stacked ``step``.  A row is
a seed with its own stepsize, horizon, checkpoints and error map, so one
batch can hold every (seed, horizon) run of a horizon sweep.  Rows come
in non-increasing horizon order, each stepsize multiplies its row alone
(the rates of ``ProxSetup.step``), and after step t the rows whose horizon
is t retire: they are cut from the end of every stack, so the live rows
are always a prefix of the batch.  The sum of the averaged iterates is a
copy of the first, added to in place.  Seed s draws from
``RandomStream(s)`` alone, and every stacked operation gives each row the
bytes it gives a stack of one, so a row's record does not depend on R or
on the other rows.  ``smp_run`` and ``rmsa_run`` are batches of one when given one
seed.  Each record's ``wall_ms`` is the batch's loop time divided by R,
so the records of a batch sum to its loop time.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, InputError, NumericalError
from .geometry import stack, take_rows, unstack
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
    """The records of one lock-step batch, one per row, in row order.

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


def _per_row(value, n: int, shared: bool, what: str) -> list:
    """One value for each of n rows: value itself n times when shared, else
    its n entries."""
    if shared:
        return [value] * n
    rows = list(value)
    if len(rows) != n:
        raise ConfigError(f"need one {what} per row: {len(rows)} for {n} rows")
    return rows


def run_batch(method: str, problem, oracle: Callable, policy, seeds, checkpoints,
              error_fn=None, _start=None) -> RunBatch:
    """Run the rows of one batch in lock step; one ``RunRecord`` per row.

    ``method`` is "smp" (two prox steps per iteration, the w's averaged) or
    "rmsa" (one, the r's averaged).  Row i runs seeds[i].  ``problem``,
    ``policy`` (a ``StepsizePolicy``), ``checkpoints`` (a list of steps)
    and ``error_fn`` each give one value that serves every row or a
    sequence with one value per row, so the rows of a horizon sweep can
    carry their own problem constants, stepsize, horizon, checkpoints and
    error map.  Rows come in non-increasing horizon order, and all their
    problems share one geometry (``problem.setup``).  ``oracle(zs,
    streams)`` estimates F at the rows of a stack of points, row r from
    streams[r] (see ``vi``); after step t the rows whose horizon is t are
    cut from the end of every stack, so the oracle sees the live rows, a
    prefix of the batch.  ``error_fn``, when given, maps one row's averaged
    point to a dict of named error values recorded at each checkpoint.
    The start point is the geometry's center (a keyword hook overrides it
    for tests only).  A step that fails raises NumericalError naming the
    step, the seed and the horizon.
    """
    if method not in ORACLE_CALLS:
        raise ConfigError(f"unknown method {method!r}")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigError("need at least one seed")
    n = len(seeds)
    checkpoints = list(checkpoints)
    problems = _per_row(problem, n, isinstance(problem, VIProblem), "problem")
    policies = _per_row(policy, n, isinstance(policy, StepsizePolicy), "stepsize policy")
    cps = _per_row(checkpoints, n, all(isinstance(c, numbers.Integral) for c in checkpoints),
                   "checkpoint list")
    error_fns = _per_row(error_fn, n, error_fn is None or callable(error_fn), "error map")
    ts = [pol.t for pol in policies]
    if any(a < b for a, b in zip(ts, ts[1:])):
        raise ConfigError(f"rows must come in non-increasing horizon order, got {ts}")
    setup = problems[0].setup
    if any(prob.setup is not setup for prob in problems):
        raise ConfigError("the rows of a batch must share one geometry")
    if method == "smp":
        for prob, pol in zip(problems, policies):
            _check_policy(prob, pol)
    cps = [_check_checkpoints(c, t) for c, t in zip(cps, ts)]
    due = {}  # step -> the rows with a checkpoint there
    for i, row_cps in enumerate(cps):
        for cp in row_cps:
            due.setdefault(cp, []).append(i)
    gammas = np.array([pol.gamma for pol in policies])
    streams = [RandomStream(seed) for seed in seeds]
    start = setup.center if _start is None else _start
    s = stack([setup.logits(start)] * n)
    r = stack([start] * n)
    smp = method == "smp"
    averages = [[] for _ in seeds]
    errors = [{} for _ in seeds]
    acc = None
    live = n
    began = time.perf_counter()
    for tau in range(1, ts[0] + 1):
        try:
            if smp:
                w = setup.step(s, oracle(r, streams), gammas)[1]
                s, r = setup.step(s, oracle(w, streams), gammas)
            else:
                s, r = setup.step(s, oracle(r, streams), gammas)
                w = r
        except (InputError, NumericalError) as exc:
            row = 0 if live == 1 else exc.row
            where = (f"at step {tau} for seeds {seeds[:live]}" if row is None
                     else f"in the {ts[row]}-step run at step {tau} for seed {seeds[row]}")
            raise NumericalError(f"solver failed {where}: {exc}") from exc
        if acc is None:
            acc = w.copy()  # the oracle was handed w and may keep it
        else:
            acc += w
        if tau in due:
            avgs = unstack((1.0 / tau) * acc)
            for i in due[tau]:
                averages[i].append(avgs[i])
                if error_fns[i] is not None:
                    for name, value in error_fns[i](avgs[i]).items():
                        errors[i].setdefault(name, []).append(float(value))
        if ts[live - 1] == tau:
            while live and ts[live - 1] == tau:
                live -= 1
            s, r, acc = (take_rows(a, live) for a in (s, r, acc))
            gammas, streams = gammas[:live], streams[:live]
    wall_ms = 1000.0 * (time.perf_counter() - began) / n
    return RunBatch(
        RunRecord(
            algorithm=method,
            seed=seed,
            t=pol.t,
            gamma=pol.gamma,
            oracle_calls=ORACLE_CALLS[method] * pol.t,
            checkpoints=row_cps,
            averages=row_avgs,
            errors=row_errors,
            wall_ms=wall_ms,
        )
        for seed, pol, row_cps, row_avgs, row_errors in zip(seeds, policies, cps, averages,
                                                          errors)
    )


def _run(method, problem, oracle, policy, seed, checkpoints, error_fn, start):
    """One seed's record, or the batch of a sequence of seeds."""
    if isinstance(seed, numbers.Integral):
        return run_batch(method, problem, oracle, policy, [seed], checkpoints, error_fn,
                         start)[0]
    return run_batch(method, problem, oracle, policy, seed, checkpoints, error_fn, start)


def smp_run(
    problem,
    oracle: Callable,
    policy,
    seed,
    checkpoints,
    error_fn=None,
    _start=None,
):
    """Run the two-prox solver and snapshot the averaged solution.

    ``seed`` is one seed, for one ``RunRecord``, or a sequence of seeds,
    the rows of one lock-step batch, for a ``RunBatch`` (see ``run_batch``,
    also for the per-row forms of the other arguments).  Two oracle calls
    are made per step; a record is bit-reproducible for a fixed seed.
    """
    return _run("smp", problem, oracle, policy, seed, checkpoints, error_fn, _start)


def rmsa_run(
    problem,
    oracle: Callable,
    policy,
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
