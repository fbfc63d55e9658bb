"""The two-prox stochastic solver, its one-prox baseline, and bound calculators.

Each iteration of the mirror-prox scheme queries the oracle twice:

    w_tau = prox(r_{tau-1}, gamma * Xi(r_{tau-1}))
    r_tau = prox(r_{tau-1}, gamma * Xi(w_tau))

and the reported solution is the average of the w's.  The baseline
(robust mirror stochastic approximation) takes a single prox step per
iteration and averages the r's.  Runs start at the omega-minimizer, use a
constant stepsize, and are deterministic given the seed.  The loop carries
r's logits (``ProxSetup.step``), so it takes log r once, at the start.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

from .errors import ConfigError, InputError, NumericalError
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


def _smp_step(setup, oracle, gamma, s, r, stream):
    """Two prox steps from r (logits s); returns (s', r', the point averaged)."""
    w = setup.step(s, gamma * oracle(r, stream))[1]
    return (*setup.step(s, gamma * oracle(w, stream)), w)


def _rmsa_step(setup, oracle, gamma, s, r, stream):
    """One prox step from r; the new iterate is also the point averaged."""
    s, r = setup.step(s, gamma * oracle(r, stream))
    return s, r, r


def _run(algorithm, step, problem, oracle, policy, seed, checkpoints, error_fn,
         start) -> RunRecord:
    """The solver loop shared by both methods; ``step`` is the step rule."""
    cps = _check_checkpoints(checkpoints, policy.t)
    cp_set = set(cps)
    setup = problem.setup
    gamma = policy.gamma
    stream = RandomStream(seed)
    r = setup.center if start is None else start
    s = setup.logits(r)

    record = RunRecord(
        algorithm=algorithm,
        seed=int(seed),
        t=policy.t,
        gamma=gamma,
        oracle_calls=0,
        checkpoints=cps,
        averages=[],
    )
    calls_per_step = ORACLE_CALLS[algorithm]
    errors: dict[str, list] = {}
    acc = None
    began = time.perf_counter()
    for tau in range(1, policy.t + 1):
        try:
            s, r, point = step(setup, oracle, gamma, s, r, stream)
        except InputError as exc:
            raise NumericalError(f"solver failed at step {tau}: {exc}") from exc
        record.oracle_calls += calls_per_step
        acc = point if acc is None else acc + point
        if tau in cp_set:
            avg = (1.0 / tau) * acc
            record.averages.append(avg)
            if error_fn is not None:
                for name, value in error_fn(avg).items():
                    errors.setdefault(name, []).append(float(value))
    record.errors = errors
    record.wall_ms = 1000.0 * (time.perf_counter() - began)
    return record


def smp_run(
    problem: VIProblem,
    oracle: Callable,
    policy: StepsizePolicy,
    seed: int,
    checkpoints,
    error_fn=None,
    _start=None,
) -> RunRecord:
    """Run the two-prox solver and snapshot the averaged solution.

    The start point is the geometry's center (a keyword hook overrides it
    for tests only).  ``oracle(z, stream)`` returns a random estimate of
    F(z).  ``error_fn``, when given, maps an averaged point to a dict of
    named error values recorded at each checkpoint.  Two oracle calls are
    made per step; the record is bit-reproducible for a fixed seed.
    """
    _check_policy(problem, policy)
    return _run("smp", _smp_step, problem, oracle, policy, seed, checkpoints,
                error_fn, _start)


def rmsa_run(
    problem: VIProblem,
    oracle: Callable,
    policy: StepsizePolicy,
    seed: int,
    checkpoints,
    error_fn=None,
    _start=None,
) -> RunRecord:
    """One-prox baseline: r_tau = prox(r_{tau-1}, gamma * Xi(r_{tau-1})).

    Averages the iterates themselves and makes one oracle call per step.
    """
    return _run("rmsa", _rmsa_step, problem, oracle, policy, seed, checkpoints,
                error_fn, _start)


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
