"""Stochastic mirror-prox for monotone variational inequalities.

Subpackages: geometry (prox setups), symmat (block symmetric matrices),
vi (problems, oracles, error measures), solver (the two-prox method, its
one-prox baseline and bound calculators), composite (saddle reformulation
and the semidefinite-feasibility pipeline), eigopt (eigenvalue minimization
with the randomized oracle), bench (experiment harness), cli.
"""

__version__ = "0.1.0"

from . import bench, composite, eigopt, geometry, rng, solver, symmat, vi  # noqa: E402
from .errors import (  # noqa: E402
    ConfigError,
    DomainError,
    InputError,
    NumericalError,
    SmpxError,
)
from .geometry import (  # noqa: E402
    EuclideanBallSetup,
    Pair,
    ProductSetup,
    SimplexSetup,
    SpectahedronSetup,
    inner,
)
from .rng import RandomStream  # noqa: E402
from .solver import (  # noqa: E402
    RunRecord,
    StepsizePolicy,
    constant_stepsize,
    rmsa_run,
    smp_run,
    theoretical_bounds,
)
from .symmat import BlockStructure, BlockSymMatrix  # noqa: E402
from .vi import (  # noqa: E402
    SaddleInstance,
    VIProblem,
    err_nash_saddle,
    err_vi_lower,
    oracle_stats,
)

__all__ = [
    "__version__",
    "BlockStructure",
    "BlockSymMatrix",
    "ConfigError",
    "DomainError",
    "EuclideanBallSetup",
    "InputError",
    "NumericalError",
    "Pair",
    "ProductSetup",
    "RandomStream",
    "RunRecord",
    "SaddleInstance",
    "SimplexSetup",
    "SmpxError",
    "SpectahedronSetup",
    "StepsizePolicy",
    "VIProblem",
    "bench",
    "composite",
    "constant_stepsize",
    "eigopt",
    "err_nash_saddle",
    "err_vi_lower",
    "geometry",
    "inner",
    "oracle_stats",
    "rmsa_run",
    "rng",
    "smp_run",
    "solver",
    "symmat",
    "theoretical_bounds",
    "vi",
]
