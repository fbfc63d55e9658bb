"""Tour of the prox geometries: norms, divergences, prox-mappings, capacity.

Run:  python3 demos/01_prox_geometries.py
"""

import numpy as np

from smpx.geometry import (
    EuclideanBallSetup,
    ProductSetup,
    SimplexSetup,
    SpectahedronSetup,
)
from smpx.rng import RandomStream
from smpx.symmat import BlockStructure, entropy_map

print("=== Euclidean ball (radius 1) ===")
ball = EuclideanBallSetup(2, radius=1.0)
print("capacity (alpha, theta, radius):", (ball.alpha, ball.theta, ball.omega_radius))
print("prox from center against xi=(2,0):", ball.prox_map(ball.center, np.array([2.0, 0.0])))
print("V(0, (0.6, 0.8)) =", ball.bregman(np.zeros(2), np.array([0.6, 0.8])))

print("\n=== Simplex (entropy geometry) ===")
simplex = SimplexSetup(3)
print("capacity:", (simplex.alpha, simplex.theta, simplex.omega_radius))
z = simplex.center
xi = np.array([np.log(2.0), 0.0, 0.0])
print("prox of the uniform point against (ln 2, 0, 0):", simplex.prox_map(z, xi))
print("the first coordinate is halved before renormalizing: (1/5, 2/5, 2/5)")
big = np.array([700.0, -700.0, 0.0])
print("a dual vector with entries +-700 stays finite:", simplex.prox_map(z, big))

print("\n=== Spectahedron (matrix entropy) ===")
spect = SpectahedronSetup(BlockStructure((2, 3)))
print("capacity:", (spect.alpha, spect.theta, spect.omega_radius), "(theta = ln 5)")
stream = RandomStream(0)
a = spect.random_dual(stream, 2.0)
xi_m = spect.random_dual(stream, 2.0)
lhs = spect.prox_map(entropy_map(a), xi_m)
rhs = entropy_map(a - xi_m)
print("prox is linear in the matrix log: |prox(H(a), xi) - H(a - xi)|_1 =",
      spect.norm(lhs - rhs))

print("\n=== Product geometry ===")
prod = ProductSetup(simplex, spect)
print("capacity is always (1, 1, sqrt(2)):", (prod.alpha, prod.theta, prod.omega_radius))
zp = prod.random_point(stream)
up = prod.random_point(stream)
split = (
    simplex.bregman(zp.x, up.x) / (2 * simplex.theta)
    + spect.bregman(zp.y, up.y) / (2 * spect.theta)
)
print("divergence splits across the parts:", prod.bregman(zp, up), "=", split)
