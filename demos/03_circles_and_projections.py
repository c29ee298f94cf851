"""Chains, R-circles, the chain projection and the distance formula.

Through two points there is one chain; through a chain point and an
outside point there is one R-circle meeting the chain again.  The hit
point defines the projection onto the chain, and distances decompose
against it by the fourth-power identity r^4 = a^4 + b^4.
"""

import numpy as np

from chgeom import (
    ccircle_through,
    conjugate_pole,
    dist_w,
    eta,
    infinity,
    mu,
    origin,
    point,
    rcircle_through_hitting,
    sphere_between,
)
from chgeom.core import SpaceConfig, harmonicity_residual
from chgeom.sampling import canonical_chain, sample_chain, sample_point

k = 2
o, inf = origin(k), infinity(k)
F = canonical_chain(k)

print("== the R-circle through infinity and u, meeting the vertical axis ==")
u = point([1], 5.0)
sigma = rcircle_through_hitting(F, inf, u)
hit = mu(F, inf, u)
print(f"  u = {u},  hit = {hit}   (the fiber coordinate of u)")
print(f"  membership residuals: u {sigma.membership_residual(u):.1e}, "
      f"hit {sigma.membership_residual(hit):.1e}")

print("\n== the distance formula ==")
cfg = SpaceConfig(k=2)
rng = np.random.default_rng(3)
G = sample_chain(cfg, rng)
omega = G.point_at(0.5)
o2 = G.point_at(-1.0)
w = sample_point(cfg, rng)
z = mu(G, omega, w)
r = dist_w(omega, o2, w)
a = dist_w(omega, z, w)
b = dist_w(omega, o2, z)
print(f"  r = |ou| = {r:.6f},  a = |zu| = {a:.6f},  b = |oz| = {b:.6f}")
print(f"  r^4 - a^4 - b^4 = {r**4 - a**4 - b**4:.3e}")

print("\n== conjugate poles across a chain ==")
u = point([1], 0.0)
v = conjugate_pole(F, u)
print(f"  u = {u}  ->  v = {v}")
x = F.point_at(1.3)
y = eta(F, u, x)
print(f"  x on F: {x},  eta_u(x) = {y}")
print(f"  harmonicity of (x, u, eta_u(x), v): "
      f"{harmonicity_residual(x, u, y, v):.3e}")
circ = rcircle_through_hitting(F, x, u)
print(f"  all four on one R-circle: v residual {circ.membership_residual(v):.3e}")

print("\n== spheres between two points ==")
S = sphere_between(o, inf, point([1], 0.0))
print(f"  sphere between origin and infinity through e1 has radius {S.radius():.1f}")
print(f"  contains (0, 1) (gauge 1)? {S.contains(point([0], 1.0))}")
print(f"  contains (0, 4)?          {S.contains(point([0], 4.0))}")
