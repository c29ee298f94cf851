"""The foliation by chains, its Euclidean base, and Busemann functions.

Fixing the remote point, the vertical chains fibrate the chart; the base
inherits the horizontal Euclidean geometry.  Busemann functions of
horizontal lines are affine, constant on fibers, and their closed form
agrees with the defining limit read with the metric alone.
"""

import numpy as np

from chgeom import (
    base_dist,
    busemann,
    ccircle_through,
    dist,
    infinity,
    origin,
    point,
    project_base,
    pure_homothety,
    vertical_shift,
)
from chgeom.sampling import canonical_rcircle

k = 2
o, inf = origin(k), infinity(k)

print("== the base projection ==")
for p in [point([1], 7.0), point([1], -2.0), point([0.5j], 0.0)]:
    print(f"  {p} -> base {np.round(project_base(inf, p), 6)}")

F = ccircle_through(inf, o)
Fp = ccircle_through(inf, point([1], 0.0))
print(f"  distance between the fibers over 0 and e1: {base_dist(inf, F, Fp):.6f}")

print("\n== Busemann function of the horizontal axis ==")
sigma = canonical_rcircle(k)
# the defining limit d(x, sigma(s)) - d(o, sigma(s)) on a doubling pair of
# far points of sigma, with one Richardson step
far = [sigma.point_at(s) for s in (2.0 ** 19, 2.0 ** 20)]
for x in [point([0], 3.0), sigma.point_at(2.0), sigma.point_at(-1.5),
          point([0.5 + 0.5j], 1.0)]:
    b_closed = busemann(inf, sigma, o, x)
    v1, v2 = (dist(x, f) - dist(o, f) for f in far)
    print(f"  b({x}) = {b_closed:+.6f}   (defining limit {2 * v2 - v1:+.6f})")

print("\n== vertical shifts and pure homotheties ==")
gamma = vertical_shift(inf, 4.0)
x = point([0.3], 1.0)
print(f"  shift by 4: {x} -> {gamma(x)},  displacement {dist(x, gamma(x)):.4f}")
h = pure_homothety(o, inf, 2.0)
p, q = point([1], 1.0), point([0], 4.0)
print(f"  homothety by 2 fixing 0, inf: {p} -> {h(p)}")
print(f"  distance scaling: {dist(h(p), h(q)) / dist(p, q):.6f}")
