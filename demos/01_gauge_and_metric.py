"""Heisenberg coordinates, the gauge metric, and metric inversion.

The boundary sphere minus a point is the Heisenberg group C^(k-1) x R.
This script walks through the gauge, the extended distance with its
infinite point, and the inversion that moves the remote point somewhere
else, checking the triangle and Ptolemy inequalities along the way.
"""

import numpy as np

from chgeom import dist, dist_w, gauge, infinity, origin, point, ptolemy_defect
from chgeom.core import SpaceConfig
from chgeom.sampling import sample_distinct_points

k = 2
o = origin(k)
inf = infinity(k)

print("== gauge values ==")
for p in [o, point([1], 0.0), point([1], 1.0), point([0], 4.0)]:
    coords = ", ".join(f"{c:.0f}" for c in p.z) + f"; t={p.t:.0f}"
    print(f"  gauge(z={coords}) = {gauge(p):.6f}")

print("\n== distances, including the infinite point ==")
pairs = [
    (o, point([0], 4.0)),
    (point([1], 0.0), point([2], 0.0)),
    (o, inf),
]
for p, q in pairs:
    print(f"  d({p}, {q}) = {dist(p, q)}")

print("\n== inverting the metric at the origin ==")
p, q = point([0], 1.0), point([0], 4.0)
print(f"  d(p, q)            = {dist(p, q):.6f}")
print(f"  d_o(p, q)          = {dist_w(o, p, q):.6f}   (= sqrt(3)/2)")
print(f"  d_o(p, origin)     = {dist_w(o, p, o)}        (origin is now remote)")
print(f"  d_o(p, infinity)   = {dist_w(o, p, inf):.6f}   (the old remote point landed)")

print("\n== triangle and Ptolemy inequalities on random samples ==")
cfg = SpaceConfig(k=2)
rng = np.random.default_rng(1)
worst_tri, worst_pto = 0.0, 0.0
for _ in range(2000):
    x, y, z, u = sample_distinct_points(cfg, rng, 4)
    worst_tri = max(worst_tri, dist(x, z) - dist(x, y) - dist(y, z))
    worst_pto = max(worst_pto, ptolemy_defect(x, y, z, u))
print(f"  max triangle defect over 2000 triples:   {worst_tri:.3e}  (<= 0)")
print(f"  max Ptolemy defect over 2000 quadruples: {worst_pto:.3e}  (<= 0)")
