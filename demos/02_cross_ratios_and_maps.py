"""Cross-ratio triples and the automorphisms that preserve them.

Cross-ratio triples are the full invariant of the Moebius structure; the
boundary automorphisms come from matrices preserving a Hermitian form of
signature (k, 1).  The script compares the chart and projective routes
to the same triple and watches it survive a random automorphism.
"""

import numpy as np

from chgeom import crt, crt_projective, infinity, origin, point
from chgeom.core import SpaceConfig, is_harmonic
from chgeom.projective import make_dilation, make_inversion, make_translation
from chgeom.sampling import random_moebius, sample_distinct_points

k = 2
o, inf = origin(k), infinity(k)

print("== a collinear quadruple and its triple ==")
quad = (o, point([1], 0.0), point([2], 0.0), inf)
t = crt(*quad)
print(f"  crt(0, e1, 2e1, inf) = ({t.a:.4f} : {t.b:.4f} : {t.c:.4f})")
print(f"  via null-vector pairings: {crt_projective(*quad).components()}")

print("\n== harmonic position ==")
u, v = point([1], 0.0), point([-1], 0.0)
print(f"  (0, e1, inf, -e1) harmonic? {is_harmonic(o, u, inf, v)}")
print(f"  (0, e1, inf, 2e1) harmonic? {is_harmonic(o, u, inf, point([2], 0.0))}")

print("\n== invariance under automorphisms ==")
cfg = SpaceConfig(k=2)
rng = np.random.default_rng(7)
g = random_moebius(cfg, rng)
quad = sample_distinct_points(cfg, rng, 4)
before = crt(*quad)
after = crt(*(g(p) for p in quad))
print(f"  random quadruple triple:      {np.round(before.components(), 10)}")
print(f"  after a random automorphism:  {np.round(after.components(), 10)}")
print(f"  max component gap:            {before.max_difference(after):.3e}")

print("\n== the generators act by chart formulas ==")
T = make_translation([0.5], 1.0)
D = make_dilation(2.0, k)
I = make_inversion(k)
p = point([1], 1.0)
print(f"  translation by (e1/2, 1):  {p}  ->  {T(p)}")
print(f"  dilation by 2:             {p}  ->  {D(p)}  (z, t) -> (2z, 4t)")
print(f"  inversion:                 origin -> {I(o)},  inf -> {I(inf)}")
