"""Orthogonal complements of chains and the join decomposition.

A fixed-point-free involution of a chain picks out its orthogonal
complement, fibered by chains through conjugate-pole pairs.  Every
outside point then sits on a standard R-circle through an involution
pair on the chain, found by solving two closed-form equations for the
intercept distances.
"""

import numpy as np

from chgeom import (
    are_orthogonal,
    canonical_fiber,
    canonical_involution,
    ccircle_through,
    dist_w,
    infinity,
    join_decompose,
    origin,
    ortho_contains,
    point,
    positive_root,
    standard_rcircle,
)
from chgeom.ortho import OrthoComplement

k = 2
o, inf = origin(k), infinity(k)
from chgeom.sampling import canonical_chain

F = canonical_chain(k)
eta = canonical_involution(F, inf, o, 1.0)
A = OrthoComplement(F=F, eta=eta)

print("== the complement of the vertical axis at the unit involution ==")
print(f"  eta swaps 0 and infinity; eta((0, 1)) = {eta(point([0], 1.0))}")
for u in [point([1], 0.0), point([np.exp(1j)], 0.0), point([1.5], 0.0),
          point([1], 0.5)]:
    print(f"  {u} in the complement? {ortho_contains(A, u)}")

print("\n== canonical fibers and mutual orthogonality ==")
fib = canonical_fiber(A, point([1], 0.0))
print(f"  fiber through e1 contains -e1: "
      f"{fib.membership_residual(point([-1], 0.0)):.1e}")
print(f"  axis orthogonal to that fiber? {are_orthogonal(F, fib)}")
tilted = ccircle_through(point([1], 0.0), point([0.5], 1.0))
print(f"  axis orthogonal to a tilted chain? {are_orthogonal(F, tilted)}")

print("\n== decomposing a point onto a standard R-circle ==")
u = point([0.5], 0.5)
dec = join_decompose(A, u, inf)
print(f"  data: a = {dec.a:.4f}, b = {dec.b:.4f}, rho = {dec.rho:.4f}")
print(f"  chain intercepts at distances X = {dec.xo:.6f}, Y = {dec.yo:.6f}")
print(f"  x = {dec.x}")
print(f"  y = {dec.y}")
print(f"  midpoint {dec.w}, radius r = {dec.r:.6f}")
print(f"  |wu| = {dist_w(inf, dec.w, u):.6f}  (equals r)")
print(f"  u on the standard circle: {dec.sigma.membership_residual(u):.1e}")

print("\n== a standard circle from its subspace intercept ==")
std = standard_rcircle(A, point([1], 0.0), inf)
print(f"  through u = infinity and x = e1: hits the chain at {std.v}, "
      f"carries y = {std.y}")

print("\n== the quartic from the intercept equations ==")
print(f"  s^4 + (s+1)^4 = 17 has the positive root {positive_root(1.0, 1.0, 17.0)}")
