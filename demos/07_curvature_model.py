"""The linear curvature model: pinched curvature and reflection words.

The tangent model carries the complex space form curvature tensor with
sectional curvatures pinched between -4 (holomorphic planes) and -1
(totally real planes).  On an adapted frame the tensor satisfies
R(x, Jx) z = 2 Jz, the identity behind the holonomy of normal bundles of
complex planes; unitary involutive reflections of C^2 connect any two
unit vectors by a short word.
"""

import math

import numpy as np

from chgeom.tangent import (
    adapted_frame,
    curvature_operator_spectrum,
    euler_interp,
    holonomy_check,
    reflection_word,
    riem,
    riem_polarized,
    riem_vec,
    sec_k,
    sectional,
    word_matrix,
)

x, y, z, u, v = adapted_frame(3)

print("== adapted-frame curvature values (k = 3) ==")
print(f"  <R(x,y)z, u> = {riem(x, y, z, u):+.1f}")
print(f"  <R(x,y)z, v> = {riem(x, y, z, v):+.1f}")
print(f"  k(x, z) = {sec_k(x, z):+.1f}    k(x, Jx) = {sec_k(x, y):+.1f}")
print(f"  k(x+u, y+z) = {sec_k(x + u, y + z):+.1f}")
print(f"  k(y+u, x+z) = {sec_k(y + u, x + z):+.1f}")
print(f"  k(x+v, y+z) = {sec_k(x + v, y + z):+.1f}")
vt, yp = (x + v) / math.sqrt(2), (y + z) / math.sqrt(2)
print(f"  K(vt, yp) = {sectional(vt, yp):+.4f}"
      f"   (interpolation at pi/3: {euler_interp(-4, -1, math.pi / 3):+.4f})")
print(f"  polarized tensor (14 terms): {riem_polarized(x, y, z, u):+.1f} = 6 * 2")

print("\n== curvature operator spectrum ==")
rng = np.random.default_rng(9)
w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
print(f"  eigenvalues of R(., w)w: {np.round(curvature_operator_spectrum(w), 10)}")

print("\n== the holonomy identity on random frames ==")
print(f"  max |R(x,Jx)z - 2Jz| over 64 frames: "
      f"{holonomy_check(3, trials=64, rng=rng)['identity_residual']:.3e}")

print("\n== reflection words on the unit sphere of C^2 ==")
a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
word = reflection_word(a, b)
err = np.linalg.norm(word_matrix(word) @ a - b)
print(f"  word of {len(word)} involutive reflections maps a to b, error {err:.3e}")
dets = np.linalg.det(word_matrix(word[:, None]))   # one matrix per letter
print(f"  determinants of the word letters: {np.round(dets, 10)}")
