"""Linear tangent model of CH^k: curvature tensor and unitary reflections.

The tangent space is C^k with the real inner product Re<u, v> and the
complex structure J v = i v.  The curvature tensor of the complex space
form normalized to sectional curvatures in [-4, -1] is

    R(x, y) z = -( <y,z> x - <x,z> y + <Jy,z> Jx - <Jx,z> Jy - 2 <Jx,y> Jz ),

all products real.  Holomorphic planes have curvature -4, totally real
ones -1, and on an adapted frame the tensor satisfies R(x, Jx) z = 2 Jz
for z in the complex orthogonal complement of x, the identity behind the
holonomy of the normal bundle of a complex plane.

The second half of the module works with unitary involutive reflections
of C^2 (unitary g with g^2 = 1 whose fixed set is a complex line) and
constructs short words of them carrying any unit vector to any other.
A reflection is given by its line and a word by the stack of its lines.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GeometryError, _modulus, _norm_rows

__all__ = [
    "TangentVector",
    "inner",
    "J",
    "riem",
    "riem_vec",
    "sec_k",
    "sectional",
    "euler_interp",
    "riem_polarized",
    "curvature_operator_spectrum",
    "holonomy_check",
    "adapted_frame",
    "reflection_word",
    "word_matrix",
    "rotation_reflections",
]

# Tangent vectors are complex ndarrays of shape (k,); the real dimension
# of the model is 2k.  The curvature kernel is batch-first: it acts on
# stacks of shape (..., k) along the last axis, and a single vector is
# the batch of one.  Rows are reduced by core's stacked forms (np.vecdot,
# _norm_rows, _modulus), which round as np.vdot, np.linalg.norm and abs
# do on one vector.
TangentVector = np.ndarray


def inner(u: TangentVector, v: TangentVector):
    """Real inner product Re<u, v> of the underlying metric, per row."""
    return (u * v.conj()).sum(axis=-1).real


def J(v: TangentVector) -> TangentVector:
    """The complex structure, J v = i v, with J^2 = -1 and g(Ju, Jv) = g(u, v)."""
    return 1j * v


def _col(a):
    # one real number per row, broadcast along the row
    return np.asarray(a)[..., None]


def riem_vec(x: TangentVector, y: TangentVector, z: TangentVector) -> TangentVector:
    """The curvature vector R(x, y) z of the complex space form."""
    Jx, Jy = J(x), J(y)
    return -(
        _col(inner(y, z)) * x
        - _col(inner(x, z)) * y
        + _col(inner(Jy, z)) * Jx
        - _col(inner(Jx, z)) * Jy
        - 2.0 * _col(inner(Jx, y)) * J(z)
    )


def riem(x: TangentVector, y: TangentVector, z: TangentVector,
         w: TangentVector):
    """The (4,0) curvature tensor <R(x, y) z, w>."""
    return inner(riem_vec(x, y, z), w)


def sec_k(p: TangentVector, q: TangentVector):
    """Unnormalized biquadratic form <R(p, q) q, p>.

    Equals the sectional curvature for orthonormal p, q and scales as
    |p|^2 |q|^2 on orthogonal pairs.
    """
    return riem(p, q, q, p)


def sectional(u: TangentVector, v: TangentVector):
    """Sectional curvature of the planes spanned by independent u, v.

    Raises if any plane of the batch is degenerate or not finite.
    """
    uu_vv = inner(u, u) * inner(v, v)
    uv = inner(u, v)
    denom = uu_vv - uv * uv
    if not np.all(denom > 1e-14 * np.maximum(uu_vv, 1e-300)):
        raise GeometryError("sectional curvature needs independent vectors")
    return sec_k(u, v) / denom


def euler_interp(K0: float, K_half_pi: float, alpha: float) -> float:
    """Interpolation K(alpha) = K0 cos^2(alpha) + K(pi/2) sin^2(alpha)."""
    c, s = math.cos(alpha), math.sin(alpha)
    return K0 * c * c + K_half_pi * s * s


def riem_polarized(x: TangentVector, y: TangentVector, z: TangentVector,
                   w: TangentVector):
    """The 14-term polarization of the tensor: equals 6 <R(x, y) z, w>.

    The terms are evaluated as one stack and summed left to right.
    """
    xw, yw, yz, xz = x + w, y + w, y + z, x + z
    terms = [(+1, xw, yz), (-1, yw, xz), (-1, xw, y), (-1, xw, z), (-1, x, yz),
             (-1, w, yz), (+1, yw, x), (+1, yw, z), (+1, y, xz), (+1, w, xz),
             (+1, x, z), (+1, w, y), (-1, y, z), (-1, w, x)]
    signs, p, q = zip(*terms)
    ks = sec_k(np.stack(p), np.stack(q))
    total = ks[0]
    for sign, term in zip(signs[1:], ks[1:]):
        total = total + term if sign > 0 else total - term
    return total


def _unit_rows(a, what: str):
    # each row over its norm; a zero or non-finite row has no direction
    n = _norm_rows(a)
    if not np.all((n > 0) & (n < math.inf)):
        raise GeometryError(f"{what} must be nonzero and finite")
    return a / _col(n)


def curvature_operator_spectrum(u: TangentVector) -> np.ndarray:
    """Sorted eigenvalues of v -> R(v, u) u on the real tangent model, per row.

    For unit u the operator kills u itself and acts on the orthogonal
    complement with eigenvalue -4 on Ju and -1 on the remaining 2k - 2
    directions, so the sorted spectrum is (-4, -1, ..., -1, 0).
    """
    u = _unit_rows(u, "curvature operator directions")
    # rows e_1, i e_1, ..., e_k, i e_k of the real tangent model
    eye = np.eye(u.shape[-1], dtype=complex)
    basis = np.stack([eye, 1j * eye], axis=1).reshape(-1, u.shape[-1])
    # column e of the operator, once per basis vector
    cols = np.stack([riem_vec(e, u, u) for e in basis], axis=-2)
    M = inner(cols[..., None, :, :], basis[:, None, :])   # M[..., f, e] = <R(e,u)u, f>
    return np.sort(np.linalg.eigvalsh(M), axis=-1)


def _frames(w):
    # adapted frames (x, Jx, z, Jz, v) of complex stacks w of shape (m, ..., k)
    # by one stacked Gram-Schmidt; v is None for m = 2
    x = w[0] / _col(_norm_rows(w[0]))
    z = w[1] - _col(np.vecdot(x, w[1])) * x  # complex projection kills x and Jx
    z = z / _col(_norm_rows(z))
    v = None
    if len(w) > 2:
        v = w[2] - _col(np.vecdot(x, w[2])) * x
        v = v - (_col(inner(v, z)) * z + _col(inner(v, 1j * z)) * (1j * z))
        v = v / _col(_norm_rows(v))
    return x, J(x), z, J(z), v


def _complex_draws(g):
    # real draws (..., m, 2, k) -> m contiguous complex stacks (m, ..., k)
    return np.ascontiguousarray(np.moveaxis(g[..., 0, :] + 1j * g[..., 1, :], -2, 0))


def adapted_frame(k: int, rng=None):
    """An adapted frame (x, y=Jx, z, u=Jz, v) with z complex-orthogonal to x.

    ``v`` is orthogonal to z and Jz inside the complex orthogonal
    complement of x and is None for k < 3.  Without ``rng`` the frame is
    built on the first coordinate axes.
    """
    if k < 2:
        raise GeometryError("adapted frames need complex dimension k >= 2")
    m = min(k, 3)
    return _frames(np.eye(k, dtype=complex)[:m] if rng is None
                   else _complex_draws(rng.standard_normal((m, 2, k))))


def holonomy_check(k: int, trials: int = 32, rng=None) -> dict:
    """Verify R(x, Jx) z = 2 Jz on sampled adapted frames.

    Trivial content for k < 2 (reported as vacuous); for k >= 3 the
    off-plane component against v is checked as well.
    """
    if k < 2:
        return {"k": k, "vacuous": True, "identity_residual": 0.0,
                "offplane_residual": 0.0, "trials": 0}
    rng = np.random.default_rng(0) if rng is None else rng
    g = rng.standard_normal((trials, min(k, 3), 2, k))
    x, y, z, u, v = _frames(_complex_draws(g))
    ident = _norm_rows(riem_vec(x, y, z) - 2.0 * u)
    off = 0.0 if v is None else abs(riem(x, y, z, v))
    return {"k": k, "vacuous": False, "identity_residual": float(np.max(ident, initial=0)),
            "offplane_residual": float(np.max(off, initial=0)), "trials": trials}


# ---------------------------------------------------------------------------
# Unitary involutive reflections of C^2
# ---------------------------------------------------------------------------

def _reflection_matrix(lines: np.ndarray) -> np.ndarray:
    """Matrices of the unitary involutions fixing the complex lines ``lines``, per row."""
    w = _unit_rows(lines, "reflection lines")
    return 2.0 * (w[..., :, None] * w.conj()[..., None, :]) - np.eye(2, dtype=complex)


def word_matrix(lines) -> np.ndarray:
    """Products of the words with lines (..., n, 2): I times each letter from the left."""
    R = _reflection_matrix(np.asarray(lines, dtype=complex))
    out = np.broadcast_to(np.eye(2, dtype=complex), R.shape[:-3] + (2, 2)).copy()
    for j in range(R.shape[-3]):
        out = out @ R[..., j, :, :]
    return out


def rotation_reflections(theta: float, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Lines of two reflections whose product rotates by theta in the real span of f1, f2.

    ``f1``, ``f2`` must be unitary-orthonormal with real Gram pairing; the
    product fixes the orthogonal complement of the plane only up to the
    complex structure, but acts on the plane as the rotation by theta.
    """
    f = lambda phi: math.cos(phi) * f1 + math.sin(phi) * f2
    return np.stack([f(0.5 * theta), f(0.0)], axis=-2)


def _axis_targets(u, coord: int):
    # the unit multiple a of axis ``coord`` whose pairing with u is real, per row
    c = u[..., coord]
    a = np.zeros(u.shape, dtype=complex)
    r = _modulus(c)
    a[..., coord] = np.divide(c, r, out=np.ones_like(c), where=r > 1e-13)
    return a


def _word_lines(u, v):
    # lines (..., 4, 2) of the words carrying unit rows u to v, the last
    # letter acting first; the outer letters reflect across the bisectors
    # of u and v with their axis targets, which never degenerate
    a1, a2 = _axis_targets(u, 0), _axis_targets(v, 1)
    w1, w2 = u + a1, v + a2
    rot = rotation_reflections(0.5 * math.pi, a1, a2)
    return np.stack([w2 / _col(_norm_rows(w2)), rot[..., 0, :], rot[..., 1, :],
                     w1 / _col(_norm_rows(w1))], axis=-2)


def reflection_word(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lines (n, 2) of a word of unitary involutive reflections carrying unit u to unit v.

    Empty for u = v; otherwise u is reflected onto the first coordinate
    axis, rotated onto the second inside the real plane the axes span,
    and reflected onto v.  Applying :func:`word_matrix` of the result to
    u reproduces v.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    for name, vec in (("u", u), ("v", v)):
        if not abs(_norm_rows(vec) - 1.0) <= 1e-10:
            raise GeometryError(f"{name} must be a unit vector")
    if _norm_rows(u - v) <= 1e-12:
        return np.zeros((0, 2), dtype=complex)
    return _word_lines(u, v)
